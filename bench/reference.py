"""Build the stored eigenvalue reference for the benchmark's output checker.

The reference does not use the package under test.  Each mass matrix is
assembled in mpmath from first principles:

    M_ij = c_i c_j  integral_{-1}^{1} (1-x^2)^{2 alpha} P_i(x) P_j(x) dx,

with ``P_n = P_n^{(alpha, alpha)}`` expanded in monomials by the three-term
recurrence, the integral taken term by term from the exact moments
``integral x^{2r} (1-x^2)^{2 alpha} dx = B(r + 1/2, 2 alpha + 1)``, and
``c_n`` the energy-norm normalisation of the basis.  The monomial expansion
cancels catastrophically, so the Gram matrix is formed with about
``0.7 N`` extra digits; each parity block is then diagonalised with
``mpmath.eigsy`` at 80 digits and ``lambda = 1/mu``.  Every spectrum is
computed twice, the second time with 40 more working digits, and the two
must agree to 1e-50 relative before anything is written.

Run from the repository root (takes about a minute):

    python3 bench/reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "reference.json"
STORED_DIGITS = 25
LEADING = 8
# Full spectra at these (2 alpha, N); the leading eigenvalues of every order
# come from its N = 128 spectrum.
ORDERS = ("1.2", "1.6", "1.8", "2.0", "3.6", "5.6", "8.0")
LEADING_N = 128
SPECTRA = [(o, LEADING_N) for o in ORDERS] + [
    ("1.6", 64), ("1.8", 32), ("1.8", 64), ("3.6", 32), ("3.6", 64),
]


def _jacobi_monomials(alpha, n_max):
    """Monomial coefficients of P_n^{(alpha, alpha)} for n = 0..n_max."""
    polys = [[mp.mpf(1)]]
    if n_max >= 1:
        polys.append([mp.mpf(0), alpha + 1])
    for k in range(2, n_max + 1):
        s = 2 * k + 2 * alpha
        c0 = 2 * k * (k + 2 * alpha) * (s - 2)
        c2 = (s - 1) * s * (s - 2)
        c3 = 2 * (k + alpha - 1) ** 2 * s
        new = [mp.mpf(0)] * (k + 1)
        for i, c in enumerate(polys[k - 1]):
            new[i + 1] += c2 * c
        for i, c in enumerate(polys[k - 2]):
            new[i] -= c3 * c
        polys.append([c / c0 for c in new])
    return polys


def _parity_blocks(two_alpha: str, n_max: int):
    two_alpha = mp.mpf(two_alpha)
    alpha = two_alpha / 2
    polys = _jacobi_monomials(alpha, n_max)
    moments = [mp.beta(r + mp.mpf(1) / 2, two_alpha + 1) for r in range(n_max + 1)]

    def coeff(n):
        a_norm = (2 ** (two_alpha + 1) * mp.gamma(n + alpha + 1) ** 2
                  / (mp.gamma(n + 1) ** 2 * (2 * n + two_alpha + 1)))
        return 1 / mp.sqrt(a_norm)

    blocks = []
    for parity in (0, 1):
        idx = list(range(parity, n_max + 1, 2))
        rows = [[polys[n][parity + 2 * r] for r in range((n - parity) // 2 + 1)] for n in idx]
        scale = [coeff(n) for n in idx]
        m = len(idx)
        ah = [[mp.fsum(row[r] * moments[parity + r + s] for r in range(len(row)))
               for s in range(m)] for row in rows]
        block = mp.matrix(m, m)
        for a in range(m):
            for b in range(a, m):
                v = scale[a] * scale[b] * mp.fsum(ah[a][s] * rows[b][s] for s in range(len(rows[b])))
                block[a, b] = block[b, a] = v
        blocks.append(block)
    return blocks


def spectrum(two_alpha: str, n_max: int, extra_digits: int = 0) -> list:
    """All eigenvalues of the degree-``n_max`` discrete problem, ascending."""
    with mp.workdps(80 + int(0.7 * n_max) + extra_digits):
        blocks = _parity_blocks(two_alpha, n_max)
    with mp.workdps(80 + extra_digits):
        lambdas = []
        for block in blocks:
            if block.rows:
                lambdas.extend(1 / mu for mu in mp.eigsy(block, eigvals_only=True))
    return sorted(lambdas)


def main() -> int:
    spectra = {}
    for two_alpha, n_max in SPECTRA:
        lo = spectrum(two_alpha, n_max)
        hi = spectrum(two_alpha, n_max, extra_digits=40)
        worst = max(abs(a / b - 1) for a, b in zip(lo, hi))
        if worst > mp.mpf("1e-50"):
            print(f"{two_alpha}/{n_max}: precision check failed ({mp.nstr(worst, 3)})", file=sys.stderr)
            return 1
        spectra[f"{two_alpha}/{n_max}"] = [mp.nstr(x, STORED_DIGITS, strip_zeros=False) for x in hi]
        print(f"{two_alpha}/{n_max}: {len(hi)} eigenvalues, lambda_1 = {mp.nstr(hi[0], 17)}", file=sys.stderr)
    record = {
        "about": "eigenvalues of the discrete problem from an independent mpmath assembly; "
                 "regenerate with python3 bench/reference.py",
        "leading_n": LEADING_N,
        "leading": {o: spectra[f"{o}/{LEADING_N}"][:LEADING] for o in ORDERS},
        "spectra": spectra,
    }
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
