"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Two criteria check asymptotic laws of the paper as asymptotic
statements.  The condition-number exponent ``4 alpha`` is taken from a fit of
``log chi_N = s log N + c + d / N`` over degrees 32..512, which allows for the
leading ``1/N`` correction the plain log-log slope still carries there; the
local slopes must rise across the window.  The reliable-eigenvalue count is
checked as a fraction of ``2N/pi`` within a two-sided band, and that fraction
must rise with the degree.
"""

import math
import time

import numpy as np
import pytest

from riesz_eig.analysis import condition_slope, convergence_table, reliable_eigenvalues
from riesz_eig.assembly import assemble_mass, mass_entry
from riesz_eig.cli import main
from riesz_eig.eig import solve
from riesz_eig.quadrature import oracle_mass_entry, stiffness_check
from riesz_eig.specfun import FractionalOrder

# Five leading eigenvalues at N = 64 per order (10+ significant digits).
LEADING_FIVE = {
    1.2: (1.29699577674, 3.4867305364, 5.911679975, 8.534441423, 11.29243001),
    1.4: (1.48323343195, 4.45817398389, 8.1507167266, 12.424353637, 17.162347657),
    1.6: (1.7282959570964, 5.75634828003, 11.31189330097, 18.1773428791, 26.1872040516),
    1.8: (2.048734983129, 7.50311692608, 15.799894163321, 26.724243284906, 40.11423380506),
    2.0: (2.467401100272, 9.86960440108, 22.2066099024, 39.47841760435, 61.68502750680),
}

# First three eigenvalues at N = 64 for small and near-classical orders
# (4-5 significant digits).
FIRST_THREE = {
    0.01: (0.9966, 1.0087, 1.0137),
    0.1: (0.9725, 1.0921, 1.1473),
    0.2: (0.9574, 1.1965, 1.3190),
    0.5: (0.9701, 1.6015, 2.0288),
    1.0: (1.1577, 2.7547, 4.3168),
    1.5: (1.5975, 5.0597, 9.5943),
    1.8: (2.0487, 7.5031, 15.7998),
    1.9: (2.2440, 8.5957, 18.7168),
    1.99: (2.4436, 9.7331, 21.8286),
}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_leading_eigenvalue_regression():
    start = time.perf_counter()
    worst_first, worst_rest = 0.0, 0.0
    for two_alpha, expected in LEADING_FIVE.items():
        lams = solve(FractionalOrder(two_alpha), 64).lambdas[:5]
        rel = np.abs(lams - np.array(expected)) / np.array(expected)
        worst_first = max(worst_first, rel[0])
        worst_rest = max(worst_rest, rel[1:].max())
    elapsed = time.perf_counter() - start
    ok = worst_first <= 1e-9 and worst_rest <= 1e-8 and elapsed <= 1.0
    report(
        "criterion 1: five leading eigenvalues, N=64",
        ok,
        f"rel err lambda1 {worst_first:.2e} (tol 1e-9), others {worst_rest:.2e} "
        f"(tol 1e-8), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_2_small_order_regression():
    start = time.perf_counter()
    worst = 0.0
    for two_alpha, expected in FIRST_THREE.items():
        lams = solve(FractionalOrder(two_alpha), 64).lambdas[:3]
        rel = np.abs(lams - np.array(expected)) / np.array(expected)
        worst = max(worst, rel.max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed <= 2.0
    report(
        "criterion 2: first three eigenvalues across orders, N=64",
        ok,
        f"max rel err {worst:.2e} (tol 1e-3), {elapsed:.2f}s (budget 2s)",
    )


def test_criterion_3_classical_limit():
    start = time.perf_counter()
    n_max = 256
    lams = solve(FractionalOrder(2.0), n_max).lambdas
    n = np.arange(1, len(lams) + 1, dtype=float)
    exact = (n * math.pi / 2.0) ** 2
    reliable = int(2 * n_max / math.pi)
    rel = np.abs(lams - exact) / exact
    elapsed = time.perf_counter() - start
    ok = rel[:reliable].max() <= 1e-2 and rel[0] <= 1e-12 and elapsed <= 5.0
    report(
        "criterion 3: classical limit 2a=2, N=256",
        ok,
        f"lambda1 rel err {rel[0]:.2e} (tol 1e-12), max over n<={reliable} "
        f"{rel[:reliable].max():.2e} (tol 1e-2), {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    alphas = (0.25, 0.5, 0.65, 1.0, 1.3, 1.8, 2.8)
    worst_frac = 0.0
    for alpha in alphas:
        order = FractionalOrder(2 * alpha)
        mass = assemble_mass(order, 48)
        scale = np.max(np.abs(mass.entries))
        dev = max(
            abs(mass.entries[i, j] - oracle_mass_entry(order, i, j))
            for i in range(49)
            for j in range(i, 49)
        )
        worst_frac = max(worst_frac, dev / scale)
    worst_stiff = max(stiffness_check(FractionalOrder(2 * a), 32) for a in alphas)
    elapsed = time.perf_counter() - start
    ok = worst_frac <= 1e-12 and worst_stiff <= 1e-10 and elapsed <= 30.0
    report(
        "criterion 4: closed form vs quadrature oracle, N=48",
        ok,
        f"mass dev/max-entry {worst_frac:.2e} (tol 1e-12), stiffness dev "
        f"{worst_stiff:.2e} (tol 1e-10), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_5_bound_suite():
    start = time.perf_counter()
    orders = (0.2, 0.5, 1.0, 1.6, 2.0, 3.6, 5.6)
    degrees = (8, 16, 32, 64, 128, 256)
    bounds_ok, monotone_ok = True, True
    for two_alpha in orders:
        order = FractionalOrder(two_alpha)
        lower = math.gamma(two_alpha + 1.0)
        upper = 1.0 / mass_entry(order, 0, 0)
        previous = None
        for n_max in degrees:
            lams = solve(order, n_max).lambdas
            if not (lams[0] > lower and lams[0] <= upper):
                bounds_ok = False
            if previous is not None and not np.all(
                lams[: len(previous)] <= previous * (1.0 + 1e-10)
            ):
                monotone_ok = False
            previous = lams
    elapsed = time.perf_counter() - start
    ok = bounds_ok and monotone_ok and elapsed <= 60.0
    report(
        "criterion 5: eigenvalue bounds and min-max monotonicity",
        ok,
        f"bounds {'ok' if bounds_ok else 'VIOLATED'}, monotonicity "
        f"{'ok' if monotone_ok else 'VIOLATED'}, {elapsed:.1f}s (budget 60s)",
    )


def corrected_exponent(degrees, chis) -> float:
    """Exponent ``s`` of the least-squares fit ``log chi = s log N + c + d / N``."""
    n = np.asarray(degrees, dtype=float)
    design = np.column_stack([np.log(n), np.ones_like(n), 1.0 / n])
    return float(np.linalg.lstsq(design, np.log(chis), rcond=None)[0][0])


@pytest.mark.parametrize("two_alpha", [1.2, 1.8, 3.6])
def test_criterion_6_condition_number_slope(two_alpha):
    start = time.perf_counter()
    order = FractionalOrder(two_alpha)
    degrees = [32, 64, 128, 256, 512]
    chis, plain = condition_slope(order, degrees)
    exponent = corrected_exponent(degrees, chis)
    local = np.diff(np.log(chis)) / np.diff(np.log(degrees))
    rising = bool(np.all(np.diff(local) > 0.0))
    elapsed = time.perf_counter() - start
    target = 2.0 * two_alpha
    ok = abs(exponent - target) <= 0.3 and rising and elapsed <= 120.0
    report(
        f"criterion 6: condition-number slope, 2a={two_alpha}",
        ok,
        f"1/N-corrected exponent {exponent:.4f} vs {target} +- 0.3, local slopes "
        f"{['%.3f' % s for s in local]} rising {rising}, plain slope {plain:.4f}, "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_criterion_7_reliability_fraction():
    start = time.perf_counter()
    order = FractionalOrder(1.6)
    sols = {n: solve(order, n) for n in (128, 256, 512, 1024)}
    counts = {n: reliable_eigenvalues(sols[n], sols[2 * n], 1.2e-4) for n in (128, 256, 512)}
    ratios = [counts[n] / (2 * n / math.pi) for n in (128, 256, 512)]
    rising = all(prev < cur for prev, cur in zip(ratios, ratios[1:]))
    elapsed = time.perf_counter() - start
    ok = 0.98 <= ratios[-1] <= 1.02 and rising and elapsed <= 300.0
    report(
        "criterion 7: reliable fraction 2a=1.6, N=512 vs 1024",
        ok,
        f"reliable count {counts[512]}, fraction of 2N/pi {ratios[-1]:.4f} in "
        f"[0.98, 1.02], fractions at N=128,256,512 {['%.4f' % r for r in ratios]} "
        f"rising {rising}, {elapsed:.1f}s (budget 300s)",
    )


@pytest.mark.parametrize("two_alpha", [1.2, 1.6, 1.9])
def test_criterion_7_count_matches_the_operator(two_alpha):
    # Kwasnicki's two-term law (n pi/2 - (2-2a) pi/8)^{2a} for the operator's
    # own eigenvalues, 0 < 2a < 2; its gap to the spectrum falls like
    # n^-(2+2a), far below the tolerance from n = 50 on
    tol = 1.2e-4
    sols = {n: solve(FractionalOrder(two_alpha), n) for n in (256, 512, 1024, 2048)}
    counts = {}
    for n_max in (256, 512, 1024):
        lambdas = sols[n_max].lambdas
        n = np.arange(1, lambdas.size + 1)
        law = (n * math.pi / 2 - (2 - two_alpha) * math.pi / 8) ** two_alpha
        off = np.abs(lambdas / law - 1.0)[49:] > tol
        assert off.any()
        self_count = reliable_eigenvalues(sols[n_max], sols[2 * n_max], tol)
        counts[n_max] = (49 + int(np.argmax(off)), self_count)
    ok = all(law_count == self_count for law_count, self_count in counts.values())
    report(
        f"criterion 7 against the operator, 2a={two_alpha}",
        ok,
        f"(count within {tol} of the two-term law from n = 50, count against 2N) "
        f"at N=256,512,1024: {list(counts.values())}",
    )


@pytest.mark.parametrize("two_alpha", [1.3, 1.6])
def test_criterion_8_convergence_monotone(two_alpha):
    order = FractionalOrder(two_alpha)
    table = convergence_table(order, [8, 16, 32, 64, 128], 200)
    lam_ref = solve(order, 200).lambdas[0]
    errs = [row[2] for row in table]
    nonneg = all(e >= 0.0 for e in errs)
    plateau = 1e-12 * lam_ref
    decreasing = True
    for prev, cur in zip(errs, errs[1:]):
        if prev > plateau and not cur < prev:
            decreasing = False
    ok = nonneg and decreasing
    report(
        f"criterion 8: convergence monotone to plateau, 2a={two_alpha}",
        ok,
        f"errors {['%.3e' % e for e in errs]}, nonnegative {nonneg}, "
        f"strictly decreasing above plateau {decreasing}",
    )


def test_criterion_9_structural_invariants(tmp_path):
    order = FractionalOrder(1.3)
    mass = assemble_mass(order, 33)
    idx = np.arange(34)
    parity_exact = bool(np.all(mass.entries[(idx[:, None] + idx[None, :]) % 2 == 1] == 0.0))

    banded_exact = True
    for two_alpha in (2.0, 4.0):
        m2 = assemble_mass(FractionalOrder(two_alpha), 24)
        band = int(two_alpha) + 2
        for i in range(25):
            for j in range(25):
                if abs(i - j) >= band and m2.entries[i, j] != 0.0:
                    banded_exact = False

    sol = solve(FractionalOrder(1.6), 48)
    m3 = assemble_mass(FractionalOrder(1.6), 48).entries
    norm_dev = max(abs(vec @ m3 @ vec - 1.0) for vec in sol.vectors)

    pairs = []
    for name, args in (
        ("eig", ["eig", "--two-alpha", "1.6", "--n", "48", "--vectors"]),
        ("weyl", ["weyl", "--two-alpha", "1.2", "--n", "32"]),
    ):
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        pairs.append(a.read_bytes() == b.read_bytes())
    deterministic = all(pairs)

    ok = parity_exact and banded_exact and norm_dev <= 1e-12 and deterministic
    report(
        "criterion 9: structural invariants and deterministic output",
        ok,
        f"parity zeros exact {parity_exact}, integer-order band exact {banded_exact}, "
        f"max |u'Mu - 1| {norm_dev:.2e} (tol 1e-12), byte-identical reruns {deterministic}",
    )
