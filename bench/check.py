"""Output checker: every operation's result is checked before it counts.

An operation fails when it raises, exits non-zero or times out; when its
output does not parse, has the wrong shape or header, or holds a non-finite
number; when its eigenvalues are not positive and ascending; or when it
breaks one of the checks against independent values:

* ``Gamma(2 alpha + 1) <= lambda_1 <= 1 / M_00``, with ``M_00`` from the
  quadrature oracle (``riesz_eig.quadrature.oracle_mass_entry``), not the
  closed form;
* the leading eigenvalues against ``reference.json`` (built in mpmath by
  ``reference.py``, without the package), and every eigenvalue where the
  reference holds the full spectrum at the same degree;
* sampled mass entries against the oracle.

``Checker.check`` returns the list of problems found; an empty list passes.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Relative slack on the two eigenvalue bounds (rounding only).
BOUND_RTOL = 1e-12
# Leading eigenvalues against the N = 128 reference.  At N >= 64 the first
# eight have converged to 1e-10 or better for every order used here.
LEADING_RTOL = 1e-9
LEADING_MIN_N = 64
# Every eigenvalue against a full reference spectrum at the same degree.
SPECTRUM_RTOL = 1e-6
# Identities the program's own outputs must satisfy (rounding only).
IDENTITY_RTOL = 1e-12
SLOPE_RTOL = 1e-9
# Sampled mass entries against the oracle, and the deviation --verify-oracle
# may report: both in units of the largest entry, M_00.
ORACLE_TOL = 1e-12
# Trapezoid estimate of an eigenfunction's L2 norm (exactly 1 in theory).
NORM_TOL = 1e-6
ORACLE_SAMPLES = 2


def _order_key(two_alpha: float) -> str:
    return f"{two_alpha:.1f}"


def _rel(a, b) -> np.ndarray:
    return np.abs(np.asarray(a, float) / np.asarray(b, float) - 1.0)


class Checker:
    """Checks operation results against the program's invariants and the reference."""

    def __init__(self, seed: int, reference: Path = REFERENCE):
        data = json.loads(reference.read_text())
        self.leading = {k: np.array(v, float) for k, v in data["leading"].items()}
        self.spectra = {k: np.array(v, float) for k, v in data["spectra"].items()}
        self._rng = random.Random(f"{seed}:mass")
        self._oracle = {}

    def oracle(self, two_alpha: float, i: int, j: int) -> float:
        key = (two_alpha, i, j)
        if key not in self._oracle:
            from riesz_eig import FractionalOrder
            from riesz_eig.quadrature import oracle_mass_entry

            self._oracle[key] = oracle_mass_entry(FractionalOrder(two_alpha), i, j)
        return self._oracle[key]

    # -- eigenvalues -------------------------------------------------------

    def lambdas(self, two_alpha: float, n: int, lam) -> list[str]:
        lam = np.asarray(lam, float)
        if lam.shape != (n + 1,):
            return [f"{lam.size} eigenvalues, expected {n + 1}"]
        if not np.all(np.isfinite(lam)):
            return ["non-finite eigenvalue"]
        if lam[0] <= 0.0:
            return [f"nonpositive eigenvalue {float(lam[0])!r}"]
        if np.any(np.diff(lam) < 0.0):
            return [f"eigenvalues not ascending at position {int(np.argmax(np.diff(lam) < 0)) + 2}"]
        problems = []
        lower = math.gamma(two_alpha + 1.0)
        upper = 1.0 / self.oracle(two_alpha, 0, 0)
        if not lower * (1 - BOUND_RTOL) <= lam[0] <= upper * (1 + BOUND_RTOL):
            problems.append(f"lambda_1 = {float(lam[0])!r} outside [{lower!r}, {upper!r}]")
        key = _order_key(two_alpha)
        if key not in self.leading:
            return problems + [f"no reference for 2a = {key}"]
        if n >= LEADING_MIN_N:
            ref = self.leading[key][: n + 1]
            bad = np.nonzero(_rel(lam[: ref.size], ref) > LEADING_RTOL)[0]
            if bad.size:
                i = int(bad[0])
                problems.append(f"lambda_{i + 1} = {float(lam[i])!r} vs reference {float(ref[i])!r}")
        full = self.spectra.get(f"{key}/{n}")
        if full is not None:
            rel = _rel(lam, full)
            if rel.max() > SPECTRUM_RTOL:
                i = int(np.argmax(rel))
                problems.append(f"lambda_{i + 1} = {float(lam[i])!r} off the reference "
                                f"{float(full[i])!r} by {rel[i]:.2e} relative")
        return problems

    # -- dispatch ----------------------------------------------------------

    def check(self, op, result) -> list[str]:
        """Problems with ``result`` (a ``run.Result``) of operation ``op``."""
        if result.timed_out:
            return ["timed out"]
        if op.kind == "solve":
            return self._solve(op, result.reply)
        if result.code != 0:
            tail = result.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return [f"exit status {result.code}: {' '.join(tail)}"]
        try:
            text = result.stdout.decode()
            return getattr(self, "_" + op.kind)(op, text, result.stderr.decode())
        except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
            return [f"output does not parse: {type(exc).__name__}: {exc}"]

    def _solve(self, op, reply) -> list[str]:
        if reply.get("error"):
            return [reply["error"]]
        lam = np.asarray(reply["lambdas"], float)
        problems = self.lambdas(op.two_alpha, op.n, lam)
        if problems:
            return problems
        return self._report(op, lam, reply) + self._weyl_values(op, lam, reply["weyl_ratios"])

    def _report(self, op, lam, fields) -> list[str]:
        expected = {
            "condition_number": lam[-1] / lam[0],
            "poincare_bound": math.gamma(op.two_alpha + 1.0),
            "minmax_upper": 1.0 / self.oracle(op.two_alpha, 0, 0),
        }
        return [f"{k} = {float(fields[k])!r}, expected {float(v)!r}" for k, v in expected.items()
                if not _rel(fields[k], v) <= (ORACLE_TOL if k == "minmax_upper" else IDENTITY_RTOL)]

    def _weyl_values(self, op, lam, ratios) -> list[str]:
        ratios = np.asarray(ratios, float)
        n = np.arange(1, lam.size + 1, dtype=float)
        expected = lam / (n * math.pi / 2.0) ** op.two_alpha
        if ratios.shape != lam.shape or not np.all(_rel(ratios, expected) <= IDENTITY_RTOL):
            return ["weyl ratios do not match the eigenvalues"]
        return []

    # -- CLI outputs ---------------------------------------------------------

    @staticmethod
    def _table(text: str, header: list[str], n_rows: int, trailer: bool = False):
        if not text.endswith("\n"):
            raise ValueError("output does not end with a newline")
        lines = text[:-1].split("\n")
        if lines[0] != ",".join(header):
            raise ValueError(f"header {lines[0][:80]!r}, expected {','.join(header)[:80]!r}")
        tail = lines.pop() if trailer else None
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != n_rows:
            raise ValueError(f"{len(rows)} rows, expected {n_rows}")
        if any(len(row) != len(header) for row in rows):
            raise ValueError("a row has the wrong number of fields")
        return rows, tail

    @staticmethod
    def _floats(rows, start: int = 0) -> np.ndarray:
        values = np.array([row[start:] for row in rows], dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite number in output")
        return values

    def _vectors(self, op, vectors: np.ndarray) -> list[str]:
        n = op.n
        if vectors.shape != (n + 1, n + 1):
            return [f"vectors have shape {vectors.shape}, expected {(n + 1, n + 1)}"]
        even = vectors[:, 1::2] == 0.0
        odd = vectors[:, 0::2] == 0.0
        is_even = np.all(even, axis=1)
        if not np.all(is_even | np.all(odd, axis=1)) or int(is_even.sum()) != n // 2 + 1:
            return ["a vector mixes parities or the parity counts are wrong"]
        peak = vectors[np.arange(n + 1), np.argmax(np.abs(vectors), axis=1)]
        if np.any(peak <= 0.0):
            return ["a vector's largest coefficient is not positive"]
        return []

    def _eig(self, op, text: str, stderr: str) -> list[str]:
        if op.fmt == "json":
            data = json.loads(text)
            keys = {"schema", "two_alpha", "N", "lambdas", "condition_number",
                    "poincare_bound", "minmax_upper"} | ({"vectors"} if op.vectors else set())
            if set(data) != keys or data["schema"] != "riesz-eig/1":
                return [f"json fields {sorted(data)}"]
            if data["two_alpha"] != op.two_alpha or data["N"] != op.n:
                return ["json two_alpha or N does not echo the request"]
            fields = {k: float(data[k]) for k in ("condition_number", "poincare_bound", "minmax_upper")}
            if not all(map(math.isfinite, fields.values())):
                return ["non-finite number in output"]
            lam = np.array(data["lambdas"], dtype=float)
            problems = self.lambdas(op.two_alpha, op.n, lam)
            if not problems:
                problems = self._report(op, lam, fields)
            if op.vectors and not problems:
                vectors = np.array(data["vectors"], dtype=float)
                if vectors.ndim != 2 or not np.all(np.isfinite(vectors)):
                    return ["vectors are not a finite matrix"]
                problems = self._vectors(op, vectors)
            return problems
        header = ["n", "lambda"] + ([f"c{j}" for j in range(op.n + 1)] if op.vectors else [])
        rows, _ = self._table(text, header, op.n + 1)
        if [row[0] for row in rows] != [str(i) for i in range(1, op.n + 2)]:
            return ["the n column is not 1..N+1"]
        values = self._floats(rows, 1)
        problems = self.lambdas(op.two_alpha, op.n, values[:, 0])
        if op.vectors and not problems:
            problems = self._vectors(op, values[:, 1:])
        return problems

    def _weyl(self, op, text: str, stderr: str) -> list[str]:
        rows, _ = self._table(text, ["n", "lambda_n", "weyl_ratio", "reliable_flag"], op.n + 1)
        if [row[0] for row in rows] != [str(i) for i in range(1, op.n + 2)]:
            return ["the n column is not 1..N+1"]
        values = self._floats([row[1:3] for row in rows])
        problems = self.lambdas(op.two_alpha, op.n, values[:, 0])
        if problems:
            return problems
        problems = self._weyl_values(op, values[:, 0], values[:, 1])
        reliable = int(2 * op.n / math.pi)
        flags = ["true" if i <= reliable else "false" for i in range(1, op.n + 2)]
        if [row[3] for row in rows] != flags:
            problems.append(f"reliable_flag is not n <= {reliable}")
        return problems

    def _condition(self, op, text: str, stderr: str) -> list[str]:
        trailer = len(op.n_list) >= 3
        rows, tail = self._table(text, ["N", "chi_N"], len(op.n_list), trailer)
        if [row[0] for row in rows] != [str(n) for n in op.n_list]:
            return ["the N column does not echo --n-list"]
        chi = self._floats(rows, 1)[:, 0]
        if np.any(chi < 1.0) or np.any(np.diff(chi) <= 0.0):
            return ["condition numbers are not >= 1 and increasing"]
        problems = []
        for n, c in zip(op.n_list, chi):
            full = self.spectra.get(f"{_order_key(op.two_alpha)}/{n}")
            if full is not None and _rel(c, full[-1] / full[0]) > SPECTRUM_RTOL:
                problems.append(f"chi_{n} = {float(c)!r} vs reference {float(full[-1] / full[0])!r}")
        if trailer:
            if not tail.startswith("# "):
                return problems + ["missing slope trailer"]
            fit = json.loads(tail[2:])
            slope = float(np.polyfit(np.log(op.n_list), np.log(chi), 1)[0])
            if (fit.get("schema") != "riesz-eig/1" or fit.get("two_alpha") != op.two_alpha
                    or not _rel(fit.get("slope"), slope) <= SLOPE_RTOL):
                problems.append(f"slope trailer {tail!r}, fitted slope {slope!r}")
        return problems

    def _convergence(self, op, text: str, stderr: str) -> list[str]:
        rows, _ = self._table(text, ["N", "lambda1", "error"], len(op.n_list))
        if [row[0] for row in rows] != [str(n) for n in op.n_list]:
            return ["the N column does not echo --n-list"]
        values = self._floats(rows, 1)
        lam1, err = values[:, 0], values[:, 1]
        if np.any(lam1 <= 0.0) or np.any(np.diff(lam1) > 0.0):
            return ["lambda1 is not positive and nonincreasing in N"]
        if np.any(err < 0.0) or np.any(np.diff(err) > 0.0):
            return ["errors are not nonnegative and nonincreasing in N"]
        problems = []
        lower = math.gamma(op.two_alpha + 1.0)
        upper = 1.0 / self.oracle(op.two_alpha, 0, 0)
        if not (lower * (1 - BOUND_RTOL) <= lam1[-1] and lam1[0] <= upper * (1 + BOUND_RTOL)):
            problems.append(f"lambda1 outside [{lower!r}, {upper!r}]")
        ref = self.leading[_order_key(op.two_alpha)][0]
        converged = np.array(op.n_list) >= LEADING_MIN_N
        if np.any(_rel(lam1[converged], ref) > LEADING_RTOL):
            problems.append(f"lambda1 = {lam1[converged].tolist()} vs reference {float(ref)!r}")
        # lambda1 - error is the reference degree's lambda_1 on every row
        implied = lam1 - err
        if np.any(_rel(implied, ref) > LEADING_RTOL):
            problems.append(f"lambda1 - error = {implied.tolist()} vs reference {float(ref)!r}")
        return problems

    def _eigfun(self, op, text: str, stderr: str) -> list[str]:
        header = ["x"] + [f"u_{i}" for i in op.indices]
        rows, _ = self._table(text, header, op.samples)
        values = self._floats(rows)
        x, u = values[:, 0], values[:, 1:]
        if not np.array_equal(x, np.linspace(-1.0, 1.0, op.samples)):
            return ["x is not the uniform grid on [-1, 1]"]
        if np.any(u[[0, -1]] != 0.0):
            return ["eigenfunction is not exactly 0 at x = +-1"]
        problems = []
        norms = np.sqrt(np.trapezoid(u * u, x, axis=0))
        for index, norm in zip(op.indices, norms):
            if abs(norm - 1.0) > NORM_TOL:
                problems.append(f"u_{index} has L2 norm {float(norm)!r}, expected 1")
        mirror = u[::-1]
        scale = np.max(np.abs(u), axis=0)
        even = np.max(np.abs(u - mirror), axis=0) <= 1e-9 * scale
        odd = np.max(np.abs(u + mirror), axis=0) <= 1e-9 * scale
        if not np.all(even | odd):
            problems.append("an eigenfunction is neither even nor odd")
        return problems

    def _mass(self, op, text: str, stderr: str) -> list[str]:
        n = op.n
        rows, _ = self._table(text, [f"j{j}" for j in range(n + 1)], n + 1)
        m = self._floats(rows)
        if not np.array_equal(m, m.T):
            return ["mass matrix is not exactly symmetric"]
        odd = (np.add.outer(np.arange(n + 1), np.arange(n + 1)) % 2) == 1
        if np.any(m[odd] != 0.0) or np.any(np.diag(m) <= 0.0):
            return ["odd index-sum entries are not exact zeros, or a diagonal entry is not positive"]
        m00 = self.oracle(op.two_alpha, 0, 0)
        pairs = [(0, 0)]
        while len(pairs) < 1 + ORACLE_SAMPLES:
            i, j = sorted((self._rng.randrange(n + 1), self._rng.randrange(n + 1)))
            if (i + j) % 2 == 0:
                pairs.append((i, j))
        problems = []
        for i, j in pairs:
            if abs(m[i, j] - self.oracle(op.two_alpha, i, j)) > ORACLE_TOL * m00:
                problems.append(f"M[{i},{j}] = {float(m[i, j])!r}, oracle {self.oracle(op.two_alpha, i, j)!r}")
        if op.verify_oracle:
            lines = [ln for ln in stderr.splitlines() if ln.startswith("max_oracle_deviation = ")]
            if len(lines) != 1:
                return problems + ["no max_oracle_deviation line on stderr"]
            dev = float(lines[0].split("=", 1)[1])
            if not 0.0 <= dev <= ORACLE_TOL * m00:
                problems.append(f"max_oracle_deviation {dev!r} exceeds {ORACLE_TOL * m00!r}")
        return problems
