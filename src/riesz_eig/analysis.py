"""Derived spectral quantities: asymptotic ratios, condition numbers, bounds.

This module post-processes eigensolutions into the study quantities: ratios
against the expected high-index growth law, condition numbers and their
growth exponent, reliable-eigenvalue counts against a finer reference, and
projection-error tails for synthetic coefficient sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import mass_entry
from .eig import EigenSolution, solve
from .specfun import FractionalOrder, _image_prefactor, a_norm_sq_gjf, tail_seminorm_sq

__all__ = [
    "SpectrumReport",
    "ConvergenceTable",
    "solve_sweep",
    "weyl_ratios",
    "condition_number",
    "condition_slope",
    "convergence_table",
    "reliable_eigenvalues",
    "projection_error",
    "spectrum_report",
]

# Relative error floor below which two eigenvalues are indistinguishable in
# double precision; convergence-table errors are clipped to 0 there.
PLATEAU_RTOL = 1e-13


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Summary of one eigensolution: growth ratios, condition number, bounds."""

    order: FractionalOrder
    n_max: int
    lambdas: np.ndarray
    weyl_ratios: np.ndarray
    condition_number: float
    poincare_bound: float
    minmax_upper: float
    reliable_count: int


@dataclass(frozen=True, eq=False)
class ConvergenceTable:
    """First-eigenvalue errors against a fixed fine reference degree."""

    order: FractionalOrder
    reference_n: int
    rows: tuple[tuple[int, float, float], ...]  # (N, lambda1, error)


def solve_sweep(order: FractionalOrder, n_list) -> dict[int, EigenSolution]:
    """Solve each distinct degree of ``n_list`` once, in order of first appearance."""
    return {n: solve(order, n) for n in dict.fromkeys(n_list)}


def weyl_ratios(sol: EigenSolution) -> np.ndarray:
    """Ratios of the eigenvalues to the asymptotic growth law ``(n*pi/2)^{2 alpha}``."""
    n = np.arange(1, len(sol.lambdas) + 1, dtype=float)
    return sol.lambdas / (n * math.pi / 2.0) ** sol.order.two_alpha


def condition_number(sol: EigenSolution) -> float:
    """Ratio of the extreme discrete eigenvalues (>= 1)."""
    return float(sol.lambdas[-1] / sol.lambdas[0])


def _loglog_slope(n_list, chis) -> float:
    """Least-squares slope of ``log chi`` against ``log N``."""
    if min(n_list) < 1:
        raise ValueError(f"a log-log slope needs degrees >= 1, got degree {min(n_list)}")
    return float(np.polyfit(np.log(n_list), np.log(chis), 1)[0])


def condition_slope(order: FractionalOrder, n_list) -> float:
    """Least-squares slope of log condition number against log degree."""
    n_list = list(n_list)
    if len(n_list) < 3:
        raise ValueError(f"need at least 3 degrees for a slope fit, got {len(n_list)}")
    sols = solve_sweep(order, n_list)
    return _loglog_slope(n_list, [condition_number(sols[n]) for n in n_list])


def convergence_table(order: FractionalOrder, n_list, reference_n: int) -> ConvergenceTable:
    """Errors of the first eigenvalue over ``n_list`` against the ``reference_n`` solve.

    Errors within the double-precision plateau are reported as exact 0.
    """
    n_list = list(n_list)
    if reference_n <= max(n_list):
        raise ValueError(
            f"reference degree {reference_n} must exceed every tabulated degree (max {max(n_list)})"
        )
    sols = solve_sweep(order, [*n_list, reference_n])
    lam_ref = sols[reference_n].lambdas[0]
    rows = []
    for n in n_list:
        lam = sols[n].lambdas[0]
        err = lam - lam_ref
        if abs(err) <= PLATEAU_RTOL * lam_ref:
            err = 0.0
        rows.append((int(n), float(lam), float(err)))
    return ConvergenceTable(order, int(reference_n), tuple(rows))


def reliable_eigenvalues(
    sol_coarse: EigenSolution, sol_fine: EigenSolution, rel_tol: float
) -> int:
    """Length of the leading run of coarse eigenvalues within ``rel_tol`` of the fine ones."""
    if sol_coarse.order.two_alpha != sol_fine.order.two_alpha:
        raise ValueError("solutions must share the same fractional order")
    if sol_fine.n_max <= sol_coarse.n_max:
        raise ValueError("the fine solution must use a strictly larger degree")
    count = 0
    for lam_c, lam_f in zip(sol_coarse.lambdas, sol_fine.lambdas):
        if abs(lam_c - lam_f) / lam_f <= rel_tol:
            count += 1
        else:
            break
    return count


def projection_error(order: FractionalOrder, coeffs, n_max: int) -> tuple[float, float]:
    """Truncation errors of an expansion cut at degree ``n_max``.

    Returns ``(a_error, l2_like_error)``: the energy-norm tail and the
    weighted-L2 tail (each energy term divided by the derivative-image factor
    ``Gamma(i + 2 alpha + 1) / i!``, the ratio underlying the Poincare bound).
    Both are 0 when the expansion already fits in the discrete space.
    """
    a_error = math.sqrt(tail_seminorm_sq(order, coeffs, n_max + 1))
    total = 0.0
    for i in range(n_max + 1, len(coeffs)):
        c = coeffs[i]
        if c != 0.0:
            total += a_norm_sq_gjf(order, i) / _image_prefactor(order.alpha, i) * c * c
    return a_error, math.sqrt(total)


def spectrum_report(sol: EigenSolution) -> SpectrumReport:
    """Bundle the derived quantities for one eigensolution."""
    two_alpha = sol.order.two_alpha
    try:
        poincare_bound = math.exp(math.lgamma(two_alpha + 1.0))
    except OverflowError:
        raise ValueError(
            f"the Poincare bound Gamma(2a+1) exceeds the double range at 2a={two_alpha:g}"
        ) from None
    return SpectrumReport(
        order=sol.order,
        n_max=sol.n_max,
        lambdas=sol.lambdas,
        weyl_ratios=weyl_ratios(sol),
        condition_number=condition_number(sol),
        poincare_bound=poincare_bound,
        minmax_upper=1.0 / mass_entry(sol.order, 0, 0),
        reliable_count=int(2 * sol.n_max / math.pi),
    )
