"""Derived spectral quantities: asymptotic ratios, condition numbers, bounds.

This module post-processes eigensolutions into the study quantities: ratios
against the expected high-index growth law, condition numbers and their
growth exponent, first-eigenvalue convergence rows, and reliable-eigenvalue
counts against a finer reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import mass_entry
from .eig import EigenSolution, solve
from .specfun import FractionalOrder

__all__ = [
    "SpectrumReport",
    "solve_sweep",
    "weyl_ratios",
    "condition_number",
    "condition_slope",
    "convergence_table",
    "reliable_eigenvalues",
    "spectrum_report",
]

# Relative error floor below which two eigenvalues are indistinguishable in
# double precision; convergence-table errors are clipped to 0 there.
PLATEAU_RTOL = 1e-13


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Derived quantities of one eigensolution; its eigenvalues stay on the solution."""

    weyl_ratios: np.ndarray
    condition_number: float
    poincare_bound: float
    minmax_upper: float
    reliable_count: int


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


def condition_slope(order: FractionalOrder, n_list) -> tuple[list[float], float | None]:
    """Condition numbers over ``n_list`` and the growth exponent fitted to them.

    Returns ``(chis, slope)``: ``chis[k]`` is ``chi_N`` at ``N = n_list[k]``,
    and ``slope`` is the least-squares slope of ``log chi`` against ``log N``,
    or ``None`` when ``n_list`` holds fewer than 3 degrees.  Each distinct
    degree is solved once.
    """
    n_list = list(n_list)
    if not n_list:
        raise ValueError("the degree list is empty")
    if len(n_list) >= 3 and min(n_list) < 1:  # refused before any solve
        raise ValueError(f"a log-log slope needs degrees >= 1, got degree {min(n_list)}")
    sols = solve_sweep(order, n_list)
    chis = [condition_number(sols[n]) for n in n_list]
    if len(n_list) < 3:
        return chis, None
    return chis, float(np.polyfit(np.log(n_list), np.log(chis), 1)[0])


def convergence_table(
    order: FractionalOrder, n_list, reference_n: int
) -> tuple[tuple[int, float, float], ...]:
    """Errors of the first eigenvalue over ``n_list`` against the ``reference_n`` solve.

    Returns one ``(N, lambda1, error)`` row per entry of ``n_list``, in its
    order, with ``error = lambda1 - lambda1(reference_n)``.  Errors within
    the double-precision plateau are reported as exact 0.
    """
    n_list = list(n_list)
    if not n_list:
        raise ValueError("the degree list is empty")
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
    return tuple(rows)


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
        weyl_ratios=weyl_ratios(sol),
        condition_number=condition_number(sol),
        poincare_bound=poincare_bound,
        minmax_upper=1.0 / mass_entry(sol.order, 0, 0),
        reliable_count=int(2 * sol.n_max / math.pi),
    )
