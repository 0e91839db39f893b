import math

import numpy as np
import pytest

import riesz_eig.analysis
from riesz_eig.analysis import (
    condition_number,
    condition_slope,
    convergence_table,
    reliable_eigenvalues,
    spectrum_report,
    weyl_ratios,
)
from riesz_eig.eig import EigenSolution, solve
from riesz_eig.specfun import FractionalOrder


def make_solution(two_alpha, n_max, lambdas):
    lambdas = np.asarray(lambdas, dtype=float)
    return EigenSolution(
        order=FractionalOrder(two_alpha),
        n_max=n_max,
        lambdas=lambdas,
        parities=tuple("even" for _ in lambdas),
    )


def test_weyl_ratio_classical_first():
    sol = solve(FractionalOrder(2.0), 64)
    rho = weyl_ratios(sol)
    assert math.isclose(rho[0], 1.0, rel_tol=1e-9)


def test_weyl_ratio_classical_reliable_range():
    n_max = 128
    sol = solve(FractionalOrder(2.0), n_max)
    rho = weyl_ratios(sol)
    reliable = int(2 * n_max / math.pi)
    assert np.max(np.abs(rho[:reliable] - 1.0)) <= 1e-2


@pytest.mark.parametrize("two_alpha", [1.2, 1.6, 2.0])
def test_weyl_bracket_reliable(two_alpha):
    n_max = 128
    sol = solve(FractionalOrder(two_alpha), n_max)
    rho = weyl_ratios(sol)[: int(2 * n_max / math.pi)]
    assert np.all(rho >= 0.5 - 0.02)
    assert np.all(rho <= 1.0 + 0.05)


def test_condition_number_basic():
    assert condition_number(solve(FractionalOrder(1.6), 0)) == 1.0
    chis = [condition_number(solve(FractionalOrder(1.6), n)) for n in (16, 32, 64)]
    assert all(c >= 1.0 for c in chis)
    assert chis[0] <= chis[1] <= chis[2]


def test_condition_prefactor_stable():
    # chi_N tracks N^{4 alpha} with a prefactor constant to well within 10x
    ratios = [
        condition_number(solve(FractionalOrder(2.0), n)) / n**4 for n in (64, 128, 256)
    ]
    assert max(ratios) / min(ratios) <= 10.0


def test_condition_slope_classical():
    chis, slope = condition_slope(FractionalOrder(2.0), [32, 64, 128, 256])
    assert chis == [condition_number(solve(FractionalOrder(2.0), n)) for n in (32, 64, 128, 256)]
    assert abs(slope - 4.0) <= 0.3


def test_condition_slope_needs_three_points():
    chis, slope = condition_slope(FractionalOrder(1.6), [32, 64])
    assert len(chis) == 2 and slope is None
    with pytest.raises(ValueError, match="the degree list is empty"):
        condition_slope(FractionalOrder(1.6), [])


def test_condition_slope_rejects_degree_zero(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solved before the degree-0 refusal")

    # refused before any degree is solved
    monkeypatch.setattr(riesz_eig.analysis, "solve_sweep", refuse)
    with pytest.raises(ValueError, match="a log-log slope needs degrees >= 1, got degree 0"):
        condition_slope(FractionalOrder(1.6), [0, 4, 8])


def test_convergence_table():
    order = FractionalOrder(1.6)
    table = convergence_table(order, [8, 16, 32], 64)
    errs = [row[2] for row in table]
    assert all(e >= 0.0 for e in errs)
    assert errs[0] > errs[1] > errs[2] > 0.0
    assert [row[0] for row in table] == [8, 16, 32]


def test_convergence_table_plateau_floor():
    # beyond the plateau the reported error collapses to an exact 0
    order = FractionalOrder(1.6)
    table = convergence_table(order, [96], 200)
    assert table[0][2] == 0.0


def test_convergence_table_single_row_and_validation():
    order = FractionalOrder(1.6)
    table = convergence_table(order, [16], 32)
    assert len(table) == 1
    with pytest.raises(ValueError):
        convergence_table(order, [8, 16], 16)
    with pytest.raises(ValueError, match="the degree list is empty"):
        convergence_table(order, [], 8)


def test_reliable_eigenvalues_prefix_semantics():
    coarse = make_solution(1.6, 3, [1.0, 2.0, 3.5, 4.0])
    fine = make_solution(1.6, 7, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert reliable_eigenvalues(coarse, fine, 0.01) == 2


def test_reliable_eigenvalues_identical():
    coarse = make_solution(1.6, 3, [1.0, 2.0, 3.0, 4.0])
    fine = make_solution(1.6, 7, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert reliable_eigenvalues(coarse, fine, 1e-300) == 4


def test_reliable_eigenvalues_zero_tolerance():
    order = FractionalOrder(1.6)
    assert reliable_eigenvalues(solve(order, 16), solve(order, 32), 0.0) == 0


def test_reliable_eigenvalues_validation():
    order = FractionalOrder(1.6)
    sol = solve(order, 16)
    with pytest.raises(ValueError):
        reliable_eigenvalues(sol, solve(FractionalOrder(1.2), 32), 1e-4)
    with pytest.raises(ValueError):
        reliable_eigenvalues(sol, solve(order, 8), 1e-4)


def test_lambda_max_over_n_to_4alpha_bounded():
    # lambda_max grows like N^{4 alpha}
    order = FractionalOrder(1.2)

    def ratio(n):
        return solve(order, n).lambdas[-1] / n ** (2 * order.two_alpha)

    ratios = [ratio(n) for n in (32, 64, 128)]
    assert all(r > 0 for r in ratios)
    assert max(ratios) / min(ratios) <= 4.0
    assert 0.0 < ratio(1) < math.inf


def test_spectrum_report_fields():
    sol = solve(FractionalOrder(1.6), 64)
    report = spectrum_report(sol)
    assert report.condition_number >= 1.0
    assert sol.lambdas[0] > report.poincare_bound
    assert sol.lambdas[0] <= report.minmax_upper
    assert report.reliable_count == int(2 * 64 / math.pi)
    assert len(report.weyl_ratios) == 65


def test_spectrum_report_poincare_bound_out_of_range():
    # Gamma(173) exceeds the double range; solve() fails first, so build the solution
    sol = EigenSolution(FractionalOrder(172.0), 2, np.array([1.0, 2.0, 3.0]),
                        ("even", "odd", "even"))
    with pytest.raises(ValueError, match=r"Gamma\(2a\+1\) exceeds the double range at 2a=172"):
        spectrum_report(sol)


def test_spectrum_report_poincare_bound_edge():
    # Gamma(171) = 7.3e306 is the last integer-argument gamma below the double
    # range, and at 2a = 170 M_00 is still normal; Gamma(172) overflows
    report = spectrum_report(make_solution(170.0, 1, [1.0, 2.0]))
    assert report.poincare_bound == math.exp(math.lgamma(171.0)) < math.inf
    with pytest.raises(ValueError, match=r"^the Poincare bound Gamma\(2a\+1\) exceeds the double "
                                         r"range at 2a=171$"):
        spectrum_report(make_solution(171.0, 1, [1.0, 2.0]))


@pytest.mark.parametrize("two_alpha", [0.2, 1.0, 2.0, 3.6])
def test_bounds_small_sweep(two_alpha):
    order = FractionalOrder(two_alpha)
    lower = math.gamma(two_alpha + 1.0)
    for n in (8, 32):
        sol = solve(order, n)
        report = spectrum_report(sol)
        assert sol.lambdas[0] > lower
        assert sol.lambdas[0] <= report.minmax_upper


def test_first_eigenvalue_monotone_in_order():
    values = [solve(FractionalOrder(t), 32).lambdas[0] for t in np.arange(0.6, 2.001, 0.1)]
    assert all(b > a for a, b in zip(values, values[1:]))
