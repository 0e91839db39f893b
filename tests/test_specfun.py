import math

import numpy as np
import pytest
from scipy.special import eval_jacobi

from riesz_eig.specfun import (
    FractionalOrder,
    JacobiWeightPair,
    a_norm_sq_gjf,
    basis_coeff,
    gjf_eval,
    jacobi_eval,
    jacobi_norm_sq,
    riesz_derivative_image,
    tail_seminorm_sq,
)
from riesz_eig.quadrature import gauss_jacobi


# ---------------------------------------------------------------- order type

@pytest.mark.parametrize("two_alpha,k", [
    (0.01, 1), (0.5, 1), (0.99, 1), (1.0, 1), (1.6, 1), (2.0, 1), (2.99, 1),
    (3.0, 2), (4.2, 2), (5.0, 3), (5.6, 3),
])
def test_order_k(two_alpha, k):
    order = FractionalOrder(two_alpha)
    assert order.k == k
    assert order.sign_k == (-1) ** k
    assert order.alpha == two_alpha / 2
    if two_alpha >= 1:
        assert 2 * order.k - 1 <= two_alpha < 2 * order.k + 1


@pytest.mark.parametrize("two_alpha", [0.0, -0.5, -2.0, math.inf, math.nan])
def test_order_rejects_nonpositive(two_alpha):
    with pytest.raises(ValueError):
        FractionalOrder(two_alpha)


def test_weight_pair_rejects_out_of_range():
    with pytest.raises(ValueError):
        JacobiWeightPair(-1.0, 0.0)
    with pytest.raises(ValueError):
        JacobiWeightPair(0.0, -1.5)


# -------------------------------------------------------------- jacobi_eval

def test_jacobi_low_degrees():
    pair = JacobiWeightPair(1.0, 1.0)
    assert jacobi_eval(pair, 0, 0.3) == 1.0
    assert jacobi_eval(pair, 1, 0.5) == 1.0  # (a+1) x for a = b = 1
    assert math.isclose(jacobi_eval(pair, 2, 0.0), -0.75, rel_tol=1e-15)


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.0, 1.0), (0.8, 0.8), (2.8, 2.8), (0.3, 1.7), (-0.5, 0.25)])
def test_jacobi_matches_scipy(a, b):
    pair = JacobiWeightPair(a, b)
    x = np.linspace(-1.0, 1.0, 41)
    for n in (0, 1, 2, 3, 7, 15):
        ours = jacobi_eval(pair, n, x)
        ref = eval_jacobi(n, a, b, x)
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.65, 0.65), (0.3, 1.7)])
def test_jacobi_recurrence_residual(a, b):
    pair = JacobiWeightPair(a, b)
    x = np.linspace(-1.0, 1.0, 17)
    values = {n: jacobi_eval(pair, n, x) for n in range(12)}
    for n in range(2, 12):
        s = 2.0 * n + a + b
        c0 = 2.0 * n * (n + a + b) * (s - 2.0)
        c1 = (s - 1.0) * (a * a - b * b)
        c2 = (s - 1.0) * s * (s - 2.0)
        c3 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * s
        resid = c0 * values[n] - ((c1 + c2 * x) * values[n - 1] - c3 * values[n - 2])
        scale = np.maximum(1.0, np.abs(values[n]))
        assert np.max(np.abs(resid) / (c0 * scale)) <= 1e-12


# ------------------------------------------------------------ norms, basis

def test_jacobi_norm_sq_known():
    assert math.isclose(jacobi_norm_sq(JacobiWeightPair(1.0, 1.0), 0), 4.0 / 3.0, rel_tol=1e-14)
    assert math.isclose(jacobi_norm_sq(JacobiWeightPair(0.0, 0.0), 0), 2.0, rel_tol=1e-15)
    # Chebyshev corner a + b = -1: zeroth moment is pi
    assert math.isclose(jacobi_norm_sq(JacobiWeightPair(-0.5, -0.5), 0), math.pi, rel_tol=1e-14)


def test_jacobi_norm_sq_against_quadrature():
    pair = JacobiWeightPair(1.0, 1.0)
    rule = gauss_jacobi(pair, 4)
    values = jacobi_eval(pair, 2, rule.nodes)
    quad = rule.integrate(values * values)
    assert math.isclose(jacobi_norm_sq(pair, 2), quad, rel_tol=1e-13)


def test_gjf_basic_values():
    order = FractionalOrder(2.0)
    assert gjf_eval(order, 0, 0.0) == 1.0
    for n in (0, 1, 5):
        for order2 in (order, FractionalOrder(1.6), FractionalOrder(0.4)):
            assert gjf_eval(order2, n, 1.0) == 0.0
            assert gjf_eval(order2, n, -1.0) == 0.0


def test_gjf_compositional_identity():
    order = FractionalOrder(1.6)
    x = 0.4
    direct = (1.0 - x * x) ** 0.8 * jacobi_eval(JacobiWeightPair(0.8, 0.8), 3, x)
    assert math.isclose(gjf_eval(order, 3, x), direct, rel_tol=1e-13)


@pytest.mark.parametrize("two_alpha", [3.0, 5.6])
def test_gjf_derivative_vanishes_at_endpoints(two_alpha):
    # for ceil(alpha) >= 2 the slope estimate near +-1 tends to 0 with h,
    # at the boundary-weight rate h^(alpha - 1)
    order = FractionalOrder(two_alpha)
    for x0 in (1.0, -1.0):
        mags = []
        for h in (1e-2, 1e-4, 1e-6):
            x = x0 - math.copysign(h, x0)
            fd = (gjf_eval(order, 2, x + h / 2) - gjf_eval(order, 2, x - h / 2)) / h
            mags.append(abs(fd))
        assert mags[0] > mags[1] > mags[2]
        assert mags[2] <= 0.1 * mags[0]


def test_basis_coeff_known_value():
    order = FractionalOrder(2.0)
    assert math.isclose(basis_coeff(order, 0), math.sqrt(3.0 / 8.0), rel_tol=1e-14)


@pytest.mark.parametrize("two_alpha", [0.5, 1.0, 1.6, 2.0, 2.6, 3.6, 5.6])
def test_unit_energy_normalization(two_alpha):
    # c_n^2 * |J_n|_energy^2 = 1: the stiffness matrix is the identity
    order = FractionalOrder(two_alpha)
    for n in (0, 1, 2, 5, 20, 100, 1000, 10_000):
        prod = basis_coeff(order, n) ** 2 * a_norm_sq_gjf(order, n)
        assert math.isclose(prod, 1.0, rel_tol=1e-13)


def test_basis_coeff_no_overflow_at_large_degree():
    order = FractionalOrder(1.6)
    c = basis_coeff(order, 100_000)
    assert 0.0 < c < math.inf


# -------------------------------------------------- riesz_derivative_image

def test_derivative_image_integer_order():
    scale, pair, degree = riesz_derivative_image(FractionalOrder(2.0), 0, 0)
    assert math.isclose(scale, -2.0, rel_tol=1e-14)
    assert (pair.a, pair.b) == (1.0, 1.0)
    assert degree == 0


def test_derivative_image_fractional_order():
    scale, pair, degree = riesz_derivative_image(FractionalOrder(1.6), 0, 0)
    assert math.isclose(scale, -math.gamma(2.6), rel_tol=1e-14)
    assert math.isclose(pair.a, 0.8)
    assert degree == 0


def test_derivative_image_lowered_order():
    scale, pair, degree = riesz_derivative_image(FractionalOrder(3.0), 1, 2)
    assert math.isclose(scale, 12.0, rel_tol=1e-14)
    assert (pair.a, pair.b) == (-0.5, -0.5)
    assert degree == 4


def test_derivative_image_formal_label():
    # alpha - 2 nu <= -1 is allowed as a symbolic label only
    scale, pair, degree = riesz_derivative_image(FractionalOrder(5.6), 2, 1)
    assert math.isclose(pair.a, 2.8 - 4.0)
    assert degree == 5
    assert scale < 0  # (-1)^k with k = 3 flips the positive gamma ratio
    # but such labels are rejected by every evaluation path
    with pytest.raises(ValueError):
        gauss_jacobi(pair, 3)


def test_derivative_image_k_sign():
    # k = 3 for two_alpha = 5.6: odd, so the scale flips sign
    scale, _, _ = riesz_derivative_image(FractionalOrder(5.6), 0, 0)
    assert scale < 0


def test_derivative_image_rejects_bad_nu():
    order = FractionalOrder(1.6)  # floor(alpha) = 0
    with pytest.raises(ValueError):
        riesz_derivative_image(order, 1, 0)
    with pytest.raises(ValueError):
        riesz_derivative_image(order, -1, 0)


# ------------------------------------------------------------ energy norms

def test_a_norm_known_value():
    assert math.isclose(a_norm_sq_gjf(FractionalOrder(2.0), 0), 8.0 / 3.0, rel_tol=1e-14)


@pytest.mark.parametrize("two_alpha,n", [(1.2, 0), (1.2, 5), (2.6, 3), (1.0, 7)])
def test_a_norm_gamma_ratio_identity(two_alpha, n):
    # |J_n|^2 = Gamma(n+2a+1)/n! * gamma_n^{a,a}
    order = FractionalOrder(two_alpha)
    alpha = order.alpha
    expected = math.exp(math.lgamma(n + 2 * alpha + 1) - math.lgamma(n + 1)) * jacobi_norm_sq(
        JacobiWeightPair(alpha, alpha), n
    )
    assert math.isclose(a_norm_sq_gjf(order, n), expected, rel_tol=1e-13)


def test_a_norm_identity_spec_point():
    order = FractionalOrder(1.2)
    expected = math.gamma(5 + 1.2 + 1) / math.factorial(5) * jacobi_norm_sq(
        JacobiWeightPair(0.6, 0.6), 5
    )
    assert math.isclose(a_norm_sq_gjf(order, 5), expected, rel_tol=1e-13)


def test_tail_seminorm():
    order = FractionalOrder(2.0)
    assert math.isclose(tail_seminorm_sq(order, [1.0]), 8.0 / 3.0, rel_tol=1e-14)
    assert tail_seminorm_sq(order, [1.0, 2.0, 3.0], start=3) == 0.0
    order = FractionalOrder(1.6)
    got = tail_seminorm_sq(order, [1.0, 1.0, 0.0, 1.0], start=2)
    assert math.isclose(got, a_norm_sq_gjf(order, 3), rel_tol=1e-14)
