import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import eval_jacobi

from riesz_eig.specfun import (
    FractionalOrder,
    _basis_scales,
    _boundary_weight,
    _image_prefactors,
    _jacobi_all,
    basis_coeff,
    jacobi_norm_sq,
)
from riesz_eig.quadrature import gauss_jacobi


# ---------------------------------------------------------------- order type

@pytest.mark.parametrize("two_alpha", [0.01, 0.5, 0.99, 1.0, 1.6, 2.0, 2.99, 3.0, 4.2, 5.0, 5.6])
def test_order_alpha(two_alpha):
    order = FractionalOrder(two_alpha)
    assert order.alpha == two_alpha / 2


@pytest.mark.parametrize("two_alpha", [0.0, -0.5, -2.0, math.inf, math.nan])
def test_order_rejects_nonpositive(two_alpha):
    with pytest.raises(ValueError):
        FractionalOrder(two_alpha)


def test_weight_exponent_rejects_out_of_range():
    # gauss_jacobi checks the exponent the same way (test_quadrature)
    for s in (-1.0, -1.5, math.nan):
        with pytest.raises(ValueError, match="weight exponent"):
            jacobi_norm_sq(s, 0)


def test_weight_exponent_must_be_representable():
    with pytest.raises(ValueError, match="weight exponent must be finite, got inf"):
        jacobi_norm_sq(math.inf, 0)
    for s in (1e300, 1e14):
        with pytest.raises(ValueError, match=r"is too large: the squared norm of P_0 has no"):
            jacobi_norm_sq(s, 0)
    with pytest.raises(ValueError, match="P_4000 overflows double precision at weight exponent"):
        jacobi_norm_sq(1e10, 4000)
    # below the refusal the norm keeps the digits its log-gamma terms leave
    with mp.workdps(30):
        s = mp.mpf(10) ** 6
        exact = mp.mpf(2) ** (2 * s + 1) * mp.gamma(s + 1) ** 2 / mp.gamma(2 * s + 2)
    assert math.isclose(jacobi_norm_sq(1e6, 0), float(exact), rel_tol=1e-7)


def test_negative_degree_is_named():
    order = FractionalOrder(1.6)
    calls = [
        lambda: basis_coeff(order, -1),
        lambda: jacobi_norm_sq(0.8, -1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="degree must be nonnegative, got -"):
            call()


# ------------------------------------------------------------- _jacobi_all

def _jacobi(s, n, x):
    """Degree-``n`` row of ``_jacobi_all`` at the point or points ``x``."""
    values = _jacobi_all(s, n, np.atleast_1d(np.asarray(x, dtype=float)))[n]
    return float(values[0]) if np.ndim(x) == 0 else values


def _gjf(order, n, x):
    """The basis function ``(1-x^2)^alpha P_n^{alpha,alpha}`` from the kept pieces."""
    alpha = order.alpha
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    values = _boundary_weight(alpha, xv) * _jacobi_all(alpha, n, xv)[n]
    return float(values[0]) if np.ndim(x) == 0 else values


def _pair_id(s):
    # named as the exponent pair (a, b) of P_n^{a,b} with a = b = s
    return f"{s}-{s}"


def test_jacobi_low_degrees():
    assert _jacobi(1.0, 0, 0.3) == 1.0
    assert _jacobi(1.0, 1, 0.5) == 1.0  # (s+1) x for s = 1
    assert math.isclose(_jacobi(1.0, 2, 0.0), -0.75, rel_tol=1e-15)


@pytest.mark.parametrize("s", [0.0, 1.0, 0.8, 2.8, -0.5], ids=_pair_id)
def test_jacobi_matches_scipy(s):
    x = np.linspace(-1.0, 1.0, 41)
    for n in (0, 1, 2, 3, 7, 15):
        ours = _jacobi(s, n, x)
        ref = eval_jacobi(n, s, s, x)
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("s", [1.0, 0.65], ids=_pair_id)
def test_jacobi_recurrence_residual(s):
    x = np.linspace(-1.0, 1.0, 17)
    rows = _jacobi_all(s, 11, x)
    values = {n: rows[n] for n in range(12)}
    for n in range(2, 12):
        t = 2.0 * n + 2.0 * s
        c0 = 2.0 * n * (n + 2.0 * s) * (t - 2.0)
        c2 = (t - 1.0) * t * (t - 2.0)
        c3 = 2.0 * (n + s - 1.0) ** 2 * t
        resid = c0 * values[n] - (c2 * x * values[n - 1] - c3 * values[n - 2])
        scale = np.maximum(1.0, np.abs(values[n]))
        assert np.max(np.abs(resid) / (c0 * scale)) <= 1e-12


# ------------------------------------------------------------ norms, basis

def test_jacobi_norm_sq_known():
    assert math.isclose(jacobi_norm_sq(1.0, 0), 4.0 / 3.0, rel_tol=1e-14)
    assert math.isclose(jacobi_norm_sq(0.0, 0), 2.0, rel_tol=1e-15)
    # Chebyshev corner 2s + 1 = 0: zeroth moment is pi
    assert math.isclose(jacobi_norm_sq(-0.5, 0), math.pi, rel_tol=1e-14)


def test_jacobi_norm_sq_against_quadrature():
    nodes, weights = gauss_jacobi(1.0, 4)
    values = _jacobi_all(1.0, 2, nodes)[2]
    quad = float(np.dot(weights, values * values))
    assert math.isclose(jacobi_norm_sq(1.0, 2), quad, rel_tol=1e-13)


def test_gjf_basic_values():
    order = FractionalOrder(2.0)
    assert _gjf(order, 0, 0.0) == 1.0
    for n in (0, 1, 5):
        for order2 in (order, FractionalOrder(1.6), FractionalOrder(0.4)):
            assert _gjf(order2, n, 1.0) == 0.0
            assert _gjf(order2, n, -1.0) == 0.0


def test_gjf_compositional_identity():
    order = FractionalOrder(1.6)
    x = 0.4
    direct = (1.0 - x * x) ** 0.8 * _jacobi(0.8, 3, x)
    assert math.isclose(_gjf(order, 3, x), direct, rel_tol=1e-13)


@pytest.mark.parametrize("two_alpha", [3.0, 5.6])
def test_gjf_derivative_vanishes_at_endpoints(two_alpha):
    # for ceil(alpha) >= 2 the slope estimate near +-1 tends to 0 with h,
    # at the boundary-weight rate h^(alpha - 1)
    order = FractionalOrder(two_alpha)
    for x0 in (1.0, -1.0):
        mags = []
        for h in (1e-2, 1e-4, 1e-6):
            x = x0 - math.copysign(h, x0)
            fd = (_gjf(order, 2, x + h / 2) - _gjf(order, 2, x - h / 2)) / h
            mags.append(abs(fd))
        assert mags[0] > mags[1] > mags[2]
        assert mags[2] <= 0.1 * mags[0]


def test_basis_coeff_known_value():
    order = FractionalOrder(2.0)
    assert math.isclose(basis_coeff(order, 0), math.sqrt(3.0 / 8.0), rel_tol=1e-14)


def test_basis_coeff_no_overflow_at_large_degree():
    order = FractionalOrder(1.6)
    c = basis_coeff(order, 100_000)
    assert 0.0 < c < math.inf
    # nor loss of digits: against c_n = 2^{-(a+1/2)} sqrt(2n+2a+1) n! / Gamma(n+a+1)
    # in 40-digit mpmath, where a log-gamma difference loses eps * n log n
    with mp.workdps(40):
        for two_alpha in (0.5, 5.6):
            a = mp.mpf(two_alpha) / 2
            for n in (1000, 10_000, 100_000):
                exact = mp.power(2, -(a + mp.mpf(1) / 2)) * mp.sqrt(2 * n + 2 * a + 1) * mp.exp(
                    mp.loggamma(n + 1) - mp.loggamma(n + a + 1))
                got = basis_coeff(FractionalOrder(two_alpha), n)
                assert abs(got - exact) <= 4e-15 * exact, (two_alpha, n)


@pytest.mark.parametrize("two_alpha, n_max", [(0.37, 0), (1.6, 1), (1.6, 65), (5.6, 300)])
def test_basis_coeff_is_its_table_entry(two_alpha, n_max):
    order = FractionalOrder(two_alpha)
    table = _basis_scales(order, n_max)
    for n in range(n_max + 1):
        assert type(basis_coeff(order, n)) is float
        assert basis_coeff(order, n) == table[n]


@pytest.mark.parametrize("two_alpha", [3e300, 1e306, 1.7e308])
@pytest.mark.parametrize("n", [0, 3])
def test_basis_coeff_underflows_to_zero_at_extreme_orders(two_alpha, n):
    # the constant 2^{-(a+1/2)} / Gamma(a+1) underflows (lgamma overflows past
    # 2a of about 5e305), and no table is built whose shifts pass _SPLIT_MAX:
    # the true value 0.0, with no warning, NaN or OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = basis_coeff(FractionalOrder(two_alpha), n)
    assert type(c) is float
    assert c == 0.0


# ---------------------------------------------------- derivative image

def test_image_prefactor_known_values():
    # Gamma(m + 2 alpha + 1) / m!
    assert math.isclose(_image_prefactors(1.0, 0)[0], 2.0, rel_tol=1e-14)
    assert math.isclose(_image_prefactors(0.8, 0)[0], math.gamma(2.6), rel_tol=1e-14)
    assert math.isclose(_image_prefactors(1.5, 4)[4], math.factorial(7) / math.factorial(4), rel_tol=1e-13)


@pytest.mark.parametrize("two_alpha, m_max", [(170.0, 0), (168.0, 2)])
def test_image_prefactors_past_split_max_that_doubles_hold(two_alpha, m_max):
    # the constant exp(lgamma(2a+1)) carries about eps * lgamma(2a+1), 706 eps
    # at 2a = 170
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _image_prefactors(two_alpha / 2, m_max)
    for m, value in enumerate(table):
        expected = mp.gamma(mp.mpf(m) + two_alpha + 1) / mp.factorial(m)
        assert abs(value / expected - 1) <= 2e-13


@pytest.mark.parametrize("two_alpha, m_max, message", [
    (170.0, 10**4, "ratio (2a+1)_N/N! exceeds 1.3e+300"),  # refused before it is built
    (170.0, 1, "prefactor Gamma(N+2a+1)/N! overflows"),
    (168.0, 3, "prefactor Gamma(N+2a+1)/N! overflows"),
    (171.7, 0, "constant Gamma(2a+1) overflows"),
    (1.7e308, 2, "constant Gamma(2a+1) overflows"),
], ids=["ratio-170-10000", "product-170-1", "product-168-3", "constant-171.7-0",
        "constant-1.7e308-2"])
def test_image_prefactors_refused_by_name(two_alpha, m_max, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            _image_prefactors(two_alpha / 2, m_max)
    assert message in str(exc.value)
    assert str(exc.value).endswith(f"(N={m_max}, 2a={two_alpha:g})")


# ------------------------------------------------------------ energy norms
# basis_coeff(n) ** -2 is the squared energy norm |J_n|^2 of the unnormalized
# degree-n basis function.

def test_a_norm_known_value():
    assert math.isclose(basis_coeff(FractionalOrder(2.0), 0) ** -2, 8.0 / 3.0, rel_tol=1e-14)


@pytest.mark.parametrize("two_alpha,n", [(1.2, 0), (1.2, 5), (2.6, 3), (1.0, 7)])
def test_a_norm_gamma_ratio_identity(two_alpha, n):
    # |J_n|^2 = Gamma(n+2a+1)/n! * gamma_n^{a,a}
    order = FractionalOrder(two_alpha)
    alpha = order.alpha
    expected = _image_prefactors(alpha, n)[n] * jacobi_norm_sq(alpha, n)
    assert math.isclose(basis_coeff(order, n) ** -2, expected, rel_tol=1e-13)


def test_a_norm_identity_spec_point():
    order = FractionalOrder(1.2)
    expected = math.gamma(5 + 1.2 + 1) / math.factorial(5) * jacobi_norm_sq(0.6, 5)
    assert math.isclose(basis_coeff(order, 5) ** -2, expected, rel_tol=1e-13)
