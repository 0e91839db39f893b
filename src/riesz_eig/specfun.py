"""Special-function layer: gamma ratios, Jacobi polynomials and the singular basis.

Everything downstream (quadrature rules, matrix entries, norms) is a ratio of
gamma functions times a polynomial value.  The Jacobi polynomials are the
``P_n^{s,s}`` of the symmetric weight ``(1-x^2)^s``, the only family the basis
and its integrals use.  Degree-indexed gamma ratios are compensated
Pochhammer products: the basis scales, the image prefactors and the mass tables
of ``assembly`` are each a ``_pochhammer_ratios`` table times a constant of the
order alone, accurate to a few ulps at any degree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FractionalOrder",
    "jacobi_norm_sq",
    "basis_coeff",
]

_LOG_2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)
# 1.3e300: Veltkamp's split in _product_error overflows on a factor above it
_SPLIT_MAX = float(np.finfo(float).max) / 134217729.0


@dataclass(frozen=True)
class FractionalOrder:
    """Order ``2*alpha`` of the fractional operator: positive and finite."""

    two_alpha: float

    def __post_init__(self):
        if not self.two_alpha > 0:
            raise ValueError(f"order must be positive, got {self.two_alpha}")
        if not math.isfinite(self.two_alpha):
            raise ValueError(f"order must be finite, got {self.two_alpha}")

    @property
    def alpha(self) -> float:
        return 0.5 * self.two_alpha


def _two_sum(a, b):
    """``a + b`` rounded, and the exact rounding error (Knuth's TwoSum)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _product_error(a, b, p):
    """The exact error ``a*b - p`` of the rounded product ``p`` (Dekker's TwoProduct)."""

    def split(x):  # Veltkamp: two halves of at most 26 bits each, for |x| < _SPLIT_MAX
        c = 134217729.0 * x
        hi = c - (c - x)
        return hi, x - hi

    ah, al = split(a)
    bh, bl = split(b)
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _pochhammer_ratios(p, q, n_max: int) -> np.ndarray:
    """``(p)_n / (q)_n`` for ``n = 0..n_max``, a compensated running product.

    Each shift is a pair of doubles whose exact sum it is, so ``2a + 3/2`` is
    ``(2a, 1.5)``; its rounding and that of each ``k + shift`` are carried.
    Each division and each multiplication of the plain ``cumprod`` of the
    ratios ``r_k = (k + p) / (k + q)`` is measured exactly by an error-free
    transformation; the running sum of these relative errors corrects every
    product once at the end, so each comes out within a few ulps however long
    the run, as long as every factor and product stays below ``_SPLIT_MAX``.
    """
    k = np.arange(float(n_max))
    terms = []
    for shift in (p, q):
        c, c_err = _two_sum(*shift)
        s, s_err = _two_sum(k, c)
        terms += [s, s_err + c_err]
    num, num_err, den, den_err = terms
    ratio = num / den
    back = ratio * den
    residual = (num - back) - _product_error(ratio, den, back) + num_err - ratio * den_err
    rel = np.divide(residual, num, out=np.zeros_like(num), where=num != 0.0)
    prod = np.cumprod(np.concatenate(([1.0], ratio)))
    step = _product_error(prod[:-1], ratio, prod[1:])
    rel += np.divide(step, prod[1:], out=np.zeros_like(step),
                     where=np.abs(prod[1:]) >= np.finfo(float).tiny)
    return prod + prod * np.concatenate(([0.0], np.cumsum(rel)))


def _jacobi_all(s: float, n_max: int, x: np.ndarray) -> np.ndarray:
    """All Jacobi polynomial values ``P_0^{s,s} .. P_{n_max}^{s,s}`` at the points ``x``.

    Returns an array of shape ``(n_max + 1, len(x))``.
    """
    out = np.empty((n_max + 1, x.size))
    out[0] = 1.0
    if n_max == 0:
        return out
    out[1] = (s + 1.0) + (s + 1.0) * (x - 1.0)
    for k in range(2, n_max + 1):
        t = 2.0 * k + s + s
        c0 = 2.0 * k * (k + s + s) * (t - 2.0)
        c2 = (t - 1.0) * t * (t - 2.0)
        c3 = 2.0 * (k + s - 1.0) * (k + s - 1.0) * t
        out[k] = (c2 * x * out[k - 1] - c3 * out[k - 2]) / c0
    return out


def jacobi_norm_sq(s: float, n: int) -> float:
    """Squared L2 norm of ``P_n^{s,s}`` under the weight ``(1-x^2)^s``, ``s > -1``.

    Evaluated as the exponential of a sum of log-gamma terms, each rounded to
    about ``eps`` of its size, so the relative error grows like
    ``eps * x log(x)`` with ``x = n + 2s + 2``.  Raises ``ValueError`` naming
    ``s`` where that error reaches 1 and no digit is left (from about
    ``s = 6e13``), and where the norm overflows.
    """
    n = operator.index(n)
    if not s > -1:
        raise ValueError(f"weight exponent must exceed -1, got {s}")
    if not math.isfinite(s):
        raise ValueError(f"weight exponent must be finite, got {s}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    top = n + s + s + 2.0  # no log-gamma argument exceeds it; lgamma(x) < x log(x) for x > 1
    if top * math.log(top) * _EPS >= 1.0:
        raise ValueError(
            f"weight exponent {s} is too large: the squared norm of P_{n} has no "
            f"correct digit in double precision"
        )
    if n == 0:
        # gamma_0 via Gamma(2s+2) keeps every lgamma argument positive even
        # when 2s + 1 <= 0.
        log_norm = (
            (s + s + 1.0) * _LOG_2
            + math.lgamma(s + 1.0)
            + math.lgamma(s + 1.0)
            - math.lgamma(s + s + 2.0)
        )
    else:
        log_norm = (
            (s + s + 1.0) * _LOG_2
            - math.log(2.0 * n + s + s + 1.0)
            + math.lgamma(n + s + 1.0)
            + math.lgamma(n + s + 1.0)
            - math.lgamma(n + 1.0)
            - math.lgamma(n + s + s + 1.0)
        )
    try:
        return math.exp(log_norm)
    except OverflowError:
        raise ValueError(
            f"the squared norm of P_{n} overflows double precision at weight exponent {s}"
        ) from None


def _boundary_weight(alpha: float, x: np.ndarray) -> np.ndarray:
    # (1-x^2)^alpha evaluated as exp(alpha*(log(1-x) + log(1+x))); the two
    # linear factors are kept separate to avoid cancellation in 1 - x^2 near
    # the endpoints, where the result is an exact zero.
    w = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    w[inside] = np.exp(alpha * (np.log1p(-xi) + np.log1p(xi)))
    return w


def _basis_scales(order: FractionalOrder, n_max: int) -> np.ndarray:
    """``basis_coeff(order, n)`` for ``n = 0..n_max``, bit for bit.

    ``c_n = sqrt(2n + 2a + 1) (1)_n / (a+1)_n`` times ``2^{-(a+1/2)} / Gamma(a+1)``,
    a constant of the order alone, so the error does not grow with the degree.
    """
    a = order.alpha
    try:
        scale = math.exp(-(a + 0.5) * _LOG_2 - math.lgamma(a + 1.0))
    except OverflowError:  # lgamma overflows only where the scale has long underflowed
        scale = 0.0
    if scale == 0.0:  # the true, underflowed value; no table whose shifts pass _SPLIT_MAX
        return np.zeros(n_max + 1)
    h = np.sqrt(2.0 * np.arange(n_max + 1.0) + 2.0 * a + 1.0)
    return h * _pochhammer_ratios((1.0, 0.0), (a, 1.0), n_max) * scale


def basis_coeff(order: FractionalOrder, n: int) -> float:
    """Normalization constant making the basis orthonormal in the operator energy norm.

    Entry ``n`` of ``_basis_scales``, whose error does not grow with ``n``:
    against 40-digit mpmath at 2a in {0.5, 1.6, 3.6, 5.6} it was at most
    9.2e-16 over n <= 1100 and 7.2e-16 at n = 10^4 and 10^5.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    return float(_basis_scales(order, n)[n])


def _image_prefactors(alpha: float, m_max: int) -> np.ndarray:
    """``Gamma(m + 2 alpha + 1) / Gamma(m + 1)`` for ``m = 0..m_max``: the derivative-image factors.

    The fractional derivative of order ``2*alpha`` maps the degree-``m``
    singular basis function onto this factor times ``P_m^{alpha,alpha}``, up
    to a sign, so each energy inner product is this factor times a Jacobi
    product integral under the weight ``(1-x^2)^alpha``.  Built as
    ``Gamma(2 alpha + 1) (2 alpha + 1)_m / (1)_m``.  A constant or a product
    past the largest double, or a ratio table past ``_SPLIT_MAX``, is refused
    before it is formed, by a ``ValueError`` naming ``2a`` and ``N = m_max``.
    """
    s = 2.0 * alpha
    where = f"(N={m_max}, 2a={s:g})"
    try:  # lgamma overflows only where exp has long overflowed
        constant = math.exp(math.lgamma(s + 1.0))
    except OverflowError:
        raise ValueError(f"the derivative-image constant Gamma(2a+1) overflows {where}") from None
    log_ratio = math.lgamma(m_max + s + 1.0) - math.lgamma(m_max + 1.0) - math.lgamma(s + 1.0)
    if not log_ratio < math.log(_SPLIT_MAX):
        raise ValueError(f"the derivative-image ratio (2a+1)_N/N! exceeds {_SPLIT_MAX:.1e}, "
                         f"the most its compensated product holds {where}")
    ratios = _pochhammer_ratios((s, 1.0), (1.0, 0.0), m_max)
    if math.isinf(constant * float(ratios[-1])):  # the ratios rise with m
        raise ValueError(f"the derivative-image prefactor Gamma(N+2a+1)/N! overflows {where}")
    return constant * ratios
