"""Special-function layer: gamma ratios, Jacobi polynomials and the singular basis.

Everything downstream (quadrature rules, matrix entries, norms) is a ratio of
gamma functions times a polynomial value.  The norms and scales here are
assembled in the log domain so that large indices never overflow; the mass
entries (``assembly``) reduce their gamma ratios to running products of
rational factors instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FractionalOrder",
    "JacobiWeightPair",
    "jacobi_norm_sq",
    "basis_coeff",
    "a_norm_sq_gjf",
    "tail_seminorm_sq",
]

_LOG_2 = math.log(2.0)


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


@dataclass(frozen=True)
class JacobiWeightPair:
    """Exponent pair ``(a, b)`` of the weight ``(1-x)**a * (1+x)**b``.

    Both exponents must exceed -1 for the weight to be integrable.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > -1 and self.b > -1):
            raise ValueError(f"weight exponents must exceed -1, got ({self.a}, {self.b})")


def _jacobi_all(params: JacobiWeightPair, n_max: int, x: np.ndarray) -> np.ndarray:
    """All Jacobi polynomial values ``P_0 .. P_{n_max}`` at the points ``x``.

    Returns an array of shape ``(n_max + 1, len(x))``.
    """
    a, b = params.a, params.b
    out = np.empty((n_max + 1, x.size))
    out[0] = 1.0
    if n_max == 0:
        return out
    out[1] = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n_max + 1):
        s = 2.0 * k + a + b
        c0 = 2.0 * k * (k + a + b) * (s - 2.0)
        c1 = (s - 1.0) * (a * a - b * b)
        c2 = (s - 1.0) * s * (s - 2.0)
        c3 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
        out[k] = ((c1 + c2 * x) * out[k - 1] - c3 * out[k - 2]) / c0
    return out


def jacobi_norm_sq(params: JacobiWeightPair, n: int) -> float:
    """Squared weighted L2 norm of the degree-``n`` Jacobi polynomial."""
    a, b = params.a, params.b
    if n == 0:
        # gamma_0 via Gamma(a+b+2) keeps every lgamma argument positive even
        # when a + b + 1 <= 0.
        return math.exp(
            (a + b + 1.0) * _LOG_2
            + math.lgamma(a + 1.0)
            + math.lgamma(b + 1.0)
            - math.lgamma(a + b + 2.0)
        )
    return math.exp(
        (a + b + 1.0) * _LOG_2
        - math.log(2.0 * n + a + b + 1.0)
        + math.lgamma(n + a + 1.0)
        + math.lgamma(n + b + 1.0)
        - math.lgamma(n + 1.0)
        - math.lgamma(n + a + b + 1.0)
    )


def _boundary_weight(alpha: float, x: np.ndarray) -> np.ndarray:
    # (1-x^2)^alpha evaluated as exp(alpha*(log(1-x) + log(1+x))); the two
    # linear factors are kept separate to avoid cancellation in 1 - x^2 near
    # the endpoints, where the result is an exact zero.
    w = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    w[inside] = np.exp(alpha * (np.log1p(-xi) + np.log1p(xi)))
    return w


def _log_a_norm_sq(order: FractionalOrder, n: int) -> float:
    # Shared by basis_coeff and a_norm_sq_gjf: basis_coeff is exactly
    # exp(-log/2), so their product is 1 to a few ulps at any degree.
    alpha = order.alpha
    return (
        (2.0 * alpha + 1.0) * _LOG_2
        + 2.0 * (math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0))
        - math.log(2.0 * n + 2.0 * alpha + 1.0)
    )


def basis_coeff(order: FractionalOrder, n: int) -> float:
    """Normalization constant making the basis orthonormal in the operator energy norm.

    Computed in the log domain; safe up to ``n = 1e5`` and beyond.
    """
    return math.exp(-0.5 * _log_a_norm_sq(order, n))


def _image_prefactor(alpha: float, m: int) -> float:
    """``Gamma(m + 2 alpha + 1) / Gamma(m + 1)``: the degree-``m`` derivative-image factor.

    The fractional derivative of order ``2*alpha`` maps the degree-``m``
    singular basis function onto this factor times ``P_m^{alpha,alpha}``, up
    to a sign, so each energy inner product is this factor times a Jacobi
    product integral under the weight ``(1-x^2)^alpha``.
    """
    return math.exp(math.lgamma(m + 2.0 * alpha + 1.0) - math.lgamma(m + 1.0))


def a_norm_sq_gjf(order: FractionalOrder, n: int) -> float:
    """Squared energy norm of the (unnormalized) degree-``n`` basis function."""
    return math.exp(_log_a_norm_sq(order, n))


def tail_seminorm_sq(order: FractionalOrder, coeffs, start: int = 0) -> float:
    """Energy-norm tail ``sum_{i >= start} a_norm_sq_gjf(i) * coeffs[i]**2``.

    With ``start = 0`` this is the squared energy seminorm of the expansion.
    """
    total = 0.0
    for i in range(start, len(coeffs)):
        c = coeffs[i]
        if c != 0.0:
            total += a_norm_sq_gjf(order, i) * c * c
    return total
