"""Gauss-Jacobi quadrature and brute-force inner-product oracles.

The rules are built by the Golub-Welsch procedure: nodes are the eigenvalues
of the symmetric tridiagonal recurrence matrix, weights come from the first
components of its normalized eigenvectors scaled by the zeroth moment.  The
oracles below integrate raw polynomial products against the appropriate
weight and are the independent cross-check for every closed-form matrix
entry and norm; they never touch the closed-form entry formulas.  The
matrix checks take one rule and one Gram product at any degree; the
per-entry references take the smallest rule exact for their pair.  The
recurrence matrix goes to numpy's ``eigh`` as one dense array: LAPACK's
tridiagonal reduction leaves it as it is, so the nodes and weights are those
of a tridiagonal eigensolver, with O(m^3) work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import (
    FractionalOrder,
    JacobiWeightPair,
    _image_prefactor,
    _jacobi_all,
    basis_coeff,
    jacobi_norm_sq,
)

__all__ = [
    "QuadratureRule",
    "gauss_jacobi",
    "jacobi_weight_moments",
    "oracle_mass_entry",
    "oracle_mass_matrix",
    "oracle_a_inner",
    "stiffness_check",
]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """An m-node Gauss rule for a Jacobi weight: exact on degree <= 2m-1."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of integrand values sampled at the nodes."""
        return float(np.dot(self.weights, values))


def _recurrence_coefficients(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the m x m symmetric recurrence matrix."""
    k = np.arange(m, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(m)
    diag[0] = (b - a) / (a + b + 2.0)
    if m > 1:
        diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    offdiag_sq = np.empty(max(m - 1, 0))
    if m > 1:
        # k = 1 handled separately: the generic formula is 0/0 when a+b = -1.
        offdiag_sq[0] = 4.0 * (a + 1.0) * (b + 1.0) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
    if m > 2:
        kk = k[2:]
        sk = s[2:]
        offdiag_sq[1:] = (
            4.0 * kk * (kk + a) * (kk + b) * (kk + a + b)
            / (sk * sk * (sk + 1.0) * (sk - 1.0))
        )
    return diag, np.sqrt(offdiag_sq)


def gauss_jacobi(params: JacobiWeightPair, m: int) -> QuadratureRule:
    """Construct the m-node Gauss-Jacobi rule for ``(1-x)^a (1+x)^b``."""
    if m < 1:
        raise ValueError(f"rule size must be positive, got {m}")
    if not (params.a > -1 and params.b > -1):
        raise ValueError(f"weight exponents must exceed -1, got ({params.a}, {params.b})")
    a, b = float(params.a), float(params.b)
    diag, offdiag = _recurrence_coefficients(a, b, int(m))
    try:
        nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - signals a bug
        raise RuntimeError(
            f"tridiagonal eigensolve failed for weight ({a}, {b}) with {m} nodes"
        ) from exc
    weights = jacobi_norm_sq(JacobiWeightPair(a, b), 0) * vecs[0] ** 2
    if a == b:
        # Symmetric weight: enforce the exact node/weight symmetry about 0.
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
    return QuadratureRule(nodes, weights)


def jacobi_weight_moments(params: JacobiWeightPair, max_power: int) -> np.ndarray:
    """Weighted monomial moments ``integral x^p (1-x)^a (1+x)^b dx`` for p <= max_power.

    The zeroth moment is a gamma ratio; higher moments follow from the
    integration-by-parts recurrence
    ``(p + a + b + 2) I_{p+1} = p I_{p-1} + (b - a) I_p``.
    """
    a, b = params.a, params.b
    moments = np.empty(max_power + 1)
    moments[0] = jacobi_norm_sq(params, 0)
    if max_power >= 1:
        moments[1] = (b - a) * moments[0] / (a + b + 2.0)
    for p in range(1, max_power):
        moments[p + 1] = (p * moments[p - 1] + (b - a) * moments[p]) / (p + a + b + 2.0)
    return moments


def _pair_integral(order: FractionalOrder, weight_scale: float, i: int, j: int) -> float:
    """``integral (1-x^2)^s P_i P_j``, ``s = weight_scale * alpha``, by the smallest exact rule."""
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    s = weight_scale * order.alpha
    # exact for the degree i+j product: ceil((i+j)/2) + 1 nodes
    rule = gauss_jacobi(JacobiWeightPair(s, s), (i + j + 1) // 2 + 1)
    rows = _jacobi_all(JacobiWeightPair(order.alpha, order.alpha), max(i, j), rule.nodes)
    return rule.integrate(rows[i] * rows[j])


def oracle_mass_entry(order: FractionalOrder, i: int, j: int) -> float:
    """Mass-matrix entry by direct quadrature of the weighted polynomial product.

    Integrates ``c_i c_j (1-x^2)^{2 alpha} P_i P_j`` with a rule that is exact
    for the polynomial part; independent of the closed-form entry formula.
    """
    integral = _pair_integral(order, 2.0, i, j)
    return basis_coeff(order, i) * basis_coeff(order, j) * integral


def _normalized_gram(order: FractionalOrder, weight_scale: float, n_max: int) -> np.ndarray:
    """``C (R W R^T) C``: the integrals ``c_i c_j (1-x^2)^s P_i P_j``, ``i, j <= n_max``.

    ``s = weight_scale * alpha``; ``R`` holds the ``(alpha, alpha)`` Jacobi
    values at the nodes of one ``(n_max+1)``-node rule for the weight, exact
    for every product, ``W`` its weights and ``C`` the basis normalizations.
    """
    if n_max < 0:
        raise ValueError(f"basis degree must be nonnegative, got {n_max}")
    s = weight_scale * order.alpha
    rule = gauss_jacobi(JacobiWeightPair(s, s), n_max + 1)
    rows = _jacobi_all(JacobiWeightPair(order.alpha, order.alpha), n_max, rule.nodes)
    coeffs = np.array([basis_coeff(order, n) for n in range(n_max + 1)])
    return coeffs[:, None] * ((rows * rule.weights) @ rows.T) * coeffs


def oracle_mass_matrix(order: FractionalOrder, n_max: int) -> np.ndarray:
    """The full mass matrix by quadrature, as ``oracle_mass_entry`` but with one rule."""
    return _normalized_gram(order, 2.0, n_max)


def oracle_a_inner(order: FractionalOrder, m: int, n: int) -> float:
    """Energy inner product of two unnormalized basis functions by quadrature.

    Uses the derivative image of one factor, reducing the inner product to a
    gamma-ratio prefactor times a weighted Jacobi product integral.
    """
    integral = _pair_integral(order, 1.0, m, n)
    return _image_prefactor(order.alpha, m) * integral


def stiffness_check(order: FractionalOrder, n_max: int) -> float:
    """Max deviation of the quadrature-evaluated stiffness matrix from the identity.

    The stiffness matrix is the identity by construction and never stored;
    this measures ``|c_m c_n <basis_m, basis_n>_energy - delta_mn|`` over
    ``m <= n <= n_max``.  As in ``oracle_a_inner``, the derivative image of
    ``basis_m`` turns each inner product into its prefactor times the Gram
    entry under the weight ``(1-x^2)^alpha``, all from one rule.
    """
    gram = _normalized_gram(order, 1.0, n_max)
    prefactors = np.array([_image_prefactor(order.alpha, m) for m in range(n_max + 1)])
    return float(np.max(np.triu(np.abs(prefactors[:, None] * gram - np.eye(n_max + 1)))))
