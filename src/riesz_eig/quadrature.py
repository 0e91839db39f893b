"""Gauss-Jacobi quadrature for ``(1-x^2)^s`` and brute-force inner-product oracles.

Every integral the package takes is against a symmetric weight
``(1-x^2)^s`` (``s = alpha`` or ``2 alpha``), so the rules serve that family
only.  They are built by the Golub-Welsch procedure: nodes are the
eigenvalues of the symmetric tridiagonal recurrence matrix, whose diagonal is
0 for a symmetric weight, and weights come from the first components of its
normalized eigenvectors scaled by the zeroth moment.  The oracles below
integrate raw polynomial products against the weight and are the independent
cross-check for every closed-form matrix entry and norm; they never touch the
closed-form entry formulas.  The matrix checks take one rule at any degree
and one Gram product per parity block, none between the blocks; the
per-entry mass reference takes the smallest rule exact for its pair.  A rule
is the pair of arrays ``(nodes, weights)``, and a weighted integral is
``np.dot(weights, values)``.  The recurrence matrix goes to ``eig._stevd``:
LAPACK's tridiagonal divide and conquer ``stevd`` in numpy's own OpenBLAS,
bound by the lookup that binds the solve's drivers.  Where that lookup finds
no ``stevd``, ``eig._stevd`` itself sends the matrix to numpy's ``eigh`` as
one dense array, with O(m^3) work: LAPACK's tridiagonal reduction leaves it
as it is, so both give the same nodes and weights, bit for bit.
That eigensolve and the Gram products run on numpy's OpenBLAS pinned to one
thread, as the solve's drivers do, so the cross-checks give the same bits
under any BLAS thread setting.
"""

from __future__ import annotations

import operator

import numpy as np

from .eig import _one_blas_thread, _stevd
from .specfun import FractionalOrder, _basis_scales, _image_prefactors, _jacobi_all, jacobi_norm_sq

__all__ = [
    "gauss_jacobi",
    "oracle_mass_entry",
    "oracle_mass_matrix",
    "stiffness_check",
]


def _recurrence_offdiagonal(s: float, m: int) -> np.ndarray:
    """Off-diagonal of the m x m recurrence matrix of ``(1-x^2)^s``; its diagonal is 0."""
    offdiag_sq = np.empty(max(m - 1, 0))
    if m > 1:
        # k = 1 handled separately: the generic formula is 0/0 when s = -1/2.
        offdiag_sq[0] = 4.0 * (s + 1.0) * (s + 1.0) / ((s + s + 2.0) ** 2 * (s + s + 3.0))
    if m > 2:
        kk = np.arange(2, m, dtype=float)
        sk = 2.0 * kk + s + s
        offdiag_sq[1:] = (
            4.0 * kk * (kk + s) * (kk + s) * (kk + s + s)
            / (sk * sk * (sk + 1.0) * (sk - 1.0))
        )
    return np.sqrt(offdiag_sq)


def gauss_jacobi(s: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-node Gauss-Jacobi rule for the weight ``(1-x^2)^s``, ``s > -1``.

    Returns ``(nodes, weights)``, ascending nodes and their positive weights;
    the rule is exact on polynomials of degree <= 2m-1.

    Raises ``ValueError`` for an exponent that ``jacobi_norm_sq`` refuses:
    infinite, or too large for its log-gamma terms to keep a digit.  A failed
    eigensolve raises ``RuntimeError`` followed by the driver's message.
    """
    m = operator.index(m)
    if m < 1:
        raise ValueError(f"rule size must be positive, got {m}")
    # first: it names every exponent the recurrence below cannot take
    scale = jacobi_norm_sq(s, 0)
    offdiag = _recurrence_offdiagonal(s, m)
    try:
        with _one_blas_thread():
            nodes, vecs = _stevd(offdiag)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"tridiagonal eigensolve failed for weight exponent {s} with {m} nodes: {exc}"
        ) from exc
    weights = scale * vecs[0] ** 2
    # enforce the exact node/weight symmetry about 0
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights


def oracle_mass_entry(order: FractionalOrder, i: int, j: int) -> float:
    """Mass-matrix entry by direct quadrature of the weighted polynomial product.

    Integrates ``c_i c_j (1-x^2)^{2 alpha} P_i P_j`` with the smallest rule
    that is exact for the polynomial part; independent of the closed-form
    entry formula.
    """
    i, j = operator.index(i), operator.index(j)
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    # exact for the degree i+j product: ceil((i+j)/2) + 1 nodes
    nodes, weights = gauss_jacobi(2.0 * order.alpha, (i + j + 1) // 2 + 1)
    rows = _jacobi_all(order.alpha, max(i, j), nodes)
    integral = float(np.dot(weights, rows[i] * rows[j]))
    scales = _basis_scales(order, max(i, j))
    return float(scales[i] * scales[j] * integral)


def _normalized_gram(order: FractionalOrder, weight_scale: float, n_max: int) -> list[np.ndarray]:
    """Blocks ``p`` = 0, 1 of ``C (R W R^T) C``: the integrals ``c_i c_j (1-x^2)^s P_i P_j``.

    ``s = weight_scale * alpha``; ``R`` holds the ``(alpha, alpha)`` Jacobi
    values at the nodes of one ``(n_max+1)``-node rule for the weight, exact
    for every product, ``W`` its weights and ``C`` the basis normalizations;
    block ``p`` takes the rows and columns ``p::2`` alone, ``i, j <= n_max``.
    """
    if n_max < 0:
        raise ValueError(f"basis degree must be nonnegative, got {n_max}")
    nodes, weights = gauss_jacobi(weight_scale * order.alpha, n_max + 1)
    rows = _jacobi_all(order.alpha, n_max, nodes)
    coeffs = _basis_scales(order, n_max)
    with _one_blas_thread():
        return [coeffs[p::2, None] * ((rows[p::2] * weights) @ rows[p::2].T) * coeffs[p::2]
                for p in (0, 1)]


def oracle_mass_matrix(order: FractionalOrder, n_max: int) -> np.ndarray:
    """The full mass matrix by quadrature: ``_normalized_gram``'s blocks, exact zeros between."""
    even, odd = _normalized_gram(order, 2.0, n_max)
    full = np.zeros((n_max + 1, n_max + 1))
    full[0::2, 0::2], full[1::2, 1::2] = even, odd
    return full


def stiffness_check(order: FractionalOrder, n_max: int) -> float:
    """Max deviation of the quadrature stiffness matrix's parity blocks from the identity.

    The stiffness matrix is the identity by construction and never stored;
    this measures ``|c_m c_n <basis_m, basis_n>_energy - delta_mn|`` over
    ``m <= n <= n_max``.  The derivative image of ``basis_m`` turns each
    inner product into its prefactor times the Gram entry under the weight
    ``(1-x^2)^alpha``, all from one rule.  Where the largest prefactor is
    too large for double precision, a ``ValueError`` names ``2a`` and ``N``.
    """
    blocks = _normalized_gram(order, 1.0, n_max)
    prefactors = _image_prefactors(order.alpha, n_max)
    deviations = (np.abs(prefactors[p::2, None] * b - np.eye(len(b))) for p, b in enumerate(blocks))
    return max(float(np.max(np.triu(d), initial=0.0)) for d in deviations)
