"""Symmetric eigensolve of the Galerkin system and eigenfunction evaluation.

With an identity stiffness matrix the generalized problem collapses to the
standard symmetric problem ``M c = mu c`` with ``lambda = 1/mu``.  Solving for
``mu`` and inverting means the physically dominant small eigenvalues come from
the best-conditioned (largest) ``mu``.  The two parity blocks are solved
independently and merged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import assemble_mass
from .specfun import FractionalOrder, JacobiWeightPair, _boundary_weight, _jacobi_all, basis_coeff

__all__ = ["EigenSolution", "sym_eig", "solve", "eval_eigenfunction"]

_SYMMETRY_RTOL = 1e-14
_PARITIES = ("even", "odd")


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Ascending eigenvalues with L2-normalized coefficient vectors.

    ``vectors[i]`` holds the coefficients of the ``i``-th eigenfunction over
    the normalized basis; entries of the opposite parity are exact zeros.
    The largest-magnitude coefficient of each vector is positive, making the
    output deterministic.
    """

    order: FractionalOrder
    n_max: int
    lambdas: np.ndarray
    vectors: np.ndarray
    parities: tuple[str, ...]


def sym_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of a symmetric matrix: ascending values, orthonormal columns.

    Backed by LAPACK's symmetric solver (Householder tridiagonalization plus
    implicitly shifted iteration).  Rejects matrices whose asymmetry exceeds
    1e-14 relative to the largest entry; non-convergence raises with
    diagnostics since it signals a bug rather than a user error.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = np.max(np.abs(m)) if m.size else 0.0
    asym = np.max(np.abs(m - m.T)) if m.size else 0.0
    if asym > _SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:.3e} vs scale {scale:.3e}")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"symmetric eigensolve failed to converge (dim {m.shape[0]}, scale {scale:.3e})"
        ) from exc
    return values, vectors


def solve(order: FractionalOrder, n_max: int) -> EigenSolution:
    """Solve the discrete eigenproblem at basis degree ``n_max``.

    Each parity block of the mass matrix is diagonalized separately; the
    reciprocals of its eigenvalues are merged and sorted ascending, with ties
    broken even-before-odd and then by within-block position.
    """
    mass = assemble_mass(order, n_max)
    blocks = ((mass.even_indices, mass.even_block), (mass.odd_indices, mass.odd_block))
    sizes = [indices.size for indices, _ in blocks]
    lambdas = np.empty(n_max + 1)
    vectors = np.zeros((n_max + 1, n_max + 1))
    start = 0
    for tag, (indices, block) in zip(_PARITIES, blocks):
        if indices.size == 0:
            continue
        mu, vecs = sym_eig(block)
        if mu[-1] == 0.0:
            raise RuntimeError(
                f"every entry of the {tag} block underflows to 0 in double precision "
                f"(N={n_max}, 2a={order.two_alpha:g})"
            )
        if mu[0] <= 0.0:
            raise RuntimeError(
                f"nonpositive mass eigenvalue {mu[0]:.3e} in the {tag} block "
                f"(N={n_max}, 2a={order.two_alpha:g}): it lies below the rounding level "
                f"eps*mu_max = {np.finfo(float).eps * mu[-1]:.3e}, so the eigensolver "
                "has lost the small end of this graded block"
            )
        # mu ascending -> lambda = 1/mu descending; reverse so the within-block
        # position counts in ascending-lambda order.
        mu, vecs = mu[::-1], vecs[:, ::-1]
        rows = slice(start, start + mu.size)
        lambdas[rows] = 1.0 / mu
        vectors[rows, indices] = (vecs / np.sqrt(mu)).T
        start += mu.size

    parity_rank = np.repeat([0, 1], sizes)
    position = np.concatenate([np.arange(size) for size in sizes])
    perm = np.lexsort((position, parity_rank, lambdas))
    lambdas, vectors = lambdas[perm], vectors[perm]
    # deterministic sign: the largest-magnitude coefficient of each row is positive
    dominant = vectors[np.arange(n_max + 1), np.argmax(np.abs(vectors), axis=1)]
    vectors[dominant < 0.0] *= -1.0
    lambdas.setflags(write=False)
    vectors.setflags(write=False)
    parities = tuple(_PARITIES[rank] for rank in parity_rank[perm])
    return EigenSolution(order, n_max, lambdas, vectors, parities)


def eval_eigenfunction(sol: EigenSolution, index: int, xs) -> np.ndarray:
    """Sample the ``index``-th (1-based) eigenfunction at points in [-1, 1].

    Returns exactly 0 at ``x = +-1``.
    """
    if not (1 <= index <= len(sol.lambdas)):
        raise ValueError(f"index must lie in [1, {len(sol.lambdas)}], got {index}")
    x = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(np.abs(x) > 1.0):
        raise ValueError("sample points must lie in [-1, 1]")
    alpha = sol.order.alpha
    coeffs = sol.vectors[index - 1] * np.array(
        [basis_coeff(sol.order, n) for n in range(sol.n_max + 1)]
    )
    rows = _jacobi_all(JacobiWeightPair(alpha, alpha), sol.n_max, x)
    out = _boundary_weight(alpha, x) * (coeffs @ rows)
    # normalize the signed zeros the endpoint weight can produce
    out[np.abs(x) == 1.0] = 0.0
    return out
