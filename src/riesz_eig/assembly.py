"""Galerkin system assembly: identity stiffness and the closed-form mass matrix.

In the normalized basis the stiffness matrix is the identity, so the discrete
eigenproblem is carried entirely by the mass matrix.  Entries with odd index
sum vanish identically (parity), which splits the matrix into independent
even and odd blocks; for integer ``alpha`` the reciprocal-gamma factors kill
everything beyond a fixed band as well.  Assembly therefore builds the two
parity blocks and nothing else; the full matrix is composed from them only
on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .specfun import (
    FractionalOrder,
    _LOG_2,
    _LOG_PI,
    _recip_gamma_signed_parts,
    basis_coeff,
)
from .quadrature import oracle_a_inner

__all__ = ["MassMatrix", "mass_entry", "assemble_mass", "stiffness_check"]


@dataclass(frozen=True, eq=False)
class MassMatrix:
    """Symmetric positive-definite mass matrix, stored as its two parity blocks."""

    order: FractionalOrder
    n_max: int
    even_block: np.ndarray
    odd_block: np.ndarray

    @property
    def even_indices(self) -> np.ndarray:
        return np.arange(0, self.n_max + 1, 2)

    @property
    def odd_indices(self) -> np.ndarray:
        return np.arange(1, self.n_max + 1, 2)

    @cached_property
    def entries(self) -> np.ndarray:
        """The full ``(n_max+1)^2`` matrix, composed from the blocks (read-only)."""
        full = np.zeros((self.n_max + 1, self.n_max + 1))
        full[::2, ::2] = self.even_block
        full[1::2, 1::2] = self.odd_block
        full.setflags(write=False)
        return full


def _entry_values(alpha: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Closed-form entries for integer index pairs with even ``i + j`` and ``i <= j``.

    Every special-function term depends on the index alone, on the sum
    ``i + j`` or on the difference ``d = (j - i)/2``, so each is evaluated
    once on the grid ``k = 0..max(i + j)`` and gathered per entry.  The
    magnitude is assembled from log-gamma values; the sign is ``(-1)^d``
    times the signs of the two reciprocal-gamma factors, which vanish exactly
    at nonpositive integer arguments (the source of the integer-``alpha``
    band structure).
    """
    s = i + j
    d = (j - i) // 2
    k = np.arange(s.max(initial=0) + 1.0)
    log_index = np.log(2.0 * k + 2.0 * alpha + 1.0)
    s1, lg1 = _recip_gamma_signed_parts(alpha - k + 1.0)
    s2, lg2 = _recip_gamma_signed_parts(alpha + k + 1.0)
    sign = (np.where(np.mod(k, 2.0) == 0.0, 1.0, -1.0) * s1 * s2)[d]
    log_mag = (
        0.5 * (_LOG_PI + log_index[i] + log_index[j])
        + math.lgamma(2.0 * alpha + 1.0)
        + gammaln(k + 1.0)[s]
        - (2.0 * alpha + i + j + 1.0) * _LOG_2
        - gammaln(2.0 * alpha + k / 2.0 + 1.5)[s]
        - gammaln(k / 2.0 + 1.0)[s]
        + lg1[d]
        + lg2[d]
    )
    # vanished-sign entries must come out as a clean +0.0
    return np.where(sign == 0.0, 0.0, sign * np.exp(log_mag))


def mass_entry(order: FractionalOrder, i: int, j: int) -> float:
    """Closed-form mass entry; an exact 0 when ``i + j`` is odd."""
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    if (i + j) % 2 == 1:
        return 0.0
    lo, hi = (i, j) if i <= j else (j, i)
    return float(_entry_values(order.alpha, np.array([lo]), np.array([hi]))[0])


def _parity_block(alpha: float, indices: np.ndarray) -> np.ndarray:
    """The block of the mass matrix on ``indices`` (all of one parity)."""
    a, b = np.triu_indices(indices.size)
    values = _entry_values(alpha, indices[a], indices[b])
    block = np.empty((indices.size, indices.size))
    block[a, b] = values
    block[b, a] = values
    block.setflags(write=False)
    return block


def assemble_mass(order: FractionalOrder, n_max: int) -> MassMatrix:
    """Assemble the even and odd parity blocks of the mass matrix.

    Each entry is an independent O(1) evaluation; the upper triangle of each
    block is computed vectorized once and mirrored, so the blocks are exactly
    symmetric.  The odd-sum entries between the blocks are exact zeros and
    are not stored.
    """
    if n_max < 0:
        raise ValueError(f"basis degree must be nonnegative, got {n_max}")
    even_block = _parity_block(order.alpha, np.arange(0, n_max + 1, 2))
    odd_block = _parity_block(order.alpha, np.arange(1, n_max + 1, 2))
    return MassMatrix(order, n_max, even_block, odd_block)


def stiffness_check(order: FractionalOrder, n_max: int) -> float:
    """Max deviation of the quadrature-evaluated stiffness matrix from the identity.

    The stiffness matrix is the identity by construction and never stored;
    this measures ``|c_i c_j <basis_i, basis_j>_energy - delta_ij|`` with the
    inner products coming from the independent quadrature oracle.
    """
    if n_max < 0:
        raise ValueError(f"basis degree must be nonnegative, got {n_max}")
    if n_max > 64:
        raise ValueError("stiffness check is limited to n_max <= 64 (oracle cost)")
    coeffs = [basis_coeff(order, n) for n in range(n_max + 1)]
    worst = 0.0
    for m in range(n_max + 1):
        for n in range(m, n_max + 1):
            value = coeffs[m] * coeffs[n] * oracle_a_inner(order, m, n)
            dev = abs(value - (1.0 if m == n else 0.0))
            if dev > worst:
                worst = dev
    return worst
