"""Galerkin system assembly: identity stiffness and the closed-form mass matrix.

In the normalized basis the stiffness matrix is the identity, so the discrete
eigenproblem is carried entirely by the mass matrix, and this module holds
only its closed form; ``quadrature`` checks both by independent quadrature.
Entries with odd index sum vanish identically (parity), which splits the
matrix into the even and odd blocks on the degrees ``0::2`` and ``1::2``.
Every entry factors as

    M_ij = K * h_i * h_j * Q((i+j)/2) * U((j-i)/2),

a constant, a per-index term, a term of the index sum and one of the index
difference.  ``Q`` and ``U`` are Pochhammer ratios, compensated running
products from ``specfun``, so a block needs no special function beyond the
three ``lgamma`` values in ``K``.
For integer ``alpha`` the difference term vanishes exactly past ``alpha``, so
each block is banded, and it is built as a band at every ``N``; any other
order builds the dense blocks.  ``MassMatrix.banded`` is that rule, and
``eig`` picks its LAPACK drivers from it.  ``assemble_mass`` builds the
tables once for both blocks and no block: a block is built when it is read,
or by the solve on the thread that solves it.  It and ``mass_entry`` refuse,
by name, an order whose largest entry ``M_00`` lies below the smallest
normal double, so that every entry underflows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .specfun import FractionalOrder, _pochhammer_ratios

__all__ = ["MassMatrix", "mass_entry", "assemble_mass"]

_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class MassMatrix:
    """Symmetric positive-definite mass matrix, in closed form; its parity blocks on request.

    Block ``p`` (0 ``even``, 1 ``odd``) holds the degrees ``p::2``, so it is
    ``entries[p::2, p::2]``.  ``tables`` holds the factors of every entry
    (``_entry_tables``).  For integer ``alpha`` (``banded``), each block has
    ``w = min(alpha, size - 1)`` superdiagonals, stored in LAPACK upper-band
    storage, ``band[w + r - c, c] = block[r, c]``; otherwise a block is
    dense.  ``even``, ``odd`` and ``entries``, the one dense view of the
    whole matrix, are built on first access and read-only; ``entries``
    evaluates the dense blocks, bit for bit the entries of the bands.  Only
    ``entries`` forms an ``(N+1)^2`` array, for library readers: the solve
    and the CLI's ``mass`` dump build the blocks alone (``_block``).
    """

    order: FractionalOrder
    n_max: int
    tables: tuple = field(repr=False)

    @property
    def banded(self) -> bool:
        return self.order.alpha.is_integer()

    def _block(self, p: int, dense: bool = False, out: np.ndarray | None = None) -> np.ndarray:
        """A new, writable block ``p``: a band where ``banded`` unless ``dense``, else ``out``."""
        indices = np.arange(p, self.n_max + 1, 2)
        if self.banded and not dense:
            return _band_block(self.tables, int(self.order.alpha), indices)
        return _dense_block(self.tables, indices, out)

    @cached_property
    def even(self) -> np.ndarray:
        return _read_only(self._block(0))

    @cached_property
    def odd(self) -> np.ndarray:
        return _read_only(self._block(1))

    @cached_property
    def entries(self) -> np.ndarray:
        """The full ``(n_max+1)^2`` matrix, each dense block built into place (read-only)."""
        full = np.zeros((self.n_max + 1, self.n_max + 1))
        for p in (0, 1):
            self._block(p, dense=True, out=full[p::2, p::2])
        return _read_only(full)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _entry_tables(alpha: float, m_max: int):
    """``K`` and the tables ``h[0..m_max]``, ``Q[0..m_max]``, ``U[0..m_max]``.

    ``h_i = sqrt(2i + 2 alpha + 1)``; ``Q(m) = (1/2)_m / (2 alpha + 3/2)_m`` and
    ``U(d) = (-alpha)_d / (alpha + 1)_d``, Pochhammer ratios from ``specfun``;
    ``K = Gamma(alpha + 1/2) / (2 Gamma(alpha + 1) Gamma(2 alpha + 3/2))``.  The
    ratios follow from the gamma-ratio closed form by Legendre's
    duplication formula; ``U`` carries the sign ``(-1)^d`` and, for integer
    ``alpha``, the exact zeros past ``d = alpha``.  The largest entry,
    ``M_00 = K h_0^2``, decides first: where it is not a normal double every
    entry has underflowed, and a ``ValueError`` naming ``N = m_max`` and
    ``2a`` says so before ``Q`` and ``U`` are built.
    """
    try:
        k = 0.5 * math.exp(
            math.lgamma(alpha + 0.5) - math.lgamma(alpha + 1.0) - math.lgamma(2.0 * alpha + 1.5)
        )
    except OverflowError:  # lgamma overflows only where K has long underflowed
        k = 0.0
    h = np.sqrt(2.0 * np.arange(m_max + 1.0) + 2.0 * alpha + 1.0)
    largest = k * (h[0] * h[0])
    if largest < _TINY:
        raise ValueError(
            f"every entry of the mass matrix underflows in double precision: the largest, "
            f"M_00 = {largest:.3e}, lies below the smallest normal double {_TINY:.3e} "
            f"(N={m_max}, 2a={2.0 * alpha:g})"
        )
    q = _pochhammer_ratios((0.5, 0.0), (2.0 * alpha, 1.5), m_max)
    u = _pochhammer_ratios((-alpha, 0.0), (alpha, 1.0), m_max)
    u += 0.0  # the band zeros of integer alpha come out of cumprod as +-0.0; keep +0.0
    return k, h, q, u


def _entry_values(tables, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Entries ``K h_i h_j Q((i+j)/2) U(|j-i|/2)`` for broadcastable index arrays.

    The indices are integers with even ``i + j``, within the ``tables`` of
    ``_entry_tables``.  This serves ``mass_entry`` and the band of
    integer-``alpha`` blocks; ``_dense_block`` takes the same factors in the
    same order, so all three agree bit for bit.  Each table is a running
    product, so a longer table holds the same bits on its common part.
    """
    k, h, q, u = tables
    return k * (h[i] * h[j]) * q[(i + j) // 2] * u[np.abs(j - i) // 2]


def mass_entry(order: FractionalOrder, i: int, j: int) -> float:
    """Closed-form mass entry; an exact 0 when ``i + j`` is odd.

    An order at which every entry underflows is refused by name, as
    ``assemble_mass`` refuses it.
    """
    i, j = operator.index(i), operator.index(j)
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    tables = _entry_tables(order.alpha, max(i, j))  # the smallest matrix that holds the entry
    if (i + j) % 2 == 1:
        return 0.0
    return float(_entry_values(tables, np.array([i]), np.array([j]))[0])


def _dense_block(tables, indices: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The dense block on ``indices`` (all of one parity), as ``_entry_values`` gives it.

    Within a block the sum term is a Hankel and the difference term a
    Toeplitz matrix; both are strided views of the tables, so nothing is
    gathered entry by entry.  Every factor is symmetric, and so is the block,
    exactly.  The block is written into ``out`` when it is given.
    """
    n = indices.size
    if n == 0:
        return np.zeros((0, 0))
    k, h, q, u = tables
    hankel = sliding_window_view(q[indices[0]:indices[0] + 2 * n - 1], n)
    toeplitz = sliding_window_view(np.concatenate((u[n - 1:0:-1], u[:n])), n)[::-1]
    block = np.outer(h[indices], h[indices], out=out)
    block *= k
    block *= hankel
    block *= toeplitz
    return block


def _band_block(tables, width: int, indices: np.ndarray) -> np.ndarray:
    """Upper-band storage of the block on ``indices``, ``width`` superdiagonals at most."""
    w = min(width, max(indices.size - 1, 0))
    offset = np.arange(w, -1, -1)[:, None]  # the superdiagonal each storage row holds
    col = np.arange(indices.size)
    row = np.maximum(col - offset, 0)
    return np.where(col >= offset, _entry_values(tables, indices[row], indices[col]), 0.0)


def assemble_mass(order: FractionalOrder, n_max: int) -> MassMatrix:
    """The mass matrix at basis degree ``n_max``, in closed form: its tables, and no block yet.

    A dense block is the elementwise product of the per-index outer product,
    a Hankel view of ``Q`` and a Toeplitz view of ``U``, built in O(N^2)
    flops with no per-entry special function.  For integer ``alpha`` only
    the band is evaluated and stored, O(N alpha) entries.  The odd-sum
    entries between the blocks are exact zeros and are not stored.  A block
    is built when it is first read, so a matrix too large for memory fails
    there.  A negative degree, and an order whose largest entry ``M_00``
    lies below the smallest normal double (every entry underflows), raise a
    ``ValueError`` here, the second naming ``2a`` and ``N``.
    """
    n_max = operator.index(n_max)
    if n_max < 0:
        raise ValueError(f"basis degree must be nonnegative, got {n_max}")
    return MassMatrix(order, n_max, _entry_tables(order.alpha, n_max))
