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
each block is banded, and it is stored as a band at every ``N``; any other
order stores the dense blocks.  ``eig`` picks its LAPACK drivers from that.
``assemble_mass`` builds the tables once for both blocks, and large dense
blocks on two threads.  It and ``mass_entry`` refuse, by name, an order
whose largest entry ``M_00`` lies below the smallest normal double, so that
every entry underflows.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .specfun import FractionalOrder, _pochhammer_ratios

__all__ = ["MassMatrix", "mass_entry", "assemble_mass"]

_TINY = np.finfo(float).tiny
# Fewest rows of the odd (smaller) block from which the two dense blocks are
# built concurrently.  Serial/concurrent wall time of the pair's build, 2-core
# x86_64 VM, median of 41 interleaved runs, 2a = 1.6, at odd-block rows
# 256/320/384/448/513/1025: 0.85/0.91/1.04/1.19/1.29/1.65.  A band is built in
# microseconds, always in turn.
_CONCURRENT_BUILD_ROWS = 512


@dataclass(frozen=True, eq=False)
class MassMatrix:
    """Symmetric positive-definite mass matrix, stored as its two parity blocks.

    Block ``p`` (0 ``even``, 1 ``odd``) holds the degrees ``p::2``, so it is
    ``entries[p::2, p::2]``.  For integer ``alpha`` (``banded``), each
    block has ``w = min(alpha, size - 1)`` superdiagonals, stored in LAPACK
    upper-band storage, ``band[w + r - c, c] = block[r, c]``.  Otherwise the
    fields hold the dense blocks.  ``entries`` is the one dense view of the
    whole matrix, built on first access; from bands it evaluates the dense
    blocks by ``_dense_block``, bit for bit the entries of the band.
    """

    order: FractionalOrder
    n_max: int
    even: np.ndarray
    odd: np.ndarray

    @property
    def banded(self) -> bool:
        return self.order.alpha.is_integer()

    def _dense_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The even and odd blocks as dense arrays: the stored ones, or evaluated from bands."""
        if not self.banded:
            return self.even, self.odd
        tables = _entry_tables(self.order.alpha, self.n_max)
        return tuple(_dense_block(tables, np.arange(p, self.n_max + 1, 2)) for p in (0, 1))

    @cached_property
    def entries(self) -> np.ndarray:
        """The full ``(n_max+1)^2`` matrix, composed from the blocks (read-only)."""
        full = np.zeros((self.n_max + 1, self.n_max + 1))
        for p, block in enumerate(self._dense_blocks()):
            full[p::2, p::2] = block
        full.setflags(write=False)
        return full


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
    block.setflags(write=False)
    return block


def _band_block(tables, width: int, indices: np.ndarray) -> np.ndarray:
    """Upper-band storage of the block on ``indices``, ``width`` superdiagonals at most."""
    w = min(width, max(indices.size - 1, 0))
    offset = np.arange(w, -1, -1)[:, None]  # the superdiagonal each storage row holds
    col = np.arange(indices.size)
    row = np.maximum(col - offset, 0)
    band = np.where(col >= offset, _entry_values(tables, indices[row], indices[col]), 0.0)
    band.setflags(write=False)
    return band


def assemble_mass(order: FractionalOrder, n_max: int) -> MassMatrix:
    """Assemble the even and odd parity blocks of the mass matrix.

    A dense block is the elementwise product of the per-index outer product,
    a Hankel view of ``Q`` and a Toeplitz view of ``U``, built in O(N^2)
    flops with no per-entry special function.  For integer ``alpha`` only
    the band is evaluated and stored, O(N alpha) entries.  The odd-sum
    entries between the blocks are exact zeros and are not stored.  Dense
    blocks whose odd block has ``_CONCURRENT_BUILD_ROWS`` rows or more are
    built concurrently, the odd one on a helper thread (``_on_two_threads``);
    the bits are the same either way.  An order whose largest entry ``M_00``
    lies below the smallest normal double raises a ``ValueError`` naming
    ``2a`` and ``N``: every entry underflows.
    """
    n_max = operator.index(n_max)
    if n_max < 0:
        raise ValueError(f"basis degree must be nonnegative, got {n_max}")
    tables = _entry_tables(order.alpha, n_max)
    indices = [np.arange(p, n_max + 1, 2) for p in (0, 1)]
    if order.alpha.is_integer():
        even, odd = (_band_block(tables, int(order.alpha), i) for i in indices)
    elif indices[1].size < _CONCURRENT_BUILD_ROWS:
        even, odd = (_dense_block(tables, i) for i in indices)
    else:
        # Allocated on this thread, filled on two: a block that the helper
        # allocated would come from its own malloc arena, which keeps the
        # pages once the block is freed (3.4 MB more peak RSS in solve_warm).
        blocks = [np.empty((i.size, i.size)) for i in indices]
        even, odd = _on_two_threads(lambda p: _dense_block(tables, indices[p], blocks[p]))
    return MassMatrix(order, n_max, even, odd)


def _on_two_threads(job):
    """``[job(0), job(1)]``, with ``job(1)`` run on a helper thread meanwhile.

    The helper hands back its result or what it raised, and the helper is
    joined before anything is raised: an exception of ``job(0)`` first, then
    the helper's.  ``job`` should release the GIL for most of its time (large
    numpy or LAPACK calls), or the two threads only take turns.
    """
    odd = []  # the helper's result, or what it raised

    def run():
        try:
            odd.append(job(1))
        except BaseException as exc:  # raised again on the calling thread, after the join
            odd.append(exc)

    helper = threading.Thread(target=run, name="riesz-eig-odd-block")
    helper.start()
    try:
        even = job(0)
    finally:
        helper.join()
    if isinstance(odd[0], BaseException):
        raise odd[0]
    return [even, odd[0]]
