"""Symmetric eigensolve of the Galerkin system and eigenfunction evaluation.

With an identity stiffness matrix the generalized problem collapses to the
standard symmetric problem ``M c = mu c`` with ``lambda = 1/mu``.  Solving for
``mu`` and inverting means the physically dominant small eigenvalues come from
the best-conditioned (largest) ``mu``.  The two parity blocks are solved
independently (``_block_spectra``, which picks the driver and the schedule:
the pair is built and solved on two threads from ``_CONCURRENT_MIN_ROWS``
odd rows) and merged: dense blocks with LAPACK ``syevd``, in place, and bands
with ``sbevd``, both in the OpenBLAS of numpy's own wheel and called through
``ctypes``, so numpy is the one library the package loads; ``quadrature``
gets its tridiagonal ``stevd`` here (``_stevd``).  A LAPACKE routine costs
one row of ``_LAPACKE`` and a wrapper that allocates its arrays and calls
``_call``.  Where ``_lapacke`` finds no library or no symbol, this module
sends that job to numpy's ``eigvalsh`` or ``eigh`` instead.  The spectral
studies need only the eigenvalues, so ``solve`` computes values alone; the
coefficient vectors are computed the first time a caller reads them, and
kept per parity block.
"""

from __future__ import annotations

import contextlib
import operator
import threading
from ctypes import CDLL, CFUNCTYPE, c_char, c_int, c_int64, c_void_p
from dataclasses import dataclass
from functools import cache, cached_property, partial
from pathlib import Path

import numpy as np

from .assembly import assemble_mass
from .specfun import FractionalOrder, _basis_scales, _boundary_weight, _jacobi_all

__all__ = ["EigenSolution", "solve", "eval_eigenfunction"]

_PARITIES = ("even", "odd")
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# Fewest rows of the odd (smaller) block from which the pair is built and
# solved concurrently when BLAS is pinned to one thread.  Serial/concurrent
# wall time of _block_spectra (each block built in its solving job), BLAS
# pinned, 2-core x86_64 VM, median of 41 interleaved runs, orders alternated,
# at odd-block rows 64/96/128/160/192/224/256/513:
#   dense syevd values   0.73/0.99/1.20/1.31/1.46/1.54/1.63/1.73 (2a = 1.6)
#   dense syevd vectors  0.89/1.14/1.29/1.43/1.61/1.67/1.60/1.82
#   band sbevd values    0.54/0.87/1.02/1.13/1.19/1.34/1.32/1.68 (2a = 2)
#   band sbevd vectors   0.89/1.17/1.24/1.45/1.57/1.62/1.70/1.76
# A second run read 1.60/1.64/1.33/1.64 at 256 rows.  Every driver and job
# clears 1.3 from 224 rows in both runs (band values: 1.19-1.25 at 192).  While
# the host left the VM one core, every ratio read 0.96-0.99 at 256 and 513 rows.
_CONCURRENT_MIN_ROWS = 256
_PIN_LOCK = threading.Lock()
_PINNED = [0, 0]  # [solves inside the OpenBLAS pin, the thread count before the first]
# LAPACKE's codes for column-major storage and for a workspace it could not allocate
_COL_MAJOR = 102
_WORKSPACE_ERRORS = (-1010, -1011)
# Each LAPACKE routine that ``_lapacke`` binds: its argument types after the layout
_LAPACKE = {
    "dsbevd": (c_char, c_char, c_int64, c_int64, c_void_p, c_int64, c_void_p, c_void_p, c_int64),
    "dsyevd": (c_char, c_char, c_int64, c_void_p, c_int64, c_void_p),
    "dstevd": (c_char, c_int64, c_void_p, c_void_p, c_void_p, c_int64),
}


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Ascending eigenvalues; L2-normalized coefficient vectors on first access.

    ``parities[i]`` tags the ``i``-th eigenvalue with the parity block it
    comes from.  The vectors are computed once, the first time any of them is
    read, by a full decomposition of the re-assembled blocks (``syevd`` on
    dense blocks, which it overwrites with the vectors, ``sbevd`` on bands);
    that raises ``RuntimeError`` when a driver fails or when the
    decomposition loses the small end of a graded block.  They live in the
    blocks' memory, one row per eigenfunction over the degrees of its parity
    (``_vector_blocks``); the CLI formats them from there, and
    ``eval_eigenfunction`` rebuilds only the rows it samples.  Only
    ``vectors``, for library readers, forms the ``(N+1)^2`` matrix.
    """

    order: FractionalOrder
    n_max: int
    lambdas: np.ndarray
    parities: tuple[str, ...]

    @cached_property
    def _vector_blocks(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per parity block ``p``, ``(rows, block, flip)``: the vectors of that parity.

        ``rows`` holds the ascending indices of the eigenvalues of parity
        ``p``; ``block[k]`` (read-only, in the memory the driver wrote) the
        coefficients of eigenfunction ``rows[k]`` on the degrees ``p::2``,
        scaled by ``1/sqrt(mu)`` and sign-fixed; and ``flip[k]`` whether that
        row was negated, so that its opposite-parity zeros are ``-0.0``.
        """
        parities = np.array(self.parities)
        blocks = []
        for tag, mu, vecs in _block_spectra(self.order, self.n_max, vectors=True):
            # Within a block the merge keeps the descending-mu order, so the
            # k-th row of this parity takes the k-th vector of the block.
            rows = np.flatnonzero(parities == tag)
            mu, vecs = mu[::-1], vecs[:, ::-1]
            vecs /= np.sqrt(mu)  # in place: the driver's array is ours
            block = vecs.T
            # deterministic sign: the largest-magnitude coefficient of each row is
            # positive; the opposite-parity zeros cannot be it
            flip = block[np.arange(rows.size), np.argmax(np.abs(block), axis=1)] < 0.0
            np.negative(block, out=block, where=flip[:, None])
            block.setflags(write=False)
            blocks.append((rows, block, flip))
        return blocks

    def _vector_rows(self):
        """``(p, values, flipped)`` for each eigenfunction in order, from ``_vector_blocks``.

        Row ``i`` of ``vectors`` holds ``values`` on the degrees ``p::2`` and
        zeros of the sign that ``flipped`` gives on the others.  The vectors
        are computed here, before the first item, so a failing decomposition
        raises from this call.
        """
        blocks = [zip(block, flip.tolist()) for _, block, flip in self._vector_blocks]
        return ((p, *next(blocks[p])) for p in map(_PARITIES.index, self.parities))

    def _vector(self, i: int) -> np.ndarray:
        """A new array equal to row ``i`` of ``vectors``, signed zeros included."""
        p = _PARITIES.index(self.parities[i])
        rows, block, flip = self._vector_blocks[p]
        k = np.searchsorted(rows, i)
        vector = np.full(self.n_max + 1, -0.0 if flip[k] else 0.0)
        vector[p::2] = block[k]
        return vector

    @cached_property
    def vectors(self) -> np.ndarray:
        """``vectors[i]`` holds the coefficients of the ``i``-th eigenfunction (read-only).

        The coefficients are over the normalized basis; entries of the
        opposite parity are exact zeros, ``-0.0`` in a row whose sign was
        flipped.  The largest-magnitude coefficient of each vector is
        positive, making the output deterministic.  This ``(N+1)^2`` matrix
        is composed from ``_vector_blocks`` for library readers; nothing in
        the package reads it.
        """
        vectors = np.zeros((self.n_max + 1, self.n_max + 1))
        for p, (rows, block, flip) in enumerate(self._vector_blocks):
            vectors[rows, p::2] = block
            vectors[rows[flip], 1 - p::2] = -0.0
        vectors.setflags(write=False)
        return vectors


def _check_block_mu(mu, tag, order, n_max, lost):
    """Raise a named error unless the ascending block spectrum ``mu`` is positive and normal."""
    where = f"N={n_max}, 2a={order.two_alpha:g}"
    if mu[-1] < _TINY:
        raise RuntimeError(
            f"every entry of the {tag} block underflows in double precision: its largest "
            f"mass eigenvalue {mu[-1]:.3e} lies below the smallest normal double "
            f"{_TINY:.3e} ({where})"
        )
    # A subnormal small end can round to either sign; it is underflow, not a lost end.
    if abs(mu[0]) < _TINY:
        raise RuntimeError(
            f"the small end of the {tag} block underflows: its smallest mass eigenvalue "
            f"{mu[0]:.3e} falls below the normal double range (smallest normal "
            f"{_TINY:.3e}) ({where})"
        )
    if mu[0] < 0.0:
        raise RuntimeError(
            f"nonpositive mass eigenvalue {mu[0]:.3e} in the {tag} block ({where}): it "
            f"lies below the rounding level eps*mu_max = {_EPS * mu[-1]:.3e}, so {lost}"
        )


@cache
def _openblas():
    """The OpenBLAS that numpy's wheel ships in ``numpy.libs``, or None where there is none.

    numpy's Linux wheels hold the ILP64 build of ``scipy-openblas``: every
    symbol ends in ``64_`` and every LAPACK integer is 64 bits wide.  Its
    LAPACKE routines are bound by ``_lapacke``; ``_one_blas_thread`` calls
    its thread-count functions by name, and sets nothing where there is no
    library (numpy on MKL, Accelerate or a system BLAS).
    """
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for path in libs.glob("libscipy_openblas64_-*.so"):
        return CDLL(str(path))  # loaded by numpy already: the same handle
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's OpenBLAS to one thread, process-wide; yield whether it took hold."""
    # with no library there is nothing to set, and the pin never takes hold
    lib = _openblas()
    get = getattr(lib, "scipy_openblas_get_num_threads64_", lambda: 0)
    set_ = getattr(lib, "scipy_openblas_set_num_threads64_", lambda count: None)
    with _PIN_LOCK:
        if not _PINNED[0]:
            _PINNED[1] = get()
        _PINNED[0] += 1
        set_(1)
    try:
        yield get() == 1  # it stays at 1 until the last overlapping solve leaves
    finally:
        with _PIN_LOCK:
            _PINNED[0] -= 1
            if not _PINNED[0]:
                set_(_PINNED[1])


def _lapacke(name: str):
    """``LAPACKE_<name>`` as ``_LAPACKE`` types it, cached per ``_openblas()``; None if missing."""
    return _bind(_openblas(), name)


@cache
def _bind(lib, name):
    try:
        return CFUNCTYPE(c_int64, c_int, *_LAPACKE[name])((f"scipy_LAPACKE_{name}64_", lib))
    except AttributeError:  # no such symbol, or no library (None has no handle)
        return None


def _call(name: str, matrix: str, *args) -> None:
    """Call ``_lapacke(name)`` on column-major ``args``, which solve ``matrix``; map its ``info``.

    A workspace that LAPACKE could not allocate raises ``MemoryError``, a
    failure to converge or a rejected argument ``numpy.linalg.LinAlgError``.
    """
    info = _lapacke(name)(_COL_MAJOR, *args)
    driver = name[1:]
    if info in _WORKSPACE_ERRORS:
        raise MemoryError(f"{driver} could not allocate its workspace for {matrix}")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{driver} did not converge: {info} off-diagonal elements of the tridiagonal form "
            f"stayed nonzero"
        )
    if info:
        raise np.linalg.LinAlgError(f"{driver} rejected its argument {-info}")


def _sbevd(band: np.ndarray, vectors: bool):
    """LAPACK ``sbevd`` on an upper-band block: ascending values, and the vectors as columns.

    ``band`` is in the upper-band storage of ``assembly``; it is copied,
    since ``sbevd`` overwrites it.  Returns the values alone unless
    ``vectors`` is true.  Failures raise as ``_call`` says.
    """
    kd, n = band.shape[0] - 1, band.shape[1]
    ab = np.array(band, dtype=float, order="F")
    w = np.empty(n)
    z = np.empty((n, n) if vectors else 1, order="F")
    _call("dsbevd", f"a band of {n} rows", b"V" if vectors else b"N", b"U", n, kd,
            ab.ctypes.data, kd + 1, w.ctypes.data, z.ctypes.data, n if vectors else 1)
    return (w, z) if vectors else w


def _syevd(block: np.ndarray, vectors: bool):
    """LAPACK ``syevd`` on a dense block, in place: ascending values, and the vectors as columns.

    ``block`` is a writable, C-contiguous and exactly symmetric block that no
    one else holds: its memory is the block in column-major order too, so
    LAPACK reads the lower triangle straight from it, and the copy that
    numpy's drivers make is not needed.  ``syevd`` overwrites the block; with
    ``vectors`` it leaves the vectors there, in column-major order, and they
    are returned as ``block.T``.  The values come back in a new array.  The
    bits are those of numpy's ``eigvalsh`` and ``eigh``, which call the same
    routine on a copy.  Failures raise as ``_call`` says.
    """
    n = block.shape[0]
    w = np.empty(n)
    _call("dsyevd", f"a block of {n} rows", b"V" if vectors else b"N", b"L", n,
            block.ctypes.data, max(n, 1), w.ctypes.data)
    return (w, block.T) if vectors else w


def _stevd(offdiag: np.ndarray):
    """LAPACK ``stevd`` on the symmetric tridiagonal matrix with zero diagonal and ``offdiag``.

    Returns the ascending eigenvalues and the orthonormal eigenvectors as
    columns; ``offdiag``, a contiguous float array, is overwritten.  Failures
    raise as ``_call`` says.  Without ``dstevd``, numpy's ``eigh`` solves it as
    a dense array, in O(n^3), to the same bits: LAPACK's reduction leaves it.
    """
    if _lapacke("dstevd") is None:
        return np.linalg.eigh(np.diag(offdiag, 1) + np.diag(offdiag, -1))
    n = offdiag.size + 1
    d = np.zeros(n)
    z = np.empty((n, n), order="F")
    _call("dstevd", f"a tridiagonal matrix of {n} rows", b"V", n, d.ctypes.data,
            offdiag.ctypes.data, z.ctypes.data, n)
    return d, z


def _block_spectra(order: FractionalOrder, n_max: int, vectors: bool):
    """Solve each nonempty parity block; return a list of ``(tag, mu, vecs)``.

    Item ``p`` is the block on the degrees ``p::2``: the even block, then
    the odd one unless it is empty (``N = 0``).  ``mu`` is the block's
    ascending spectrum and ``vecs`` its orthonormal eigenvectors as columns,
    or ``None`` unless ``vectors`` is true.  One driver, picked from the
    stored form and the library at hand, solves every block, with or without
    vectors.  A driver's ``numpy.linalg.LinAlgError`` is raised as one
    ``RuntimeError`` naming the block, ``N`` and ``2a``, with that error as
    its cause.  The drivers are LAPACK's, in numpy's own OpenBLAS: bands go
    to ``sbevd`` (``_sbevd``) and never form a dense block; dense blocks go
    to ``syevd`` (``_syevd``), which solves them in place, so no block is
    copied between assembly and LAPACK and the vectors take the blocks'
    memory.  Where ``_lapacke`` finds no library or no symbol for the driver
    of the stored form, every block goes to
    ``numpy.linalg.eigvalsh`` or, for vectors, ``numpy.linalg.eigh`` (both
    ``syevd`` on a copy), looked up on ``numpy.linalg`` at each call; bands
    then become dense blocks evaluated from the same tables.  Every dense
    block is built exactly symmetric.  On a tridiagonal block the reduction
    ``sytrd`` of the dense drivers is the identity, so they give ``sbevd``'s
    values bit for bit and its vectors up to sign.  ``syevd`` without
    vectors takes its values from the root-free QR iteration ``sterf``, as
    ``sbevd`` does.  On the graded mass blocks that keeps more of the small
    end than the full decomposition does, but no driver does better than the
    Demmel-Veselic level ``eps * kappa_s`` (``kappa_s`` the condition number
    of the diagonally scaled block): the small eigenvalues are accurate only
    while that is small.  Every spectrum passes ``_check_block_mu``.

    With ``vectors``, each ``vecs`` lives where its driver wrote it: in the
    dense block's own memory (``syevd``), or in one new array of the block's
    size (``sbevd``, numpy's ``eigh``).  ``EigenSolution._vector_blocks``
    keeps those arrays as the solution's vectors; nothing here, nor in the
    CLI, forms an ``(N+1)^2`` array.

    The blocks come from one ``assemble_mass`` call, and each is built
    (``MassMatrix._block``) inside the job that solves it; the solve owns
    it, and lets go of it once its spectrum is taken.  The drivers run on
    OpenBLAS pinned to one thread (``_one_blas_thread``).  Where the pin
    holds and the odd block has at least ``_CONCURRENT_MIN_ROWS`` rows, the
    pair is built and solved concurrently, bands and dense blocks alike, the
    odd one on a helper thread (``_on_two_threads``; numpy and LAPACK release
    the GIL); otherwise in turn, and no bit moves.  The helper is joined
    before anything is raised, and when both blocks fail, the even block's
    error is raised.
    """
    mass = assemble_mass(order, n_max)
    name, driver = ("dsbevd", _sbevd) if mass.banded else ("dsyevd", _syevd)
    dense = _lapacke(name) is None  # numpy's dense drivers, for bands too
    if dense:
        driver = np.linalg.eigh if vectors else np.linalg.eigvalsh
    else:
        driver = partial(driver, vectors=vectors)
    if vectors:
        lost = "the eigenvectors need the small end that the full decomposition loses"
    else:
        lost = "the eigensolver has lost the small end of this graded block"
    out = {}  # a dense block allocated on this thread for the job that builds it

    def spectrum(p):
        tag = _PARITIES[p]
        try:
            result = driver(mass._block(p, dense, out.pop(p, None)))
        except np.linalg.LinAlgError as exc:
            where = f"N={n_max}, 2a={order.two_alpha:g}"
            raise RuntimeError(f"the {tag} block's eigensolve failed ({where}): {exc}") from exc
        mu, vecs = result if vectors else (result, None)
        _check_block_mu(mu, tag, order, n_max, lost)
        return tag, mu, vecs

    odd_rows = (n_max + 1) // 2
    with _one_blas_thread() as pinned:
        if pinned and odd_rows >= _CONCURRENT_MIN_ROWS:
            if not mass.banded:
                # A dense block that the helper allocated would come from its
                # own malloc arena, which keeps the pages once the block is
                # freed (3.4 MB more peak RSS in solve_warm).
                out[1] = np.empty((odd_rows, odd_rows))
            return _on_two_threads(spectrum)
        return [spectrum(p) for p in range(2 if odd_rows else 1)]


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


def solve(order: FractionalOrder, n_max: int) -> EigenSolution:
    """Eigenvalues of the discrete problem at basis degree ``n_max``.

    Each parity block of the mass matrix is solved for its eigenvalues alone
    (``sbevd`` on a band, ``syevd`` in place on a dense block, numpy's
    ``eigvalsh`` where numpy's wheel holds no OpenBLAS) on OpenBLAS pinned to
    one thread, so the bits do not depend on the thread setting unless numpy
    runs on another BLAS; other threads' BLAS calls run on one thread
    meanwhile.  The blocks' reciprocals ``1/mu``, each reversed into
    ascending order, are joined even block first, and one stable sort
    merges them: tied eigenvalues keep even before odd, then their position
    in the block.  No vector is computed here (see ``EigenSolution.vectors``).
    """
    spectra = _block_spectra(order, n_max, vectors=False)
    lambdas = np.concatenate([1.0 / mu[::-1] for _, mu, _ in spectra])
    perm = np.argsort(lambdas, kind="stable")
    lambdas = lambdas[perm]
    lambdas.setflags(write=False)
    tags = np.repeat([tag for tag, _, _ in spectra], [mu.size for _, mu, _ in spectra])
    return EigenSolution(order, n_max, lambdas, tuple(tags[perm].tolist()))


def eval_eigenfunction(sol: EigenSolution, indices, xs) -> np.ndarray:
    """Sample the eigenfunctions ``indices`` (1-based) at points in [-1, 1].

    Returns an array of shape ``(len(indices), len(xs))``, one row per index.
    The Jacobi rows, an ``(N+1) x len(xs)`` array, the basis scale and the
    boundary weight are built once and shared by every index.  Each index's
    coefficient vector is rebuilt at full length from its parity block
    (``EigenSolution._vector``), so ``sol.vectors``, the ``(N+1)^2`` matrix,
    is never formed.  Each sample is exactly 0 at ``x = +-1``.
    """
    indices = [operator.index(index) for index in indices]
    for index in indices:
        if not (1 <= index <= len(sol.lambdas)):
            raise ValueError(f"index must lie in [1, {len(sol.lambdas)}], got {index}")
    x = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.abs(x) <= 1.0):  # also rejects NaN
        raise ValueError("sample points must lie in [-1, 1]")
    vectors = [sol._vector(index - 1) for index in indices]
    alpha = sol.order.alpha
    scale = _basis_scales(sol.order, sol.n_max)
    rows = _jacobi_all(alpha, sol.n_max, x)
    weight = _boundary_weight(alpha, x)
    samples = np.empty((len(indices), x.size))
    with _one_blas_thread():  # the products round as the BLAS thread count splits them
        for out, vector in zip(samples, vectors):
            # one product per index: a stacked product would round differently
            out[:] = weight * ((vector * scale) @ rows)
    # normalize the signed zeros the endpoint weight can produce
    samples[:, np.abs(x) == 1.0] = 0.0
    return samples
