import contextlib
import ctypes
import json
import math
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import riesz_eig.assembly
import riesz_eig.eig
from riesz_eig.analysis import condition_slope, convergence_table, spectrum_report, weyl_ratios
from riesz_eig.assembly import _band_block, _entry_tables, assemble_mass, mass_entry
from riesz_eig.eig import eval_eigenfunction, solve
from riesz_eig.quadrature import gauss_jacobi, oracle_mass_entry
from riesz_eig.specfun import (
    FractionalOrder,
    _boundary_weight,
    _jacobi_all,
    basis_coeff,
    jacobi_norm_sq,
)

TABLE_16 = [1.7282959570964, 5.75634828003]  # leading pair at 2 alpha = 1.6, N = 64

needs_openblas = pytest.mark.skipif(
    riesz_eig.eig._openblas() is None,
    reason="numpy's wheel holds no OpenBLAS, so the blocks are solved in turn on dense drivers",
)


def test_solve_classical_limit():
    sol = solve(FractionalOrder(2.0), 64)
    assert math.isclose(sol.lambdas[0], math.pi**2 / 4, rel_tol=1e-12)


def test_solve_table_values():
    sol = solve(FractionalOrder(1.6), 64)
    assert math.isclose(sol.lambdas[0], TABLE_16[0], rel_tol=1e-9)
    assert math.isclose(sol.lambdas[1], TABLE_16[1], rel_tol=1e-9)
    sol = solve(FractionalOrder(0.5), 64)
    for got, expected in zip(sol.lambdas[:3], (0.9701, 1.6015, 2.0288)):
        assert math.isclose(got, expected, rel_tol=1e-3)


def test_solution_structure():
    order = FractionalOrder(1.3)
    n_max = 24
    sol = solve(order, n_max)
    assert np.all(np.diff(sol.lambdas) > 0)
    assert np.all(sol.lambdas > 0)
    mass = assemble_mass(order, n_max)
    for row, parity in enumerate(sol.parities):
        vec = sol.vectors[row]
        # exact zeros on the opposite parity
        off = np.arange(n_max + 1) % 2 == (0 if parity == "odd" else 1)
        assert np.all(vec[off] == 0.0)
        # discrete L2 normalization through the mass quadratic form
        assert math.isclose(vec @ mass.entries @ vec, 1.0, rel_tol=1e-12)
        # deterministic sign: dominant coefficient is positive
        assert vec[np.argmax(np.abs(vec))] > 0
        # eigen residual, blockwise scale
        resid = mass.entries @ vec - vec / sol.lambdas[row]
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(mass.entries, 2) * np.linalg.norm(vec)


def _reference_merge(order, n_max, banded=False):
    """Per-eigenpair merge: sort by (lambda, parity, position), then fix signs.

    Eigenvalues come from the values-only ``eigvalsh``, vectors from ``eigh``,
    on the dense blocks of ``entries``; with ``banded``, from ``sbevd``
    without and with vectors on the bands that ``_band_block`` builds.
    """
    mass = assemble_mass(order, n_max)
    merged = []
    for rank, tag in enumerate(("even", "odd")):
        indices = np.arange(rank, n_max + 1, 2)
        if indices.size == 0:
            continue
        with riesz_eig.eig._one_blas_thread():  # the count the solve's drivers run at
            if banded:
                band = _band_block(_entry_tables(order.alpha, n_max), int(order.alpha), indices)
                values = riesz_eig.eig._sbevd(band, vectors=False)
                mu, vecs = riesz_eig.eig._sbevd(band, vectors=True)
            else:
                block = mass.entries[np.ix_(indices, indices)]
                values = np.linalg.eigvalsh(block)
                mu, vecs = np.linalg.eigh(block)
        for pos, col in enumerate(reversed(range(mu.size))):
            full = np.zeros(n_max + 1)
            full[indices] = vecs[:, col] / math.sqrt(mu[col])
            merged.append((1.0 / values[col], rank, pos, tag, full))
    merged.sort(key=lambda item: item[:3])
    vectors = []
    for item in merged:
        vec = item[4]
        vectors.append(-vec if vec[np.argmax(np.abs(vec))] < 0.0 else vec)
    return np.array([item[0] for item in merged]), np.array(vectors), tuple(m[3] for m in merged)


@pytest.mark.parametrize("two_alpha", [1.3, 2.0])
@pytest.mark.parametrize("n_max", [0, 1, 2, 24])
def test_solve_matches_reference_merge(two_alpha, n_max):
    order = FractionalOrder(two_alpha)
    lambdas, vectors, parities = _reference_merge(order, n_max, banded=order.alpha.is_integer())
    sol = solve(order, n_max)
    np.testing.assert_array_equal(sol.lambdas, lambdas)
    np.testing.assert_array_equal(sol.vectors, vectors)
    # flipped rows carry -0.0 off their parity, and the CLI prints it as "-0"
    np.testing.assert_array_equal(np.signbit(sol.vectors), np.signbit(vectors))
    assert sol.parities == parities


def _full_row_sign_vectors(sol):
    """The vectors signed by the largest-magnitude entry of each full row."""
    parities = np.array(sol.parities)
    vectors = np.zeros((sol.n_max + 1, sol.n_max + 1))
    for p, (tag, mu, vecs) in enumerate(riesz_eig.eig._block_spectra(sol.order, sol.n_max, True)):
        rows = np.flatnonzero(parities == tag)
        vectors[rows, p::2] = (vecs[:, ::-1] / np.sqrt(mu[::-1])).T
    dominant = vectors[np.arange(sol.n_max + 1), np.argmax(np.abs(vectors), axis=1)]
    vectors[dominant < 0.0] *= -1.0
    return vectors


@pytest.mark.parametrize("two_alpha", [0.37, 1.6, 2.0, 3.6, 4.0, 6.0])
@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 24, 255, 256])
def test_vectors_sign_per_block_matches_full_rows(two_alpha, n_max):
    # the dominant entry is picked inside each parity block; the bytes, -0.0
    # included, are those of the pick over each full row
    sol = solve(FractionalOrder(two_alpha), n_max)
    expected = _full_row_sign_vectors(sol)
    np.testing.assert_array_equal(sol.vectors, expected)
    np.testing.assert_array_equal(np.signbit(sol.vectors), np.signbit(expected))


@pytest.mark.parametrize("two_alpha", [1.6, 2.0, 3.6])
@pytest.mark.parametrize("n_max", [0, 1, 24, 256])
def test_vector_rows_rebuild_the_vectors_from_the_blocks(two_alpha, n_max):
    # the CLI's rows and eval_eigenfunction's vectors come from the parity
    # blocks, and never read the (N+1)^2 matrix; each equals its row of it,
    # the sign of every zero included
    sol = solve(FractionalOrder(two_alpha), n_max)
    rows = np.empty((n_max + 1, n_max + 1))
    for i, (p, values, negative) in enumerate(sol._vector_rows()):
        assert sol.parities[i] == ("even", "odd")[p]
        rows[i, p::2] = values
        rows[i, 1 - p::2] = -0.0 if negative else 0.0
    singles = np.array([sol._vector(i) for i in range(n_max + 1)])
    eval_eigenfunction(sol, [1, n_max + 1], [-0.5, 0.5])
    assert "vectors" not in vars(sol)
    for composed in (rows, singles):
        np.testing.assert_array_equal(composed, sol.vectors)
        np.testing.assert_array_equal(np.signbit(composed), np.signbit(sol.vectors))


@pytest.mark.parametrize("two_alpha, n_max", [(1.6, 1024), (3.6, 1024), (5.6, 512)])
def test_solve_lambdas_are_values_only_reciprocals(two_alpha, n_max):
    mass = assemble_mass(FractionalOrder(two_alpha), n_max)
    blocks = (mass.entries[p::2, p::2] for p in (0, 1))
    with riesz_eig.eig._one_blas_thread():
        expected = np.sort(np.concatenate([1.0 / np.linalg.eigvalsh(b) for b in blocks]))
    np.testing.assert_array_equal(solve(FractionalOrder(two_alpha), n_max).lambdas, expected)


def test_values_paths_never_decompose_fully(monkeypatch):
    # syevd without vectors, and numpy's eigvalsh where numpy's wheel holds no OpenBLAS
    syevd = riesz_eig.eig._syevd

    def syevd_values_only(block, vectors):
        if vectors:
            raise AssertionError("syevd asked for vectors on a values-only path")
        return syevd(block, vectors)

    def no_vectors(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called on a values-only path")

    monkeypatch.setattr(riesz_eig.eig, "_syevd", syevd_values_only)
    monkeypatch.setattr(np.linalg, "eigh", no_vectors)
    order = FractionalOrder(1.6)
    for hooked in (True, False):
        if not hooked:
            _no_openblas(monkeypatch)
        sol = solve(order, 64)
        spectrum_report(sol)
        weyl_ratios(sol)
        condition_slope(order, [8, 16, 32])
        convergence_table(order, [8, 16], 32)
        with pytest.raises(AssertionError):
            sol.vectors


def test_solve_names_lost_small_end(monkeypatch):
    # syevd, and numpy's eigvalsh where numpy's wheel holds no OpenBLAS
    syevd, eigvalsh = riesz_eig.eig._syevd, np.linalg.eigvalsh

    def losing_small_end(driver):
        def run(block, **kwargs):
            values = driver(block, **kwargs)
            values[0] = -1e-21
            return values
        return run

    monkeypatch.setattr(riesz_eig.eig, "_syevd", losing_small_end(syevd))
    monkeypatch.setattr(np.linalg, "eigvalsh", losing_small_end(eigvalsh))
    for hooked in (True, False):
        if not hooked:
            _no_openblas(monkeypatch)
        with pytest.raises(RuntimeError) as exc:
            solve(FractionalOrder(5.6), 8)
        message = str(exc.value)
        assert "-1.000e-21 in the even block (N=8, 2a=5.6)" in message
        assert "below the rounding level eps*mu_max" in message
        assert "assembly bug" not in message


def test_graded_block_values_succeed_but_vectors_name_lost_small_end():
    # (5.6, 512): the values-only solver keeps the small end of both blocks,
    # the full decomposition does not.
    sol = solve(FractionalOrder(5.6), 512)
    assert np.all(np.isfinite(sol.lambdas)) and np.all(np.diff(sol.lambdas) > 0)
    with pytest.raises(RuntimeError) as exc:
        sol.vectors
    message = str(exc.value)
    assert "block (N=512, 2a=5.6)" in message
    assert "eps*mu_max" in message
    assert "eigenvectors need the small end that the full decomposition loses" in message


# Smallest eigenvalue of the even parity block at 2a = 8, N = 128, of the
# exact discrete problem: 1 / lambda_max of the "8.0/128" spectrum in
# bench/reference.json (mpmath, assembled without the package).  The even
# block holds lambda_max since N is even.
MU_MIN_8_128_EVEN = 2.2076879220738654394e-25


def test_smallest_mu_matches_high_precision_spectrum():
    sol = solve(FractionalOrder(8.0), 128)
    even = np.array(sol.parities) == "even"
    mu_min = 1.0 / sol.lambdas[even][-1]
    assert abs(mu_min - MU_MIN_8_128_EVEN) <= 1e-7 * MU_MIN_8_128_EVEN


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


@pytest.mark.parametrize(
    "two_alpha, rtol",
    [(8.0, 1e-7), (5.6, 1e-9), (3.6, 5e-11), (1.2, 1e-12), (1.6, 1e-12), (2.0, 1e-12)],
)
def test_full_spectrum_matches_reference(two_alpha, rtol):
    # every eigenvalue at N = 128 against the mpmath spectra of the benchmark
    spectra = json.loads(REFERENCE.read_text())["spectra"]
    expected = np.array([float(x) for x in spectra[f"{two_alpha:.1f}/128"]])
    lambdas = solve(FractionalOrder(two_alpha), 128).lambdas
    assert np.max(np.abs(lambdas / expected - 1.0)) <= rtol


def exact_banded_spectrum(alpha, n_max):
    """Ascending lambdas of both parity blocks, closed form and ``eigsy`` at 50 digits."""
    with mp.workdps(50):
        a = mp.mpf(alpha)

        def entry(i, j):
            s, d = i + j, abs(j - i) // 2
            if d > alpha:  # 1/Gamma(alpha - d + 1) vanishes
                return mp.mpf(0)
            return (
                mp.sqrt(mp.pi * (2 * i + 2 * a + 1) * (2 * j + 2 * a + 1))
                * mp.gamma(2 * a + 1) * mp.gamma(s + 1) * (-1) ** d
                / (mp.mpf(2) ** (2 * a + s + 1) * mp.gamma(2 * a + s // 2 + 1.5)
                   * mp.gamma(s // 2 + 1) * mp.gamma(a - d + 1) * mp.gamma(a + d + 1))
            )

        mus = []
        for start in (0, 1):
            idx = range(start, n_max + 1, 2)
            block = mp.matrix([[entry(i, j) for j in idx] for i in idx])
            mus += [mu for (mu,) in mp.eigsy(block, eigvals_only=True).tolist()]
        return np.sort([float(1 / mu) for mu in mus])


# Measured: 1.5e-13, 1.9e-11, 6.4e-10.  At 2a = 2 the blocks are tridiagonal
# and sterf (the same values as dense eigvalsh) is not relatively accurate:
# scaling the even block by 1 + k*eps, |k| <= 4, moves its error between
# 1.6e-14 and 1.5e-13, so the bound there sits above that spread.
@pytest.mark.parametrize("two_alpha, rtol", [(2.0, 2e-13), (4.0, 1e-10), (6.0, 1e-8)])
def test_banded_spectrum_matches_high_precision(two_alpha, rtol):
    expected = exact_banded_spectrum(two_alpha / 2, 128)
    lambdas = solve(FractionalOrder(two_alpha), 128).lambdas
    assert np.max(np.abs(lambdas / expected - 1.0)) <= rtol


@pytest.mark.parametrize("n_max", [1024, 2048])
def test_banded_values_equal_dense_values(n_max):
    order = FractionalOrder(2.0)
    mass = assemble_mass(order, n_max)
    blocks = (mass.entries[p::2, p::2] for p in (0, 1))
    expected = np.sort(np.concatenate([1.0 / np.linalg.eigvalsh(b) for b in blocks]))
    np.testing.assert_array_equal(solve(order, n_max).lambdas, expected)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
@pytest.mark.parametrize("two_alpha", [2.0, 4.0, 6.0])
def test_banded_small_degrees(two_alpha, n_max):
    # bands of min(alpha, size - 1) superdiagonals at every degree; the empty
    # odd block at N = 0 is a band of shape (1, 0)
    order = FractionalOrder(two_alpha)
    mass = assemble_mass(order, n_max)
    for stored, size in ((mass.even, n_max // 2 + 1), (mass.odd, (n_max + 1) // 2)):
        assert stored.shape == (min(int(order.alpha), max(size - 1, 0)) + 1, size)
    blocks = [mass.entries[p::2, p::2] for p in (0, 1) if p <= n_max]
    expected = np.sort(np.concatenate([1.0 / np.linalg.eigvalsh(b) for b in blocks]))
    sol = solve(order, n_max)
    np.testing.assert_allclose(sol.lambdas, expected, rtol=1e-14, atol=0.0)
    v, m = sol.vectors, mass.entries
    np.testing.assert_allclose(v @ m @ v.T, np.eye(n_max + 1), rtol=0.0, atol=1e-14)
    residual = np.linalg.norm(m @ v.T * sol.lambdas - v.T, axis=0)
    assert np.all(residual <= 1e-14 * np.linalg.norm(v, axis=1))


@pytest.mark.parametrize("two_alpha, n_max", [
    (2.0, 0), (2.0, 1), (2.0, 2), (2.0, 3), (2.0, 64), (2.0, 511), (2.0, 512),
    (2.0, 1021), (2.0, 1022), (4.0, 2), (4.0, 3),
])
def test_small_tridiagonal_blocks_give_the_banded_bits(monkeypatch, two_alpha, n_max):
    # with no OpenBLAS in numpy's wheel a tridiagonal block goes to numpy's
    # dense drivers, whose reduction leaves it as it is: sbevd's values, and
    # its vectors up to the sign that the sign rule fixes
    order = FractionalOrder(two_alpha)
    lambdas, vectors, parities = _reference_merge(order, n_max, banded=True)

    def refuse(*args, **kwargs):
        raise AssertionError("sbevd called with no OpenBLAS in numpy's wheel")

    # the pin held around the solve, which finds no library to pin
    with riesz_eig.eig._one_blas_thread(), monkeypatch.context() as patch:
        _no_openblas(patch)
        patch.setattr(riesz_eig.eig, "_sbevd", refuse)
        sol = solve(order, n_max)
        sol.vectors
    np.testing.assert_array_equal(sol.lambdas, lambdas)
    np.testing.assert_array_equal(sol.vectors, vectors)
    np.testing.assert_array_equal(np.signbit(sol.vectors), np.signbit(vectors))
    assert sol.parities == parities


@contextlib.contextmanager
def _scipy_blas_at_one_thread():
    """SciPy's own OpenBLAS (``scipy.libs``, 32-bit integers) at one thread, as numpy's in a solve."""
    import scipy

    for path in (Path(scipy.__file__).parents[1] / "scipy.libs").glob("libscipy_openblas-*.so"):
        lib = ctypes.CDLL(str(path))
        before = lib.scipy_openblas_get_num_threads()
        lib.scipy_openblas_set_num_threads(1)
        try:
            yield
        finally:
            lib.scipy_openblas_set_num_threads(before)
        return
    pytest.skip("SciPy's wheel holds no OpenBLAS whose thread count could be set")


@needs_openblas
@pytest.mark.parametrize("two_alpha, n_max", [
    (2.0, 1024), (2.0, 2048), (4.0, 1024), (6.0, 64), (8.0, 128),
])
def test_sbevd_equals_scipy_banded_drivers(two_alpha, n_max):
    # the same LAPACK routine that SciPy's eigvals_banded and eig_banded wrap:
    # with both BLAS on one thread, the values and the vectors agree bit for bit
    import scipy.linalg

    mass = assemble_mass(FractionalOrder(two_alpha), n_max)
    with _scipy_blas_at_one_thread(), riesz_eig.eig._one_blas_thread():
        for band in (mass.even, mass.odd):
            values = riesz_eig.eig._sbevd(band, vectors=False)
            mu, vecs = riesz_eig.eig._sbevd(band, vectors=True)
            expected_mu, expected_vecs = scipy.linalg.eig_banded(band)
            np.testing.assert_array_equal(values, scipy.linalg.eigvals_banded(band))
            np.testing.assert_array_equal(mu, expected_mu)
            np.testing.assert_array_equal(vecs, expected_vecs)
            np.testing.assert_array_equal(np.signbit(vecs), np.signbit(expected_vecs))


@needs_openblas
@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
def test_sbevd_failure_names_the_block(monkeypatch, vectors):
    # LAPACKE's info > 0: the tridiagonal stage did not converge
    sol = solve(FractionalOrder(4.0), 8)
    _failing_lapacke(monkeypatch, "dsbevd", 3)
    with pytest.raises(RuntimeError) as exc:
        sol.vectors if vectors else solve(FractionalOrder(4.0), 8)
    assert str(exc.value) == (
        "the even block's eigensolve failed (N=8, 2a=4): sbevd did not converge: "
        "3 off-diagonal elements of the tridiagonal form stayed nonzero"
    )
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


@needs_openblas
@pytest.mark.parametrize("info", [-1010, -1011])
def test_sbevd_workspace_failure_raises_memory_error(monkeypatch, info):
    # LAPACKE's codes for a work or transpose array it could not allocate
    _failing_lapacke(monkeypatch, "dsbevd", info)
    with pytest.raises(MemoryError, match="could not allocate its workspace for a band of 5 rows"):
        solve(FractionalOrder(4.0), 8)


@needs_openblas
@pytest.mark.parametrize("two_alpha", [0.37, 1.6, 3.6])
def test_syevd_equals_numpy_dense_drivers(two_alpha):
    # the routine that numpy's eigvalsh and eigh call on a copy of the block:
    # solved in place on a writable copy here, the values and the vectors
    # agree bit for bit, sign bits included
    with riesz_eig.eig._one_blas_thread():
        for rows in (1, 2, 5, 257, 513, 1025):
            block = assemble_mass(FractionalOrder(two_alpha), 2 * rows - 2).even
            values = riesz_eig.eig._syevd(np.array(block), vectors=False)
            mu, vecs = riesz_eig.eig._syevd(np.array(block), vectors=True)
            expected_mu, expected_vecs = np.linalg.eigh(block)
            np.testing.assert_array_equal(values, np.linalg.eigvalsh(block))
            np.testing.assert_array_equal(mu, expected_mu)
            np.testing.assert_array_equal(vecs, expected_vecs)
            np.testing.assert_array_equal(np.signbit(vecs), np.signbit(expected_vecs))


@needs_openblas
@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
def test_syevd_failure_names_the_block(monkeypatch, vectors):
    # LAPACKE's info > 0: the tridiagonal stage did not converge
    sol = solve(FractionalOrder(1.6), 8)
    _failing_lapacke(monkeypatch, "dsyevd", 3)
    with pytest.raises(RuntimeError) as exc:
        sol.vectors if vectors else solve(FractionalOrder(1.6), 8)
    assert str(exc.value) == (
        "the even block's eigensolve failed (N=8, 2a=1.6): syevd did not converge: "
        "3 off-diagonal elements of the tridiagonal form stayed nonzero"
    )
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


@needs_openblas
@pytest.mark.parametrize("info", [-1010, -1011])
def test_syevd_workspace_failure_raises_memory_error(monkeypatch, info):
    # LAPACKE's codes for a work or transpose array it could not allocate
    _failing_lapacke(monkeypatch, "dsyevd", info)
    with pytest.raises(MemoryError, match="could not allocate its workspace for a block of 5 rows"):
        solve(FractionalOrder(1.6), 8)


@pytest.mark.parametrize("two_alpha, n_max", [(1.6, 8), (1.6, 1024), (4.0, 8)])
def test_solve_leaves_a_callers_mass_blocks_alone(two_alpha, n_max):
    # syevd overwrites the blocks the solve assembles for itself, never those
    # that assemble_mass hands to a caller
    mass = assemble_mass(FractionalOrder(two_alpha), n_max)
    held = [np.array(block) for block in (mass.even, mass.odd)]
    solve(FractionalOrder(two_alpha), n_max).vectors
    for block, before in zip((mass.even, mass.odd), held):
        assert not block.flags.writeable
        np.testing.assert_array_equal(block, before)


_PEAK_GROWTH = """
from riesz_eig.eig import solve
from riesz_eig.specfun import FractionalOrder

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))

solve(FractionalOrder(1.6), 64)
before = peak()
solve(FractionalOrder(1.6), 2048)
print(peak() - before)
"""


@needs_openblas
@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="no /proc/self/status")
def test_dense_solve_peak_memory_is_the_blocks_alone():
    # solve(1.6, 2048) holds its two 1025-row blocks, solved concurrently in
    # place: measured 2.2 blocks of growth of the peak resident set, against
    # 4.2 while numpy's drivers copied each block
    src = str(Path(riesz_eig.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PEAK_GROWTH], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 3 * 8 * 1025**2


# Largest relative deviation of the dense solve of the bands from sbevd's,
# measured: 0 at 2a = 2 (the dense reduction leaves a tridiagonal block as it
# is), 1.2e-12 at (4, 64), 1.1e-11 at (6, 64) and 4.3e-8 at (8, 128).  Wider
# bands are reduced by other rotations, and the graded blocks' large end keeps
# only about eps * kappa_s relative.
@pytest.mark.parametrize("two_alpha, n_max, rtol", [
    (2.0, 1024, 0.0), (4.0, 64, 1e-11), (6.0, 64, 1e-10), (8.0, 128, 5e-7),
])
def test_no_openblas_solves_the_bands_dense(monkeypatch, two_alpha, n_max, rtol):
    order = FractionalOrder(two_alpha)
    banded = solve(order, n_max).lambdas
    dims = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(block):
        dims.append(len(block))
        return eigvalsh(block)

    with riesz_eig.eig._one_blas_thread(), monkeypatch.context() as patch:
        _no_openblas(patch)
        patch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        dense = solve(order, n_max).lambdas
    assert dims == [n_max // 2 + 1, (n_max + 1) // 2]
    np.testing.assert_allclose(dense, banded, rtol=rtol, atol=0.0)


def test_banded_paths_never_form_a_dense_block(monkeypatch):
    # integer alpha at every degree, the empty odd block of N = 0 included
    def refuse(*args, **kwargs):
        raise AssertionError("dense block formed on the banded path")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(riesz_eig.assembly, "_dense_block", refuse)
    for two_alpha, n_max in ((2.0, 0), (2.0, 8), (2.0, 1024), (4.0, 255)):
        sol = solve(FractionalOrder(two_alpha), n_max)
        assert np.all(np.diff(sol.lambdas) > 0)
        assert sol.vectors.shape == (n_max + 1, n_max + 1)


@needs_openblas
def test_dense_vectors_go_through_syevd(monkeypatch):
    # each driver is looked up at call time, so a wrapper (a tracer, say) sees each block
    dims = []
    syevd, eigh = riesz_eig.eig._syevd, np.linalg.eigh

    def recording_syevd(block, vectors):
        dims.append(("syevd", len(block), vectors))
        return syevd(block, vectors)

    def recording_eigh(matrix):
        dims.append(("eigh", len(matrix), True))
        return eigh(matrix)

    monkeypatch.setattr(riesz_eig.eig, "_syevd", recording_syevd)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    solve(FractionalOrder(1.6), 8).vectors
    assert dims == [("syevd", n, vectors) for vectors in (False, True) for n in (5, 4)]
    dims.clear()
    solve(FractionalOrder(1.6), 0).vectors
    solve(FractionalOrder(2.0), 8).vectors  # bands keep sbevd
    solve(FractionalOrder(4.0), 8).vectors
    assert dims == [("syevd", 1, False), ("syevd", 1, True)]
    dims.clear()
    _no_openblas(monkeypatch)  # no LAPACK of our own: numpy's eigh, on the bands' dense blocks too
    solve(FractionalOrder(1.6), 8).vectors
    solve(FractionalOrder(2.0), 8).vectors
    solve(FractionalOrder(4.0), 0).vectors
    assert dims == [("eigh", n, True) for n in (5, 4, 5, 4, 1)]


@needs_openblas
@pytest.mark.parametrize("missing", ["dstevd", "dsbevd"])
def test_a_missing_symbol_sends_only_its_job_to_numpy(monkeypatch, missing):
    # a library that lacks one LAPACKE routine: the job that needs it goes to
    # numpy's dense drivers, every other job stays in LAPACK, and the bits of
    # the tridiagonal bands and of the rule are those with every routine there
    order = FractionalOrder(2.0)
    lambdas, rule = solve(order, 64).lambdas, gauss_jacobi(0.74, 257)
    lapacke = riesz_eig.eig._lapacke
    monkeypatch.setattr(riesz_eig.eig, "_lapacke",
                        lambda name: None if name == missing else lapacke(name))
    calls = []

    def recording(driver):
        def run(matrix):
            calls.append((driver.__name__, len(matrix)))
            return driver(matrix)
        return run

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    np.testing.assert_array_equal(solve(order, 64).lambdas, lambdas)
    for got, expected in zip(gauss_jacobi(0.74, 257), rule):
        np.testing.assert_array_equal(got, expected)
    if missing == "dstevd":
        assert calls == [("eigh", 257)]
    else:
        assert calls == [("eigvalsh", 33), ("eigvalsh", 32)]


def _no_openblas(monkeypatch):
    """Make the solve find no OpenBLAS in numpy's wheel: dense drivers only, blocks in turn."""
    monkeypatch.setattr(riesz_eig.eig, "_openblas", lambda: None)


def _failing_lapacke(monkeypatch, name, info):
    """Make LAPACKE's ``name`` return ``info`` at once; every other routine runs as it does."""
    lapacke = riesz_eig.eig._lapacke
    monkeypatch.setattr(riesz_eig.eig, "_lapacke",
                        lambda routine: (lambda *args: info) if routine == name else lapacke(routine))


@pytest.fixture
def blas_at_two_threads():
    """numpy's OpenBLAS at two threads for the test, and at its own count after it.

    Yields its thread-count getter.  At two threads a solve that left its
    pin early, or never set it, shows as a count of 2.
    """
    lib = riesz_eig.eig._openblas()
    if lib is None:
        pytest.skip("numpy's wheel holds no OpenBLAS")
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    before = get()
    set_(2)
    if get() != 2:
        pytest.skip("OpenBLAS does not take a count of two threads here")
    yield get
    set_(before)


def _recording_builds(monkeypatch, fails=(), last=None):
    """Record each ``MassMatrix._block`` call as ``(p, thread, weakref to the block)``.

    The ``last`` block's build sleeps first, and those in ``fails`` then
    raise ``MemoryError``, recorded with no weakref.
    """
    builds = []
    build = riesz_eig.assembly.MassMatrix._block

    def recording(mass, p, *args, **kwargs):
        tag = ("even", "odd")[p]
        if tag == last:
            time.sleep(0.2)
        if tag in fails:
            builds.append((p, threading.current_thread(), None))
            raise MemoryError(f"no room for the {tag} block")
        block = build(mass, p, *args, **kwargs)
        builds.append((p, threading.current_thread(), weakref.ref(block)))
        return block

    monkeypatch.setattr(riesz_eig.assembly.MassMatrix, "_block", recording)
    return builds


def _on_helper(builds):
    """``(tag, built on a helper thread)`` for each recorded build, sorted."""
    return sorted((("even", "odd")[p], thread is not threading.main_thread())
                  for p, thread, _ in builds)


# Both sides of the concurrency cutoff: the odd block has 255 rows at N = 510
# and 256 rows, _CONCURRENT_MIN_ROWS, at N = 511.  Each block is built once,
# on the thread that solves it, and let go of before the solve returns.
@pytest.mark.parametrize("two_alpha, n_max, vectors, hooked, concurrent", [
    pytest.param(1.6, 511, False, True, True, id="dense-values-at-cutoff", marks=needs_openblas),
    pytest.param(1.6, 510, False, True, False, id="dense-values-below"),
    pytest.param(1.6, 511, True, True, True, id="dense-vectors-at-cutoff", marks=needs_openblas),
    pytest.param(1.6, 510, True, True, False, id="dense-vectors-below"),
    pytest.param(2.0, 511, False, True, True, id="band-values-at-cutoff", marks=needs_openblas),
    pytest.param(2.0, 510, False, True, False, id="band-values-below"),
    pytest.param(2.0, 511, True, True, True, id="band-vectors-at-cutoff", marks=needs_openblas),
    pytest.param(2.0, 510, True, True, False, id="band-vectors-below"),
    # no OpenBLAS to pin: large blocks in turn
    pytest.param(1.6, 1024, False, False, False, id="no-openblas"),
    pytest.param(1.6, 0, True, True, False, id="empty-odd-block"),
])
def test_blocks_run_concurrently_only_when_pinned_and_large(
    monkeypatch, two_alpha, n_max, vectors, hooked, concurrent
):
    builds = _recording_builds(monkeypatch)
    solves = []  # (p, thread) of each driver call, p that of the build it was handed

    def recording(driver):
        def run(block, *args, **kwargs):
            [p] = [p for p, _, ref in builds if ref() is block]
            solves.append((p, threading.current_thread()))
            return driver(block, *args, **kwargs)
        return run

    for namespace, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"), (riesz_eig.eig, "_syevd"),
                            (riesz_eig.eig, "_sbevd")):
        monkeypatch.setattr(namespace, name, recording(getattr(namespace, name)))
    if not hooked:
        _no_openblas(monkeypatch)
    spectra = riesz_eig.eig._block_spectra(FractionalOrder(two_alpha), n_max, vectors)
    assert sorted(p for p, *_ in builds) == ([0, 1] if n_max else [0])
    assert sorted(solves, key=lambda s: s[0]) == sorted([b[:2] for b in builds], key=lambda b: b[0])
    assert _on_helper(builds) == [("even", False), ("odd", concurrent)][:len(builds)]
    for p, _, ref in builds:
        # released, or held only as the memory of the vectors syevd wrote into it
        assert ref() is None or (vectors and ref() is spectra[p][2].base)


@needs_openblas
@pytest.mark.parametrize("two_alpha", [1.6, 3.6, 2.0, 4.0])
def test_concurrent_blocks_equal_serial_bits(monkeypatch, two_alpha):
    # both schedules on the same driver at one BLAS thread, the serial one with
    # the cutoff out of reach; at N = 1024 and at the cutoff itself (N = 511)
    order = FractionalOrder(two_alpha)
    for n_max in (1024, 511):
        with monkeypatch.context() as patch:
            patch.setattr(riesz_eig.eig, "_CONCURRENT_MIN_ROWS", n_max + 1)
            serial = solve(order, n_max)
            serial_vectors = serial.vectors
        concurrent = solve(order, n_max)
        np.testing.assert_array_equal(concurrent.lambdas, serial.lambdas)
        assert concurrent.parities == serial.parities
        np.testing.assert_array_equal(concurrent.vectors, serial_vectors)
        np.testing.assert_array_equal(np.signbit(concurrent.vectors), np.signbit(serial_vectors))


def test_both_blocks_see_one_blas_thread(monkeypatch, blas_at_two_threads):
    get = blas_at_two_threads
    seen = []
    syevd = riesz_eig.eig._syevd

    def recording(block, vectors):
        seen.append((threading.current_thread() is threading.main_thread(), get()))
        return syevd(block, vectors)

    monkeypatch.setattr(riesz_eig.eig, "_syevd", recording)
    solve(FractionalOrder(1.6), 1024)
    assert sorted(seen) == [(False, 1), (True, 1)]  # the odd block on the helper thread


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("module, driver, two_alpha, n_max", [
    ("eig", "_syevd", 1.6, 1024),  # dense blocks, solved concurrently
    ("eig", "_syevd", 1.6, 64),
    ("eig", "_sbevd", 4.0, 64),
    ("eig", "_sbevd", 2.0, 1024),  # bands, solved concurrently
    # numpy's dense drivers serve where numpy's wheel holds no OpenBLAS: the
    # solve then finds no library and leaves the count alone
    ("numpy", "eigvalsh", 1.6, 1024),
    ("numpy", "eigvalsh", 1.6, 64),
])
def test_solve_restores_the_blas_thread_count(
    monkeypatch, blas_at_two_threads, module, driver, two_alpha, n_max, fails
):
    if module == "numpy":
        _no_openblas(monkeypatch)
    if fails:
        def not_converging(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        namespace = {"numpy": np.linalg, "eig": riesz_eig.eig}[module]
        monkeypatch.setattr(namespace, driver, not_converging)
    with pytest.raises(RuntimeError) if fails else contextlib.nullcontext():
        solve(FractionalOrder(two_alpha), n_max)
    assert blas_at_two_threads() == 2


def test_overlapping_solves_share_one_pin_and_restore_it(monkeypatch, blas_at_two_threads):
    # more caller threads than cores, switching often: a solve that restored
    # the count while another was inside would show as 2 under a driver
    get = blas_at_two_threads
    seen = []
    syevd = riesz_eig.eig._syevd

    def recording(block, vectors):
        seen.append(get())
        values = syevd(block, vectors)
        seen.append(get())
        return values

    monkeypatch.setattr(riesz_eig.eig, "_syevd", recording)
    sizes = [1024, 1023, 512, 64, 8, 1]
    done = []
    callers = [
        threading.Thread(target=lambda n=n: done.append(solve(FractionalOrder(1.6), n).n_max))
        for n in sizes
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert sorted(done) == sorted(sizes)
    assert seen == [1] * (4 * len(sizes))
    assert get() == 2


_DIGESTS = """
import hashlib, json
import numpy as np
from riesz_eig.eig import eval_eigenfunction, solve
from riesz_eig.specfun import FractionalOrder
cases = [("lambdas", 1.6, 1024), ("lambdas", 3.6, 2048), ("vectors", 2.0, 1024),
         ("vectors", 4.0, 1024), ("vectors", 1.6, 1022)]
arrays = [getattr(solve(FractionalOrder(two_alpha), n), field) for field, two_alpha, n in cases]
arrays.append(eval_eigenfunction(solve(FractionalOrder(2.0), 256), [4, 26, 48, 53, 136],
                                 np.linspace(-1.0, 1.0, 4097)))
print(json.dumps([hashlib.sha256(array).hexdigest() for array in arrays]))
"""


@needs_openblas
def test_bits_do_not_depend_on_the_blas_thread_setting():
    # fresh processes with OpenBLAS's variable unset, at 1 and at 2 threads:
    # the drivers and the sampling products run pinned to one thread in each,
    # so the bytes agree, sign bits of the vectors included
    src = str(Path(riesz_eig.__file__).resolve().parents[1])
    digests = []
    for setting in (None, "1", "2"):
        env = {name: value for name, value in os.environ.items()
               if name not in {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        proc = subprocess.run([sys.executable, "-c", _DIGESTS], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout))
    assert digests[0] == digests[1] == digests[2]


@needs_openblas
@pytest.mark.parametrize("failing, named", [(("even", "odd"), "even"), (("odd",), "odd")])
def test_concurrent_solve_raises_in_even_odd_order_and_joins(monkeypatch, failing, named):
    # at N = 1024 the even block has 513 rows and the odd one 512, dense at
    # 2a = 1.6 and banded at 2a = 2; the helper's block fails last
    sizes = {"even": 513, "odd": 512}
    for two_alpha, driver in ((1.6, "_syevd"), (2.0, "_sbevd")):
        solve_block = getattr(riesz_eig.eig, driver)

        def losing_small_end(block, vectors, solve_block=solve_block):
            values = solve_block(block, vectors)
            if len(values) == sizes["odd"]:
                time.sleep(0.2)
            if len(values) in {sizes[tag] for tag in failing}:
                values[0] = -1e-21
            return values

        threads = threading.active_count()
        with monkeypatch.context() as patch, pytest.raises(RuntimeError) as exc:
            patch.setattr(riesz_eig.eig, driver, losing_small_end)
            solve(FractionalOrder(two_alpha), 1024)
        assert f"-1.000e-21 in the {named} block (N=1024, 2a={two_alpha:g})" in str(exc.value)
        assert threading.active_count() == threads

    # the dense blocks' builds run out of memory inside the jobs that solve
    # them, the odd one on the helper thread and last
    builds = _recording_builds(monkeypatch, fails=failing, last="odd")
    threads = threading.active_count()
    with pytest.raises(MemoryError, match=f"no room for the {named} block"):
        solve(FractionalOrder(1.6), 1024)
    assert _on_helper(builds) == [("even", False), ("odd", True)]
    assert threading.active_count() == threads


@pytest.mark.parametrize("module, driver, two_alpha, vectors", [
    ("eig", "_syevd", 1.6, False),
    ("eig", "_syevd", 1.6, True),
    ("eig", "_sbevd", 4.0, False),
    ("eig", "_sbevd", 4.0, True),
    # numpy's dense drivers, where numpy's wheel holds no OpenBLAS
    ("numpy", "eigvalsh", 1.6, False),
    ("numpy", "eigh", 1.6, True),
])
def test_driver_failure_names_the_block(monkeypatch, module, driver, two_alpha, vectors):
    def not_converging(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    if module == "numpy":
        _no_openblas(monkeypatch)
    sol = solve(FractionalOrder(two_alpha), 8)
    namespace = {"numpy": np.linalg, "eig": riesz_eig.eig}[module]
    monkeypatch.setattr(namespace, driver, not_converging)
    with pytest.raises(RuntimeError) as exc:
        sol.vectors if vectors else solve(FractionalOrder(two_alpha), 8)
    assert str(exc.value) == (
        f"the even block's eigensolve failed (N=8, 2a={two_alpha:g}): "
        "Eigenvalues did not converge"
    )
    # chained straight to the driver's own error, with no link between
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


@needs_openblas
def test_concurrent_driver_failures_raise_the_even_block(monkeypatch):
    # at N = 1024 the even block has 513 rows and the odd one 512; the odd
    # block fails first, on the helper thread: in a dense driver, in a banded
    # one, or in its build, inside the job that solves it
    def failing_driver(block, vectors):
        rows = block.shape[1]
        if rows == 513:
            time.sleep(0.2)
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge ({rows} rows)")

    for two_alpha, driver in ((1.6, "_syevd"), (2.0, "_sbevd")):
        threads = threading.active_count()
        with monkeypatch.context() as patch, pytest.raises(RuntimeError) as exc:
            patch.setattr(riesz_eig.eig, driver, failing_driver)
            solve(FractionalOrder(two_alpha), 1024)
        assert str(exc.value) == (
            f"the even block's eigensolve failed (N=1024, 2a={two_alpha:g}): "
            "Eigenvalues did not converge (513 rows)"
        )
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)
        assert threading.active_count() == threads

    builds = _recording_builds(monkeypatch, fails=("even", "odd"), last="even")
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="no room for the even block"):
        solve(FractionalOrder(1.6), 1024)
    assert _on_helper(builds) == [("even", False), ("odd", True)]
    assert threading.active_count() == threads


@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
@pytest.mark.parametrize("two_alpha, n_max, hooked", [
    pytest.param(1.6, 64, True, id="dense"),  # small dense blocks
    pytest.param(4.0, 64, True, id="banded"),  # a banded driver on the stored band
    # large dense blocks and bands, solved concurrently
    pytest.param(1.6, 1024, True, id="concurrent", marks=needs_openblas),
    pytest.param(2.0, 1024, True, id="banded-concurrent", marks=needs_openblas),
    pytest.param(1.6, 1024, False, id="serial"),  # large dense blocks, solved in turn
])
def test_block_spectra_releases_the_mass_matrix_before_it_returns(
    monkeypatch, two_alpha, n_max, hooked, vectors
):
    # one assembly per solve, let go of before the return
    refs = []

    def recording_assemble_mass(order, n):
        mass = assemble_mass(order, n)
        refs.append(weakref.ref(mass))
        return mass

    monkeypatch.setattr(riesz_eig.eig, "assemble_mass", recording_assemble_mass)
    if not hooked:
        _no_openblas(monkeypatch)
    spectra = riesz_eig.eig._block_spectra(FractionalOrder(two_alpha), n_max, vectors)
    assert len(refs) == 1 and refs[0]() is None
    assert [tag for tag, *_ in spectra] == ["even", "odd"]
    assert all((vecs is not None) is vectors for *_, vecs in spectra)


def test_parity_alternation_and_tags():
    for two_alpha in (1.2, 1.6, 2.0):
        sol = solve(FractionalOrder(two_alpha), 32)
        assert sol.parities[:6] == ("even", "odd", "even", "odd", "even", "odd")


def test_tied_eigenvalues_merge_even_first_then_by_block_position(monkeypatch):
    # every lambda is tied 14 times, 7 in each block; on these 42 values
    # numpy's default (unstable) sort mixes the parities of the tied 0.5s
    mus = [np.repeat([1.0, 2.0, 4.0], 7)] * 2

    def tied_spectra(order, n_max, vectors):
        return [(tag, mu.copy(), np.eye(mu.size) if vectors else None)
                for tag, mu in zip(("even", "odd"), mus)]

    monkeypatch.setattr(riesz_eig.eig, "_block_spectra", tied_spectra)
    sol = solve(FractionalOrder(1.6), 41)
    # (lambda, parity, position in the block), the position counted in ascending lambda
    keys = sorted((1.0 / mu[::-1][k], p, k) for p, mu in enumerate(mus) for k in range(mu.size))
    np.testing.assert_array_equal(sol.lambdas, [lam for lam, _, _ in keys])
    assert sol.parities == tuple(("even", "odd")[p] for _, p, _ in keys)
    # the position shows in the vectors: the k-th row of a parity holds the
    # block's k-th vector, on the degrees p::2
    for row, (_, p, k) in zip(sol.vectors, keys):
        col = mus[p].size - 1 - k
        expected = np.zeros(42)
        expected[p + 2 * col] = 1.0 / np.sqrt(mus[p][col])
        np.testing.assert_array_equal(row, expected)


def test_min_max_monotonicity():
    order = FractionalOrder(1.6)
    coarse = solve(order, 16)
    fine = solve(order, 32)
    assert np.all(fine.lambdas[:17] <= coarse.lambdas * (1 + 1e-10))


def test_solve_deterministic():
    a = solve(FractionalOrder(1.6), 24)
    b = solve(FractionalOrder(1.6), 24)
    np.testing.assert_array_equal(a.lambdas, b.lambdas)
    np.testing.assert_array_equal(a.vectors, b.vectors)


@pytest.mark.parametrize("two_alpha", [0.37, 0.731, 2.31, 4.97])
def test_solve_off_grid_orders(two_alpha):
    # irregular orders away from the usual sweep values behave the same way
    order = FractionalOrder(two_alpha)
    sol = solve(order, 24)
    assert np.all(np.isfinite(sol.lambdas))
    assert np.all(np.diff(sol.lambdas) > 0)
    assert sol.lambdas[0] > math.gamma(two_alpha + 1.0)


def test_solve_single_mode():
    sol = solve(FractionalOrder(2.0), 0)
    assert len(sol.lambdas) == 1
    assert math.isclose(sol.lambdas[0], 2.5, rel_tol=1e-14)  # 1 / M_00 at alpha = 1
    assert sol.parities == ("even",)


def test_eigenfunction_endpoints_and_parity():
    sol = solve(FractionalOrder(1.6), 32)
    xs = np.linspace(-1.0, 1.0, 101)
    u1 = eval_eigenfunction(sol, [1], xs)[0]
    assert u1[0] == 0.0 and u1[-1] == 0.0
    np.testing.assert_allclose(u1, u1[::-1], atol=1e-12)  # first mode is even
    u2 = eval_eigenfunction(sol, [2], xs)[0]
    np.testing.assert_allclose(u2, -u2[::-1], atol=1e-12)  # second mode is odd


def test_eigenfunction_matches_cosine():
    # at 2 alpha = 2 the first mode is exactly cos(pi x / 2), unit L2 norm
    sol = solve(FractionalOrder(2.0), 32)
    xs = np.linspace(-1.0, 1.0, 257)
    u = eval_eigenfunction(sol, [1], xs)[0]
    expected = np.cos(math.pi * xs / 2)
    if u[len(xs) // 2] < 0:
        u = -u
    assert np.max(np.abs(u - expected)) <= 1e-8


@pytest.mark.parametrize("two_alpha, n_max", [(1.6, 0), (1.6, 33), (2.0, 64), (0.37, 24)])
def test_eigenfunctions_share_one_basis_bit_for_bit(two_alpha, n_max):
    # one Jacobi/scale/weight build for all indices equals a build per index
    order = FractionalOrder(two_alpha)
    sol = solve(order, n_max)
    xs = np.linspace(-1.0, 1.0, 129)
    indices = sorted({1, n_max // 2 + 1, n_max + 1})
    alpha = order.alpha
    rows = _jacobi_all(alpha, n_max, xs)
    samples = eval_eigenfunction(sol, indices, xs)
    assert samples.shape == (len(indices), xs.size)
    for index, got in zip(indices, samples):
        coeffs = sol.vectors[index - 1] * np.array([basis_coeff(order, n) for n in range(n_max + 1)])
        expected = _boundary_weight(alpha, xs) * (coeffs @ rows)
        expected[np.abs(xs) == 1.0] = 0.0
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
        np.testing.assert_array_equal(eval_eigenfunction(sol, [index], xs)[0], expected)


def test_eigenfunction_argument_checks():
    sol = solve(FractionalOrder(1.6), 8)
    with pytest.raises(ValueError):
        eval_eigenfunction(sol, [0], [0.0])
    with pytest.raises(ValueError):
        eval_eigenfunction(sol, [1, 10], [0.0])
    with pytest.raises(ValueError):
        eval_eigenfunction(sol, [1], [1.5])
    with pytest.raises(ValueError):
        eval_eigenfunction(sol, [1], [math.nan, 0.0])


@pytest.mark.parametrize("call", [
    lambda order: mass_entry(order, 0.5, 0.5),
    lambda order: mass_entry(order, 1.0, 1),
    lambda order: basis_coeff(order, 2.5),
    lambda order: jacobi_norm_sq(order.alpha, 2.5),
    lambda order: oracle_mass_entry(order, 0.5, 0.5),
    lambda order: assemble_mass(order, 8.0),
    lambda order: solve(order, 8.0),
    lambda order: eval_eigenfunction(solve(order, 8), [1.5], [0.0]),
], ids=["mass_entry_halves", "mass_entry_float_one", "basis_coeff", "jacobi_norm_sq",
        "oracle_mass_entry", "assemble_mass", "solve", "eval_eigenfunction"])
def test_non_integer_degree_or_index_is_named(call):
    # refused as a type error by operator.index, not rounded, read as an odd
    # index sum or left to fail in numpy's indexing
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        call(FractionalOrder(1.6))
