import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import riesz_eig.eig
from riesz_eig.assembly import assemble_mass
from riesz_eig.quadrature import (
    _normalized_gram,
    _recurrence_offdiagonal,
    gauss_jacobi,
    oracle_mass_entry,
    oracle_mass_matrix,
    stiffness_check,
)
from riesz_eig.specfun import FractionalOrder, _image_prefactors, jacobi_norm_sq

# -0.5 is the Chebyshev weight, where the generic first off-diagonal is 0/0
EXPONENTS = [0.0, 1.0, 2.0, 0.65, 5.6, -0.5]


def _weight_id(s):
    # named as the weight (1-x)^a (1+x)^b with a = b = s
    return f"a{s}_b{s}"


def test_gauss_legendre_two_points():
    nodes, weights = gauss_jacobi(0.0, 2)
    np.testing.assert_allclose(nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], rtol=1e-14)
    np.testing.assert_allclose(weights, [1.0, 1.0], rtol=1e-14)


def _golub_welsch_tridiagonal(s, m):
    """The rule from SciPy's tridiagonal eigensolver on the same recurrence."""
    from scipy.linalg import eigh_tridiagonal

    nodes, vecs = eigh_tridiagonal(np.zeros(m), _recurrence_offdiagonal(s, m))
    weights = jacobi_norm_sq(s, 0) * vecs[0] ** 2
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights


@pytest.mark.parametrize("m", [1, 2, 33, 65, 1025])
@pytest.mark.parametrize("s", [0.8, 5.6], ids=_weight_id)
def test_rule_equals_tridiagonal_eigensolver(s, m):
    # LAPACK's reduction leaves the dense tridiagonal matrix as it is, so the
    # dense and the tridiagonal eigensolver agree to the last bit
    nodes, weights = gauss_jacobi(s, m)
    expected_nodes, expected_weights = _golub_welsch_tridiagonal(s, m)
    np.testing.assert_array_equal(nodes, expected_nodes)
    np.testing.assert_array_equal(weights, expected_weights)


@pytest.mark.parametrize("m", [1, 2, 33, 65, 1025])
@pytest.mark.parametrize("s", [0.8, 5.6], ids=_weight_id)
def test_rule_without_the_library_equals_tridiagonal_eigensolver(monkeypatch, s, m):
    # where numpy's wheel holds no OpenBLAS the rule comes from numpy's dense
    # eigh, and still agrees with the tridiagonal eigensolver to the last bit
    monkeypatch.setattr(riesz_eig.eig, "_openblas", lambda: None)
    test_rule_equals_tridiagonal_eigensolver(s, m)


@pytest.mark.parametrize("s, m", [
    (-0.5, 7), (0.0, 2), (0.3, 257), (0.74, 1025), (1.8, 513), (3.6, 200), (6.0, 65), (1.0, 1),
])
def test_rule_is_the_same_without_the_library(monkeypatch, s, m):
    # stevd in numpy's OpenBLAS, or numpy's eigh on the dense tridiagonal matrix
    nodes, weights = gauss_jacobi(s, m)
    monkeypatch.setattr(riesz_eig.eig, "_openblas", lambda: None)
    assert riesz_eig.eig._lapacke("dstevd") is None
    expected_nodes, expected_weights = gauss_jacobi(s, m)
    np.testing.assert_array_equal(nodes, expected_nodes)
    np.testing.assert_array_equal(weights, expected_weights)


def _failing_stevd(monkeypatch, info):
    """Make every LAPACKE routine, ``dstevd`` among them, return ``info`` at once."""
    monkeypatch.setattr(riesz_eig.eig, "_lapacke", lambda name: lambda *args: info)


def test_rule_names_a_failed_eigensolve(monkeypatch):
    # LAPACKE's info > 0: the divide and conquer did not converge
    _failing_stevd(monkeypatch, 3)
    with pytest.raises(RuntimeError) as exc:
        gauss_jacobi(0.5, 9)
    assert str(exc.value) == (
        "tridiagonal eigensolve failed for weight exponent 0.5 with 9 nodes: stevd did not "
        "converge: 3 off-diagonal elements of the tridiagonal form stayed nonzero"
    )
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("info", [-1010, -1011])
def test_rule_workspace_failure_raises_memory_error(monkeypatch, info):
    # LAPACKE's codes for a work or transpose array it could not allocate
    _failing_stevd(monkeypatch, info)
    with pytest.raises(MemoryError, match="^stevd could not allocate its workspace for a "
                                          "tridiagonal matrix of 9 rows$"):
        gauss_jacobi(0.5, 9)


def test_single_node_rule():
    nodes, weights = gauss_jacobi(1.0, 1)
    assert nodes[0] == 0.0
    assert math.isclose(weights[0], 4.0 / 3.0, rel_tol=1e-14)


def test_quartic_moment_example():
    # integral of x^4 (1-x^2)^2 dx = 16/315 by termwise integration
    nodes, weights = gauss_jacobi(2.0, 20)
    got = float(np.dot(weights, nodes**4))
    assert math.isclose(got, 16.0 / 315.0, rel_tol=1e-13)


def jacobi_weight_moments(s, max_power):
    """Weighted monomial moments ``integral x^p (1-x^2)^s dx`` for p <= max_power.

    The zeroth moment is a gamma ratio and the odd moments are 0; the even
    ones follow from the integration-by-parts recurrence
    ``(p + 2s + 2) I_{p+1} = p I_{p-1}``.
    """
    moments = np.zeros(max_power + 1)
    moments[0] = jacobi_norm_sq(s, 0)
    for p in range(1, max_power, 2):
        moments[p + 1] = p * moments[p - 1] / (p + s + s + 2.0)
    return moments


@pytest.mark.parametrize("s", EXPONENTS, ids=_weight_id)
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16, 33, 64])
def test_degree_exactness(s, m):
    nodes, weights = gauss_jacobi(s, m)
    moments = jacobi_weight_moments(s, 2 * m - 1)
    powers = np.ones_like(nodes)
    for p in range(2 * m):
        got = float(np.dot(weights, powers))
        # odd moments of the symmetric weight vanish: compare those
        # absolutely, scaled by the neighbouring even moment
        if p % 2 == 1:
            assert moments[p] == 0.0
            assert abs(got) <= 1e-12 * moments[p - 1]
        else:
            assert math.isclose(got, moments[p], rel_tol=1e-12, abs_tol=1e-15)
        powers = powers * nodes


@pytest.mark.parametrize("s", EXPONENTS, ids=_weight_id)
def test_rule_structure(s):
    for m in (1, 2, 7, 24):
        nodes, weights = gauss_jacobi(s, m)
        assert nodes.shape == weights.shape == (m,)
        assert np.all(np.diff(nodes) > 0)
        assert np.all(np.abs(nodes) < 1.0)
        assert np.all(weights > 0)
        assert math.isclose(weights.sum(), jacobi_norm_sq(s, 0), rel_tol=1e-12)
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        np.testing.assert_array_equal(weights, weights[::-1])


@pytest.mark.parametrize("s", EXPONENTS, ids=_weight_id)
def test_node_interlacing(s):
    for m in (1, 2, 5, 12):
        coarse, _ = gauss_jacobi(s, m)
        fine, _ = gauss_jacobi(s, m + 1)
        # between consecutive fine nodes sits exactly one coarse node
        for i in range(m):
            assert fine[i] < coarse[i] < fine[i + 1]


def test_gauss_jacobi_rejects_bad_input():
    with pytest.raises(ValueError, match="rule size"):
        gauss_jacobi(0.0, 0)
    # a fractional node count is refused, not truncated
    with pytest.raises(TypeError):
        gauss_jacobi(0.0, 2.5)
    for s in (-1.0, -1.2, math.nan):
        with pytest.raises(ValueError, match="weight exponent"):
            gauss_jacobi(s, 3)


@pytest.mark.parametrize("s", [math.inf, 1e300, 1e200, 1e20])
def test_gauss_jacobi_names_an_unrepresentable_exponent(s):
    # a named ValueError, with no overflow warning, OverflowError or the
    # eigensolver failure that would signal a bug
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"weight exponent {s}")
                           if math.isfinite(s) else "weight exponent must be finite, got inf"):
            gauss_jacobi(s, 3)


def test_oracle_mass_entry_values():
    order = FractionalOrder(2.0)
    assert math.isclose(oracle_mass_entry(order, 0, 0), 0.4, rel_tol=1e-12)
    expected = -math.sqrt(21.0) / 105.0
    assert math.isclose(oracle_mass_entry(order, 0, 2), expected, rel_tol=1e-12)
    assert type(oracle_mass_entry(order, 0, 2)) is float


@pytest.mark.parametrize("two_alpha", [0.5, 1.3, 2.0, 5.6])
def test_oracle_mass_entry_odd_parity(two_alpha):
    order = FractionalOrder(two_alpha)
    for i, j in ((0, 1), (1, 2), (2, 5), (0, 7)):
        assert abs(oracle_mass_entry(order, i, j)) <= 1e-15
        assert oracle_mass_entry(order, i, j) == oracle_mass_entry(order, j, i)
    for i, j in ((0, 2), (1, 3), (2, 6), (4, 10)):
        assert oracle_mass_entry(order, i, j) == oracle_mass_entry(order, j, i)


@pytest.mark.parametrize("two_alpha, n_max", [(2.0, 8), (3.6, 64)])
def test_oracle_mass_matrix_matches_entries(two_alpha, n_max):
    order = FractionalOrder(two_alpha)
    matrix = oracle_mass_matrix(order, n_max)
    assert matrix.shape == (n_max + 1, n_max + 1)
    m00 = oracle_mass_entry(order, 0, 0)
    # the per-entry oracle is exactly symmetric (test_oracle_mass_entry_odd_parity)
    for i in range(n_max + 1):
        for j in range(i, n_max + 1):
            entry = oracle_mass_entry(order, i, j)
            assert abs(matrix[i, j] - entry) <= 1e-14 * m00
            assert abs(matrix[j, i] - entry) <= 1e-14 * m00


@pytest.mark.parametrize("two_alpha", [1.6, 2.0, 3.6])
def test_oracle_mass_matrix_matches_assembly_at_cli_size(two_alpha):
    order = FractionalOrder(two_alpha)
    entries = assemble_mass(order, 1024).entries
    assert np.max(np.abs(oracle_mass_matrix(order, 1024) - entries)) <= 1e-14 * entries[0, 0]


@pytest.mark.parametrize("two_alpha", [1.6, 2.0])
@pytest.mark.parametrize("n_max", [0, 1, 64])
def test_oracle_mass_matrix_is_its_parity_blocks(two_alpha, n_max):
    # the blocks are the Gram products, bit for bit, and every entry of odd
    # i + j is +0.0: no product between the blocks is formed
    order = FractionalOrder(two_alpha)
    matrix = oracle_mass_matrix(order, n_max)
    assert matrix.shape == (n_max + 1, n_max + 1)
    for p, block in enumerate(_normalized_gram(order, 2.0, n_max)):
        assert np.array_equal(matrix[p::2, p::2], block)
        between = matrix[p::2, 1 - p::2]
        assert np.all(between == 0.0) and not np.any(np.signbit(between))


@pytest.mark.parametrize("two_alpha", [1.6, 2.0, 5.6])
@pytest.mark.parametrize("n_max", [0, 3, 64])
def test_stiffness_check_is_the_full_matrix_maximum(two_alpha, n_max):
    # the maximum over the upper triangle of the full matrix, its Gram the
    # two blocks with exact zeros between them, as oracle_mass_matrix puts
    # them (a product of other shape would round differently in the last bits)
    order = FractionalOrder(two_alpha)
    gram = np.zeros((n_max + 1, n_max + 1))
    gram[0::2, 0::2], gram[1::2, 1::2] = _normalized_gram(order, 1.0, n_max)
    prefactors = _image_prefactors(order.alpha, n_max)
    reference = np.max(np.triu(np.abs(prefactors[:, None] * gram - np.eye(n_max + 1))))
    assert stiffness_check(order, n_max) == reference


@pytest.mark.parametrize("two_alpha", [0.5, 2.0, 5.6])
def test_stiffness_check_at_cli_size(two_alpha):
    assert stiffness_check(FractionalOrder(two_alpha), 1024) <= 2.5e-12


@pytest.mark.parametrize("two_alpha, n_max", [
    pytest.param(170.0, 8, id="170.0"), pytest.param(200.0, 8, id="200.0"),
    pytest.param(170.0, 1, id="170.0-1"), pytest.param(168.0, 3, id="168.0-3"),
    pytest.param(171.7, 0, id="171.7-0"),
])
def test_stiffness_check_names_prefactors_too_large(two_alpha, n_max):
    # Gamma(N + 2a + 1)/N!, or its constant Gamma(2a + 1), passes the largest
    # double: a named refusal, not an OverflowError, an inf or an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"overflows (N={n_max}, 2a={two_alpha:g})")):
            stiffness_check(FractionalOrder(two_alpha), n_max)


@pytest.mark.parametrize("two_alpha, n_max", [(170.0, 0), (168.0, 0), (168.0, 1), (168.0, 2)])
def test_stiffness_check_takes_every_prefactor_a_double_holds(two_alpha, n_max):
    # Gamma(N + 2a + 1)/N! passes _SPLIT_MAX but is a double (Gamma(171) =
    # 7.3e306); only the ratio table (2a+1)_N/N! has to stay below _SPLIT_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stiffness_check(FractionalOrder(two_alpha), n_max) <= 1e-13


@pytest.mark.parametrize("two_alpha", [1.0, 1.6, 2.0, 2.6, 3.6, 5.6])
def test_stiffness_check_low_degree_sweep(two_alpha):
    # every energy inner product of degrees <= 20 against the identity
    assert stiffness_check(FractionalOrder(two_alpha), 20) <= 1e-11


_CROSS_CHECKS = """
import hashlib, json
from riesz_eig.quadrature import gauss_jacobi, oracle_mass_matrix, stiffness_check
from riesz_eig.specfun import FractionalOrder
order = FractionalOrder(0.37)
arrays = [*gauss_jacobi(0.74, 1025), oracle_mass_matrix(order, 500)]
print(json.dumps([*(hashlib.sha256(a).hexdigest() for a in arrays),
                  stiffness_check(order, 500).hex()]))
"""


@pytest.mark.skipif(riesz_eig.eig._openblas() is None,
                    reason="numpy's wheel holds no OpenBLAS whose thread count could be pinned")
def test_cross_checks_do_not_depend_on_the_blas_thread_setting():
    # fresh processes with OpenBLAS's variable unset, at 1 and at 2 threads:
    # the rule's eigensolve and the Gram products run pinned to one thread,
    # so the mass deviation that `mass --verify-oracle` prints (2a = 0.37,
    # N = 500) keeps its last digits
    src = str(Path(riesz_eig.__file__).resolve().parents[1])
    digests = []
    for setting in (None, "1", "2"):
        env = {name: value for name, value in os.environ.items()
               if name not in {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        proc = subprocess.run([sys.executable, "-c", _CROSS_CHECKS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout))
    assert digests[0] == digests[1] == digests[2]
