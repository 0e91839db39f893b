import math
import warnings
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

import riesz_eig.assembly
import riesz_eig.eig
from riesz_eig.assembly import MassMatrix, _entry_tables, assemble_mass, mass_entry
from riesz_eig.eig import solve
from riesz_eig.quadrature import oracle_mass_entry, stiffness_check
from riesz_eig.specfun import FractionalOrder


def closed_form_m00(two_alpha: float) -> float:
    a = two_alpha / 2
    return (
        (two_alpha + 1)
        * math.sqrt(math.pi)
        * math.gamma(two_alpha + 1)
        / (2 ** (two_alpha + 1) * math.gamma(two_alpha + 1.5) * math.gamma(a + 1) ** 2)
    )


def test_mass_entry_known_values():
    order = FractionalOrder(2.0)
    assert math.isclose(mass_entry(order, 0, 0), 0.4, rel_tol=1e-14)
    # same number via 3 sqrt(pi) * 2 / (8 Gamma(7/2))
    direct = 3 * math.sqrt(math.pi) * 2 / (8 * math.gamma(3.5))
    assert math.isclose(mass_entry(order, 0, 0), direct, rel_tol=1e-14)
    assert math.isclose(mass_entry(order, 0, 2), -math.sqrt(21.0) / 105.0, rel_tol=1e-13)
    assert mass_entry(order, 0, 4) == 0.0  # 1/Gamma(0) kills the entry
    assert mass_entry(order, 0, 1) == 0.0  # odd index sum


@pytest.mark.parametrize("two_alpha", [0.2, 0.5, 1.0, 1.6, 2.0, 3.6, 5.6])
def test_m00_closed_form(two_alpha):
    order = FractionalOrder(two_alpha)
    assert math.isclose(mass_entry(order, 0, 0), closed_form_m00(two_alpha), rel_tol=1e-13)


def test_assemble_smallest_cases():
    order = FractionalOrder(2.0)
    m0 = assemble_mass(order, 0)
    assert m0.entries.shape == (1, 1)
    assert math.isclose(m0.entries[0, 0], 0.4, rel_tol=1e-14)
    m1 = assemble_mass(order, 1)
    assert m1.entries[0, 1] == 0.0 and m1.entries[1, 0] == 0.0
    assert math.isclose(m1.entries[1, 1], oracle_mass_entry(order, 1, 1), rel_tol=1e-13)
    with pytest.raises(ValueError, match="basis degree must be nonnegative, got -1"):
        assemble_mass(order, -1)  # at the call, with no block to read


@pytest.mark.parametrize("two_alpha", [0.5, 1.3, 2.0, 5.6])
def test_mass_matrix_structure(two_alpha):
    order = FractionalOrder(two_alpha)
    mass = assemble_mass(order, 21)
    m = mass.entries
    # exact symmetry and exact parity zeros
    assert np.array_equal(m, m.T)
    idx = np.arange(22)
    odd_sum = (idx[:, None] + idx[None, :]) % 2 == 1
    assert np.all(m[odd_sum] == 0.0)
    # the dense parity blocks, of every order, the bands of integer alpha
    # included, are the right entries
    assert mass.banded is (two_alpha == 2.0)
    even, odd = (mass._block(p, dense=True) for p in (0, 1))
    np.testing.assert_array_equal(even, m[np.ix_(idx[::2], idx[::2])])
    np.testing.assert_array_equal(odd, m[np.ix_(idx[1::2], idx[1::2])])
    # positive definiteness, blockwise
    assert np.linalg.eigvalsh(even).min() > 0
    assert np.linalg.eigvalsh(odd).min() > 0


@pytest.mark.parametrize("two_alpha, n_max", [
    (0.37, 1024), (1.6, 1023), (2.0, 1022), (3.6, 511), (4.0, 3), (5.6, 64), (8.0, 2),
])
def test_dense_blocks_are_exactly_symmetric(two_alpha, n_max):
    # eig hands a dense block to its driver with no symmetry check, the bands
    # of integer alpha too where numpy's wheel holds no OpenBLAS: the outer
    # product, the Hankel view and the Toeplitz view are each symmetric
    mass = assemble_mass(FractionalOrder(two_alpha), n_max)
    for p in (0, 1):
        block = mass._block(p, dense=True)
        assert np.array_equal(block, block.T)


@pytest.mark.parametrize("two_alpha", [2.0, 4.0])
def test_integer_alpha_bandedness(two_alpha):
    order = FractionalOrder(two_alpha)
    mass = assemble_mass(order, 24)
    band = int(two_alpha) + 2  # zero once |i - j| >= 2 alpha + 2
    for i in range(25):
        for j in range(25):
            if abs(i - j) >= band:
                assert mass.entries[i, j] == 0.0
            elif (i + j) % 2 == 0:
                assert mass.entries[i, j] != 0.0


def test_banded_mass_holds_only_the_band():
    # 2a = 2: one superdiagonal per block, O(N) bytes; the dense view on request only
    mass = assemble_mass(FractionalOrder(2.0), 2048)
    assert mass.banded
    assert mass.even.shape == (2, 1025) and mass.odd.shape == (2, 1024)
    assert mass.even.nbytes + mass.odd.nbytes == 2 * 2049 * 8
    assert "entries" not in vars(mass)
    assert mass.entries[2, 0] == mass.entries[0, 2] == mass.even[0, 1]
    assert not assemble_mass(FractionalOrder(2.1), 8).banded


@pytest.mark.parametrize("two_alpha, n_max, banded", [
    (2.0, 0, True), (2.0, 1021, True), (2.0, 1022, True), (2.0, 1023, True),
    (4.0, 3, True), (4.0, 4, True), (6.0, 4, True),  # bands at every degree
    (1.6, 2048, False), (2.1, 8, False),  # non-integer alpha
])
def test_storage_rule_at_its_edges(monkeypatch, two_alpha, n_max, banded):
    # both blocks share one stored form: for integer alpha bands of
    # min(alpha, size - 1) superdiagonals (an empty block a band of shape
    # (1, 0)), otherwise the dense blocks.  Each is built on its first read,
    # read-only and the same object after it, and holds the bits of the block
    # that the solve builds for itself
    order = FractionalOrder(two_alpha)
    mass = assemble_mass(order, n_max)
    assert mass.banded is banded
    assert {"even", "odd", "entries"}.isdisjoint(vars(mass))
    solved = {}
    build = MassMatrix._block

    def copying_build(self, p, *args, **kwargs):
        block = build(self, p, *args, **kwargs)
        solved[p] = np.array(block)  # before the driver overwrites it
        return block

    with monkeypatch.context() as patch:
        patch.setattr(MassMatrix, "_block", copying_build)
        solve(order, n_max)
    assert sorted(solved) == ([0, 1] if n_max else [0])
    dense = riesz_eig.eig._openblas() is None  # the solve then builds the bands dense
    for p, (name, size) in enumerate((("even", n_max // 2 + 1), ("odd", (n_max + 1) // 2))):
        stored = getattr(mass, name)
        rows = min(int(two_alpha / 2), max(size - 1, 0)) + 1 if banded else size
        assert stored.shape == (rows, size)
        assert not stored.flags.writeable and getattr(mass, name) is stored
        if p in solved:
            expected = mass.entries[p::2, p::2] if dense else stored
            np.testing.assert_array_equal(solved[p], expected)
            np.testing.assert_array_equal(np.signbit(solved[p]), np.signbit(expected))


def test_solve_builds_the_entry_tables_once(monkeypatch):
    # a tridiagonal order, stored as a band: no second table build for a dense
    # view of it
    calls = []

    def counting_entry_tables(alpha, m_max):
        calls.append(m_max)
        return _entry_tables(alpha, m_max)

    monkeypatch.setattr(riesz_eig.assembly, "_entry_tables", counting_entry_tables)
    solve(FractionalOrder(2.0), 512)
    assert calls == [512]


def scatter_band(band):
    """The dense block whose upper-band storage is ``band``, zeros outside the band."""
    w, n = band.shape[0] - 1, band.shape[1]
    block = np.zeros((n, n))
    for offset in range(w + 1):
        p = np.arange(n - offset)
        block[p, p + offset] = block[p + offset, p] = band[w - offset, offset:]
    return block


@pytest.mark.parametrize("two_alpha, n_max", [
    *((two_alpha, n_max) for two_alpha in (2.0, 4.0, 6.0) for n_max in (0, 1, 2, 3, 24, 255)),
    (2.0, 1023), (2.0, 1024),
])
def test_banded_dense_views_equal_the_scattered_band(two_alpha, n_max):
    # the dense view is evaluated, not scattered from the band; it must still
    # hold the band's bits and +0.0 outside it
    mass = assemble_mass(FractionalOrder(two_alpha), n_max)
    assert mass.banded
    for p, stored in enumerate((mass.even, mass.odd)):
        expected = scatter_band(stored)
        view = mass.entries[p::2, p::2]
        np.testing.assert_array_equal(view, expected)
        np.testing.assert_array_equal(np.signbit(view), np.signbit(expected))


@pytest.mark.parametrize("two_alpha, n_max, cause", [
    (171.0, 0, "every entry of the mass matrix underflows"),
    (300.0, 2, "every entry of the mass matrix underflows"),
    (700.0, 2, "every entry of the mass matrix underflows"),
    (300.5, 2, "every entry of the mass matrix underflows"),
    (1e300, 2, "every entry of the mass matrix underflows"),
    (2e300, 2, "every entry of the mass matrix underflows"),
    (1e306, 2, "every entry of the mass matrix underflows"),
    (1.7e308, 3, "every entry of the mass matrix underflows"),
])
def test_unrepresentable_mass_matrix_is_named(two_alpha, n_max, cause):
    # refused once, at the call, from K and h_0, before any table or block is
    # built: past
    # 2a of about 1.3e300 the Q and U shifts would pass specfun._SPLIT_MAX, and
    # past about 2.5e305 lgamma overflows; no warning or OverflowError on the
    # way.  mass_entry refuses alike, naming the smallest N whose matrix holds
    # the entry, of either parity
    builds = (assemble_mass, lambda order, n: mass_entry(order, n, n),
              lambda order, n: mass_entry(order, 0, n))
    for build in builds:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                build(FractionalOrder(two_alpha), n_max)
        assert cause in str(exc.value)
        assert f"(N={n_max}, 2a={two_alpha:g})" in str(exc.value)


def test_largest_entry_in_the_normal_range_assembles():
    # at 2a = 170, K is subnormal but M_00 = K (2a + 1) = 9.8e-308 is normal
    mass = assemble_mass(FractionalOrder(170.0), 0)
    assert mass.entries[0, 0] >= np.finfo(float).tiny


def test_scalar_entry_matches_assembled_grid():
    order = FractionalOrder(1.3)
    mass = assemble_mass(order, 16)
    for i in range(17):
        for j in range(17):
            assert mass.entries[i, j] == mass_entry(order, i, j)


# The closed form in 30-digit mpmath, straight from the gamma ratios (no
# duplication formula, no recurrence):
#   M_ij = sqrt(pi) h_i h_j Gamma(2a+1) Gamma(s+1) (-1)^d
#          / (2^(2a+s+1) Gamma(2a+s/2+3/2) Gamma(s/2+1) Gamma(a-d+1) Gamma(a+d+1)),
# with a = alpha, s = i + j, d = |j - i|/2 and h_i = sqrt(2i+2a+1).
@lru_cache(maxsize=None)
def closed_form_tables(alpha, n_max):
    with mp.workdps(30):
        a = mp.mpf(alpha)
        h = [mp.sqrt(2 * i + 2 * a + 1) for i in range(n_max + 1)]
        by_sum = [
            mp.sqrt(mp.pi) * mp.gamma(2 * a + 1) * mp.gamma(2 * m + 1)
            / (mp.mpf(2) ** (2 * a + 2 * m + 1) * mp.gamma(2 * a + m + 1.5) * mp.gamma(m + 1))
            for m in range(n_max + 1)
        ]
        by_diff = [(-1) ** d * mp.rgamma(a - d + 1) * mp.rgamma(a + d + 1) for d in range(n_max + 1)]
    return (np.array(h, dtype=object), np.array(by_sum, dtype=object),
            np.array(by_diff, dtype=object))


def closed_form_entries(alpha, n_max, i, j):
    """High-precision entries at integer index arrays with even ``i + j``, as (hi, lo) doubles."""
    h, by_sum, by_diff = closed_form_tables(alpha, n_max)
    with mp.workdps(30):
        exact = h[i] * h[j] * by_sum[(i + j) // 2] * by_diff[np.abs(j - i) // 2]
        hi = exact.astype(float)
        lo = (exact - hi).astype(float)
    return hi, lo


def relative_error(values, alpha, n_max, i, j):
    """``|values / M - 1|`` against the closed form; exact zeros must be +0.0."""
    hi, lo = closed_form_entries(alpha, n_max, i, j)
    zero = hi == 0.0
    assert np.all(values[zero] == 0.0) and not np.any(np.signbit(values[zero]))
    return np.abs(((values - hi) - lo)[~zero] / hi[~zero])


@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 48, 256])
@pytest.mark.parametrize("two_alpha", [0.37, 1.3, 2.0, 4.97, 8.0])
def test_tabulated_terms_match_per_entry_formula(two_alpha, n_max):
    # the recurrence tables give every entry to within a few ulps of the
    # closed form, band zeros included
    order = FractionalOrder(two_alpha)
    mass = assemble_mass(order, n_max)
    for idx in (np.arange(p, n_max + 1, 2) for p in (0, 1)):
        block = mass.entries[np.ix_(idx, idx)]
        err = relative_error(block, order.alpha, n_max, idx[:, None], idx[None, :])
        assert err.size == 0 or err.max() <= 1e-14
    sample = sorted({0, 1, 2, n_max // 2, n_max - 1, n_max} & set(range(n_max + 1)))
    for i in sample:
        for j in sample:
            value = mass_entry(order, i, j)
            assert value == mass.entries[i, j]
            assert np.signbit(value) == np.signbit(mass.entries[i, j])


@pytest.mark.parametrize("two_alpha", [1.6, 3.6])
def test_sampled_entries_accurate_at_large_degree(two_alpha):
    # the error of the running products does not grow with the degree: the
    # same 1e-14 holds at N = 2048 (measured: 1.0e-15 and 5.0e-16)
    n_max = 2048
    rng = np.random.default_rng(2048)
    i = rng.integers(0, n_max + 1, 200)
    j = rng.integers(0, n_max + 1, 200)
    j -= (i + j) % 2
    i = np.concatenate((i, [0, 0, n_max, n_max - 1]))
    j = np.concatenate((j, [n_max, 0, n_max, 1]))
    mass = assemble_mass(FractionalOrder(two_alpha), n_max)
    err = relative_error(mass.entries[i, j], two_alpha / 2, n_max, i, j)
    assert err.max() <= 1e-14


@pytest.mark.parametrize("two_alpha", [0.5, 1.3, 2.6])
def test_mass_against_oracle(two_alpha):
    order = FractionalOrder(two_alpha)
    mass = assemble_mass(order, 16)
    scale = np.max(np.abs(mass.entries))
    worst = max(
        abs(mass.entries[i, j] - oracle_mass_entry(order, i, j))
        for i in range(17)
        for j in range(i, 17)
    )
    assert worst <= 1e-12 * scale


def test_stiffness_check_small():
    assert stiffness_check(FractionalOrder(2.0), 8) <= 1e-11
    assert stiffness_check(FractionalOrder(1.0), 8) <= 1e-11
    assert stiffness_check(FractionalOrder(5.6), 4) <= 1e-10


def test_stiffness_check_guards():
    with pytest.raises(ValueError):
        stiffness_check(FractionalOrder(1.0), -1)
