import math

import numpy as np
import pytest
from scipy.special import gammaln

import riesz_eig.assembly
from riesz_eig.assembly import assemble_mass, mass_entry, stiffness_check
from riesz_eig.quadrature import oracle_mass_entry
from riesz_eig.specfun import _LOG_2, _LOG_PI, FractionalOrder, _recip_gamma_signed_parts


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
    # parity blocks are views of the right entries
    np.testing.assert_array_equal(mass.even_block, m[np.ix_(idx[::2], idx[::2])])
    np.testing.assert_array_equal(mass.odd_block, m[np.ix_(idx[1::2], idx[1::2])])
    # positive definiteness, blockwise
    assert np.linalg.eigvalsh(mass.even_block).min() > 0
    assert np.linalg.eigvalsh(mass.odd_block).min() > 0


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


def test_scalar_entry_matches_assembled_grid():
    order = FractionalOrder(1.3)
    mass = assemble_mass(order, 16)
    for i in range(17):
        for j in range(17):
            assert mass.entries[i, j] == mass_entry(order, i, j)


def per_entry_values(alpha, i, j):
    """The closed form evaluated term by term for every entry (float ``i <= j``)."""
    d = (j - i) / 2.0
    s1, lg1 = _recip_gamma_signed_parts(alpha - d + 1.0)
    s2, lg2 = _recip_gamma_signed_parts(alpha + d + 1.0)
    sign = np.where(np.mod(d, 2.0) == 0.0, 1.0, -1.0) * s1 * s2
    log_mag = (
        0.5 * (_LOG_PI + np.log(2.0 * i + 2.0 * alpha + 1.0) + np.log(2.0 * j + 2.0 * alpha + 1.0))
        + math.lgamma(2.0 * alpha + 1.0)
        + gammaln(i + j + 1.0)
        - (2.0 * alpha + i + j + 1.0) * _LOG_2
        - gammaln(2.0 * alpha + (i + j) / 2.0 + 1.5)
        - gammaln((i + j) / 2.0 + 1.0)
        + lg1
        + lg2
    )
    return np.where(sign == 0.0, 0.0, sign * np.exp(log_mag))


def per_entry_block(alpha, indices):
    a, b = np.triu_indices(indices.size)
    values = per_entry_values(alpha, indices[a].astype(float), indices[b].astype(float))
    block = np.empty((indices.size, indices.size))
    block[a, b] = values
    block[b, a] = values
    return block


@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 48, 256])
@pytest.mark.parametrize("two_alpha", [0.37, 1.3, 2.0, 4.97, 8.0])
def test_tabulated_terms_match_per_entry_formula(two_alpha, n_max):
    # gathering the terms from O(N) tables must not change a single bit
    order = FractionalOrder(two_alpha)
    mass = assemble_mass(order, n_max)
    for block, start in ((mass.even_block, 0), (mass.odd_block, 1)):
        expected = per_entry_block(order.alpha, np.arange(start, n_max + 1, 2))
        assert np.array_equal(block, expected)
        assert np.array_equal(np.signbit(block), np.signbit(expected))
    sample = sorted({0, 1, 2, n_max // 2, n_max - 1, n_max} & set(range(n_max + 1)))
    for i in sample:
        for j in sample:
            assert mass_entry(order, i, j) == mass.entries[i, j]


def test_special_functions_see_only_linear_tables(monkeypatch):
    n_max = 256
    sizes = []

    def recording(fn):
        def wrapped(x):
            sizes.append(np.size(x))
            return fn(x)
        return wrapped

    monkeypatch.setattr(riesz_eig.assembly, "gammaln", recording(gammaln))
    monkeypatch.setattr(
        riesz_eig.assembly, "_recip_gamma_signed_parts", recording(_recip_gamma_signed_parts)
    )
    assemble_mass(FractionalOrder(1.6), n_max)
    assert sizes and max(sizes) <= 2 * n_max + 1


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
        stiffness_check(FractionalOrder(1.0), 65)
    with pytest.raises(ValueError):
        stiffness_check(FractionalOrder(1.0), -1)
