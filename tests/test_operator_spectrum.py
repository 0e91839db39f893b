"""The computed spectrum against the operator's own: classical truths and the two-term law.

At 2a = 2 the operator is ``-d^2/dx^2`` on (-1, 1) with Dirichlet conditions,
whose eigenvalues are ``(n pi / 2)^2`` and eigenfunctions
``sin(n pi (x + 1) / 2)``.  At 2a = 4 it is ``d^4/dx^4`` with clamped ends,
whose eigenvalues are ``(beta_n / 2)^4`` for the roots ``beta_n`` of
``cos(b) cosh(b) = 1``.  Both eigenvalue truths are taken in 40-digit mpmath,
and every eigenvalue up to n = 600 of the N = 1024 solve is checked.

At non-integer orders the check is the two-term law
``lambda_n ~ (n pi/2 - (2 - 2a) pi/8)^{2a}``, proved for 0 < 2a < 2
(M. Kwasnicki, J. Funct. Anal. 262, 2012) and empirical above 2a = 2.  Its
own error behaves like ``C(a) n^{-(2+2a)}``, so it is checked only where that
tail is below 1% of the tolerance.  At 2a = 6 it is the classical asymptote
``k = (n + 1) pi / 2``, exact up to terms of about ``e^{-sqrt(3) k}``.
"""

import mpmath as mp
import numpy as np
import pytest

from riesz_eig.eig import eval_eigenfunction, solve
from riesz_eig.specfun import FractionalOrder

N_MAX = 1024
N_CHECKED = 600
# the largest relative errors measured were 8.3e-15 (2a = 2, n = 112) and
# 2.0e-14 (2a = 4, n = 421)
RTOL = 5e-14


def laplacian_truth(n):
    return (n * mp.pi / 2) ** 2


def clamped_beam_truth(n):
    # cos(b) - sech(b) has the roots of cos(b) cosh(b) = 1 with no overflow;
    # the n-th lies within sech((n + 1/2) pi) of (n + 1/2) pi
    beta = mp.findroot(lambda b: mp.cos(b) - mp.sech(b), (n + mp.mpf(1) / 2) * mp.pi)
    return (beta / 2) ** 4


@pytest.mark.parametrize("two_alpha, truth", [(2.0, laplacian_truth), (4.0, clamped_beam_truth)])
def test_spectrum_against_classical_truth(two_alpha, truth):
    lambdas = solve(FractionalOrder(two_alpha), N_MAX).lambdas[:N_CHECKED]
    with mp.workdps(40):
        exact = np.array([float(truth(n)) for n in range(1, N_CHECKED + 1)])
    rel = np.abs(lambdas - exact) / exact
    worst = int(np.argmax(rel))
    assert rel[worst] <= RTOL, (worst + 1, rel[worst])


# Largest relative gaps to the law at the n checked below: 1.2e-14 at 2a = 3.6
# (n = 596) and 3.3e-15 at 2a = 2.6 (n = 1150).
LAW_RTOL = 3e-14


def two_term_law(two_alpha, n):
    return (n * np.pi / 2 - (2 - two_alpha) * np.pi / 8) ** two_alpha


# From 2a of about 4 the gap to the law is the eigensolver's own loss on the
# graded blocks, not the law's, whose error is below 1% of the bound wherever it
# is checked.  Each bound is a few times the loss measured at N = 1024, for a
# more accurate solve to tighten:
# - 2a = 4.4, dense `eigvalsh`: 5.15e-14 at n = 234;
# - 2a = 6, banded `sbevd`: 1.91e-12 at n = 522.
# 2a = 5.2 is left out: its n = 10..50 fit spreads 18%, as the loss enters there.
LOSS_RTOL_4_4 = 1.5e-13
LOSS_RTOL_6 = 5e-12


# 2a = 2.6 is checked at N = 2048: its tail C n^{-4.6} is 4.3e-15 at n = 600,
# so no n that N = 1024 resolves (up to about 620) has it below 1% of any
# tolerance near the measured gaps.  N = 2048 resolves n up to about 1260.
@pytest.mark.parametrize("two_alpha, n_max, last", [(2.6, 2048, 1200), (3.6, 1024, 600),
                                                   (4.4, 1024, 600)])
def test_two_term_law_at_non_integer_orders(two_alpha, n_max, last):
    rtol = {4.4: LOSS_RTOL_4_4}.get(two_alpha, LAW_RTOL)
    n = np.arange(1, last + 1)
    law = two_term_law(two_alpha, n)
    rel = np.abs(solve(FractionalOrder(two_alpha), n_max).lambdas[:last] - law) / law
    # C(a) from n = 10..50, where the law's tail is the whole gap; it must be one constant
    fit = rel[9:50] * n[9:50] ** (2 + two_alpha)
    assert np.ptp(fit) <= 0.05 * np.max(fit), fit
    first = int(np.ceil((np.max(fit) / (0.01 * rtol)) ** (1 / (2 + two_alpha))))
    assert last - first >= 100, first
    worst = first + int(np.argmax(rel[first - 1:]))
    assert rel[worst - 1] <= rtol, (worst, rel[worst - 1])


def test_two_term_law_at_2a_6():
    # the law's exponential terms are below 1e-20 from n = 20 on
    n = np.arange(20, N_CHECKED + 1)
    law = two_term_law(6.0, n)
    rel = np.abs(solve(FractionalOrder(6.0), N_MAX).lambdas[n - 1] - law) / law
    worst = int(np.argmax(rel))
    assert rel[worst] <= LOSS_RTOL_6, (n[worst], rel[worst])


# Per N, the modes checked at 2a = 2 as bands ``(last mode, bound)``, each bound
# a few times the band's largest error over 1001 uniform samples, up to sign:
# - N = 256: 3.3e-12 on modes 1-128; from 134 on the modes are not resolved
#   (5.2e-11 at 134, 3.3e-8 at 140);
# - N = 1024: 3.3e-12 (1-80), 8.2e-12 (81-240), 2.6e-10 (241-320, at 289) and
#   9.6e-11 (321-600); 4.0e-9 at 601-610 and 1.5e-2 at 640.
# The error is that of the coefficient vectors, about eps ||M|| / gap.
EIGENFUNCTION_BANDS = {
    256: ((128, 1e-11),),
    1024: ((80, 1e-11), (240, 3e-11), (320, 1e-9), (600, 3e-10)),
}


@pytest.mark.parametrize("n_max", sorted(EIGENFUNCTION_BANDS))
def test_laplacian_eigenfunctions(n_max):
    bands = EIGENFUNCTION_BANDS[n_max]
    modes = np.arange(1, bands[-1][0] + 1)
    x = np.linspace(-1.0, 1.0, 1001)
    samples = eval_eigenfunction(solve(FractionalOrder(2.0), n_max), modes, x)
    exact = np.sin(np.outer(modes, np.pi * (x + 1) / 2))
    err = np.minimum(np.abs(samples - exact).max(axis=1), np.abs(samples + exact).max(axis=1))
    first = 1
    for last, bound in bands:
        worst = first + int(np.argmax(err[first - 1:last]))
        assert err[worst - 1] <= bound, (worst, err[worst - 1])
        first = last + 1
