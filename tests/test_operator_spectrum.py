"""The whole computed spectrum at the two integer orders with a classical truth.

At 2a = 2 the operator is ``-d^2/dx^2`` on (-1, 1) with Dirichlet conditions,
whose eigenvalues are ``(n pi / 2)^2``.  At 2a = 4 it is ``d^4/dx^4`` with
clamped ends, whose eigenvalues are ``(beta_n / 2)^4`` for the roots
``beta_n`` of ``cos(b) cosh(b) = 1``.  Both truths are taken in 40-digit
mpmath, and every eigenvalue up to n = 600 of the N = 1024 solve is checked.
"""

import mpmath as mp
import numpy as np
import pytest

from riesz_eig.eig import solve
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
