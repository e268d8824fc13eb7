"""Hypothesis properties of the bounds, checked against plain-numpy formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from varbounds.linalg import Observable, QuantumState
from varbounds.lower_bounds import mp_sum_bound_1

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(2, 5)


def _pure_instance(seed, d, eigenstate):
    """(psi, A, B) as arrays; with ``eigenstate`` psi is an eigenvector of A."""
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, d)
    b = random_hermitian(rng, d)
    if eigenstate:
        psi = np.linalg.eigh(a)[1][:, rng.integers(d)]
    else:
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
    return psi, a, b, rng


def _variance(psi, m):
    mean = np.vdot(psi, m @ psi).real
    return np.vdot(m @ psi, m @ psi).real - mean**2


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, d=DIMS, eigenstate=st.booleans())
def test_mp_sum_1_bounds_the_variance_sum(seed, d, eigenstate):
    psi, a, b, _ = _pure_instance(seed, d, eigenstate)
    res = mp_sum_bound_1(QuantumState.pure(psi), Observable(a), Observable(b))
    assert res.value <= _variance(psi, a) + _variance(psi, b) + 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, d=DIMS, eigenstate=st.booleans())
def test_mp_sum_1_unitary_covariance(seed, d, eigenstate):
    psi, a, b, rng = _pure_instance(seed, d, eigenstate)
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    before = mp_sum_bound_1(QuantumState.pure(psi), Observable(a), Observable(b)).value
    after = mp_sum_bound_1(QuantumState.pure(u @ psi), Observable(u @ a @ u.conj().T),
                           Observable(u @ b @ u.conj().T)).value
    assert after == pytest.approx(before, abs=1e-10 * max(1.0, abs(before)))
