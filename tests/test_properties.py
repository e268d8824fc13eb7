"""Hypothesis properties of the bounds, checked against plain-numpy formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from varbounds.linalg import Observable, QuantumState
from varbounds.lower_bounds import basis_product_bound, basis_sum_bound, mp_sum_bound_1
from varbounds.optimize import optimize_product_bound, optimize_reverse_product_bound, optimize_sum_bound
from varbounds.upper_bounds import reverse_basis_product_bound

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(2, 6)


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
def test_mp_sum_1_equals_the_variance_sum(seed, d, eigenstate):
    # ||P_perp (A -/+ iB) psi||^2 = Var A + Var B -/+ i<[A,B]>, so the commutator
    # term cancels and the baseline is attained: it is exact_sum for pure states.
    psi, a, b, _ = _pure_instance(seed, d, eigenstate)
    res = mp_sum_bound_1(QuantumState.pure(psi), Observable(a), Observable(b))
    assert res.value == pytest.approx(_variance(psi, a) + _variance(psi, b), abs=1e-10)


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


# -- closed-form basis optima ---------------------------------------------------
# The basis product and sum bounds are maximized over bases by Cauchy-Schwarz
# equality, |alpha_n| proportional to |beta_n|: the maxima are Var A * Var B and
# (Delta A + Delta B)^2 / 2.  The reverse product bound is minimized by
# Polya-Szego equality, all |alpha_n| equal and all |beta_n| equal: the minimum
# is Var A * Var B.  Variances here are ||(A - <A>) psi||^2, which stays
# accurate relative to itself near eigenstates; an eigenstate's variance is
# round-off, so the comparisons keep an absolute floor of 1e-24.
def _reverse_values(aa, bb):
    """Lambda * (sum_n |alpha_n||beta_n|)^2 per row; +inf where an entry is not positive."""
    amax, amin, bmax, bmin = aa.max(axis=1), aa.min(axis=1), bb.max(axis=1), bb.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (amax * bmax + amin * bmin) ** 2 / (4.0 * amax * bmax * amin * bmin)
    ok = (amin > 1e-12 * amax) & (bmin > 1e-12 * bmax)
    return np.where(ok, lam * np.einsum("mn,mn->m", aa, bb) ** 2, np.inf)


CLOSED_FORMS = {
    "product": (optimize_product_bound, basis_product_bound,
                lambda va, vb: va * vb,
                lambda aa, bb: np.einsum("mn,mn->m", aa, bb) ** 2),
    "sum": (optimize_sum_bound, basis_sum_bound,
            lambda va, vb: 0.5 * (np.sqrt(va) + np.sqrt(vb)) ** 2,
            lambda aa, bb: 0.5 * ((aa + bb) ** 2).sum(axis=1)),
    "reverse_product": (optimize_reverse_product_bound, reverse_basis_product_bound,
                        lambda va, vb: va * vb,
                        _reverse_values),
}


def _deviation(psi, m):
    mean = np.vdot(psi, m @ psi).real
    return m @ psi - mean * psi


def _haar_unitaries(rng, n, d):
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, d=DIMS, eigenstate=st.booleans(), objective=st.sampled_from(sorted(CLOSED_FORMS)))
def test_basis_optimum_is_the_closed_form(seed, d, eigenstate, objective):
    psi, a, b, _ = _pure_instance(seed, d, eigenstate)
    optimize_bound, _, exact_of, _ = CLOSED_FORMS[objective]
    f, g = _deviation(psi, a), _deviation(psi, b)
    exact = exact_of(np.vdot(f, f).real, np.vdot(g, g).real)
    report = optimize_bound(QuantumState.pure(psi), Observable(a), Observable(b))
    assert report.best_value == pytest.approx(exact, rel=1e-12, abs=1e-24)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, d=DIMS, eigenstate=st.booleans(), objective=st.sampled_from(sorted(CLOSED_FORMS)))
def test_basis_optimum_is_attained_at_the_reported_basis(seed, d, eigenstate, objective):
    psi, a, b, _ = _pure_instance(seed, d, eigenstate)
    optimize_bound, bound, _, _ = CLOSED_FORMS[objective]
    state, obs_a, obs_b = QuantumState.pure(psi), Observable(a), Observable(b)
    report = optimize_bound(state, obs_a, obs_b)
    res = bound(state, obs_a, obs_b, report.best_basis)
    assert res.value == report.best_value
    if objective == "reverse_product":
        for moduli in (res.intermediates["alpha_abs"], res.intermediates["beta_abs"]):
            assert moduli.max() - moduli.min() <= 1e-14 * moduli.max()


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, d=DIMS, eigenstate=st.booleans(), objective=st.sampled_from(sorted(CLOSED_FORMS)))
def test_no_random_basis_beats_the_basis_optimum(seed, d, eigenstate, objective):
    psi, a, b, rng = _pure_instance(seed, d, eigenstate)
    optimize_bound, _, _, value_in = CLOSED_FORMS[objective]
    report = optimize_bound(QuantumState.pure(psi), Observable(a), Observable(b))
    best = report.best_value
    u = _haar_unitaries(rng, 200, d)
    aa = np.abs(np.einsum("mij,i->mj", u.conj(), _deviation(psi, a)))
    bb = np.abs(np.einsum("mij,i->mj", u.conj(), _deviation(psi, b)))
    values = value_in(aa, bb)
    if report.mode == "max":
        assert values.max() <= best * (1 + 1e-12) + 1e-24
    else:  # undefined (+inf) values never beat the minimum
        assert values.min() >= best * (1 - 1e-12) - 1e-24
