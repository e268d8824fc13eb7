"""Hypothesis properties of the bounds, checked against plain-numpy formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_mixed_state, random_pure_state
from varbounds.linalg import Observable, OrthonormalBasis, QuantumState
from varbounds.lower_bounds import (
    basis_product_bound,
    basis_sum_bound,
    fidelity_product_bound,
    mp_sum_bound_1,
    mp_sum_bound_2,
    parallelogram_sum_bound,
    rs_product_bound,
)
from varbounds.optimize import optimize_product_bound, optimize_reverse_product_bound, optimize_sum_bound
from varbounds.upper_bounds import (
    dw_deviation_sum_bound,
    dw_variance_sum_bound,
    reverse_basis_product_bound,
    reverse_fidelity_product_bound,
)

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


# -- unitary covariance ---------------------------------------------------------
# Every bound is a function of (state, A, B), and of the basis for the basis
# bounds, so conjugating all of them by one unitary U must leave it unchanged.
# The ten search-free bounds, each as (state, A, B, basis) -> BoundResult; the
# pure-only ones are skipped for mixed states.
COVARIANT_BOUNDS = {
    "rs_product": (False, lambda s, a, b, w: rs_product_bound(s, a, b)),
    "basis_product": (True, basis_product_bound),
    "fidelity_product": (False, lambda s, a, b, w: fidelity_product_bound(s, a, b)),
    "parallelogram_sum": (False, lambda s, a, b, w: parallelogram_sum_bound(s, a, b)),
    "basis_sum": (True, basis_sum_bound),
    "mp_sum_2": (True, lambda s, a, b, w: mp_sum_bound_2(s, a, b)),
    "reverse_fidelity_product": (False, lambda s, a, b, w: reverse_fidelity_product_bound(s, a, b)),
    "reverse_basis_product": (True, reverse_basis_product_bound),
    "dw_deviation_sum": (False, lambda s, a, b, w: dw_deviation_sum_bound(s, a, b)),
    "dw_variance_sum": (False, lambda s, a, b, w: dw_variance_sum_bound(s, a, b)),
}


def _conjugated_values(u, state, a, b, basis, names):
    """Bound values (``+inf`` where undefined) for the instance conjugated by ``u``."""
    ud = u.conj().T
    if state.is_pure:
        state = QuantumState.pure(u @ state.vector)
    else:
        state = QuantumState.mixed(u @ state.rho @ ud)
    a = Observable(u @ a.matrix @ ud)
    b = Observable(u @ b.matrix @ ud)
    basis = OrthonormalBasis(u @ basis.columns)
    return {name: COVARIANT_BOUNDS[name][1](state, a, b, basis).value for name in names}


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, d=DIMS, pure=st.booleans())
def test_search_free_bounds_are_unitarily_covariant(seed, d, pure):
    # GUE pairs are non-degenerate with probability 1, so each eigenvector is
    # fixed up to its phase and no bound may depend on the solver's choices.
    rng = np.random.default_rng(seed)
    a, b = Observable(random_hermitian(rng, d)), Observable(random_hermitian(rng, d))
    state = random_pure_state(rng, d) if pure else random_mixed_state(rng, d)
    basis = OrthonormalBasis(_haar_unitaries(rng, 1, d)[0])
    names = [n for n, (pure_only, _) in COVARIANT_BOUNDS.items() if pure or not pure_only]
    before = _conjugated_values(np.eye(d), state, a, b, basis, names)
    after = _conjugated_values(_haar_unitaries(rng, 1, d)[0], state, a, b, basis, names)
    for name in names:
        assert after[name] == pytest.approx(before[name], rel=1e-10), name


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: on a degenerate spectrum the fidelity sequences "
                          "depend on the eigenvectors the solver picks inside the cluster")
def test_fidelity_bounds_on_a_degenerate_spectrum_are_unitarily_covariant():
    rng = np.random.default_rng(20240811)
    state = random_pure_state(rng, 3)
    a = Observable(np.diag([1.0, 1.0, -1.0]))
    b = Observable(random_hermitian(rng, 3))
    basis = OrthonormalBasis.standard(3)
    names = ("fidelity_product", "parallelogram_sum", "reverse_fidelity_product")
    before = _conjugated_values(np.eye(3), state, a, b, basis, names)
    moved = {name: 0.0 for name in names}
    for u in _haar_unitaries(rng, 40, 3):
        after = _conjugated_values(u, state, a, b, basis, names)
        for name in names:
            moved[name] = max(moved[name], abs(after[name] - before[name]))
    assert all(m <= 1e-10 for m in moved.values()), moved
