import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_observable, random_pure_state, random_state
from varbounds.errors import DimensionMismatch, MixedStateUnsupported, NumericalConsistencyError
from varbounds.linalg import Observable, QuantumState, pauli_operators, qubit_state_from_bloch, spin1_operators
from varbounds.moments import (
    anticommutator_expectation,
    clamp_variance,
    commutator_expectation,
    covariance,
    deviation_vector,
    expectation,
    moments,
    variance,
)

KET0 = QuantumState.pure([1.0, 0.0])


def fig3_state(theta):
    return qubit_state_from_bloch(
        [np.cos(theta / 2), np.sqrt(3) / 2 * np.sin(theta / 2), 0.5 * np.sin(theta / 2)]
    )


def test_expectation_spot_values():
    sx, sy, sz = pauli_operators()
    assert expectation(KET0, sz) == pytest.approx(1.0, abs=1e-14)
    assert expectation(KET0, sx) == pytest.approx(0.0, abs=1e-14)
    for theta in (0.3, 1.1, 2.9):
        assert expectation(fig3_state(theta), sx) == pytest.approx(np.cos(theta / 2), abs=1e-12)


def test_variance_spot_values():
    sx, _, sz = pauli_operators()
    assert variance(KET0, sz) == pytest.approx(0.0, abs=1e-14)
    assert variance(KET0, sx) == pytest.approx(1.0, abs=1e-14)
    lx, _, _ = spin1_operators()
    state = QuantumState.pure([1.0, 0.0, 0.0])  # theta=0 member of cos|1> - sin|0>
    assert variance(state, lx) == pytest.approx(0.5, abs=1e-14)


def test_covariance_spot_values():
    sx, sy, sz = pauli_operators()
    assert covariance(KET0, sx, sy) == pytest.approx(0.0, abs=1e-14)
    for theta in (0.2, 1.7, 3.0):
        assert covariance(fig3_state(theta), sx, sz) == pytest.approx(-np.sin(theta) / 4, abs=1e-12)


def test_self_covariance_is_variance(rng):
    for d in (2, 3, 5):
        a = random_observable(rng, d)
        s = random_state(rng, d)
        assert covariance(s, a, a) == pytest.approx(variance(s, a), abs=1e-12)


def test_commutator_expectations():
    sx, sy, sz = pauli_operators()
    assert commutator_expectation(KET0, sx, sy) == pytest.approx(2j, abs=1e-14)
    assert commutator_expectation(KET0, sx, sz) == pytest.approx(0.0, abs=1e-14)
    a = Observable(np.diag([1.0, 2.0, 3.0]))
    b = Observable(np.diag([-1.0, 0.5, 2.0]))
    s = random_pure_state(np.random.default_rng(3), 3)
    assert commutator_expectation(s, a, b) == pytest.approx(0.0, abs=1e-14)
    assert anticommutator_expectation(KET0, sx, sy) == pytest.approx(0.0, abs=1e-14)


def test_deviation_vector():
    sx, _, sz = pauli_operators()
    assert_allclose(deviation_vector(KET0, sz), [0.0, 0.0], atol=1e-14)
    assert_allclose(deviation_vector(KET0, sx), [0.0, 1.0], atol=1e-14)


def test_deviation_vector_properties(rng):
    for d in (2, 4, 6):
        for _ in range(10):
            s = random_pure_state(rng, d)
            a = random_observable(rng, d)
            f = deviation_vector(s, a)
            assert abs(np.vdot(s.vector, f)) <= 1e-10
            assert np.vdot(f, f).real == pytest.approx(variance(s, a), abs=1e-10)


def test_deviation_vector_mixed_raises(rng):
    from conftest import random_mixed_state

    s = random_mixed_state(rng, 3)
    a = random_observable(rng, 3)
    with pytest.raises(MixedStateUnsupported):
        deviation_vector(s, a)


def test_pure_vector_vs_rank1_rho_agree(rng):
    for d in (2, 3, 5):
        for _ in range(5):
            s = random_pure_state(rng, d)
            r = QuantumState.mixed(s.density_matrix())
            a = random_observable(rng, d)
            b = random_observable(rng, d)
            assert expectation(s, a) == pytest.approx(expectation(r, a), abs=1e-10)
            assert variance(s, a) == pytest.approx(variance(r, a), abs=1e-10)
            assert covariance(s, a, b) == pytest.approx(covariance(r, a, b), abs=1e-10)
            assert commutator_expectation(s, a, b) == pytest.approx(
                commutator_expectation(r, a, b), abs=1e-10
            )


def test_robertson_schrodinger_sanity(rng):
    # cov^2 + |<[A,B]>/2|^2 <= varA varB, used as a moments-level property
    for d in (2, 3, 4):
        for _ in range(40):
            s = random_state(rng, d)
            a = random_observable(rng, d)
            b = random_observable(rng, d)
            ms = moments(s, a, b)
            lhs = ms.cov**2 + abs(ms.comm_expect / 2) ** 2
            assert lhs <= ms.var_a * ms.var_b + 1e-9


def test_moments_consistency(rng):
    s = random_state(rng, 4)
    a = random_observable(rng, 4)
    b = random_observable(rng, 4)
    ms = moments(s, a, b)
    assert ms.mean_a == pytest.approx(expectation(s, a), abs=1e-13)
    assert ms.var_b == pytest.approx(variance(s, b), abs=1e-13)
    assert ms.cov == pytest.approx(covariance(s, a, b), abs=1e-13)
    assert ms.anticomm_expect == pytest.approx(anticommutator_expectation(s, a, b), abs=1e-13)


def test_dimension_mismatch():
    sx, _, _ = pauli_operators()
    with pytest.raises(DimensionMismatch):
        expectation(QuantumState.pure([1, 0, 0]), sx)


def test_variance_clamp():
    assert clamp_variance(-5e-13) == 0.0
    assert clamp_variance(2.0) == 2.0
    with pytest.raises(NumericalConsistencyError):
        clamp_variance(-1e-9)


def test_variance_floor_is_relative_to_the_second_moment():
    # the floor is -1e-12 * max(1, <A^2>)
    assert clamp_variance(-5e-13, 0.5) == 0.0
    assert clamp_variance(-2e-8, 4e4) == 0.0
    for v, second in ((-1e-9, 0.5), (-1e-9, 1.0), (-5e-8, 4e4), (-1.0, 1e6)):
        with pytest.raises(NumericalConsistencyError, match="below"):
            clamp_variance(v, second)


def test_a_real_negative_variance_still_raises():
    # a "density matrix" with a negative eigenvalue, set past the constructor's
    # check, gives <A^2> - <A>^2 = 1 - 4 for A = diag(1, -1)
    s = QuantumState.mixed(np.diag([0.5, 0.5]))
    s.rho = np.diag([1.5, -0.5]).astype(complex)
    a = Observable(np.diag([1.0, -1.0]))
    with pytest.raises(NumericalConsistencyError, match="variance -3.0 below"):
        variance(s, a)
    with pytest.raises(NumericalConsistencyError, match="variance -3.0 below"):
        moments(s, a, a)
