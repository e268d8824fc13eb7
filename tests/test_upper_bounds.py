import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_observable, random_pure_state, random_state
from varbounds.linalg import (
    Observable,
    OrthonormalBasis,
    QuantumState,
    pauli_operators,
    qubit_state_from_bloch,
)
from varbounds.lower_bounds import fidelity_product_bound, parallelogram_sum_bound
from varbounds.moments import covariance, variance
from varbounds.random_ensembles import gue_hermitian
from varbounds.upper_bounds import (
    HYPOTHESIS_REASON,
    ReverseFactor,
    dw_deviation_sum_bound,
    dw_variance_sum_bound,
    reverse_basis_product_bound,
    reverse_fidelity_product_bound,
)

KET0 = QuantumState.pure([1.0, 0.0])


def fig3_state(theta):
    return qubit_state_from_bloch(
        [np.cos(theta / 2), np.sqrt(3) / 2 * np.sin(theta / 2), 0.5 * np.sin(theta / 2)]
    )


def reverse_fidelity_oracle(state, a_matrix, b_matrix):
    """Direct evaluation of the reverse fidelity bound via LAPACK eigh."""
    rho = state.density_matrix()

    def weighted(m):
        w, v = np.linalg.eigh(m)
        mean = np.trace(rho @ m).real
        fid = np.einsum("im,ij,jm->m", v.conj(), rho, v).real
        raw = (w - mean) * np.sqrt(np.maximum(fid, 0.0))
        return np.sort(raw)

    c = np.abs(weighted(a_matrix))
    d = np.abs(weighted(b_matrix))
    if c.min() <= 1e-12 * c.max() or d.min() <= 1e-12 * d.max():
        return None
    omega = (c.max() * d.max() + c.min() * d.min()) ** 2 / (
        4.0 * c.max() * d.max() * c.min() * d.min()
    )
    return omega * np.dot(c, d) ** 2


class TestReverseFidelity:
    def test_undefined_on_eigenstate(self):
        sx, _, sz = pauli_operators()
        res = reverse_fidelity_product_bound(KET0, sx, sz)
        assert not res.defined
        assert res.value == np.inf
        assert "hypothesis" in res.reason

    def test_oracle_agreement_and_validity(self):
        sx, _, sz = pauli_operators()
        s = QuantumState.pure([np.cos(np.pi / 8), np.sin(np.pi / 8)])
        res = reverse_fidelity_product_bound(s, sx, sz)
        assert res.defined
        oracle = reverse_fidelity_oracle(s, sx.matrix, sz.matrix)
        assert res.value == pytest.approx(oracle, abs=1e-10)
        assert res.value >= variance(s, sx) * variance(s, sz) - 1e-10

    def test_factor_one_case(self):
        # |0> with sigma_x, sigma_y: both sequences are (1/sqrt2, 1/sqrt2)
        sx, sy, _ = pauli_operators()
        res = reverse_fidelity_product_bound(KET0, sx, sy)
        assert res.defined
        assert res.intermediates["omega"] == pytest.approx(1.0, abs=1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.value >= variance(KET0, sx) * variance(KET0, sy) - 1e-12

    def test_validity_random(self, rng):
        defined = 0
        for d in (2, 3, 4):
            for _ in range(40):
                s = random_state(rng, d)
                a = random_observable(rng, d)
                b = random_observable(rng, d)
                res = reverse_fidelity_product_bound(s, a, b)
                if res.defined:
                    defined += 1
                    assert res.value >= variance(s, a) * variance(s, b) - 1e-10
                    oracle = reverse_fidelity_oracle(s, a.matrix, b.matrix)
                    assert res.value == pytest.approx(oracle, rel=1e-9)
        assert defined > 20  # the hypothesis holds often enough to exercise the path


class TestReverseBasis:
    def test_undefined_when_alpha_has_zero(self):
        sx, sy, _ = pauli_operators()
        res = reverse_basis_product_bound(KET0, sx, sy, OrthonormalBasis.standard(2))
        assert not res.defined

    def test_rotated_basis_validity(self):
        # (|0> + |1>)/sqrt2 is an eigenstate of sigma_x, where the bound is
        # undefined in every basis; a state that is no eigenstate of either
        sx, sy, _ = pauli_operators()
        s = QuantumState.pure([np.cos(0.3), np.sin(0.3) * np.exp(0.5j)])
        t = np.pi / 8
        u = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        res = reverse_basis_product_bound(s, sx, sy, OrthonormalBasis(u))
        assert res.defined
        assert res.value >= variance(s, sx) * variance(s, sy) - 1e-10

    def test_equality_case(self):
        # f = g with equal-magnitude coefficients: Lambda = 1, value = product
        sx, _, _ = pauli_operators()
        u = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        res = reverse_basis_product_bound(KET0, sx, sx, OrthonormalBasis(u))
        assert res.defined
        assert res.intermediates["lambda"] == pytest.approx(1.0, abs=1e-12)
        assert res.value == pytest.approx(variance(KET0, sx) ** 2, abs=1e-12)

    def test_validity_random(self, rng):
        from test_lower_bounds import random_basis

        checked = 0
        for d in (2, 3, 4):
            for _ in range(40):
                s = random_pure_state(rng, d)
                a = random_observable(rng, d)
                b = random_observable(rng, d)
                res = reverse_basis_product_bound(s, a, b, random_basis(rng, d))
                if res.defined:
                    checked += 1
                    assert res.value >= variance(s, a) * variance(s, b) - 1e-10
        assert checked > 20


class TestReverseBasisFloor:
    """At an eigenstate of A the deviation vector is round-off dust, and the
    positivity floor (1e-12 of ||A - <A>||_F) counts it as the zero it is."""

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_undefined_at_eigenstates(self, d):
        rng = np.random.default_rng(2)
        a, b = gue_hermitian(rng, d), gue_hermitian(rng, d)
        vecs = np.linalg.eigh(a)[1]
        for basis in (OrthonormalBasis.standard(d), OrthonormalBasis(np.linalg.qr(b)[0])):
            for k in range(d):
                for pair in ((a, b), (b, a)):  # an eigenstate of the first observable, then of the second
                    state = QuantumState.pure(vecs[:, k])
                    res = reverse_basis_product_bound(state, Observable(pair[0]),
                                                      Observable(pair[1]), basis)
                    assert not res.defined
                    assert res.reason == HYPOTHESIS_REASON
                    assert res.value == np.inf

    def test_floor_leaves_generic_states_defined(self, rng):
        for d in (2, 3, 4, 6):
            for _ in range(20):
                s = random_pure_state(rng, d)
                a, b = random_observable(rng, d), random_observable(rng, d)
                q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
                assert reverse_basis_product_bound(s, a, b, OrthonormalBasis(q)).defined


class TestDunklWilliams:
    def test_deviation_sum_tight_case(self):
        sx, sy, _ = pauli_operators()
        res = dw_deviation_sum_bound(KET0, sx, sy)
        assert res.value == pytest.approx(2.0, abs=1e-12)
        # and Delta A + Delta B = 2 exactly here
        assert np.sqrt(variance(KET0, sx)) + np.sqrt(variance(KET0, sy)) == pytest.approx(2.0)

    def test_equal_observables_vacuous(self, rng):
        a = random_observable(rng, 3)
        s = random_pure_state(rng, 3)
        res = dw_deviation_sum_bound(s, a, a)
        assert not res.defined
        assert res.value == np.inf

    def test_eigenstate_undefined(self):
        sx, _, sz = pauli_operators()
        res = dw_variance_sum_bound(KET0, sz, sx)
        assert not res.defined
        assert "non-null" in res.reason

    def test_fig_family_theta_pi(self):
        sx, _, sz = pauli_operators()
        s = fig3_state(np.pi)
        dev = dw_deviation_sum_bound(s, sx, sz)
        assert dev.value == pytest.approx(np.sqrt(2.0 * 7.0 / 4.0), abs=1e-12)
        assert dev.value >= np.sqrt(variance(s, sx)) + np.sqrt(variance(s, sz)) - 1e-10
        var = dw_variance_sum_bound(s, sx, sz)
        assert var.value == pytest.approx(3.5 - np.sqrt(3.0), abs=1e-12)
        assert variance(s, sx) + variance(s, sz) == pytest.approx(1.75, abs=1e-12)

    def test_variance_sum_tight_case(self):
        sx, sy, _ = pauli_operators()
        res = dw_variance_sum_bound(KET0, sx, sy)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_validity_random(self, rng):
        for d in (2, 3, 4):
            for _ in range(40):
                s = random_state(rng, d)
                a = random_observable(rng, d)
                b = random_observable(rng, d)
                dev = dw_deviation_sum_bound(s, a, b)
                if dev.defined:
                    assert dev.value >= (
                        np.sqrt(variance(s, a)) + np.sqrt(variance(s, b)) - 1e-10
                    )
                var = dw_variance_sum_bound(s, a, b)
                if var.defined:
                    assert var.value >= variance(s, a) + variance(s, b) - 1e-10


class TestGlobalProperties:
    def test_cov_cauchy_schwarz(self, rng):
        for d in (2, 3, 4):
            for _ in range(50):
                s = random_state(rng, d)
                a = random_observable(rng, d)
                b = random_observable(rng, d)
                assert abs(covariance(s, a, b)) <= (
                    np.sqrt(variance(s, a) * variance(s, b)) + 1e-10
                )

    def test_sandwich(self, rng):
        for d in (2, 3):
            for _ in range(50):
                s = random_state(rng, d)
                a = random_observable(rng, d)
                b = random_observable(rng, d)
                product = variance(s, a) * variance(s, b)
                total = variance(s, a) + variance(s, b)
                lo = fidelity_product_bound(s, a, b)
                hi = reverse_fidelity_product_bound(s, a, b)
                assert lo.value <= product + 1e-10
                if hi.defined:
                    assert product <= hi.value + 1e-10
                lo_s = parallelogram_sum_bound(s, a, b)
                hi_s = dw_variance_sum_bound(s, a, b)
                assert lo_s.value <= total + 1e-10
                if hi_s.defined:
                    assert total <= hi_s.value + 1e-10

    def test_reverse_factor_at_least_one(self, rng):
        for _ in range(200):
            c = rng.uniform(0.01, 2.0, 4)
            d = rng.uniform(0.01, 2.0, 4)
            rf = ReverseFactor(max_a=c.max(), min_a=c.min(), max_b=d.max(), min_b=d.min())
            assert rf.factor >= 1.0 - 1e-12

    def test_reverse_factor_of_one_pair_is_python_float(self):
        sx, _, sz = pauli_operators()
        s = QuantumState.pure([np.cos(np.pi / 8), np.sin(np.pi / 8)])
        rf = ReverseFactor(max_a=1.0, min_a=0.5, max_b=2.0, min_b=0.25)
        assert type(rf.factor) is float
        fid = reverse_fidelity_product_bound(s, sx, sz)
        bas = reverse_basis_product_bound(s, sx, sz, OrthonormalBasis.standard(2))
        for res, key in ((fid, "omega"), (bas, "lambda")):
            assert res.defined
            assert type(res.value) is float and type(res.intermediates[key]) is float
        stacked = ReverseFactor(*np.ones((4, 3)))
        assert stacked.factor.shape == (3,)

    def test_reverse_factor_equality_condition(self):
        rf = ReverseFactor(max_a=2.0, min_a=1.0, max_b=0.5, min_b=1.0)
        assert rf.factor == pytest.approx(1.0)  # Ma*Mb == ma*mb
