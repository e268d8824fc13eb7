import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_observable, random_pure_state, random_state
from oracles import mp_sum_1_d2, mp_sum_1_over, mp_sum_1_sampled
from varbounds.errors import MixedStateUnsupported
from varbounds.linalg import (
    Observable,
    OrthonormalBasis,
    QuantumState,
    pauli_operators,
    spin1_operators,
)
from varbounds.lower_bounds import (
    basis_product_bound,
    basis_sum_bound,
    fidelity_product_bound,
    mp_perp_candidates,
    mp_sum_bound_1,
    mp_sum_bound_2,
    parallelogram_sum_bound,
    rs_product_bound,
    sorted_weight_sequences,
    sorted_weighted,
)
from varbounds.moments import variance

KET0 = QuantumState.pure([1.0, 0.0])
SPIN1_TOP = QuantumState.pure([1.0, 0.0, 0.0])


def random_basis(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return OrthonormalBasis(q * (np.diag(r) / np.abs(np.diag(r))))


class TestRsProduct:
    def test_spot_values(self):
        sx, sy, sz = pauli_operators()
        assert rs_product_bound(KET0, sx, sy).value == pytest.approx(1.0, abs=1e-12)
        assert rs_product_bound(KET0, sx, sz).value == pytest.approx(0.0, abs=1e-12)
        lx, ly, _ = spin1_operators()
        assert rs_product_bound(SPIN1_TOP, lx, ly).value == pytest.approx(0.25, abs=1e-12)

    def test_equals_modulus_of_cross_expectation(self, rng):
        # for pure states the bound is |<f|g>|^2; independent recomputation
        from varbounds.moments import deviation_vector

        for d in (2, 3, 4):
            s = random_pure_state(rng, d)
            a = random_observable(rng, d)
            b = random_observable(rng, d)
            f = deviation_vector(s, a)
            g = deviation_vector(s, b)
            assert rs_product_bound(s, a, b).value == pytest.approx(
                abs(np.vdot(f, g)) ** 2, abs=1e-11
            )


class TestSortedSequences:
    def test_ket0_sigma_x(self):
        sx, _, sz = pauli_operators()
        seqs = sorted_weight_sequences(KET0, sx, sz)
        s = 1 / np.sqrt(2)
        assert_allclose(seqs.u, [-s, s], atol=1e-12)
        assert_allclose(seqs.v, [0.0, 0.0], atol=1e-12)  # eigenstate of sigma_z

    def test_spin1_lx(self):
        lx, _, _ = spin1_operators()
        seqs = sorted_weight_sequences(SPIN1_TOP, lx, lx)
        assert_allclose(seqs.u, [-0.5, 0.0, 0.5], atol=1e-12)

    def test_norm_identity(self, rng):
        for d in (2, 3, 4, 6):
            for _ in range(10):
                s = random_state(rng, d)
                a = random_observable(rng, d)
                b = random_observable(rng, d)
                seqs = sorted_weight_sequences(s, a, b)
                assert np.sum(seqs.u**2) == pytest.approx(variance(s, a), abs=1e-10)
                assert np.sum(seqs.v**2) == pytest.approx(variance(s, b), abs=1e-10)
                assert np.all(np.diff(seqs.u) >= 0)
                assert np.all(np.diff(seqs.v) >= 0)

    def test_relabeling_invariance(self, rng):
        values = rng.standard_normal(5)
        weights = rng.uniform(0.0, 1.0, 5)
        u, _ = sorted_weighted(values, weights)
        perm = rng.permutation(5)
        u2, _ = sorted_weighted(values[perm], weights[perm])
        assert_allclose(u, u2, atol=0)

    def test_indices_track_origin(self, rng):
        s = random_pure_state(rng, 4)
        a = random_observable(rng, 4)
        b = random_observable(rng, 4)
        from varbounds.lower_bounds import fidelity_weights
        from varbounds.moments import expectation

        seqs = sorted_weight_sequences(s, a, b)
        raw = (a.eigenvalues - expectation(s, a)) * np.sqrt(fidelity_weights(s, a))
        assert_allclose(seqs.u, raw[seqs.u_indices], atol=0)


class TestBasisProduct:
    def test_standard_basis_spot(self):
        sx, sy, _ = pauli_operators()
        res = basis_product_bound(KET0, sx, sy, OrthonormalBasis.standard(2))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_equal_observables_any_basis(self, rng):
        for d in (2, 4):
            a = random_observable(rng, d)
            s = random_pure_state(rng, d)
            res = basis_product_bound(s, a, a, random_basis(rng, d))
            assert res.value == pytest.approx(variance(s, a) ** 2, abs=1e-9)

    def test_chain_dominates_rs(self, rng):
        for d in (2, 3, 4):
            for _ in range(25):
                s = random_pure_state(rng, d)
                a = random_observable(rng, d)
                b = random_observable(rng, d)
                basis = random_basis(rng, d)
                assert (
                    basis_product_bound(s, a, b, basis).value
                    >= rs_product_bound(s, a, b).value - 1e-10
                )

    def test_chain_at_eigenbasis(self, rng):
        # specialization: the eigenbasis of B commutes with centered B and
        # must also dominate the Robertson-Schrodinger value
        for _ in range(15):
            s = random_pure_state(rng, 4)
            a = random_observable(rng, 4)
            b = random_observable(rng, 4)
            res = basis_product_bound(s, a, b, b.eigenbasis())
            assert res.value >= rs_product_bound(s, a, b).value - 1e-10

    def test_validity_brute_force(self, rng):
        # (sum |a_n||b_n|)^2 <= sum |a_n|^2 sum |b_m|^2 = exact product
        for d in (2, 3, 4):
            for _ in range(10):
                s = random_pure_state(rng, d)
                a = random_observable(rng, d)
                b = random_observable(rng, d)
                res = basis_product_bound(s, a, b, random_basis(rng, d))
                aa = res.intermediates["alpha_abs"]
                bb = res.intermediates["beta_abs"]
                double_sum = np.sum(np.outer(aa**2, bb**2))
                assert res.value <= double_sum + 1e-10
                assert double_sum == pytest.approx(
                    variance(s, a) * variance(s, b), abs=1e-9
                )

    def test_commutator_form_identity(self, rng):
        # |alpha_n||beta_n| = |<psi|[A', P_n B'] + {A', P_n B'}|psi>| / 2 with
        # A' = A - <A>, B' = B - <B> and P_n = |n><n|, built from matrix products
        for d in (2, 3, 4, 5, 6):
            for _ in range(10):
                s = random_pure_state(rng, d)
                a = random_observable(rng, d)
                b = random_observable(rng, d)
                basis = random_basis(rng, d)
                psi = s.vector
                abar = a.matrix - np.vdot(psi, a.matrix @ psi).real * np.eye(d)
                bbar = b.matrix - np.vdot(psi, b.matrix @ psi).real * np.eye(d)
                acc = 0.0
                for n in range(d):
                    col = basis.column(n)
                    bbar_n = np.outer(col, col.conj()) @ bbar
                    comm = abar @ bbar_n - bbar_n @ abar
                    anti = abar @ bbar_n + bbar_n @ abar
                    acc += abs(np.vdot(psi, comm @ psi) + np.vdot(psi, anti @ psi))
                value = basis_product_bound(s, a, b, basis).value
                assert abs(value - 0.25 * acc**2) <= 1e-10 + 1e-12 * abs(value)

    def test_mixed_raises(self, rng):
        from conftest import random_mixed_state

        s = random_mixed_state(rng, 3)
        a = random_observable(rng, 3)
        with pytest.raises(MixedStateUnsupported):
            basis_product_bound(s, a, a, OrthonormalBasis.standard(3))


class TestFidelityProduct:
    def test_spot_values(self):
        sx, sy, sz = pauli_operators()
        assert fidelity_product_bound(KET0, sx, sy).value == pytest.approx(1.0, abs=1e-12)
        assert fidelity_product_bound(KET0, sz, sx).value == pytest.approx(0.0, abs=1e-12)
        lx, ly, _ = spin1_operators()
        assert fidelity_product_bound(SPIN1_TOP, lx, ly).value == pytest.approx(0.25, abs=1e-12)

    def test_validity(self, rng):
        for d in (2, 3, 4, 6):
            for _ in range(25):
                s = random_state(rng, d)
                a = random_observable(rng, d)
                b = random_observable(rng, d)
                res = fidelity_product_bound(s, a, b)
                assert res.value <= variance(s, a) * variance(s, b) + 1e-10

    def test_reports_larger_pairing(self, rng):
        s = random_pure_state(rng, 3)
        a = random_observable(rng, 3)
        b = random_observable(rng, 3)
        res = fidelity_product_bound(s, a, b)
        assert res.value == pytest.approx(
            max(res.intermediates["ascending_value"], res.intermediates["opposed_value"]),
            abs=0,
        )


class TestParallelogramSum:
    def test_spot_values(self):
        lx, ly, _ = spin1_operators()
        res = parallelogram_sum_bound(SPIN1_TOP, lx, ly)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        sx, _, sz = pauli_operators()
        assert parallelogram_sum_bound(KET0, sx, sz).value == pytest.approx(0.5, abs=1e-12)

    def test_equal_observables(self, rng):
        # A = B with distinct weighted entries: bound saturates 2 Var(A)
        a = Observable(np.diag([0.3, 1.1, 2.9]))
        s = QuantumState.pure(np.array([0.6, 0.48, np.sqrt(1 - 0.6**2 - 0.48**2)]))
        res = parallelogram_sum_bound(s, a, a)
        assert res.value == pytest.approx(2.0 * variance(s, a), abs=1e-10)

    def test_validity(self, rng):
        for d in (2, 3, 4, 6):
            for _ in range(25):
                s = random_state(rng, d)
                a = random_observable(rng, d)
                b = random_observable(rng, d)
                res = parallelogram_sum_bound(s, a, b)
                assert res.value <= variance(s, a) + variance(s, b) + 1e-10
                assert res.intermediates["opposed_value"] <= (
                    variance(s, a) + variance(s, b) + 1e-10
                )


class TestBasisSum:
    def test_spot_value(self):
        sx, sy, _ = pauli_operators()
        res = basis_sum_bound(KET0, sx, sy, OrthonormalBasis.standard(2))
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_eigenstate_of_a(self, rng):
        _, _, sz = pauli_operators()
        b = random_observable(rng, 2)
        res = basis_sum_bound(KET0, sz, b, random_basis(rng, 2))
        assert res.value == pytest.approx(0.5 * variance(KET0, b), abs=1e-10)

    def test_validity(self, rng):
        for _ in range(25):
            s = random_pure_state(rng, 4)
            a = random_observable(rng, 4)
            b = random_observable(rng, 4)
            res = basis_sum_bound(s, a, b, random_basis(rng, 4))
            assert res.value <= variance(s, a) + variance(s, b) + 1e-10


class TestMpBaselines:
    def test_mp1_tight_for_ket0(self):
        sx, sy, _ = pauli_operators()
        res = mp_sum_bound_1(KET0, sx, sy)
        assert res.baseline
        assert res.value == pytest.approx(2.0, abs=1e-9)
        # a common eigenstate leaves no perpendicular component to report
        diag = mp_sum_bound_1(KET0, Observable(np.diag([1.0, 2.0])), Observable(np.diag([0.5, -0.5])))
        assert diag.value == 0.0
        assert diag.intermediates["perp_vector"] is None

    def test_mp1_equals_analytic_supremum(self, rng):
        # d=2: the complement of psi is one ray, so the oracle is exact
        for _ in range(10):
            s = random_pure_state(rng, 2)
            a = random_observable(rng, 2)
            b = random_observable(rng, 2)
            res = mp_sum_bound_1(s, a, b)
            assert res.value == pytest.approx(mp_sum_1_d2(s, a, b), abs=1e-12)
        # d>2: no sampled perpendicular vector beats the closed form, and the
        # reported perpendicular vector attains it
        for d in (3, 4, 5):
            for _ in range(4):
                s = random_pure_state(rng, d)
                a = random_observable(rng, d)
                b = random_observable(rng, d)
                res = mp_sum_bound_1(s, a, b)
                assert mp_sum_1_sampled(s, a, b, rng) <= res.value + 1e-12
                perp = res.intermediates["perp_vector"]
                assert np.linalg.norm(perp) == pytest.approx(1.0, abs=1e-12)
                assert abs(np.vdot(s.vector, perp)) <= 1e-12
                witness = mp_sum_1_over(s, a, b, perp[None, :])
                assert witness == pytest.approx(res.value, abs=1e-12 * max(1.0, res.value))

    def test_mp1_validity(self, rng):
        lx, ly, _ = spin1_operators()
        theta = np.pi / 4
        s = QuantumState.pure([np.cos(theta), -np.sin(theta), 0.0])
        res = mp_sum_bound_1(s, lx, ly)
        assert res.value <= variance(s, lx) + variance(s, ly) + 1e-8
        a = random_observable(rng, 3)
        s2 = random_pure_state(rng, 3)
        res2 = mp_sum_bound_1(s2, a, a)
        assert res2.value <= 2 * variance(s2, a) + 1e-8

    def test_projection_identity(self, rng):
        # ||P_perp M psi||^2 = Var M for Hermitian M, here with B = 0
        for d in (2, 3, 4):
            s = random_pure_state(rng, d)
            m = Observable(random_observable(rng, d).matrix + random_observable(rng, d).matrix)
            w = mp_perp_candidates(s, m, Observable(np.zeros((d, d))), 1.0)
            assert np.linalg.norm(w) ** 2 == pytest.approx(variance(s, m), abs=1e-10)

    def test_mp2_spot_and_oracle(self, rng):
        sx, sy, _ = pauli_operators()
        assert mp_sum_bound_2(KET0, sx, sy).value == pytest.approx(1.0, abs=1e-12)
        # eigenstate of A+B gives zero
        a = Observable(np.diag([1.0, 2.0]))
        b = Observable(np.diag([0.5, -0.5]))
        assert mp_sum_bound_2(KET0, a, b).value == pytest.approx(0.0, abs=1e-12)
        for _ in range(10):
            s = random_pure_state(rng, 3)
            a = random_observable(rng, 3)
            b = random_observable(rng, 3)
            oracle = 0.5 * variance(s, Observable(a.matrix + b.matrix))
            assert mp_sum_bound_2(s, a, b).value == pytest.approx(oracle, abs=1e-10)


class TestDegenerateObservables:
    def test_validity_only(self, rng):
        # degenerate spectra: the chosen eigenbasis is one of many, so only
        # validity is asserted, never exact values
        from varbounds.upper_bounds import dw_variance_sum_bound, reverse_fidelity_product_bound

        for spectrum in ([1.0, 1.0, 3.0], [0.0, 0.0, 0.0, 2.0], [-1.0, -1.0, 1.0, 1.0]):
            d = len(spectrum)
            for _ in range(10):
                u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
                m = u @ np.diag(spectrum) @ u.conj().T
                a = Observable(0.5 * (m + m.conj().T))
                b = random_observable(rng, d)
                s = random_state(rng, d)
                product = variance(s, a) * variance(s, b)
                total = variance(s, a) + variance(s, b)
                assert fidelity_product_bound(s, a, b).value <= product + 1e-10
                assert parallelogram_sum_bound(s, a, b).value <= total + 1e-10
                rev = reverse_fidelity_product_bound(s, a, b)
                if rev.defined:
                    assert rev.value >= product - 1e-10
                dw = dw_variance_sum_bound(s, a, b)
                if dw.defined:
                    assert dw.value >= total - 1e-10


class TestInvariances:
    def test_global_phase(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            s = random_pure_state(rng, d)
            phased = QuantumState.pure(s.vector * np.exp(1j * 0.77))
            a = random_observable(rng, d)
            b = random_observable(rng, d)
            for fn in (rs_product_bound, fidelity_product_bound, parallelogram_sum_bound):
                assert fn(s, a, b).value == pytest.approx(fn(phased, a, b).value, abs=1e-10)

    def test_shift_invariance(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            s = random_state(rng, d)
            a = random_observable(rng, d)
            b = random_observable(rng, d)
            a_shift = a.shifted(0.37)
            for fn in (rs_product_bound, fidelity_product_bound, parallelogram_sum_bound):
                assert fn(s, a, b).value == pytest.approx(fn(s, a_shift, b).value, abs=1e-9)
