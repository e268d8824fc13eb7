import numpy as np
import pytest

from conftest import random_hermitian, random_observable, random_pure_state
from oracles import scan_basis_bound_d2
from varbounds.errors import MixedStateUnsupported, NumericalConsistencyError
from varbounds.linalg import Observable, OrthonormalBasis, QuantumState, pauli_operators, spin1_operators
from varbounds.lower_bounds import (
    basis_product_bound,
    basis_sum_bound,
    fidelity_product_bound,
    mp_sum_bound_2,
    parallelogram_sum_bound,
    rs_product_bound,
)
from varbounds.moments import variance
from varbounds.random_ensembles import gue_hermitian
from varbounds.optimize import (
    OptimizerConfig,
    aligned_basis,
    optimize_product_bound,
    optimize_reverse_product_bound,
    optimize_sum_bound,
)
from varbounds.upper_bounds import reverse_basis_product_bound, reverse_fidelity_product_bound

KET0 = QuantumState.pure([1.0, 0.0])
FAST = OptimizerConfig(restarts=4)
OBJECTIVES = {
    "product": optimize_product_bound,
    "sum": optimize_sum_bound,
    "reverse_product": optimize_reverse_product_bound,
}


class TestAlignedSeed:
    def test_achieves_cs_equality(self, rng):
        from varbounds.moments import deviation_vector

        for d in (2, 3, 5):
            s = random_pure_state(rng, d)
            a = random_observable(rng, d)
            b = random_observable(rng, d)
            f = deviation_vector(s, a)
            g = deviation_vector(s, b)
            u = aligned_basis(f, g)
            res = basis_product_bound(s, a, b, OrthonormalBasis(u))
            assert res.value == pytest.approx(variance(s, a) * variance(s, b), abs=1e-9)


class TestOptimizeProduct:
    def test_ket0_saturates(self):
        sx, sy, _ = pauli_operators()
        report = optimize_product_bound(KET0, sx, sy, cfg=FAST)
        assert report.best_value == pytest.approx(1.0, abs=1e-9)
        oracle = scan_basis_bound_d2(KET0, sx, sy, "product")
        assert report.best_value == pytest.approx(oracle, abs=1e-6)

    def test_eigenstate_gives_zero(self):
        sx, _, sz = pauli_operators()
        report = optimize_product_bound(KET0, sz, sx, cfg=FAST)
        assert report.best_value == pytest.approx(0.0, abs=1e-12)

    def test_spin1_between_rs_and_product(self):
        lx, ly, _ = spin1_operators()
        theta = np.pi / 6
        s = QuantumState.pure([np.cos(theta), -np.sin(theta), 0.0])
        report = optimize_product_bound(s, lx, ly, cfg=FAST)
        assert report.best_value >= rs_product_bound(s, lx, ly).value - 1e-10
        assert report.best_value <= variance(s, lx) * variance(s, ly) + 1e-10

    def test_seed_dominance(self, rng):
        s = random_pure_state(rng, 3)
        a = random_observable(rng, 3)
        b = random_observable(rng, 3)
        report = optimize_product_bound(s, a, b, cfg=OptimizerConfig(restarts=1))
        for basis in (OrthonormalBasis.standard(3), a.eigenbasis(), b.eigenbasis()):
            assert report.best_value >= basis_product_bound(s, a, b, basis).value - 1e-12

    def test_deterministic(self, rng):
        s = random_pure_state(rng, 3)
        a = random_observable(rng, 3)
        b = random_observable(rng, 3)
        r1 = optimize_product_bound(s, a, b, cfg=FAST)
        r2 = optimize_product_bound(s, a, b, cfg=FAST)
        assert r1.best_value == r2.best_value
        assert r1.trace == r2.trace
        assert r1.best_basis.columns.tobytes() == r2.best_basis.columns.tobytes()
        assert r1.evaluations == r2.evaluations

    def test_report_consistency(self, rng):
        s = random_pure_state(rng, 2)
        a = random_observable(rng, 2)
        b = random_observable(rng, 2)
        report = optimize_product_bound(s, a, b, cfg=FAST)
        recomputed = basis_product_bound(s, a, b, report.best_basis).value
        assert report.best_value == pytest.approx(recomputed, abs=1e-12)
        assert report.best_value >= max(v for _, v in report.trace) - 1e-12
        assert report.mode == "max"

    def test_mixed_raises(self, rng):
        from conftest import random_mixed_state

        s = random_mixed_state(rng, 2)
        a = random_observable(rng, 2)
        with pytest.raises(MixedStateUnsupported):
            optimize_product_bound(s, a, a, cfg=FAST)


class TestOptimizeSum:
    def test_ket0_saturates(self):
        sx, sy, _ = pauli_operators()
        report = optimize_sum_bound(KET0, sx, sy, cfg=FAST)
        assert report.best_value == pytest.approx(2.0, abs=1e-9)
        oracle = scan_basis_bound_d2(KET0, sx, sy, "sum")
        assert report.best_value == pytest.approx(oracle, abs=1e-6)

    def test_joint_eigenstate_gives_zero(self):
        a = Observable(np.diag([1.0, 2.0, 3.0]))
        b = Observable(np.diag([5.0, 1.0, 0.0]))
        s = QuantumState.pure([1.0, 0.0, 0.0])
        report = optimize_sum_bound(s, a, b, cfg=FAST)
        assert report.best_value == pytest.approx(0.0, abs=1e-12)

    def test_dominates_standard_basis_and_validity(self, rng):
        for _ in range(5):
            s = random_pure_state(rng, 3)
            a = random_observable(rng, 3)
            b = random_observable(rng, 3)
            report = optimize_sum_bound(s, a, b, cfg=OptimizerConfig(restarts=2))
            std = basis_sum_bound(s, a, b, OrthonormalBasis.standard(3)).value
            total = variance(s, a) + variance(s, b)
            assert report.best_value >= std - 1e-12
            assert report.best_value <= total + 1e-10

    def test_matches_closed_form_optimum(self, rng):
        # max over bases is ((Delta A + Delta B)^2)/2, reached by the aligned seed
        for d in (2, 3):
            s = random_pure_state(rng, d)
            a = random_observable(rng, d)
            b = random_observable(rng, d)
            report = optimize_sum_bound(s, a, b, cfg=OptimizerConfig(restarts=2))
            da = np.sqrt(variance(s, a))
            db = np.sqrt(variance(s, b))
            assert report.best_value == pytest.approx(0.5 * (da + db) ** 2, abs=1e-9)


def _deviation(psi, m):
    return m @ psi - np.vdot(psi, m @ psi).real * psi


def _assert_flat_optimum(psi, a, b):
    """The reverse optimum is Var A * Var B, attained where both moduli are flat."""
    state, obs_a, obs_b = QuantumState.pure(psi), Observable(a), Observable(b)
    report = optimize_reverse_product_bound(state, obs_a, obs_b)
    f, g = _deviation(psi, a), _deviation(psi, b)
    assert report.best_value == pytest.approx(np.vdot(f, f).real * np.vdot(g, g).real, rel=1e-12)
    res = reverse_basis_product_bound(state, obs_a, obs_b, report.best_basis)
    assert res.value == report.best_value
    for moduli in (res.intermediates["alpha_abs"], res.intermediates["beta_abs"]):
        assert moduli.max() - moduli.min() <= 1e-14 * moduli.max()
    assert report.trace == [(0, report.best_value)]
    assert report.start_labels == ("flat",)
    assert (report.evaluations, report.restarts_used, report.converged, report.mode) == (0, 0, True, "min")
    return f, g


def _unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


class TestOptimizeReverse:
    def test_improves_on_fixed_basis(self, rng):
        sx, sy, _ = pauli_operators()
        s = QuantumState.pure(np.array([np.cos(0.4), np.sin(0.4) * np.exp(0.3j)]))
        report = optimize_reverse_product_bound(s, sx, sy, cfg=FAST)
        assert report.mode == "min"
        product = variance(s, sx) * variance(s, sy)
        assert report.best_value >= product - 1e-10
        res_std = reverse_basis_product_bound(s, sx, sy, report.best_basis)
        assert res_std.defined
        assert res_std.value == pytest.approx(report.best_value, abs=1e-9)
        finite = [v for _, v in report.trace if np.isfinite(v)]
        assert report.best_value <= min(finite) + 1e-9

    def test_parallel_deviations_at_d2(self, rng):
        # both deviation vectors lie in the one-dimensional complement of psi
        for _ in range(20):
            psi = _unit(rng, 2)
            f, g = _assert_flat_optimum(psi, random_hermitian(rng, 2), random_hermitian(rng, 2))
            assert abs(np.vdot(f, g)) == pytest.approx(np.linalg.norm(f) * np.linalg.norm(g), rel=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_orthogonal_deviations(self, rng, d):
        # B = |v><psi| + |psi><v| with v orthogonal to psi and f: B's deviation vector is v
        psi = _unit(rng, d)
        a = random_hermitian(rng, d)
        f = _deviation(psi, a)
        v = _unit(rng, d)
        for w in (psi, f / np.linalg.norm(f)):
            v -= np.vdot(w, v) * w
        b = np.outer(v, psi.conj())
        f, g = _assert_flat_optimum(psi, a, b + b.conj().T)
        assert abs(np.vdot(f, g)) <= 1e-14 * np.linalg.norm(f) * np.linalg.norm(g)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("eps", [1e-9, 1e-4])
    def test_nearly_parallel_deviations(self, rng, d, eps):
        psi = _unit(rng, d)
        a = random_hermitian(rng, d)
        f, g = _assert_flat_optimum(psi, a, -2.0 * a + eps * random_hermitian(rng, d))
        assert 1.0 - abs(np.vdot(f, g)) / (np.linalg.norm(f) * np.linalg.norm(g)) <= 1e-8


    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_eigenstate_optimum_is_undefined(self, d):
        # no basis meets the positivity hypothesis at an eigenstate of A
        rng = np.random.default_rng(2)
        a, b = gue_hermitian(rng, d), gue_hermitian(rng, d)
        for psi in np.linalg.eigh(a)[1].T:
            report = optimize_reverse_product_bound(QuantumState.pure(psi), Observable(a), Observable(b))
            assert report.best_value == np.inf


class TestLargeSpectrumEigenstates:
    """Round-off at an eigenstate of 100 * GUE can take a variance below the
    clamp's absolute -1e-12.  The optima and the basis and fidelity bounds
    read only the means and deviations, so they still return values."""

    def test_no_bound_computes_a_variance(self):
        rng = np.random.default_rng(4)
        states, raised = [], 0
        for _ in range(10):
            a, b = Observable(100 * gue_hermitian(rng, 4)), Observable(100 * gue_hermitian(rng, 4))
            for psi in np.linalg.eigh(a.matrix)[1].T:
                s = QuantumState.pure(psi)
                try:
                    variance(s, a)
                except NumericalConsistencyError:
                    raised += 1
                states.append((s, a, b))
        assert raised > 0  # the case is exercised
        std = OrthonormalBasis.standard(4)
        for s, a, b in states:
            assert np.isfinite(optimize_product_bound(s, a, b).best_value)
            assert np.isfinite(optimize_sum_bound(s, a, b).best_value)
            assert optimize_reverse_product_bound(s, a, b).best_value == np.inf
            assert np.isfinite(basis_product_bound(s, a, b, std).value)
            assert np.isfinite(basis_sum_bound(s, a, b, std).value)
            assert not reverse_basis_product_bound(s, a, b, std).defined
            assert not reverse_fidelity_product_bound(s, a, b).defined
            for bound in (fidelity_product_bound, parallelogram_sum_bound, mp_sum_bound_2):
                assert np.isfinite(bound(s, a, b).value)


class TestOneDimension:
    """At d=1 there are no parameters and [[1]] is the only basis."""

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    def test_returns_the_only_basis(self, objective):
        s = QuantumState.pure([1.0])
        report = OBJECTIVES[objective](s, Observable(np.eye(1)), Observable(-2.0 * np.eye(1)))
        assert report.best_basis.columns.tolist() == [[1.0]]
        assert report.evaluations == 0
        assert report.converged is True
        # both deviation vectors vanish: the lower bounds are 0 and the
        # reverse bound's positivity hypothesis fails
        assert report.best_value == (np.inf if objective == "reverse_product" else 0.0)


class TestScanAgreement:
    def test_random_d2_instances(self, rng):
        for _ in range(10):
            s = random_pure_state(rng, 2)
            a = random_observable(rng, 2)
            b = random_observable(rng, 2)
            report = optimize_product_bound(s, a, b, cfg=FAST)
            oracle = scan_basis_bound_d2(s, a, b, "product")
            assert report.best_value == pytest.approx(oracle, abs=1e-6)
            assert report.best_value <= variance(s, a) * variance(s, b) + 1e-10


def _instance(seed, d):
    rng = np.random.default_rng(seed)
    return random_pure_state(rng, d), random_observable(rng, d), random_observable(rng, d)


def _assert_same_report(report, expected):
    assert report.best_value == expected.best_value
    assert report.evaluations == expected.evaluations
    assert report.trace == expected.trace
    assert report.converged == expected.converged
    assert report.start_labels == expected.start_labels
    assert report.best_basis.columns.tobytes() == expected.best_basis.columns.tobytes()


CLOSED_FORM = {
    "product": (lambda va, vb: va * vb, "aligned"),
    "sum": (lambda va, vb: 0.5 * (np.sqrt(va) + np.sqrt(vb)) ** 2, "aligned"),
    "reverse_product": (lambda va, vb: va * vb, "flat"),
}


def _assert_matches_search(objective, report, s, a, b):
    """``report`` is the closed form of ``objective`` at its witness, with a one-entry trace."""
    f, g = _deviation(s.vector, a.matrix), _deviation(s.vector, b.matrix)
    exact_of, label = CLOSED_FORM[objective]
    assert report.best_value == pytest.approx(exact_of(np.vdot(f, f).real, np.vdot(g, g).real),
                                              rel=1e-12, abs=1e-15)
    assert report.trace == [(0, report.best_value)]
    assert report.start_labels == (label,)
    assert (report.evaluations, report.restarts_used, report.converged) == (0, 0, True)


class TestLockstepSearch:
    """Seeded instances and early-exit optimizer configs against the closed forms.

    The instances and configs are those the basis search was checked on; every
    objective now returns its closed form whatever the config.
    """

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_matches_sequential(self, objective, d, seed):
        s, a, b = _instance(seed, d)
        cfg = OptimizerConfig(restarts=3, seed=seed)
        _assert_matches_search(objective, OBJECTIVES[objective](s, a, b, cfg=cfg), s, a, b)

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    @pytest.mark.parametrize("cfg", [
        OptimizerConfig(restarts=3, max_evals=60),
        OptimizerConfig(restarts=3, step_min=1e-3),
    ], ids=["max_evals_60", "step_min_1e-3"])
    def test_matches_sequential_at_early_exits(self, objective, cfg):
        s, a, b = _instance(13, 3)
        _assert_matches_search(objective, OBJECTIVES[objective](s, a, b, cfg=cfg), s, a, b)

    def test_evaluation_cap_wins_over_step_min(self):
        # Eigenstate of A: f = 0 exactly, so no basis meets the reverse bound's
        # positivity hypothesis.  The report is +inf at the standard basis with
        # a one-entry trace, whether or not the evaluation cap (41) is reached
        # before step_min; the cap and step_min no longer change anything.
        sx, _, sz = pauli_operators()
        for cfg in (None, OptimizerConfig(restarts=2, max_evals=41, step_min=1e-3),
                    OptimizerConfig(restarts=2, max_evals=42, step_min=1e-3)):
            report = optimize_reverse_product_bound(KET0, sz, sx, cfg=cfg)
            assert report.best_value == np.inf
            assert report.best_basis.columns.tolist() == np.eye(2).tolist()
            assert report.trace == [(0, np.inf)]
            assert (report.evaluations, report.converged) == (0, True)

    def test_flags_do_not_change_the_closed_forms(self):
        s, a, b = _instance(15, 4)
        for objective in sorted(OBJECTIVES):
            reports = [OBJECTIVES[objective](s, a, b, cfg=cfg)
                       for cfg in (None, OptimizerConfig(restarts=0), OptimizerConfig(restarts=5, seed=3),
                                   OptimizerConfig(max_evals=1, step_min=1.0))]
            for report in reports[1:]:
                _assert_same_report(report, reports[0])
