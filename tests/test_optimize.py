import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_observable, random_pure_state
from oracles import optimize_sequential, scan_basis_bound_d2, synthesize_unitaries_reference
from varbounds import optimize
from varbounds.errors import BadParameterCount, MixedStateUnsupported
from varbounds.linalg import Observable, OrthonormalBasis, QuantumState, pauli_operators, spin1_operators
from varbounds.lower_bounds import basis_product_bound, basis_sum_bound, rs_product_bound
from varbounds.moments import variance
from varbounds.optimize import (
    OptimizerConfig,
    UnitaryParams,
    aligned_basis,
    optimize_product_bound,
    optimize_reverse_product_bound,
    optimize_sum_bound,
    synthesize_basis,
    synthesize_unitaries,
)
from varbounds.upper_bounds import reverse_basis_product_bound

KET0 = QuantumState.pure([1.0, 0.0])
FAST = OptimizerConfig(restarts=4)
OBJECTIVES = {
    "product": optimize_product_bound,
    "sum": optimize_sum_bound,
    "reverse_product": optimize_reverse_product_bound,
}


class TestSynthesis:
    def test_zero_angles_identity(self):
        basis = synthesize_basis(UnitaryParams(dim=3, angles=np.zeros(6)))
        assert_allclose(basis.columns, np.eye(3), atol=1e-15)

    def test_d2_quarter_rotation(self):
        basis = synthesize_basis(UnitaryParams(dim=2, angles=[np.pi / 4, 0.0]))
        s = 1 / np.sqrt(2)
        assert_allclose(basis.columns[:, 0], [s, s], atol=1e-15)
        assert_allclose(basis.columns[:, 1], [-s, s], atol=1e-15)

    def test_random_params_orthonormal(self, rng):
        for d in (2, 3, 4):
            params = rng.uniform(0, 2 * np.pi, (5, d * (d - 1)))
            us = synthesize_unitaries(d, params)
            for u in us:
                gram = u.conj().T @ u
                assert np.abs(gram - np.eye(d)).max() <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_reference_bit_for_bit(self, d):
        rng = np.random.default_rng(100 + d)
        for m in (1, 2, 3, 5, 8, 13, 31, 64, 100, 127, 128, 255, 256, 333, 499, 500):
            params = rng.uniform(0, 2 * np.pi, (m, d * (d - 1)))
            params[1::4, ::2] = 0.0  # zero angles leave zero entries, whose signs must match too
            us = synthesize_unitaries(d, params)
            assert us.flags.c_contiguous
            assert us.shape == (m, d, d)
            expected = synthesize_unitaries_reference(d, params)
            assert np.array_equal(us.view(np.uint64), expected.view(np.uint64))

    def test_bad_parameter_count(self):
        with pytest.raises(BadParameterCount):
            UnitaryParams(dim=3, angles=np.zeros(4))
        with pytest.raises(BadParameterCount):
            synthesize_unitaries(3, np.zeros((1, 4)))


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


def _assert_matches_search(objective, report, expected):
    """``report`` against the sequential search ``expected`` of the same objective.

    ``reverse_product`` is searched: the lockstep search must equal the
    sequential one bit for bit.  ``product`` and ``sum`` are closed forms:
    the search starts from the witness basis and can only climb, so its
    optimum must equal the closed form to round-off, early exits included.
    """
    if objective == "reverse_product":
        _assert_same_report(report, expected)
        return
    assert report.best_value == pytest.approx(expected.best_value, rel=1e-12, abs=1e-15)
    assert report.trace == [(0, report.best_value)]
    assert report.start_labels == ("aligned",)
    assert (report.evaluations, report.restarts_used, report.converged) == (0, 0, True)


class TestLockstepSearch:
    """The batched search against the sequential per-start oracle.

    The oracle runs the search as it was before the starts were batched,
    with the kernels as they were then; see :func:`_assert_matches_search`.
    """

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_matches_sequential(self, objective, d, seed):
        s, a, b = _instance(seed, d)
        cfg = OptimizerConfig(restarts=3, seed=seed)
        report = OBJECTIVES[objective](s, a, b, cfg=cfg)
        _assert_matches_search(objective, report, optimize_sequential(s, a, b, cfg, objective))

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    @pytest.mark.parametrize("cfg", [
        OptimizerConfig(restarts=3, max_evals=60),
        OptimizerConfig(restarts=3, step_min=1e-3),
    ], ids=["max_evals_60", "step_min_1e-3"])
    def test_matches_sequential_at_early_exits(self, objective, cfg):
        s, a, b = _instance(13, 3)
        report = OBJECTIVES[objective](s, a, b, cfg=cfg)
        _assert_matches_search(objective, report, optimize_sequential(s, a, b, cfg, objective))

    def test_evaluation_cap_wins_over_step_min(self):
        # Eigenstate of A: the reverse bound is undefined everywhere, so every
        # step halves.  At d=2 ten halvings take pi/4 below 1e-3 exactly as the
        # count reaches 1 + 10 * 4 = 41: the cap is checked first, so no start converges.
        sx, _, sz = pauli_operators()
        cfg = OptimizerConfig(restarts=2, max_evals=41, step_min=1e-3)
        report = optimize_reverse_product_bound(KET0, sz, sx, cfg=cfg)
        assert report.converged is False
        assert report.evaluations == 41 * len(report.trace)
        _assert_same_report(report, optimize_sequential(KET0, sz, sx, cfg, "reverse_product"))
        one_more = OptimizerConfig(restarts=2, max_evals=42, step_min=1e-3)
        relaxed = optimize_reverse_product_bound(KET0, sz, sx, cfg=one_more)
        assert relaxed.converged is True
        assert relaxed.evaluations == report.evaluations

    @pytest.mark.parametrize("objective", ["reverse_product"])
    def test_chunking_does_not_change_the_report(self, objective, monkeypatch):
        s, a, b = _instance(14, 4)
        cfg = OptimizerConfig(restarts=3)
        whole = OBJECTIVES[objective](s, a, b, cfg=cfg)
        monkeypatch.setattr(optimize, "_CHUNK_ENTRIES", 1)  # one start per reward call
        _assert_same_report(OBJECTIVES[objective](s, a, b, cfg=cfg), whole)

    def test_flags_do_not_change_the_closed_forms(self):
        s, a, b = _instance(15, 4)
        for objective in ("product", "sum"):
            reports = [OBJECTIVES[objective](s, a, b, cfg=cfg)
                       for cfg in (None, OptimizerConfig(restarts=0), OptimizerConfig(restarts=5, seed=3),
                                   OptimizerConfig(max_evals=1, step_min=1.0))]
            for report in reports[1:]:
                _assert_same_report(report, reports[0])
