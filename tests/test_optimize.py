import json

import numpy as np
import pytest

from conftest import random_hermitian, random_observable, random_pure_state
from oracles import scan_basis_bound_d2
from varbounds.cli import main
from varbounds.config import load_instance, parse_config
from varbounds.errors import MixedStateUnsupported, VarboundsError
from varbounds.linalg import (
    Observable,
    OrthonormalBasis,
    QuantumState,
    check_orthonormal,
    pauli_operators,
    spin1_operators,
)
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
from varbounds.sweep import compute_instance
from varbounds.optimize import (
    _frame,
    aligned_basis,
    optimize_product_bound,
    optimize_reverse_product_bound,
    optimize_sum_bound,
)
from varbounds.upper_bounds import reverse_basis_product_bound, reverse_fidelity_product_bound

KET0 = QuantumState.pure([1.0, 0.0])
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

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-4])
    def test_nearly_parallel_deviations(self, rng, d, eps):
        # f - g' is small but above round-off: a Gram-Schmidt completion lost
        # orthonormality here (OrthonormalBasis raised at d >= 3, eps = 1e-6)
        for _ in range(10):
            psi = _unit(rng, d)
            a = random_hermitian(rng, d)
            s, obs_a = QuantumState.pure(psi), Observable(a)
            obs_b = Observable(-2.0 * a + eps * random_hermitian(rng, d))
            va, vb = variance(s, obs_a), variance(s, obs_b)
            assert optimize_product_bound(s, obs_a, obs_b).best_value == pytest.approx(va * vb, rel=1e-12)
            assert optimize_sum_bound(s, obs_a, obs_b).best_value == pytest.approx(
                0.5 * (np.sqrt(va) + np.sqrt(vb)) ** 2, rel=1e-12)


def _hex(a):
    return [float.hex(x) for x in np.ascontiguousarray(a).view(np.float64).ravel().tolist()]


class TestFrame:
    """``_frame`` calls numpy's private QR gufuncs ``_umath_linalg.qr_r_raw`` and ``qr_complete``.

    They are the two calls inside ``np.linalg.qr(..., mode="complete")``, so the frame must have
    the bits of that Q and R.  A numpy release that changes or drops them fails here.
    """

    @staticmethod
    def expected(u, v):
        """The frame from the public ``np.linalg.qr``: Q, with each of its first two columns
        times the phase of R's diagonal entry."""
        q, r = np.linalg.qr(np.stack([u, v], axis=-1), mode="complete")
        diag = r.diagonal(0, -2, -1)
        mod = np.abs(diag)
        phase = np.ones(q.shape[:-1], dtype=np.complex128)
        phase[..., :2] = np.divide(diag, mod, out=np.ones_like(diag), where=mod != 0)
        return q * phase[..., None, :]

    @pytest.mark.parametrize("shape", [(1,), (5,)], ids=["one_row", "stacked"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_same_bits_as_numpy_qr(self, rng, d, shape):
        u = rng.standard_normal(shape + (d,)) + 1j * rng.standard_normal(shape + (d,))
        noise = rng.standard_normal(shape + (d,)) + 1j * rng.standard_normal(shape + (d,))
        cases = {
            "general": rng.standard_normal(shape + (d,)) + 1j * rng.standard_normal(shape + (d,)),
            "nearly_parallel": (0.3 - 0.7j) * u + 1e-13 * noise,
            "parallel": 2.0 * u,
            "zero": np.zeros_like(u),
        }
        for name, v in cases.items():
            got = _frame(u, v)
            want = self.expected(u, v)
            assert got.shape == shape + (d, d), name
            assert _hex(got) == _hex(want), name
            check_orthonormal(got)

    def test_a_nan_frame_fails_the_orthonormality_check(self):
        u = np.array([[np.nan, 1.0, 0.0]], dtype=np.complex128)
        with np.errstate(invalid="ignore"), pytest.raises(VarboundsError, match="not orthonormal"):
            check_orthonormal(_frame(u, u))


class TestOptimizeProduct:
    def test_ket0_saturates(self):
        sx, sy, _ = pauli_operators()
        report = optimize_product_bound(KET0, sx, sy)
        assert report.best_value == pytest.approx(1.0, abs=1e-9)
        oracle = scan_basis_bound_d2(KET0, sx, sy, "product")
        assert report.best_value == pytest.approx(oracle, abs=1e-6)

    def test_eigenstate_gives_zero(self):
        sx, _, sz = pauli_operators()
        report = optimize_product_bound(KET0, sz, sx)
        assert report.best_value == pytest.approx(0.0, abs=1e-12)

    def test_spin1_between_rs_and_product(self):
        lx, ly, _ = spin1_operators()
        theta = np.pi / 6
        s = QuantumState.pure([np.cos(theta), -np.sin(theta), 0.0])
        report = optimize_product_bound(s, lx, ly)
        assert report.best_value >= rs_product_bound(s, lx, ly).value - 1e-10
        assert report.best_value <= variance(s, lx) * variance(s, ly) + 1e-10

    def test_seed_dominance(self, rng):
        s = random_pure_state(rng, 3)
        a = random_observable(rng, 3)
        b = random_observable(rng, 3)
        report = optimize_product_bound(s, a, b)
        for basis in (OrthonormalBasis.standard(3), a.eigenbasis(), b.eigenbasis()):
            assert report.best_value >= basis_product_bound(s, a, b, basis).value - 1e-12

    def test_deterministic(self, rng):
        s = random_pure_state(rng, 3)
        a = random_observable(rng, 3)
        b = random_observable(rng, 3)
        r1 = optimize_product_bound(s, a, b)
        r2 = optimize_product_bound(s, a, b)
        assert r1.best_value == r2.best_value
        assert r1.witness == r2.witness == "aligned"
        assert r1.best_basis.columns.tobytes() == r2.best_basis.columns.tobytes()

    def test_report_consistency(self, rng):
        s = random_pure_state(rng, 2)
        a = random_observable(rng, 2)
        b = random_observable(rng, 2)
        report = optimize_product_bound(s, a, b)
        recomputed = basis_product_bound(s, a, b, report.best_basis).value
        assert report.best_value == pytest.approx(recomputed, abs=1e-12)
        assert (report.mode, report.witness) == ("max", "aligned")

    def test_mixed_raises(self, rng):
        from conftest import random_mixed_state

        s = random_mixed_state(rng, 2)
        a = random_observable(rng, 2)
        with pytest.raises(MixedStateUnsupported):
            optimize_product_bound(s, a, a)


class TestOptimizeSum:
    def test_ket0_saturates(self):
        sx, sy, _ = pauli_operators()
        report = optimize_sum_bound(KET0, sx, sy)
        assert report.best_value == pytest.approx(2.0, abs=1e-9)
        oracle = scan_basis_bound_d2(KET0, sx, sy, "sum")
        assert report.best_value == pytest.approx(oracle, abs=1e-6)

    def test_joint_eigenstate_gives_zero(self):
        a = Observable(np.diag([1.0, 2.0, 3.0]))
        b = Observable(np.diag([5.0, 1.0, 0.0]))
        s = QuantumState.pure([1.0, 0.0, 0.0])
        report = optimize_sum_bound(s, a, b)
        assert report.best_value == pytest.approx(0.0, abs=1e-12)

    def test_dominates_standard_basis_and_validity(self, rng):
        for _ in range(5):
            s = random_pure_state(rng, 3)
            a = random_observable(rng, 3)
            b = random_observable(rng, 3)
            report = optimize_sum_bound(s, a, b)
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
            report = optimize_sum_bound(s, a, b)
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
    assert (report.witness, report.mode) == ("flat", "min")
    return f, g


def _unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


class TestOptimizeReverse:
    def test_improves_on_fixed_basis(self, rng):
        sx, sy, _ = pauli_operators()
        s = QuantumState.pure(np.array([np.cos(0.4), np.sin(0.4) * np.exp(0.3j)]))
        report = optimize_reverse_product_bound(s, sx, sy)
        assert report.mode == "min"
        product = variance(s, sx) * variance(s, sy)
        assert report.best_value >= product - 1e-10
        res_std = reverse_basis_product_bound(s, sx, sy, report.best_basis)
        assert res_std.defined
        assert res_std.value == pytest.approx(report.best_value, abs=1e-9)

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
    """At an eigenstate of 100 * GUE, round-off takes <A^2> - <A>^2 below an
    absolute -1e-12.  The variance floor is relative to <A^2>, so the
    variance and every bound still return values."""

    def test_no_bound_computes_a_variance(self):
        rng = np.random.default_rng(4)
        states, raw = [], []
        for _ in range(10):
            a, b = Observable(100 * gue_hermitian(rng, 4)), Observable(100 * gue_hermitian(rng, 4))
            for psi in np.linalg.eigh(a.matrix)[1].T:
                av = a.matrix @ psi
                raw.append(np.vdot(av, av).real - np.vdot(psi, av).real ** 2)
                states.append((QuantumState.pure(psi), a, b))
        assert min(raw) < -1e-12  # the case is exercised
        std = OrthonormalBasis.standard(4)
        for s, a, b in states:
            assert 0.0 <= variance(s, a) < 1e-6
            out = compute_instance(s, a, b)
            assert out["exact"]["product"] >= 0.0
            assert out["bounds"]["rs_product"]["defined"]
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
        assert report.witness == ("flat" if objective == "reverse_product" else "aligned")
        # both deviation vectors vanish: the lower bounds are 0 and the
        # reverse bound's positivity hypothesis fails
        assert report.best_value == (np.inf if objective == "reverse_product" else 0.0)


class TestScanAgreement:
    def test_random_d2_instances(self, rng):
        for _ in range(10):
            s = random_pure_state(rng, 2)
            a = random_observable(rng, 2)
            b = random_observable(rng, 2)
            report = optimize_product_bound(s, a, b)
            oracle = scan_basis_bound_d2(s, a, b, "product")
            assert report.best_value == pytest.approx(oracle, abs=1e-6)
            assert report.best_value <= variance(s, a) * variance(s, b) + 1e-10


def _instance(seed, d):
    rng = np.random.default_rng(seed)
    return random_pure_state(rng, d), random_observable(rng, d), random_observable(rng, d)


def _literal(m):
    """A config matrix literal that reads back as ``m`` exactly."""
    return "; ".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in np.asarray(m, complex))


CLOSED_FORM = {
    "product": (lambda va, vb: va * vb, "aligned"),
    "sum": (lambda va, vb: 0.5 * (np.sqrt(va) + np.sqrt(vb)) ** 2, "aligned"),
    "reverse_product": (lambda va, vb: va * vb, "flat"),
}


def _assert_matches_search(objective, report, s, a, b):
    """``report`` is the closed form of ``objective`` at its named witness."""
    f, g = _deviation(s.vector, a.matrix), _deviation(s.vector, b.matrix)
    exact_of, label = CLOSED_FORM[objective]
    assert report.best_value == pytest.approx(exact_of(np.vdot(f, f).real, np.vdot(g, g).real),
                                              rel=1e-12, abs=1e-15)
    assert report.witness == label


class TestLockstepSearch:
    """Seeded instances the basis search was checked on, against the closed forms.

    Seed 13 at d=3 is the instance of the search's early-exit cases.  The
    options that made the search exit early are gone from the CLI.
    """

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_matches_sequential(self, objective, d, seed):
        s, a, b = _instance(seed, d)
        _assert_matches_search(objective, OBJECTIVES[objective](s, a, b), s, a, b)

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    @pytest.mark.parametrize("exit_option", [["--max-evals", "60"], ["--step-min", "1e-3"]],
                             ids=["max_evals_60", "step_min_1e-3"])
    def test_matches_sequential_at_early_exits(self, tmp_path, capsys, objective, exit_option):
        s, a, b = _instance(13, 3)
        path = tmp_path / "seed13.cfg"
        path.write_text(f"[state]\nvector = {_literal(s.vector[None, :])}\n"
                        f"[observables]\na = {_literal(a.matrix)}\nb = {_literal(b.matrix)}\n")
        s, a, b = load_instance(parse_config(path.read_text()))
        report = OBJECTIVES[objective](s, a, b)
        _assert_matches_search(objective, report, s, a, b)
        argv = ["optimize", "--config", str(path), "--objective", objective]
        with pytest.raises(SystemExit) as exc:
            main([*argv, *exit_option])
        assert exc.value.code == 2 and capsys.readouterr().out == ""
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["best_value"] == report.best_value

    def test_evaluation_cap_wins_over_step_min(self):
        # Eigenstate of A: f = 0 exactly, so no basis meets the reverse bound's
        # positivity hypothesis.  The search stopped here at its evaluation
        # cap; the closed form gives +inf at the standard basis.
        sx, _, sz = pauli_operators()
        report = optimize_reverse_product_bound(KET0, sz, sx)
        assert report.best_value == np.inf
        assert report.best_basis.columns.tolist() == np.eye(2).tolist()
        assert (report.witness, report.mode) == ("flat", "min")

    def test_flags_do_not_change_the_closed_forms(self, tmp_path, capsys):
        # optimize --restarts is the one optimizer flag left: hidden, and ignored
        text = "[state]\nvector = 0.6+0i 0+0.8i 0+0i\n[observables]\na = spin1_lx\nb = spin1_lz\n"
        path = tmp_path / "spin1.cfg"
        path.write_text(text)
        s, a, b = load_instance(parse_config(text))
        for objective in sorted(OBJECTIVES):
            outputs = []
            for extra in ([], ["--restarts", "0"], ["--restarts", "8"]):
                for fmt in ("json", "csv"):
                    argv = ["optimize", "--config", str(path), "--objective", objective,
                            "--format", fmt, *extra]
                    assert main(argv) == 0
                    outputs.append(capsys.readouterr().out)
            assert outputs[2:] == outputs[:2] * 2
            assert json.loads(outputs[0])["best_value"] == OBJECTIVES[objective](s, a, b).best_value
