import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_hermitian
from varbounds import _jacobi, linalg
from varbounds._jacobi import hermitian_eigh, require_hermitian
from varbounds.errors import BlochNormExceeded, NotHermitian, VarboundsError
from varbounds.linalg import (
    Observable,
    OrthonormalBasis,
    QuantumState,
    check_orthonormal,
    eigh,
    pauli_operators,
    qubit_state_from_bloch,
    spin1_operators,
    unit_rows,
)


class TestEigh:
    def test_diagonal_input(self):
        w, basis = eigh(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(w, [1.0, 2.0, 3.0], atol=0)
        # columns are permuted standard basis vectors with positive phase
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
        assert_allclose(basis.columns, expected, atol=1e-15)

    def test_sigma_x_textbook(self):
        w, basis = eigh(np.array([[0, 1], [1, 0]], dtype=complex))
        assert_allclose(w, [-1.0, 1.0], atol=1e-15)
        s = 1 / np.sqrt(2)
        assert_allclose(basis.columns[:, 0], [s, -s], atol=1e-15)
        assert_allclose(basis.columns[:, 1], [s, s], atol=1e-15)

    def test_reconstruction_random_6x6(self, rng):
        m = random_hermitian(rng, 6)
        w, basis = eigh(m)
        v = basis.columns
        recon = v @ np.diag(w) @ v.conj().T
        assert np.abs(recon - m).max() <= 1e-10

    def test_eigenvalues_match_lapack_oracle(self, rng):
        for d in (2, 3, 4, 6, 8):
            m = random_hermitian(rng, d)
            w, _ = eigh(m)
            assert_allclose(w, np.linalg.eigvalsh(m), atol=1e-11)

    def test_residual_and_orthonormality(self, rng):
        for d in (2, 3, 5, 7):
            m = random_hermitian(rng, d)
            w, basis = eigh(m)
            v = basis.columns
            for k in range(d):
                assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) <= 1e-10
            assert np.abs(v.conj().T @ v - np.eye(d)).max() <= 1e-10

    def test_deterministic_bitwise(self, rng):
        m = random_hermitian(rng, 5)
        w1, b1 = eigh(m)
        w2, b2 = eigh(m)
        assert w1.tobytes() == w2.tobytes()
        assert b1.columns.tobytes() == b2.columns.tobytes()

    def test_ascending_order(self, rng):
        for _ in range(20):
            w, _ = eigh(random_hermitian(rng, 6))
            assert np.all(np.diff(w) >= 0)

    def test_not_hermitian_raises(self):
        with pytest.raises(NotHermitian):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_degenerate_spectrum(self, rng):
        # 2-fold degeneracy: spectrum only, no assumption on the degenerate basis
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        m = u @ np.diag([1.0, 1.0, 2.0, 3.0]) @ u.conj().T
        m = 0.5 * (m + m.conj().T)
        w, basis = eigh(m)
        assert_allclose(w, [1.0, 1.0, 2.0, 3.0], atol=1e-10)
        v = basis.columns
        assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-10
        assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() <= 1e-10

    def test_degenerate_cluster_projectors(self, rng):
        # the in-cluster vectors are LAPACK's choice; the projector onto each
        # cluster is not a choice and must match one built from the known basis
        for spectrum in ([1.0, 1.0, 2.0, 3.0], [-1.0, -1.0, -1.0, 0.5, 2.0, 2.0],
                         [0.0, 0.0, 0.0, 0.0, 0.0, 4.0, 4.0, 4.0]):
            d = len(spectrum)
            u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            obs = Observable(u @ np.diag(spectrum) @ u.conj().T)
            v = obs.eigenvectors
            for value in sorted(set(spectrum)):
                cluster = np.flatnonzero(np.array(spectrum) == value)
                ours = v[:, cluster] @ v[:, cluster].conj().T
                independent = u[:, cluster] @ u[:, cluster].conj().T
                assert np.abs(ours - independent).max() <= 1e-10

    def test_matches_lapack_up_to_phase(self, rng):
        for d in (1, 2, 3, 4, 5, 6, 7, 8, 16):
            obs = Observable(random_hermitian(rng, d))
            w_ref, v_ref = np.linalg.eigh(obs.matrix)
            assert_allclose(obs.eigenvalues, w_ref, rtol=0, atol=1e-13)
            v = obs.eigenvectors
            phases = np.einsum("ik,ik->k", v_ref.conj(), v)
            assert_allclose(np.abs(phases), 1.0, rtol=0, atol=1e-12)
            assert_allclose(v, v_ref * phases, rtol=0, atol=1e-12)
            # phase convention: the first largest-magnitude component is real positive
            anchor = np.abs(v).argmax(axis=0)
            picked = v[anchor, np.arange(d)]
            assert np.all(picked.imag == 0.0) and np.all(picked.real > 0.0)

    def test_batched_matches_scalar(self, rng):
        mats = np.stack([random_hermitian(rng, 4) for _ in range(7)])
        wb, vb = hermitian_eigh(mats)
        for i in range(7):
            w, v = hermitian_eigh(mats[i])
            assert_allclose(wb[i], w, atol=1e-12)
            assert_allclose(vb[i], v, atol=1e-11)


def counting_eigh(monkeypatch):
    """Count the calls ``linalg`` makes to ``hermitian_eigh``."""
    calls = []

    def counting(m):
        calls.append(np.shape(m))
        return hermitian_eigh(m)

    monkeypatch.setattr(linalg, "hermitian_eigh", counting)
    return calls


SPECTRUM_READS = {
    "eigenvalues": lambda obs: obs.eigenvalues,
    "eigenvectors": lambda obs: obs.eigenvectors,
    "eigenbasis": lambda obs: obs.eigenbasis(),
    "repr": repr,
}


class TestObservable:
    def test_reconstruction_invariant(self, rng):
        for d in (2, 3, 4, 6, 8):
            obs = Observable(random_hermitian(rng, d))
            v, w = obs.eigenvectors, obs.eigenvalues
            assert np.abs(v @ np.diag(w) @ v.conj().T - obs.matrix).max() <= 1e-10

    def test_immutable(self, rng):
        obs = Observable(random_hermitian(rng, 3))
        with pytest.raises(ValueError):
            obs.matrix[0, 0] = 5.0

    def test_shifted(self, rng, monkeypatch):
        calls = counting_eigh(monkeypatch)
        obs = Observable(random_hermitian(rng, 3))
        shifted = obs.shifted(2.5)
        assert calls == []
        assert_allclose(shifted.eigenvalues, obs.eigenvalues + 2.5, atol=1e-12)
        assert_allclose(shifted.matrix, obs.matrix + 2.5 * np.eye(3), atol=0)
        assert calls == [(3, 3), (3, 3)]

    def test_construction_does_not_diagonalize(self, rng, monkeypatch):
        calls = counting_eigh(monkeypatch)
        for d in (1, 2, 5):
            obs = Observable(random_hermitian(rng, d))
            assert obs.dim == d
            obs.matrix @ np.ones(d)
        assert calls == []

    def test_any_reads_diagonalize_once(self, rng, monkeypatch):
        calls = counting_eigh(monkeypatch)
        m = random_hermitian(rng, 3)
        for n in (1, 2, 3):
            for reads in itertools.product(SPECTRUM_READS.values(), repeat=n):
                calls.clear()
                obs = Observable(m)
                first = [read(obs) for read in reads]
                again = [read(obs) for read in reads]
                assert calls == [(3, 3)]
                for a, b in zip(first, again):
                    if isinstance(a, np.ndarray):
                        assert a is b

    def test_spectrum_is_read_only(self, rng):
        obs = Observable(random_hermitian(rng, 3))
        for arr in (obs.eigenvalues, obs.eigenvectors):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_spectrum_bits_match_a_direct_eigh(self, rng):
        for d in (*range(1, 9), 16):
            m = random_hermitian(rng, d) + 1e-14 * rng.standard_normal((d, d))
            w, v = hermitian_eigh(require_hermitian(m))
            obs = Observable(m)
            assert np.array_equal(obs.eigenvalues.view(np.uint64), w.view(np.uint64))
            assert np.array_equal(obs.eigenvectors.view(np.uint64), v.view(np.uint64))

    def test_validates_once(self, rng, monkeypatch):
        calls = []

        def counting(m):
            calls.append(np.shape(m))
            return require_hermitian(m)

        monkeypatch.setattr(linalg, "require_hermitian", counting)
        monkeypatch.setattr(_jacobi, "require_hermitian", counting)
        obs = Observable(random_hermitian(rng, 4))
        assert calls == [(4, 4)]
        obs.eigenvalues, obs.eigenvectors
        assert calls == [(4, 4)]

    def test_same_bits_as_validating_twice(self, rng):
        # symmetrizing an exactly Hermitian matrix returns its own bits, so one
        # check gives what the former check-then-check-again path gave
        for d in (1, 2, 3, 4, 6, 8):
            m = random_hermitian(rng, d) + 1e-14 * rng.standard_normal((d, d))
            once = require_hermitian(m)
            w, v = hermitian_eigh(require_hermitian(once))
            obs = Observable(m)
            assert obs.matrix.tobytes() == once.tobytes()
            assert obs.eigenvalues.tobytes() == w.tobytes()
            assert obs.eigenvectors.tobytes() == v.tobytes()

    def test_errors(self, monkeypatch):
        calls = counting_eigh(monkeypatch)
        with pytest.raises(NotHermitian):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotHermitian):
            Observable(np.zeros(3))
        with pytest.raises(VarboundsError, match="a matrix or a stack of matrices"):
            Observable(np.zeros((2, 2, 3, 3)))
        assert calls == []


class TestObservableStack:
    """An (n, d, d) stack: one validation, one batched eigensolver call, each row with its own bits."""

    def test_rows_have_the_bits_of_each_matrix_alone(self, rng, monkeypatch):
        mats = np.array([random_hermitian(rng, 4) for _ in range(5)])
        calls = counting_eigh(monkeypatch)
        stack = Observable(mats)
        assert (stack.dim, stack.eigenvalues.shape, stack.eigenvectors.shape) == (4, (5, 4), (5, 4, 4))
        assert calls == [(5, 4, 4)]
        for m, w, v in zip(mats, stack.eigenvalues, stack.eigenvectors):
            one = Observable(m)
            assert one.matrix.tobytes() == require_hermitian(m).tobytes()
            assert (one.eigenvalues.tobytes(), one.eigenvectors.tobytes()) == (w.tobytes(), v.tobytes())

    def test_rows_share_the_computed_spectrum(self, rng, monkeypatch):
        stack = Observable(np.array([random_hermitian(rng, 3) for _ in range(6)]))
        unread = stack[1::2]
        stack.eigenvectors
        calls = counting_eigh(monkeypatch)
        for rows in (slice(0, None, 2), np.array([5, 0]), slice(2, 4)):
            part = stack[rows]
            assert part.matrix.tobytes() == stack.matrix[rows].tobytes()
            assert part.eigenvalues.tobytes() == stack.eigenvalues[rows].tobytes()
            assert part.eigenvectors.tobytes() == stack.eigenvectors[rows].tobytes()
            assert not part.matrix.flags.writeable and not part.eigenvectors.flags.writeable
        assert calls == []
        # rows taken before the stack was diagonalized diagonalize themselves, with the same bits
        assert unread.eigenvectors.tobytes() == stack.eigenvectors[1::2].tobytes()
        assert calls == [(3, 3, 3)]

    def test_shifted_stack(self, rng):
        stack = Observable(np.array([random_hermitian(rng, 3) for _ in range(2)]))
        assert_allclose(stack.shifted(0.5).eigenvalues, stack.eigenvalues + 0.5, atol=1e-12)

    def test_only_a_stack_has_rows(self, rng):
        with pytest.raises(VarboundsError, match="only a stack"):
            Observable(random_hermitian(rng, 2))[0]


class TestDensityRows:
    """One validation for a density matrix alone and for a stack of them."""

    def test_a_stack_is_validated_as_each_matrix_alone(self, rng):
        g = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        w = g @ g.conj().swapaxes(-1, -2)
        rhos = w / np.trace(w, axis1=-2, axis2=-1).real[:, None, None]
        stack = linalg.density_rows(rhos)
        for r, row in zip(rhos, stack):
            assert QuantumState.mixed(r).rho.tobytes() == row.tobytes()

    def test_one_bad_row_rejects_the_stack(self, rng):
        good = np.eye(2) / 2
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        for bad, match in ((np.diag([0.7, 0.7]), "trace 1.4"),
                           (np.diag([1.5, -0.5]), "eigenvalue -5.000e-01")):
            with pytest.raises(VarboundsError, match=match):
                linalg.density_rows(np.array([good, bad, good]))
        for low, accepted in ((-5e-11, True), (-2e-10, False)):
            rho = u @ np.diag([low, 0.4, 0.6 - low]) @ u.conj().T
            stack = np.array([np.eye(3) / 3, rho])
            if accepted:
                assert linalg.density_rows(stack).shape == (2, 3, 3)
            else:
                with pytest.raises(VarboundsError, match="eigenvalue -2.000e-10"):
                    linalg.density_rows(stack)
        with pytest.raises(NotHermitian):
            linalg.density_rows(np.array([[[0.5, 0.1], [0.0, 0.5]]]))


class TestRequireHermitian:
    """Acceptance and rejection of one matrix and of a stack, with the messages callers see."""

    @staticmethod
    def _asymmetric(rng, d, rel):
        m = random_hermitian(rng, d)
        m[0, 1] += rel * np.abs(m).max()  # |M - M^dag| = rel * the largest modulus, to round-off
        return m

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_entries(self, rng, bad, where):
        m = random_hermitian(rng, 3)
        m[where] = bad
        with pytest.raises(NotHermitian, match="^matrix has non-finite entries$"):
            require_hermitian(m)
        stack = np.array([random_hermitian(rng, 3), m])
        with pytest.raises(NotHermitian, match="^matrix has non-finite entries$"):
            require_hermitian(stack)

    def test_relative_asymmetry_threshold(self, rng):
        for d in (2, 3, 4, 6):
            near = self._asymmetric(rng, d, 1e-13)
            out = require_hermitian(near)
            assert out.tobytes() == (0.5 * (near + near.conj().T)).tobytes()
            far = self._asymmetric(rng, d, 1e-11)
            with pytest.raises(NotHermitian, match=r"^max \|M - M\^dag\| = \d\.\d{3}e-1\d exceeds tolerance$"):
                require_hermitian(far)
            stack = np.array([near, random_hermitian(rng, d)])
            assert require_hermitian(stack).tobytes() == (
                0.5 * (stack + stack.conj().swapaxes(-1, -2))).tobytes()
            with pytest.raises(NotHermitian, match="exceeds tolerance"):
                require_hermitian(np.array([near, far]))

    def test_tolerance_scales_with_each_matrix(self, rng):
        # a tiny matrix with a 1e-11 relative asymmetry is rejected beside a large one
        large = 1e6 * random_hermitian(rng, 3)
        tiny = self._asymmetric(rng, 3, 1e-11) * 1e-6
        with pytest.raises(NotHermitian, match="exceeds tolerance"):
            require_hermitian(np.array([large, tiny]))
        assert require_hermitian(np.zeros((2, 3, 3))).tobytes() == np.zeros((2, 3, 3), complex).tobytes()

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 2), (4, 2, 3)])
    def test_non_square_shapes(self, shape):
        with pytest.raises(NotHermitian, match=r"^expected a square matrix, got shape "):
            require_hermitian(np.zeros(shape))


class TestSpin1:
    def test_su2_commutator(self):
        lx, ly, lz = spin1_operators()
        comm = lx.matrix @ ly.matrix - ly.matrix @ lx.matrix
        assert np.abs(comm - 1j * lz.matrix).max() <= 1e-14

    def test_casimir(self):
        lx, ly, lz = spin1_operators()
        total = lx.matrix @ lx.matrix + ly.matrix @ ly.matrix + lz.matrix @ lz.matrix
        assert np.abs(total - 2.0 * np.eye(3)).max() <= 1e-14

    def test_lx_spectrum(self):
        lx, _, _ = spin1_operators()
        assert_allclose(lx.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)


class TestPauli:
    def test_products(self):
        sx, sy, sz = pauli_operators()
        assert np.abs(sx.matrix @ sy.matrix - 1j * sz.matrix).max() <= 1e-15
        assert abs(np.trace(sz.matrix)) == 0.0
        for s in (sx, sy, sz):
            assert np.abs(s.matrix @ s.matrix - np.eye(2)).max() <= 1e-15

    def test_sigma_z_spectrum(self):
        _, _, sz = pauli_operators()
        assert_allclose(sz.eigenvalues, [-1.0, 1.0], atol=0)


class TestBlochStates:
    def test_north_pole_pure(self):
        s = qubit_state_from_bloch([0.0, 0.0, 1.0])
        assert s.is_pure
        assert_allclose(s.density_matrix(), np.diag([1.0, 0.0]), atol=1e-14)

    def test_center_maximally_mixed(self):
        s = qubit_state_from_bloch([0.0, 0.0, 0.0])
        assert not s.is_pure
        assert_allclose(s.rho, 0.5 * np.eye(2), atol=0)

    def test_figure_family_is_pure(self):
        for theta in np.linspace(0.0, np.pi, 13):
            r = [np.cos(theta / 2), np.sqrt(3) / 2 * np.sin(theta / 2), 0.5 * np.sin(theta / 2)]
            assert abs(np.linalg.norm(r) - 1.0) <= 1e-12
            s = qubit_state_from_bloch(r)
            assert s.is_pure
            rho = s.density_matrix()
            expected = 0.5 * (np.eye(2) + r[0] * np.array([[0, 1], [1, 0]])
                              + r[1] * np.array([[0, -1j], [1j, 0]])
                              + r[2] * np.diag([1, -1]))
            assert np.abs(rho - expected).max() <= 1e-12

    def test_eigenvalues_from_radius(self, rng):
        for _ in range(25):
            r = rng.uniform(-1, 1, 3)
            if np.linalg.norm(r) > 1:
                r = r / np.linalg.norm(r) * rng.uniform(0, 1)
            s = qubit_state_from_bloch(r)
            w, _ = eigh(s.density_matrix())
            nrm = np.linalg.norm(r)
            assert_allclose(w, [(1 - nrm) / 2, (1 + nrm) / 2], atol=1e-12)

    def test_norm_exceeded(self):
        with pytest.raises(BlochNormExceeded):
            qubit_state_from_bloch([1.0, 1.0, 1.0])


class TestStatesAndBases:
    def test_pure_norm_validation(self):
        with pytest.raises(VarboundsError):
            QuantumState.pure([1.0, 1.0])

    def test_mixed_validation(self):
        with pytest.raises(VarboundsError):
            QuantumState.mixed(np.diag([0.7, 0.7]))
        with pytest.raises(VarboundsError):
            QuantumState.mixed(np.diag([1.5, -0.5]))

    def test_mixed_positivity_threshold(self, rng):
        # a non-diagonal rho whose smallest eigenvalue sits just inside or just
        # outside the -1e-10 tolerance of the positive-semidefinite check
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        for low, accepted in ((-5e-11, True), (-2e-10, False)):
            rho = u @ np.diag([low, 0.4, 0.6 - low]) @ u.conj().T
            assert np.abs(rho - np.diag(np.diag(rho))).max() > 0.1
            if accepted:
                assert not QuantumState.mixed(rho).is_pure
            else:
                with pytest.raises(VarboundsError, match="eigenvalue"):
                    QuantumState.mixed(rho)

    def test_nan_fails_the_norm_check(self):
        # the checks accept err <= tol, which is False for NaN; err > tol would accept it
        with pytest.raises(VarboundsError, match="pure state norm nan is not 1 within 1e-12"):
            QuantumState.pure([np.nan, 1.0])
        rows = np.array([[1.0, 0.0], [0.6, 0.8], [np.nan, 0.0]], dtype=np.complex128)
        with pytest.raises(VarboundsError, match="norm nan"):
            unit_rows(rows)
        assert unit_rows(rows[:2]).tobytes() == rows[:2].tobytes()

    def test_nan_fails_the_orthonormality_check(self):
        with pytest.raises(VarboundsError, match="not orthonormal"):
            OrthonormalBasis(np.full((2, 2), np.nan))
        stack = np.array([np.eye(3)] * 3, dtype=np.complex128)
        check_orthonormal(stack)
        stack[2, 1, 0] = np.nan
        with pytest.raises(VarboundsError, match="not orthonormal"):
            check_orthonormal(stack)

    def test_basis_gram_check(self):
        with pytest.raises(VarboundsError):
            OrthonormalBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))
        b = OrthonormalBasis.standard(3)
        assert b.dim == 3
        assert_allclose(b.column(1), [0, 1, 0], atol=0)
