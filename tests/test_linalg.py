import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_hermitian
from varbounds._jacobi import hermitian_eigh
from varbounds.errors import BlochNormExceeded, NotHermitian, VarboundsError
from varbounds.linalg import (
    Observable,
    OrthonormalBasis,
    QuantumState,
    eigh,
    pauli_operators,
    qubit_state_from_bloch,
    spin1_operators,
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

    def test_shifted(self, rng):
        obs = Observable(random_hermitian(rng, 3))
        shifted = obs.shifted(2.5)
        assert_allclose(shifted.eigenvalues, obs.eigenvalues + 2.5, atol=1e-12)


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

    def test_basis_gram_check(self):
        with pytest.raises(VarboundsError):
            OrthonormalBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))
        b = OrthonormalBasis.standard(3)
        assert b.dim == 3
        assert_allclose(b.column(1), [0, 1, 0], atol=0)
