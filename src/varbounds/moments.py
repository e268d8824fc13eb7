"""Expectation values, variances, covariance, and deviation vectors.

All operations accept pure states (vector) and mixed states (density
matrix); the deviation vector is the one pure-only construction.  Results
are plain floats/complex so callers can feed them straight into bound
formulas.

:class:`Instance` holds one state and one pair of observables with every
moment a bound reads.  A sweep builds one per row and ``compute_instance``
one per call, and every bound of that row or call reads the same instance,
so the dimension check runs once and each moment at most once: the means
when the instance is built, the rest when a bound first reads it.  The
standalone functions (:func:`expectation`, :func:`variance`, ...) compute
the same values with the same floating-point expressions, one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MixedStateUnsupported, NumericalConsistencyError
from .linalg import Observable, QuantumState, check_dims

__all__ = [
    "MomentSet",
    "anticommutator_expectation",
    "commutator_expectation",
    "covariance",
    "deviation_vector",
    "expectation",
    "moments",
    "variance",
]

IMAG_RESIDUE_TOL = 1e-10
NEGATIVE_VARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of a pair of observables in one state."""

    mean_a: float
    mean_b: float
    var_a: float
    var_b: float
    cov: float
    comm_expect: complex
    anticomm_expect: float

    @property
    def std_a(self) -> float:
        return float(np.sqrt(self.var_a))

    @property
    def std_b(self) -> float:
        return float(np.sqrt(self.var_b))


def _expect_matrix(state: QuantumState, m: np.ndarray) -> complex:
    """<M> for an arbitrary (not necessarily Hermitian) matrix."""
    if state.is_pure:
        return complex(np.vdot(state.vector, m @ state.vector))
    return complex(np.einsum("ij,ji->", state.rho, m))


def _real(z: complex) -> float:
    if abs(z.imag) > IMAG_RESIDUE_TOL:
        raise NumericalConsistencyError(f"expectation has imaginary residue {z.imag:.3e}")
    return z.real


def _real_expect(state: QuantumState, m: np.ndarray) -> float:
    return _real(_expect_matrix(state, m))


def clamp_variance(v: float) -> float:
    """Clamp round-off negatives to zero; larger negatives are a bug."""
    if v < -NEGATIVE_VARIANCE_TOL:
        raise NumericalConsistencyError(f"variance {v!r} below -{NEGATIVE_VARIANCE_TOL}")
    return max(v, 0.0)


def expectation(state: QuantumState, a: Observable) -> float:
    """<A> in the given state."""
    check_dims(state, a)
    return _real_expect(state, a.matrix)


def variance(state: QuantumState, a: Observable) -> float:
    """<A^2> - <A>^2, clamped to [0, inf)."""
    check_dims(state, a)
    if state.is_pure:
        av = a.matrix @ state.vector
        second = float(np.real(np.vdot(av, av)))
    else:
        second = _real_expect(state, a.matrix @ a.matrix)
    return clamp_variance(second - expectation(state, a) ** 2)


def covariance(state: QuantumState, a: Observable, b: Observable) -> float:
    """Quantum covariance <{A,B}>/2 - <A><B>."""
    check_dims(state, a, b)
    z = _expect_matrix(state, a.matrix @ b.matrix)
    return z.real - expectation(state, a) * expectation(state, b)


def commutator_expectation(state: QuantumState, a: Observable, b: Observable) -> complex:
    """<[A, B]>; purely imaginary for Hermitian A, B."""
    check_dims(state, a, b)
    z = _expect_matrix(state, a.matrix @ b.matrix)
    # <AB> = z and <BA> = conj(z), so <[A,B]> = 2i Im(z)
    out = 2j * z.imag
    return out


def anticommutator_expectation(state: QuantumState, a: Observable, b: Observable) -> float:
    """<{A, B}>, a real number."""
    check_dims(state, a, b)
    z = _expect_matrix(state, a.matrix @ b.matrix)
    return 2.0 * z.real


def deviation_vector(state: QuantumState, a: Observable) -> np.ndarray:
    """(A - <A>) applied to a pure state; its squared norm is the variance."""
    check_dims(state, a)
    if not state.is_pure:
        raise MixedStateUnsupported("deviation vectors are defined for pure states only")
    psi = state.vector
    return a.matrix @ psi - expectation(state, a) * psi


def deviation_norm(matrix: np.ndarray, mean) -> np.ndarray:
    """||M - mean I||_F over the last two axes.

    An upper bound on max_i |m_i - mean| over the eigenvalues m_i that needs
    no eigendecomposition; ``mean`` has the shape of the leading axes.
    """
    dev = matrix - np.asarray(mean)[..., None, None] * np.eye(matrix.shape[-1])
    return np.sqrt((np.abs(dev) ** 2).sum(axis=(-2, -1)))


def fidelity_weights(state: QuantumState, a: Observable) -> np.ndarray:
    """Transition probabilities between the state and each eigenvector of A."""
    vecs = a.eigenvectors
    if state.is_pure:
        return np.abs(vecs.conj().T @ state.vector) ** 2
    return np.einsum("im,ij,jm->m", vecs.conj(), state.rho, vecs).real


def sorted_weighted(values: np.ndarray, weights: np.ndarray):
    """Sort ``values * sqrt(weights)`` ascending; batched over leading axes."""
    raw = values * np.sqrt(np.maximum(weights, 0.0))
    order = np.argsort(raw, axis=-1, kind="stable")
    return np.take_along_axis(raw, order, axis=-1), order


@dataclass(frozen=True)
class SortedWeightSequences:
    """Fidelity-weighted eigenvalue deviations, sorted ascending.

    ``u[i] = (a_i - <A>) * sqrt(F_i)`` over the eigenbasis of A (same for v
    and B), with the originating eigenvalue index of each sorted entry.
    ``sum(u**2)`` equals the variance of A.
    """

    u: np.ndarray
    v: np.ndarray
    u_indices: np.ndarray
    v_indices: np.ndarray


class Instance:
    """A state and a pair of observables, with the moments every bound reads.

    Building it checks the dimensions once and computes A psi, B psi (pure
    states), <A> and <B>, with the expressions of :func:`expectation`;
    mixed states use the trace formulas.  ``moments`` (<AB>, both variances
    and the covariance), the deviation vectors, the fidelity-weighted
    sequences and the two deviation scales are computed on first read and
    kept, so a bound that reads only the means and deviations (the basis
    bounds, the fidelity sequences, every optimum) computes no variance.
    """

    def __init__(self, state: QuantumState, a: Observable, b: Observable):
        self.dim = check_dims(state, a, b)
        self.state = state
        self.a = a
        self.b = b
        if state.is_pure:
            psi = state.vector
            self.a_psi = a.matrix @ psi
            self.b_psi = b.matrix @ psi
            self.mean_a = _real(complex(np.vdot(psi, self.a_psi)))
            self.mean_b = _real(complex(np.vdot(psi, self.b_psi)))
        else:
            self.a_psi = self.b_psi = None
            self.mean_a = _real_expect(state, a.matrix)
            self.mean_b = _real_expect(state, b.matrix)

    @cached_property
    def moments(self) -> MomentSet:
        """<AB>, both variances and the covariance.

        The expressions are those of :func:`variance` and :func:`covariance`.
        """
        state, a, b = self.state, self.a, self.b
        mean_a, mean_b = self.mean_a, self.mean_b
        z = _expect_matrix(state, a.matrix @ b.matrix)
        if state.is_pure:
            second_a = float(np.vdot(self.a_psi, self.a_psi).real)
            second_b = float(np.vdot(self.b_psi, self.b_psi).real)
        else:
            second_a = _real_expect(state, a.matrix @ a.matrix)
            second_b = _real_expect(state, b.matrix @ b.matrix)
        return MomentSet(
            mean_a=mean_a,
            mean_b=mean_b,
            var_a=clamp_variance(second_a - mean_a**2),
            var_b=clamp_variance(second_b - mean_b**2),
            cov=z.real - mean_a * mean_b,
            comm_expect=2j * z.imag,
            anticomm_expect=2.0 * z.real,
        )

    def _pure_vector(self) -> np.ndarray:
        if not self.state.is_pure:
            raise MixedStateUnsupported("deviation vectors are defined for pure states only")
        return self.state.vector

    @cached_property
    def dev_a(self) -> np.ndarray:
        """(A - <A>) psi, as :func:`deviation_vector` computes it."""
        psi = self._pure_vector()
        return self.a_psi - self.mean_a * psi

    @cached_property
    def dev_b(self) -> np.ndarray:
        psi = self._pure_vector()
        return self.b_psi - self.mean_b * psi

    @cached_property
    def eig_dev_a(self) -> np.ndarray:
        """Eigenvalue deviations a_i - <A>."""
        return self.a.eigenvalues - self.mean_a

    @cached_property
    def eig_dev_b(self) -> np.ndarray:
        return self.b.eigenvalues - self.mean_b

    @cached_property
    def sequences(self) -> SortedWeightSequences:
        u, ui = sorted_weighted(self.eig_dev_a, fidelity_weights(self.state, self.a))
        v, vi = sorted_weighted(self.eig_dev_b, fidelity_weights(self.state, self.b))
        return SortedWeightSequences(u=u, v=v, u_indices=ui, v_indices=vi)

    @cached_property
    def eig_scales(self) -> tuple[float, float]:
        """The largest eigenvalue deviations max_i |a_i - <A>| and max_i |b_i - <B>|.

        The deviations ascend with the eigenvalues, so the largest modulus
        is at one end.
        """
        ta, tb = self.eig_dev_a, self.eig_dev_b
        return (float(max(abs(ta[0]), abs(ta[-1]))),
                float(max(abs(tb[0]), abs(tb[-1]))))

    @cached_property
    def frobenius_scales(self) -> tuple[float, float]:
        """||A - <A>||_F and ||B - <B>||_F (see :func:`deviation_norm`)."""
        return (float(deviation_norm(self.a.matrix, self.mean_a)),
                float(deviation_norm(self.b.matrix, self.mean_b)))


def moments(state: QuantumState, a: Observable, b: Observable) -> MomentSet:
    """All moments the bound formulas need, computed in one pass."""
    return Instance(state, a, b).moments
