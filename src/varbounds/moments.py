"""Expectation values, variances, covariance, and deviation vectors.

All operations accept pure states (vector) and mixed states (density
matrix); the deviation vector is the one pure-only construction.  The
standalone functions (:func:`expectation`, :func:`variance`, ...) take one
state and return plain floats/complex numbers.

:class:`Instance` holds a stack of states and one pair of observables with
every moment a bound reads, as arrays over the stack's rows.  A sweep
builds one for its whole theta grid and ``compute_instance`` a one-row
instance per call; every bound reads the same instance, so the dimension
check runs once and each moment at most once: the means when the instance
is built, the rest when a bound first reads it.  Each row of an instance
carries the bits the standalone functions give for that state alone: the
matrix-vector products and inner products go through :func:`matvec` and
:func:`inner`, which call the same BLAS kernels per row as ``A @ psi`` and
``np.vdot`` do, and squares of per-row scalars go through :func:`pow2`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, MixedStateUnsupported, NumericalConsistencyError, VarboundsError
from .linalg import Observable, OrthonormalBasis, QuantumState, check_dims, unit_rows

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


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v along the last axis of ``v``; M is one matrix or a stack of them.

    Each row is the matrix-vector product ``m @ v`` computes for it alone.
    """
    return np.matmul(m, v[..., None])[..., 0]


def inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x|y> along the last axis, with the bits of ``np.vdot`` on each row.

    (``np.einsum("ni,ni->n", ...)`` sums in another order and differs in
    the last bits.)
    """
    return np.matmul(x.conj()[..., None, :], y[..., :, None])[..., 0, 0]


def pow2(x: np.ndarray) -> np.ndarray:
    """x ** 2 as C's ``pow(x, 2)`` rounds it, for each entry of an array.

    A Python or numpy float squared with ``**`` calls ``pow``, which rounds
    differently from ``x * x`` (and from an array's ``**``) in about one
    case in a thousand.  The bound formulas square their per-row scalars
    this way, so a row of a stack has the bits of the same formula on one
    state.
    """
    return np.array([v ** 2 for v in x.ravel().tolist()]).reshape(x.shape)


def first_row(x):
    """Row 0 of a per-row array; a Python scalar when the row is one number."""
    row = x[0]
    return row.item() if np.ndim(row) == 0 else row


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of a pair of observables in one state.

    The fields are floats for one state (:func:`moments`) and arrays over
    the rows for an :class:`Instance`.
    """

    mean_a: float
    mean_b: float
    var_a: float
    var_b: float
    cov: float
    comm_expect: complex
    anticomm_expect: float

    @cached_property
    def std_a(self) -> float:
        return np.sqrt(self.var_a)

    @cached_property
    def std_b(self) -> float:
        return np.sqrt(self.var_b)

    @cached_property
    def var_diff(self) -> float:
        """Var(A - B) = Var A + Var B - 2 Cov, clamped to [0, inf)."""
        return np.maximum(self.var_a + self.var_b - 2.0 * self.cov, 0.0)


def _trace_product(rho: np.ndarray, m: np.ndarray) -> complex:
    """tr(rho M) for one density matrix."""
    return complex(np.einsum("ij,ji->", rho, m))


def _expect_matrix(state: QuantumState, m: np.ndarray) -> complex:
    """<M> for an arbitrary (not necessarily Hermitian) matrix."""
    if state.is_pure:
        return complex(np.vdot(state.vector, m @ state.vector))
    return _trace_product(state.rho, m)


def _real(z: np.ndarray) -> np.ndarray:
    """The real parts of an array of expectation values.

    An imaginary part above ``IMAG_RESIDUE_TOL`` means a non-Hermitian
    input or a bug, and raises.
    """
    residue = abs(z.imag)
    if residue.max() > IMAG_RESIDUE_TOL:
        raise NumericalConsistencyError(
            f"expectation has imaginary residue {z.imag.flat[residue.argmax()]:.3e}")
    return z.real


def _real_expect(state: QuantumState, m: np.ndarray) -> float:
    return float(_real(np.complex128(_expect_matrix(state, m))))


def clamp_variance(v, second=0.0):
    """Clamp round-off negatives of v = <A^2> - <A>^2 to zero; larger ones are a bug.

    The floor is -1e-12 * max(1, <A^2>), with <A^2> passed as ``second``:
    the subtraction loses about eps * <A^2> to cancellation, so at an
    eigenstate of an observable with a large spectrum the round-off can
    pass any absolute floor.  Works elementwise on arrays.
    """
    floor = NEGATIVE_VARIANCE_TOL * np.maximum(1.0, second)
    low = v < -floor
    if low.any():
        i = np.flatnonzero(low)[0]
        raise NumericalConsistencyError(
            f"variance {float(np.ravel(v)[i])!r} below -{float(np.ravel(floor)[i])!r}")
    return np.maximum(v, 0.0)


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
    return float(clamp_variance(second - expectation(state, a) ** 2, second))


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


def _fidelities(bases: np.ndarray, vectors, rho) -> np.ndarray:
    """F_m = <v_m|rho|v_m> over the columns v_m of each eigenbasis in ``bases``, for each state.

    ``bases`` is a stack of k eigenvector matrices and the states are n
    stacked vectors or density matrices; the result has shape (k, n, d).
    """
    if vectors is not None:
        return np.abs(matvec(bases.conj().swapaxes(-1, -2)[:, None], vectors)) ** 2
    return np.array([[np.einsum("im,ij,jm->m", v.conj(), r, v).real for r in rho] for v in bases])


def fidelity_weights(state: QuantumState, a: Observable) -> np.ndarray:
    """Transition probabilities between the state and each eigenvector of A."""
    if state.is_pure:
        return _fidelities(a.eigenvectors[None], state.vector[None], None)[0, 0]
    return _fidelities(a.eigenvectors[None], None, state.rho[None])[0, 0]


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
    ``sum(u**2)`` equals the variance of A.  One sequence per row for an
    :class:`Instance`.
    """

    u: np.ndarray
    v: np.ndarray
    u_indices: np.ndarray
    v_indices: np.ndarray


class Instance:
    """A stack of states and one pair of observables, with the moments every bound reads.

    ``states`` is one :class:`QuantumState` (a one-row instance, which the
    scalar API builds), a sequence of states of one kind, or a sweep's
    (n, d) array of pure vectors, normalized as :meth:`QuantumState.pure`
    does; every moment is an array over the rows.  Building it checks the
    dimensions once and computes A psi, B psi (pure states), <A> and <B>,
    with the expressions of :func:`expectation`; mixed states use the trace
    formulas, row by row.  ``moments`` (<AB>, both variances and the
    covariance), the deviation vectors, the fidelity-weighted sequences and
    the two deviation scales are computed on first read and kept, so a bound
    that reads only the means and deviations (the basis bounds, the fidelity
    sequences, every optimum) computes no variance.
    """

    def __init__(self, states, a: Observable, b: Observable):
        if isinstance(states, QuantumState):
            states = (states,)
        stack = isinstance(states, np.ndarray)  # pure state vectors, one per row, normalized here
        if stack and states.ndim != 2:
            raise VarboundsError(f"a stack of state vectors has shape (rows, dim), got {states.shape}")
        self.is_pure = stack or states[0].is_pure
        for d in states.shape[1:] if stack else [s.dim for s in states]:
            for obs in (a, b):
                if obs.dim != d:
                    raise DimensionMismatch(f"state dim {d} vs observable dim {obs.dim}")
        for s in () if stack else states:
            if s.is_pure != self.is_pure:
                raise VarboundsError("an instance stacks states of one kind")
        self.dim = a.dim
        self.a = a
        self.b = b
        # quantities of A and B are computed together, stacked on a first axis of 2
        self._pair = np.array([a.matrix, b.matrix])
        if self.is_pure:
            psi = self.vectors = unit_rows(states) if stack else np.array([s.vector for s in states])
            self.rho = None
            self._pair_psi = matvec(self._pair[:, None], psi)  # A psi and B psi
            self._means = _real(inner(psi, self._pair_psi))
        else:
            self.vectors = None
            self.rho = np.array([s.rho for s in states])
            self._means = _real(np.array([self._traces(a.matrix), self._traces(b.matrix)]))
        self.mean_a, self.mean_b = self._means

    def __len__(self) -> int:
        return len(self.mean_a)

    def _traces(self, m: np.ndarray) -> np.ndarray:
        return np.array([_trace_product(r, m) for r in self.rho])

    @cached_property
    def moments(self) -> MomentSet:
        """<AB>, both variances and the covariance, per row.

        The expressions are those of :func:`variance` and :func:`covariance`.
        """
        a, b = self.a, self.b
        if self.is_pure:
            z = inner(self.vectors, matvec(a.matrix @ b.matrix, self.vectors))
            second = inner(self._pair_psi, self._pair_psi).real
        else:
            z = self._traces(a.matrix @ b.matrix)
            second = _real(np.array([self._traces(a.matrix @ a.matrix), self._traces(b.matrix @ b.matrix)]))
        var_a, var_b = clamp_variance(second - pow2(self._means), second)
        return MomentSet(
            mean_a=self.mean_a,
            mean_b=self.mean_b,
            var_a=var_a,
            var_b=var_b,
            cov=z.real - self.mean_a * self.mean_b,
            comm_expect=2j * z.imag,
            anticomm_expect=2.0 * z.real,
        )

    @cached_property
    def _deviations(self) -> np.ndarray:
        if not self.is_pure:
            raise MixedStateUnsupported("deviation vectors are defined for pure states only")
        return self._pair_psi - self._means[..., None] * self.vectors

    @cached_property
    def dev_a(self) -> np.ndarray:
        """(A - <A>) psi per row, as :func:`deviation_vector` computes it."""
        return self._deviations[0]

    @cached_property
    def dev_b(self) -> np.ndarray:
        return self._deviations[1]

    @cached_property
    def _eig_devs(self) -> np.ndarray:
        """Eigenvalue deviations a_i - <A> and b_i - <B>, one row per state."""
        return np.array([self.a.eigenvalues, self.b.eigenvalues])[:, None, :] - self._means[..., None]

    @cached_property
    def sequences(self) -> SortedWeightSequences:
        bases = np.array([self.a.eigenvectors, self.b.eigenvectors])
        (u, v), (ui, vi) = sorted_weighted(self._eig_devs, _fidelities(bases, self.vectors, self.rho))
        return SortedWeightSequences(u=u, v=v, u_indices=ui, v_indices=vi)

    @cached_property
    def eig_scales(self) -> np.ndarray:
        """The largest eigenvalue deviations max_i |a_i - <A>| and max_i |b_i - <B>|, shape (2, rows).

        The deviations ascend with the eigenvalues, so the largest modulus
        is at one end.
        """
        return np.abs(self._eig_devs[..., [0, -1]]).max(axis=-1)

    @cached_property
    def frobenius_scales(self) -> np.ndarray:
        """||A - <A>||_F and ||B - <B>||_F per row, shape (2, rows) (see :func:`deviation_norm`)."""
        return deviation_norm(self._pair[:, None], self._means)


def coefficient_moduli(inst: Instance, basis=None) -> np.ndarray:
    """|alpha_n| and |beta_n|: moduli of the deviation vectors' coefficients in a basis.

    The result has shape (2, rows, d): alpha first, then beta.  ``basis``
    is an :class:`OrthonormalBasis`, a column matrix or a stack of them
    (one per row), or None for the standard basis, whose coefficients are
    the deviation vectors themselves.
    """
    if not inst.is_pure:
        raise MixedStateUnsupported("basis-decomposition bounds need a pure state")
    if basis is None:
        return np.abs(inst._deviations)
    cols = basis.columns if isinstance(basis, OrthonormalBasis) else np.asarray(basis)
    if cols.shape[-1] != inst.dim:
        raise DimensionMismatch(f"basis dim {cols.shape[-1]} vs state dim {inst.dim}")
    return np.abs(matvec(cols.conj().swapaxes(-1, -2), inst._deviations))


def moments(state: QuantumState, a: Observable, b: Observable) -> MomentSet:
    """All moments the bound formulas need, computed in one pass."""
    ms = Instance(state, a, b).moments
    return MomentSet(**{f.name: first_row(getattr(ms, f.name)) for f in fields(ms)})
