"""Expectation values, variances, covariance, and deviation vectors.

All operations accept pure states (vector) and mixed states (density
matrix); the deviation vector is the one pure-only construction.  The
standalone functions (:func:`expectation`, :func:`variance`, ...) take one
state and return plain floats/complex numbers.

:class:`Instance` holds a stack of states with one pair of observables, or
one pair per row, and every moment a bound reads, as arrays over the
stack's rows.  A sweep builds one for its whole theta grid,
``compute_instance`` a one-row instance per call and ``verify`` one for the
pure and one for the mixed rows of each dimension's draw; every bound reads
the same instance, so the dimension check runs once and each moment at
most once: the means when the instance is built, the rest when a bound
first reads it.  Each row of an instance carries the bits the standalone
functions give for that state and pair alone: the matrix-vector products
and inner products go through :func:`matvec` and :func:`inner`, which call
the same BLAS kernels per row as ``A @ psi`` and ``np.vdot`` do, the traces
and fidelities of density matrices are one ``einsum`` over the stack, which
sums each row as it sums one matrix, and a square is ``x * x``, correctly
rounded and the same in a stack as alone.
"""

from __future__ import annotations

import numpy as np

from ._record import FrozenRecord, lazy
from .errors import DimensionMismatch, MixedStateUnsupported, NumericalConsistencyError, VarboundsError
from .linalg import Observable, OrthonormalBasis, QuantumState, check_dims, density_rows, unit_rows

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


def first_row(x):
    """Row 0 of a per-row array; a Python scalar when the row is one number."""
    row = x[0]
    return row.item() if np.ndim(row) == 0 else row


class MomentSet(FrozenRecord):
    """First and second moments of a pair of observables in one state.

    The fields are floats for one state (:func:`moments`) and arrays over
    the rows for an :class:`Instance`.
    """

    _fields = ("mean_a", "mean_b", "var_a", "var_b", "cov", "comm_expect", "anticomm_expect")

    def __init__(self, mean_a: float, mean_b: float, var_a: float, var_b: float, cov: float,
                 comm_expect: complex, anticomm_expect: float):
        self.__dict__.update(mean_a=mean_a, mean_b=mean_b, var_a=var_a, var_b=var_b, cov=cov,
                             comm_expect=comm_expect, anticomm_expect=anticomm_expect)

    @lazy
    def std_a(self) -> float:
        return np.sqrt(self.var_a)

    @lazy
    def std_b(self) -> float:
        return np.sqrt(self.var_b)

    @lazy
    def var_diff(self) -> float:
        """Var(A - B) = Var A + Var B - 2 Cov, clamped to [0, inf)."""
        return np.maximum(self.var_a + self.var_b - 2.0 * self.cov, 0.0)


def _stacked_einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum`` over matrix stacks whose leading axes broadcast, each matrix summed as alone.

    The operands are first broadcast to one shape and made contiguous: over
    a broadcast (stride 0) or strided axis einsum may order a row's sum
    differently from that of the same matrices on their own.
    """
    if len({x.shape for x in operands}) > 1:
        operands = np.broadcast_arrays(*operands)
    return np.einsum(subscripts, *map(np.ascontiguousarray, operands))


def _traces(rho: np.ndarray, m: np.ndarray) -> np.ndarray:
    """tr(rho M) over the last two axes; the leading axes of ``rho`` and ``m`` broadcast."""
    return _stacked_einsum("...ij,...ji->...", rho, m)


def _expect_matrix(state: QuantumState, m: np.ndarray) -> complex:
    """<M> for an arbitrary (not necessarily Hermitian) matrix."""
    if state.is_pure:
        return complex(np.vdot(state.vector, m @ state.vector))
    return complex(_traces(state.rho, m))


def _real(z: np.ndarray) -> np.ndarray:
    """The real parts of an array of expectation values.

    An imaginary part above ``IMAG_RESIDUE_TOL`` means a non-Hermitian
    input or a bug, and raises.
    """
    residue = abs(z.imag)
    if residue.size and residue.max() > IMAG_RESIDUE_TOL:
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
    mean = expectation(state, a)
    return float(clamp_variance(second - mean * mean, second))


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

    The states are n stacked vectors or density matrices (the other is
    None).  ``bases`` has shape (k, m, d, d): k eigenbases, each one matrix
    for every state (m = 1) or one per state (m = n); the result has shape
    (k, n, d).
    """
    if vectors is not None:
        return np.abs(matvec(bases.conj().swapaxes(-1, -2), vectors)) ** 2
    return np.array([_stacked_einsum("...im,...ij,...jm->...m", v.conj(), rho, v).real for v in bases])


def fidelity_weights(state: QuantumState, a: Observable) -> np.ndarray:
    """Transition probabilities between the state and each eigenvector of A."""
    if state.is_pure:
        return _fidelities(a.eigenvectors[None, None], state.vector[None], None)[0, 0]
    return _fidelities(a.eigenvectors[None, None], None, state.rho[None])[0, 0]


def sorted_weighted(values: np.ndarray, weights: np.ndarray):
    """Sort ``values * sqrt(weights)`` ascending; batched over leading axes."""
    raw = values * np.sqrt(np.maximum(weights, 0.0))
    order = np.argsort(raw, axis=-1, kind="stable")
    return np.take_along_axis(raw, order, axis=-1), order


class SortedWeightSequences(FrozenRecord):
    """Fidelity-weighted eigenvalue deviations, sorted ascending.

    ``u[i] = (a_i - <A>) * sqrt(F_i)`` over the eigenbasis of A (same for v
    and B), with the originating eigenvalue index of each sorted entry.
    ``sum(u**2)`` equals the variance of A.  One sequence per row for an
    :class:`Instance`.
    """

    _fields = ("u", "v", "u_indices", "v_indices")

    def __init__(self, u: np.ndarray, v: np.ndarray, u_indices: np.ndarray, v_indices: np.ndarray):
        self.__dict__.update(u=u, v=v, u_indices=u_indices, v_indices=v_indices)


class Instance:
    """A stack of states and their observable pairs, with the moments every bound reads.

    ``states`` is one :class:`QuantumState` (a one-row instance, which the
    scalar API builds), a sequence of states of one kind, an (n, d) array of
    pure vectors, normalized as :meth:`QuantumState.pure` does, or an
    (n, d, d) array of density matrices, validated as
    :meth:`QuantumState.mixed` does.  ``a`` and ``b`` are one pair of
    observables for every row, or two stacked observables with one matrix
    per row; every moment is an array over the rows.  Building it checks
    the dimensions once and computes A psi, B psi (pure states), <A> and
    <B>, with the expressions of :func:`expectation`; mixed states use the
    trace formulas, stacked.  ``moments`` (<AB>, both variances and the
    covariance), the deviation vectors, the fidelities and the
    fidelity-weighted sequences and the two deviation scales are computed
    on first read and kept, so a bound that reads only the means and
    deviations (the basis bounds, the fidelity sequences, every optimum)
    computes no variance.
    """

    def __init__(self, states, a: Observable, b: Observable):
        if isinstance(states, QuantumState):
            states = (states,)
        stack = isinstance(states, np.ndarray)  # vectors or density matrices, one per row
        if stack and states.ndim not in (2, 3):
            raise VarboundsError(
                f"a stack of states has shape (rows, dim) or (rows, dim, dim), got {states.shape}")
        self.is_pure = states.ndim == 2 if stack else states[0].is_pure
        for d in {states.shape[-1]} if stack else [s.dim for s in states]:
            for obs in (a, b):
                if obs.dim != d:
                    raise DimensionMismatch(f"state dim {d} vs observable dim {obs.dim}")
        for s in () if stack else states:
            if s.is_pure != self.is_pure:
                raise VarboundsError("an instance stacks states of one kind")
        if a.matrix.shape != b.matrix.shape or a.matrix.ndim == 3 and len(a.matrix) != len(states):
            raise VarboundsError("an instance has one observable pair, or one pair per row")
        d = self.dim = a.dim
        self.a = a
        self.b = b
        # A and B, each (1, d, d) for every row or (rows, d, d); the quantities of A and B
        # computed from them are stacked on a first axis of 2
        self._pair = tuple(obs.matrix.reshape(-1, d, d) for obs in (a, b))
        if self.is_pure:
            psi = self.vectors = unit_rows(states) if stack else np.array([s.vector for s in states])
            self.rho = None
            self._pair_psi = np.array([matvec(m, psi) for m in self._pair])  # A psi and B psi
            self._means = _real(inner(psi, self._pair_psi))
        else:
            self.vectors = None
            self.rho = density_rows(states) if stack else np.array([s.rho for s in states])
            self._means = _real(np.array([_traces(self.rho, m) for m in self._pair]))
        self.mean_a, self.mean_b = self._means

    def __len__(self) -> int:
        return len(self.mean_a)

    @lazy
    def moments(self) -> MomentSet:
        """<AB>, both variances and the covariance, per row.

        The expressions are those of :func:`variance` and :func:`covariance`.
        """
        a, b = self._pair
        ab = a @ b
        if self.is_pure:
            z = inner(self.vectors, matvec(ab, self.vectors))
            second = inner(self._pair_psi, self._pair_psi).real
        else:
            z = _traces(self.rho, ab)
            second = _real(np.array([_traces(self.rho, m @ m) for m in self._pair]))
        var_a, var_b = clamp_variance(second - self._means * self._means, second)
        return MomentSet(
            mean_a=self.mean_a,
            mean_b=self.mean_b,
            var_a=var_a,
            var_b=var_b,
            cov=z.real - self.mean_a * self.mean_b,
            comm_expect=2j * z.imag,
            anticomm_expect=2.0 * z.real,
        )

    @lazy
    def _deviations(self) -> np.ndarray:
        if not self.is_pure:
            raise MixedStateUnsupported("deviation vectors are defined for pure states only")
        return self._pair_psi - self._means[..., None] * self.vectors

    @lazy
    def dev_a(self) -> np.ndarray:
        """(A - <A>) psi per row, as :func:`deviation_vector` computes it."""
        return self._deviations[0]

    @lazy
    def dev_b(self) -> np.ndarray:
        return self._deviations[1]

    @lazy
    def eig_devs(self) -> np.ndarray:
        """Eigenvalue deviations a_i - <A> and b_i - <B>, shape (2, rows, d)."""
        values = np.array([self.a.eigenvalues, self.b.eigenvalues]).reshape(2, -1, self.dim)
        return values - self._means[..., None]

    @lazy
    def fidelities(self) -> np.ndarray:
        """<a_i|rho|a_i> and <b_i|rho|b_i> over the eigenvectors of A and B, shape (2, rows, d)."""
        bases = np.array([self.a.eigenvectors, self.b.eigenvectors]).reshape(2, -1, self.dim, self.dim)
        return _fidelities(bases, self.vectors, self.rho)

    @lazy
    def sequences(self) -> SortedWeightSequences:
        (u, v), (ui, vi) = sorted_weighted(self.eig_devs, self.fidelities)
        return SortedWeightSequences(u=u, v=v, u_indices=ui, v_indices=vi)

    @lazy
    def eig_scales(self) -> np.ndarray:
        """The largest eigenvalue deviations max_i |a_i - <A>| and max_i |b_i - <B>|, shape (2, rows).

        The deviations ascend with the eigenvalues, so the largest modulus
        is at one end.
        """
        return np.abs(self.eig_devs[..., [0, -1]]).max(axis=-1)

    @lazy
    def frobenius_scales(self) -> np.ndarray:
        """||A - <A>||_F and ||B - <B>||_F per row, shape (2, rows) (see :func:`deviation_norm`)."""
        return deviation_norm(np.array(self._pair), self._means)


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
    return MomentSet(*[first_row(getattr(ms, name)) for name in MomentSet._fields])
