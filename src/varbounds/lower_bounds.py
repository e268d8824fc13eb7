"""Lower bounds on the product and the sum of two variances.

Implemented bounds:

* ``rs_product_bound`` - the Robertson-Schrodinger commutator/covariance bound;
* ``basis_product_bound`` / ``basis_sum_bound`` - decompose the deviation
  vectors in an arbitrary complete basis and apply Cauchy-Schwarz or the
  parallelogram law to the coefficient moduli;
* ``fidelity_product_bound`` / ``parallelogram_sum_bound`` - optimization-free
  bounds built from eigenvalue deviations weighted by the fidelities between
  the state and the observables' eigenvectors, sorted ascending;
* ``mp_sum_bound_1`` / ``mp_sum_bound_2`` - the two classic sum bounds based
  on a state orthogonal to the system state, kept as comparison baselines;
  both take that state in closed form.

Every function returns a :class:`BoundResult`; lower bounds are always
defined (preconditions raise instead).  Nothing here runs a numerical
search; the basis-optimized bounds live in :mod:`varbounds.optimize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, MixedStateUnsupported, NumericalConsistencyError
from .linalg import Observable, OrthonormalBasis, QuantumState, check_dims
from .moments import deviation_vector, expectation, moments

__all__ = [
    "BoundResult",
    "SortedWeightSequences",
    "basis_product_bound",
    "basis_sum_bound",
    "fidelity_product_bound",
    "mp_sum_bound_1",
    "mp_sum_bound_2",
    "parallelogram_sum_bound",
    "rs_product_bound",
    "sorted_weight_sequences",
]

INF = float("inf")


@dataclass
class BoundResult:
    """A bound's value plus its definedness status and audit intermediates."""

    kind: str
    value: float
    defined: bool = True
    reason: str | None = None
    baseline: bool = False
    intermediates: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.defined:
            if self.reason is None:
                raise ValueError("undefined bound needs a reason")
            self.value = INF

    @classmethod
    def undefined(cls, kind: str, reason: str, **intermediates) -> "BoundResult":
        return cls(kind=kind, value=INF, defined=False, reason=reason,
                   intermediates=dict(intermediates))


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


def pairing_sums(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inner products of the two extremal pairings of sorted sequences."""
    ascending = np.einsum("...i,...i->...", u, v)
    opposed = np.einsum("...i,...i->...", u, v[..., ::-1])
    return ascending, opposed


def parallelogram_values(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half the squared sums, for both extremal pairings."""
    asc = 0.5 * ((u + v) ** 2).sum(axis=-1)
    alt = 0.5 * ((u + v[..., ::-1]) ** 2).sum(axis=-1)
    return asc, alt


def sorted_weight_sequences(state: QuantumState, a: Observable, b: Observable) -> SortedWeightSequences:
    check_dims(state, a, b)
    ta = a.eigenvalues - expectation(state, a)
    tb = b.eigenvalues - expectation(state, b)
    u, ui = sorted_weighted(ta, fidelity_weights(state, a))
    v, vi = sorted_weighted(tb, fidelity_weights(state, b))
    return SortedWeightSequences(u=u, v=v, u_indices=ui, v_indices=vi)


def rs_product_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """Robertson-Schrodinger: |<[A,B]>/2|^2 + Cov(A,B)^2."""
    ms = moments(state, a, b)
    comm_term = abs(ms.comm_expect / 2.0) ** 2
    cov_term = ms.cov**2
    return BoundResult(
        kind="rs_product",
        value=comm_term + cov_term,
        intermediates={"commutator_term": comm_term, "covariance_term": cov_term},
    )


def _alpha_beta(state: QuantumState, a: Observable, b: Observable,
                basis: OrthonormalBasis) -> tuple[np.ndarray, np.ndarray]:
    if not state.is_pure:
        raise MixedStateUnsupported("basis-decomposition bounds need a pure state")
    d = check_dims(state, a, b)
    if basis.dim != d:
        raise DimensionMismatch(f"basis dim {basis.dim} vs state dim {d}")
    f = deviation_vector(state, a)
    g = deviation_vector(state, b)
    alpha = basis.columns.conj().T @ f
    beta = basis.columns.conj().T @ g
    return alpha, beta


def basis_product_bound(state: QuantumState, a: Observable, b: Observable,
                        basis: OrthonormalBasis) -> BoundResult:
    """(sum_n |alpha_n| |beta_n|)^2 with alpha_n, beta_n the deviation coefficients.

    The equivalent commutator/anticommutator form is evaluated through actual
    matrix products and asserted to agree, as an internal consistency check.
    """
    alpha, beta = _alpha_beta(state, a, b, basis)
    aa = np.abs(alpha)
    bb = np.abs(beta)
    value = float(np.dot(aa, bb) ** 2)

    psi = state.vector
    abar = a.matrix - expectation(state, a) * np.eye(a.dim)
    bbar = b.matrix - expectation(state, b) * np.eye(b.dim)
    acc = 0.0
    for n in range(basis.dim):
        col = basis.column(n)
        bbar_n = np.outer(col, col.conj()) @ bbar
        comm = abar @ bbar_n - bbar_n @ abar
        anti = abar @ bbar_n + bbar_n @ abar
        acc += abs(np.vdot(psi, comm @ psi) + np.vdot(psi, anti @ psi))
    comm_form = 0.25 * acc**2
    if abs(value - comm_form) > 1e-10 + 1e-12 * abs(value):
        raise NumericalConsistencyError(
            f"coefficient form {value!r} vs commutator form {comm_form!r}"
        )
    return BoundResult(
        kind="basis_product",
        value=value,
        intermediates={
            "alpha_abs": aa,
            "beta_abs": bb,
            "commutator_form_value": comm_form,
        },
    )


def basis_sum_bound(state: QuantumState, a: Observable, b: Observable,
                    basis: OrthonormalBasis) -> BoundResult:
    """(1/2) sum_n (|alpha_n| + |beta_n|)^2, from the parallelogram law."""
    alpha, beta = _alpha_beta(state, a, b, basis)
    aa = np.abs(alpha)
    bb = np.abs(beta)
    return BoundResult(
        kind="basis_sum",
        value=float(0.5 * ((aa + bb) ** 2).sum()),
        intermediates={"alpha_abs": aa, "beta_abs": bb},
    )


def fidelity_product_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """Squared inner product of the sorted weighted sequences.

    Both extremal pairings are valid lower bounds (Cauchy-Schwarz holds for
    any pairing); the larger square is reported and the pairing recorded.
    """
    seqs = sorted_weight_sequences(state, a, b)
    asc, alt = pairing_sums(seqs.u, seqs.v)
    v_asc = float(asc**2)
    v_alt = float(alt**2)
    pairing = "ascending-ascending" if v_asc >= v_alt else "ascending-descending"
    return BoundResult(
        kind="fidelity_product",
        value=max(v_asc, v_alt),
        intermediates={
            "u": seqs.u,
            "v": seqs.v,
            "pairing": pairing,
            "ascending_value": v_asc,
            "opposed_value": v_alt,
        },
    )


def parallelogram_sum_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """(1/2) sum_i (u_i + v_i)^2 with both sequences sorted ascending.

    The ascending-ascending pairing is the reported value; the opposed
    pairing (also a valid bound) is exposed in the intermediates.
    """
    seqs = sorted_weight_sequences(state, a, b)
    asc, alt = parallelogram_values(seqs.u, seqs.v)
    return BoundResult(
        kind="parallelogram_sum",
        value=float(asc),
        intermediates={"u": seqs.u, "v": seqs.v, "opposed_value": float(alt)},
    )


def mp_perp_candidates(state: QuantumState, a: Observable, b: Observable, sign: float) -> np.ndarray:
    """Analytic maximizer of |<psi|(A + sign*iB)|perp>|: P_perp (A - sign*iB) psi."""
    psi = state.vector
    w = (a.matrix - sign * 1j * b.matrix) @ psi
    return w - psi * np.vdot(psi, w)


def mp_sum_bound_1(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """Baseline: max over sign of +/-i<[A,B]> + sup_perp |<psi|(A +/- iB)|perp>|^2.

    By Cauchy-Schwarz the supremum over unit vectors orthogonal to the state
    is ||P_perp (A -/+ iB) psi||^2, attained at the normalized projection
    (:func:`mp_perp_candidates`), so no search is needed.  ``perp_vector``
    is that maximizer for the winning sign, or None when the projection is
    zero.
    """
    if not state.is_pure:
        raise MixedStateUnsupported("this baseline is a pure-state bound")
    check_dims(state, a, b)
    ms = moments(state, a, b)
    proj = {sign: mp_perp_candidates(state, a, b, sign) for sign in (1.0, -1.0)}
    per_sign = {sign: float((sign * 1j * ms.comm_expect).real) + float(np.vdot(w, w).real)
                for sign, w in proj.items()}
    best_sign = 1.0 if per_sign[1.0] >= per_sign[-1.0] else -1.0
    w = proj[best_sign]
    norm = np.linalg.norm(w)
    return BoundResult(
        kind="mp_sum_1",
        value=per_sign[best_sign],
        baseline=True,
        intermediates={
            "value_plus": per_sign[1.0],
            "value_minus": per_sign[-1.0],
            "sign": best_sign,
            "perp_vector": w / norm if norm > 0 else None,
        },
    )


def mp_sum_bound_2(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """Baseline: half the variance of A + B."""
    if not state.is_pure:
        raise MixedStateUnsupported("this baseline is a pure-state bound")
    check_dims(state, a, b)
    psi = state.vector
    m = a.matrix + b.matrix
    mv = m @ psi
    mean = np.vdot(psi, mv).real
    var_sum_op = max(np.vdot(mv, mv).real - mean**2, 0.0)
    return BoundResult(
        kind="mp_sum_2",
        value=0.5 * var_sum_op,
        baseline=True,
        intermediates={"variance_of_sum_operator": var_sum_op},
    )
