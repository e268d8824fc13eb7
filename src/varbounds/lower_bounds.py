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

Each formula is a function of one :class:`~varbounds.moments.Instance`
(``rs_product``, ``basis_product``, ...), so the bounds of one row read one
set of moments; each ``*_bound(state, a, b)`` builds the instance and calls
it.  Every function returns a :class:`BoundResult`; lower bounds are always
defined (preconditions raise instead).  Nothing here runs a numerical
search; the basis-optimized bounds live in :mod:`varbounds.optimize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, MixedStateUnsupported
from .linalg import Observable, OrthonormalBasis, QuantumState
from .moments import (  # fidelity_weights and sorted_weighted are re-exported
    Instance,
    SortedWeightSequences,
    fidelity_weights,
    sorted_weighted,
)

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
    return Instance(state, a, b).sequences


def rs_product(inst: Instance) -> BoundResult:
    """Robertson-Schrodinger: |<[A,B]>/2|^2 + Cov(A,B)^2."""
    ms = inst.moments
    comm_term = abs(ms.comm_expect / 2.0) ** 2
    cov_term = ms.cov**2
    return BoundResult(
        kind="rs_product",
        value=comm_term + cov_term,
        intermediates={"commutator_term": comm_term, "covariance_term": cov_term},
    )


def _alpha_beta(inst: Instance, basis: OrthonormalBasis) -> tuple[np.ndarray, np.ndarray]:
    if not inst.state.is_pure:
        raise MixedStateUnsupported("basis-decomposition bounds need a pure state")
    if basis.dim != inst.dim:
        raise DimensionMismatch(f"basis dim {basis.dim} vs state dim {inst.dim}")
    alpha = basis.columns.conj().T @ inst.dev_a
    beta = basis.columns.conj().T @ inst.dev_b
    return alpha, beta


def basis_product(inst: Instance, basis: OrthonormalBasis) -> BoundResult:
    """(sum_n |alpha_n| |beta_n|)^2 with alpha_n, beta_n the deviation coefficients."""
    alpha, beta = _alpha_beta(inst, basis)
    aa = np.abs(alpha)
    bb = np.abs(beta)
    return BoundResult(
        kind="basis_product",
        value=float(np.dot(aa, bb) ** 2),
        intermediates={"alpha_abs": aa, "beta_abs": bb},
    )


def basis_sum(inst: Instance, basis: OrthonormalBasis) -> BoundResult:
    """(1/2) sum_n (|alpha_n| + |beta_n|)^2, from the parallelogram law."""
    alpha, beta = _alpha_beta(inst, basis)
    aa = np.abs(alpha)
    bb = np.abs(beta)
    return BoundResult(
        kind="basis_sum",
        value=float(0.5 * ((aa + bb) ** 2).sum()),
        intermediates={"alpha_abs": aa, "beta_abs": bb},
    )


def fidelity_product(inst: Instance) -> BoundResult:
    """Squared inner product of the sorted weighted sequences.

    Both extremal pairings are valid lower bounds (Cauchy-Schwarz holds for
    any pairing); the larger square is reported and the pairing recorded.
    """
    seqs = inst.sequences
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


def parallelogram_sum(inst: Instance) -> BoundResult:
    """(1/2) sum_i (u_i + v_i)^2 with both sequences sorted ascending.

    The ascending-ascending pairing is the reported value; the opposed
    pairing (also a valid bound) is exposed in the intermediates.
    """
    seqs = inst.sequences
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


def mp_sum_1(inst: Instance) -> BoundResult:
    """Baseline: max over sign of +/-i<[A,B]> + sup_perp |<psi|(A +/- iB)|perp>|^2.

    By Cauchy-Schwarz the supremum over unit vectors orthogonal to the state
    is ||P_perp (A -/+ iB) psi||^2, attained at the normalized projection
    (:func:`mp_perp_candidates`), so no search is needed.  ``perp_vector``
    is that maximizer for the winning sign, or None when the projection is
    zero.
    """
    if not inst.state.is_pure:
        raise MixedStateUnsupported("this baseline is a pure-state bound")
    comm = inst.moments.comm_expect
    proj = {sign: mp_perp_candidates(inst.state, inst.a, inst.b, sign) for sign in (1.0, -1.0)}
    per_sign = {sign: float((sign * 1j * comm).real) + float(np.vdot(w, w).real)
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


def mp_sum_2(inst: Instance) -> BoundResult:
    """Baseline: half the variance of A + B."""
    if not inst.state.is_pure:
        raise MixedStateUnsupported("this baseline is a pure-state bound")
    psi = inst.state.vector
    m = inst.a.matrix + inst.b.matrix
    mv = m @ psi
    mean = np.vdot(psi, mv).real
    var_sum_op = max(np.vdot(mv, mv).real - mean**2, 0.0)
    return BoundResult(
        kind="mp_sum_2",
        value=0.5 * var_sum_op,
        baseline=True,
        intermediates={"variance_of_sum_operator": var_sum_op},
    )


def rs_product_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`rs_product` of one state and pair."""
    return rs_product(Instance(state, a, b))


def basis_product_bound(state: QuantumState, a: Observable, b: Observable,
                        basis: OrthonormalBasis) -> BoundResult:
    """:func:`basis_product` of one pure state and pair, in ``basis``."""
    return basis_product(Instance(state, a, b), basis)


def basis_sum_bound(state: QuantumState, a: Observable, b: Observable,
                    basis: OrthonormalBasis) -> BoundResult:
    """:func:`basis_sum` of one pure state and pair, in ``basis``."""
    return basis_sum(Instance(state, a, b), basis)


def fidelity_product_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`fidelity_product` of one state and pair."""
    return fidelity_product(Instance(state, a, b))


def parallelogram_sum_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`parallelogram_sum` of one state and pair."""
    return parallelogram_sum(Instance(state, a, b))


def mp_sum_bound_1(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`mp_sum_1` of one pure state and pair."""
    return mp_sum_1(Instance(state, a, b))


def mp_sum_bound_2(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`mp_sum_2` of one pure state and pair."""
    return mp_sum_2(Instance(state, a, b))
