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
(``rs_product``, ``basis_product``, ...) and evaluates every row of it at
once: it returns a :class:`BoundArrays` of per-row values, definedness and
reasons.  A sweep calls each formula once on the instance of its whole
theta grid; each ``*_bound(state, a, b)`` builds a one-row instance, calls
the same formula and returns its row as a :class:`BoundResult`.  Lower
bounds are always defined (preconditions raise instead).  Nothing here
runs a numerical search; the basis-optimized bounds live in
:mod:`varbounds.optimize`.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .errors import MixedStateUnsupported
from .linalg import Observable, OrthonormalBasis, QuantumState
from .moments import (  # fidelity_weights and sorted_weighted are re-exported
    Instance,
    SortedWeightSequences,
    coefficient_moduli,
    fidelity_weights,
    first_row,
    inner,
    matvec,
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


class BoundResult(Record):
    """A bound's value plus its definedness status and audit intermediates.

    An undefined bound needs a reason, and its value is +inf.
    """

    _fields = ("kind", "value", "defined", "reason", "baseline", "intermediates")

    def __init__(self, kind: str, value: float, defined: bool = True, reason: str | None = None,
                 baseline: bool = False, intermediates: dict | None = None):
        if not defined:
            if reason is None:
                raise ValueError("undefined bound needs a reason")
            value = INF
        self.kind = kind
        self.value = value
        self.defined = defined
        self.reason = reason
        self.baseline = baseline
        self.intermediates = {} if intermediates is None else intermediates


class BoundArrays(Record):
    """One bound over the rows of an instance.

    ``value`` holds a float per row and +inf where the bound is undefined.
    ``reason`` is an object array with the reason of each undefined row
    and None elsewhere; None for the whole array means every row is
    defined.  Array intermediates have one entry (or row) per row.
    """

    _fields = ("kind", "value", "reason", "baseline", "intermediates")

    def __init__(self, kind: str, value: np.ndarray, reason: np.ndarray | None = None,
                 baseline: bool = False, intermediates: dict | None = None):
        self.kind = kind
        self.value = value
        self.reason = reason
        if reason is not None:
            self.value = np.where(self.defined, value, INF)
        self.baseline = baseline
        self.intermediates = {} if intermediates is None else intermediates

    @classmethod
    def upper(cls, kind: str, value: np.ndarray, cases, **intermediates) -> "BoundArrays":
        """A bound that is undefined on the rows of each ``(mask, reason)`` case.

        The first case that holds on a row gives its reason.
        """
        hits = [(mask, reason) for mask, reason in cases if mask.any()]
        reasons = None
        if hits:
            reasons = np.full(len(value), None, dtype=object)
            for mask, reason in reversed(hits):
                reasons[mask] = reason
        return cls(kind, value, reasons, intermediates=intermediates)

    @property
    def defined(self) -> np.ndarray:
        if self.reason is None:
            return np.ones(len(self.value), dtype=bool)
        return np.equal(self.reason, None)

    def cells(self) -> tuple[list, list]:
        """Per-row values (None where undefined) and statuses ("ok" or the reason)."""
        values = self.value.tolist()
        if self.reason is None:
            return values, ["ok"] * len(values)
        reasons = self.reason.tolist()
        return ([None if r else v for v, r in zip(values, reasons)],
                [r or "ok" for r in reasons])

    def one(self) -> BoundResult:
        """The result of a one-row instance."""
        reason = None if self.reason is None else self.reason[0]
        return BoundResult(
            kind=self.kind,
            value=float(self.value[0]),
            defined=reason is None,
            reason=reason,
            baseline=self.baseline,
            intermediates={k: first_row(v) if isinstance(v, np.ndarray) else v
                           for k, v in self.intermediates.items()},
        )


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
    seqs = Instance(state, a, b).sequences
    return SortedWeightSequences(u=seqs.u[0], v=seqs.v[0],
                                 u_indices=seqs.u_indices[0], v_indices=seqs.v_indices[0])


def rs_product(inst: Instance) -> BoundArrays:
    """Robertson-Schrodinger: |<[A,B]>/2|^2 + Cov(A,B)^2."""
    ms = inst.moments
    half_comm = np.abs(ms.comm_expect / 2.0)
    comm_term = half_comm * half_comm
    cov_term = ms.cov * ms.cov
    return BoundArrays("rs_product", comm_term + cov_term,
                       intermediates={"commutator_term": comm_term, "covariance_term": cov_term})


def basis_product(inst: Instance, basis=None) -> BoundArrays:
    """(sum_n |alpha_n| |beta_n|)^2 with alpha_n, beta_n the deviation coefficients.

    ``basis`` is as in :func:`~varbounds.moments.coefficient_moduli`; the
    default is the standard basis.
    """
    aa, bb = coefficient_moduli(inst, basis)
    s = inner(aa, bb)
    return BoundArrays("basis_product", s * s,
                       intermediates={"alpha_abs": aa, "beta_abs": bb})


def basis_sum(inst: Instance, basis=None) -> BoundArrays:
    """(1/2) sum_n (|alpha_n| + |beta_n|)^2, from the parallelogram law."""
    aa, bb = coefficient_moduli(inst, basis)
    return BoundArrays("basis_sum", 0.5 * ((aa + bb) ** 2).sum(axis=-1),
                       intermediates={"alpha_abs": aa, "beta_abs": bb})


def fidelity_product(inst: Instance) -> BoundArrays:
    """Squared inner product of the sorted weighted sequences.

    Both extremal pairings are valid lower bounds (Cauchy-Schwarz holds for
    any pairing); the larger square is reported and the pairing recorded.
    """
    seqs = inst.sequences
    asc, alt = pairing_sums(seqs.u, seqs.v)
    v_asc = asc * asc
    v_alt = alt * alt
    ascending = v_asc >= v_alt
    return BoundArrays(
        "fidelity_product",
        np.where(ascending, v_asc, v_alt),
        intermediates={
            "u": seqs.u,
            "v": seqs.v,
            "pairing": np.where(ascending, "ascending-ascending", "ascending-descending"),
            "ascending_value": v_asc,
            "opposed_value": v_alt,
        },
    )


def parallelogram_sum(inst: Instance) -> BoundArrays:
    """(1/2) sum_i (u_i + v_i)^2 with both sequences sorted ascending.

    The ascending-ascending pairing is the reported value; the opposed
    pairing (also a valid bound) is exposed in the intermediates.
    """
    seqs = inst.sequences
    asc, alt = parallelogram_values(seqs.u, seqs.v)
    return BoundArrays("parallelogram_sum", asc,
                       intermediates={"u": seqs.u, "v": seqs.v, "opposed_value": alt})


SIGNS = np.array([1.0, -1.0])


def _perp_projections(psi: np.ndarray, a: Observable, b: Observable, sign) -> np.ndarray:
    """P_perp (A - sign*iB) psi along the last axis of ``psi``; ``sign`` may be an array."""
    w = matvec(a.matrix - sign * 1j * b.matrix, psi)
    return w - psi * inner(psi, w)[..., None]


def mp_perp_candidates(state: QuantumState, a: Observable, b: Observable, sign: float) -> np.ndarray:
    """Analytic maximizer of |<psi|(A + sign*iB)|perp>|: P_perp (A - sign*iB) psi."""
    return _perp_projections(state.vector, a, b, sign)


def _require_pure(inst: Instance) -> None:
    if not inst.is_pure:
        raise MixedStateUnsupported("this baseline is a pure-state bound")


def mp_sum_1(inst: Instance) -> BoundArrays:
    """Baseline: max over sign of +/-i<[A,B]> + sup_perp |<psi|(A +/- iB)|perp>|^2.

    By Cauchy-Schwarz the supremum over unit vectors orthogonal to the state
    is ||P_perp (A -/+ iB) psi||^2, attained at the normalized projection
    (:func:`mp_perp_candidates`), so no search is needed.  ``perp_vector``
    is that maximizer for the winning sign; the one-row result reports None
    where the projection is zero.
    """
    _require_pure(inst)
    comm = inst.moments.comm_expect
    # both signs at once: row 0 of each stack is sign +1, row 1 is sign -1
    w = _perp_projections(inst.vectors, inst.a, inst.b, SIGNS[:, None, None, None])
    sq = inner(w, w).real
    value_plus, value_minus = (SIGNS[:, None] * 1j * comm).real + sq
    plus = value_plus >= value_minus
    best = np.where(plus, 0, 1)
    w, norm = w[best, np.arange(len(best))], np.sqrt(sq[best, np.arange(len(best))])
    perp = np.divide(w, norm[:, None], out=np.zeros_like(w), where=norm[:, None] > 0)
    return BoundArrays(
        "mp_sum_1",
        np.where(plus, value_plus, value_minus),
        baseline=True,
        intermediates={
            "value_plus": value_plus,
            "value_minus": value_minus,
            "sign": SIGNS[best],
            "perp_vector": perp,
        },
    )


def mp_sum_2(inst: Instance) -> BoundArrays:
    """Baseline: half the variance of A + B."""
    _require_pure(inst)
    psi = inst.vectors
    mv = matvec(inst.a.matrix + inst.b.matrix, psi)
    mean = inner(psi, mv).real
    var_sum_op = np.maximum(inner(mv, mv).real - mean * mean, 0.0)
    return BoundArrays("mp_sum_2", 0.5 * var_sum_op, baseline=True,
                       intermediates={"variance_of_sum_operator": var_sum_op})


def rs_product_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`rs_product` of one state and pair."""
    return rs_product(Instance(state, a, b)).one()


def basis_product_bound(state: QuantumState, a: Observable, b: Observable,
                        basis: OrthonormalBasis) -> BoundResult:
    """:func:`basis_product` of one pure state and pair, in ``basis``."""
    return basis_product(Instance(state, a, b), basis).one()


def basis_sum_bound(state: QuantumState, a: Observable, b: Observable,
                    basis: OrthonormalBasis) -> BoundResult:
    """:func:`basis_sum` of one pure state and pair, in ``basis``."""
    return basis_sum(Instance(state, a, b), basis).one()


def fidelity_product_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`fidelity_product` of one state and pair."""
    return fidelity_product(Instance(state, a, b)).one()


def parallelogram_sum_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`parallelogram_sum` of one state and pair."""
    return parallelogram_sum(Instance(state, a, b)).one()


def mp_sum_bound_1(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`mp_sum_1` of one pure state and pair."""
    res = mp_sum_1(Instance(state, a, b)).one()
    if not res.intermediates["perp_vector"].any():
        res.intermediates["perp_vector"] = None
    return res


def mp_sum_bound_2(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`mp_sum_2` of one pure state and pair."""
    return mp_sum_2(Instance(state, a, b)).one()
