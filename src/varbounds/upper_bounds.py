"""Upper (reverse) bounds on variance products and sums.

Two families:

* reverse Cauchy-Schwarz (Polya-Szego) product bounds, with the
  multiplicative factor built from the extrema of the strictly positive
  weight sequences (``reverse_fidelity_product_bound`` over eigenbasis
  fidelities, ``reverse_basis_product_bound`` over deviation coefficients
  in an arbitrary basis);
* Dunkl-Williams sum bounds on Delta A + Delta B and on the sum of
  variances.

As in :mod:`varbounds.lower_bounds`, each formula is a function of one
:class:`~varbounds.moments.Instance` and each ``*_bound`` builds one.  The
positivity test and the reverse factor work along the last axis, so
:mod:`varbounds.verify` applies the same rule to whole ensembles.

An upper bound that cannot be formed (hypothesis violation, vanishing
denominator) is returned with ``defined=False`` and the +inf sentinel
rather than dropping offending terms: removing an index from one sequence
silently changes the paired sum and can falsify the inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Observable, OrthonormalBasis, QuantumState
from .lower_bounds import BoundResult, _alpha_beta
from .moments import Instance, MomentSet

__all__ = [
    "ReverseFactor",
    "dw_deviation_sum_bound",
    "dw_variance_sum_bound",
    "reverse_basis_product_bound",
    "reverse_fidelity_product_bound",
]

POSITIVITY_RTOL = 1e-12  # relative to the largest sequence entry
DENOMINATOR_TOL = 1e-12

HYPOTHESIS_REASON = "reverse Cauchy-Schwarz hypothesis 0 < c <= c_i violated"
NULL_DEVIATION_REASON = "non-null deviation vectors required (a variance vanishes)"
CORRELATED_REASON = "vacuous at perfect correlation (denominator below tolerance)"


@dataclass(frozen=True)
class ReverseFactor:
    """Extrema of two positive sequences and the reverse-CS multiplier.

    The fields are floats for a single pair of sequences and arrays over
    the leading axes for stacks of them.
    """

    max_a: float
    min_a: float
    max_b: float
    min_b: float

    @property
    def factor(self) -> float:
        num = (self.max_a * self.max_b + self.min_a * self.min_b) ** 2
        den = 4.0 * self.max_a * self.max_b * self.min_a * self.min_b
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den

    @classmethod
    def from_sequences(cls, c: np.ndarray, d: np.ndarray) -> "ReverseFactor":
        """Extrema along the last axis; Python floats for one pair of sequences."""
        ext = (c.max(axis=-1), c.min(axis=-1), d.max(axis=-1), d.min(axis=-1))
        if c.ndim == 1:
            ext = tuple(float(x) for x in ext)
        return cls(*ext)


def _strictly_positive(seq: np.ndarray, scale=None) -> np.ndarray:
    """Entries strictly positive at threshold 1e-12 of the largest entry, along the last axis.

    ``scale`` (an upper bound on the sequence's unweighted deviations: the
    largest eigenvalue deviation for the fidelity sequences, the Frobenius
    norm of A - <A> for the basis coefficients) adds an absolute floor, so
    that sequences made entirely of round-off dust near an eigenstate count
    as violating the hypothesis, exactly like their exact-arithmetic zeros
    would.
    """
    top = seq.max(axis=-1)
    ok = (top > 0) & (seq.min(axis=-1) > POSITIVITY_RTOL * top)
    if scale is not None:
        ok &= top > POSITIVITY_RTOL * scale
    return ok


def reverse_fidelity_product(inst: Instance) -> BoundResult:
    """Omega * (sum_i c_i d_i)^2 with c, d the absolute weighted sequences.

    Defined only when every entry of both sequences is strictly positive
    (threshold ``1e-12`` relative to the largest entry); the pairing follows
    the same sorted-signed arrangement used by the fidelity product bound.
    """
    seqs = inst.sequences
    c = np.abs(seqs.u)
    d = np.abs(seqs.v)
    scale_a, scale_b = inst.eig_scales
    if not (_strictly_positive(c, scale_a) and _strictly_positive(d, scale_b)):
        return BoundResult.undefined("reverse_fidelity_product", HYPOTHESIS_REASON, c=c, d=d)
    rf = ReverseFactor.from_sequences(c, d)
    omega = rf.factor
    s = float(np.dot(c, d))
    return BoundResult(
        kind="reverse_fidelity_product",
        value=omega * s**2,
        intermediates={
            "c": c,
            "d": d,
            "omega": omega,
            "paired_sum": s,
            "max_a": rf.max_a, "min_a": rf.min_a,
            "max_b": rf.max_b, "min_b": rf.min_b,
            "pairing": "sorted-signed order",
        },
    )


def reverse_basis_product(inst: Instance, basis: OrthonormalBasis) -> BoundResult:
    """Lambda * (sum_n |alpha_n||beta_n|)^2 for a pure state and a chosen basis.

    By Polya-Szego it is at least ||alpha||^2 ||beta||^2 = Var A * Var B, with
    equality at a basis where all |alpha_n| are equal and all |beta_n| are
    equal; :func:`varbounds.optimize.optimize_reverse_product_bound` returns
    such a basis and this minimum.  The positivity floor is scaled by
    ||A - <A>||_F and ||B - <B>||_F, so at an eigenstate of A or B the bound
    is undefined in every basis.
    """
    alpha, beta = _alpha_beta(inst, basis)
    aa = np.abs(alpha)
    bb = np.abs(beta)
    scale_a, scale_b = inst.frobenius_scales
    if not (_strictly_positive(aa, scale_a) and _strictly_positive(bb, scale_b)):
        return BoundResult.undefined("reverse_basis_product", HYPOTHESIS_REASON,
                                     alpha_abs=aa, beta_abs=bb)
    lam = ReverseFactor.from_sequences(aa, bb).factor
    s = float(np.dot(aa, bb))
    return BoundResult(
        kind="reverse_basis_product",
        value=lam * s**2,
        intermediates={
            "alpha_abs": aa,
            "beta_abs": bb,
            "lambda": lam,
            "paired_sum": s,
        },
    )


def _dw_ingredients(ms: MomentSet):
    if ms.var_a <= 0.0 or ms.var_b <= 0.0:
        return None, NULL_DEVIATION_REASON
    denom = 1.0 - ms.cov / (ms.std_a * ms.std_b)
    if denom <= DENOMINATOR_TOL:
        return None, CORRELATED_REASON
    return denom, None


def dw_deviation_sum(inst: Instance) -> BoundResult:
    """Dunkl-Williams upper bound on Delta A + Delta B.

    sqrt(2) * Delta(A-B) / sqrt(1 - Cov/(Delta A Delta B)); works for mixed
    states through trace moments.
    """
    ms = inst.moments
    denom, reason = _dw_ingredients(ms)
    var_diff = max(ms.var_a + ms.var_b - 2.0 * ms.cov, 0.0)
    if reason is not None:
        return BoundResult.undefined("dw_deviation_sum", reason,
                                     variance_of_difference=var_diff)
    value = float(np.sqrt(2.0 * var_diff / denom))
    return BoundResult(
        kind="dw_deviation_sum",
        value=value,
        intermediates={
            "variance_of_difference": var_diff,
            "denominator": denom,
            "deviation_sum": ms.std_a + ms.std_b,
        },
    )


def dw_variance_sum(inst: Instance) -> BoundResult:
    """Squared Dunkl-Williams bound: 2 Delta(A-B)^2 / (1 - Cov/(DA DB)) - 2 DA DB."""
    ms = inst.moments
    denom, reason = _dw_ingredients(ms)
    var_diff = max(ms.var_a + ms.var_b - 2.0 * ms.cov, 0.0)
    if reason is not None:
        return BoundResult.undefined("dw_variance_sum", reason,
                                     variance_of_difference=var_diff)
    value = 2.0 * var_diff / denom - 2.0 * ms.std_a * ms.std_b
    return BoundResult(
        kind="dw_variance_sum",
        value=float(value),
        intermediates={
            "variance_of_difference": var_diff,
            "denominator": denom,
            "variance_sum": ms.var_a + ms.var_b,
        },
    )


def reverse_fidelity_product_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`reverse_fidelity_product` of one state and pair."""
    return reverse_fidelity_product(Instance(state, a, b))


def reverse_basis_product_bound(state: QuantumState, a: Observable, b: Observable,
                                basis: OrthonormalBasis) -> BoundResult:
    """:func:`reverse_basis_product` of one pure state and pair, in ``basis``."""
    return reverse_basis_product(Instance(state, a, b), basis)


def dw_deviation_sum_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`dw_deviation_sum` of one state and pair."""
    return dw_deviation_sum(Instance(state, a, b))


def dw_variance_sum_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`dw_variance_sum` of one state and pair."""
    return dw_variance_sum(Instance(state, a, b))
