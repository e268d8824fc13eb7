"""Upper (reverse) bounds on variance products and sums.

Two families:

* reverse Cauchy-Schwarz (Polya-Szego) product bounds, with the
  multiplicative factor built from the extrema of the strictly positive
  weight sequences (``reverse_fidelity_product_bound`` over eigenbasis
  fidelities, ``reverse_basis_product_bound`` over deviation coefficients
  in an arbitrary basis);
* Dunkl-Williams sum bounds on Delta A + Delta B and on the sum of
  variances.

An upper bound that cannot be formed (hypothesis violation, vanishing
denominator) is returned with ``defined=False`` and the +inf sentinel
rather than dropping offending terms: removing an index from one sequence
silently changes the paired sum and can falsify the inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Observable, OrthonormalBasis, QuantumState, check_dims
from .lower_bounds import BoundResult, _alpha_beta, sorted_weight_sequences
from .moments import moments

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
    """Extrema of two positive sequences and the reverse-CS multiplier."""

    max_a: float
    min_a: float
    max_b: float
    min_b: float

    @property
    def factor(self) -> float:
        num = (self.max_a * self.max_b + self.min_a * self.min_b) ** 2
        den = 4.0 * self.max_a * self.max_b * self.min_a * self.min_b
        return num / den

    @classmethod
    def from_sequences(cls, c: np.ndarray, d: np.ndarray) -> "ReverseFactor":
        return cls(max_a=float(c.max()), min_a=float(c.min()),
                   max_b=float(d.max()), min_b=float(d.min()))


def _strictly_positive(seq: np.ndarray, scale: float | None = None) -> bool:
    """Entries strictly positive at threshold 1e-12 of the largest entry.

    ``scale`` (the largest unweighted eigenvalue deviation, for the fidelity
    sequences) adds an absolute floor so that sequences made entirely of
    round-off dust near an eigenstate count as violating the hypothesis,
    exactly like their exact-arithmetic zeros would.
    """
    top = float(seq.max())
    if scale is not None and top <= POSITIVITY_RTOL * scale:
        return False
    return top > 0.0 and float(seq.min()) > POSITIVITY_RTOL * top


def reverse_fidelity_product_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """Omega * (sum_i c_i d_i)^2 with c, d the absolute weighted sequences.

    Defined only when every entry of both sequences is strictly positive
    (threshold ``1e-12`` relative to the largest entry); the pairing follows
    the same sorted-signed arrangement used by the fidelity product bound.
    """
    seqs = sorted_weight_sequences(state, a, b)
    c = np.abs(seqs.u)
    d = np.abs(seqs.v)
    from .moments import expectation

    scale_a = float(np.abs(a.eigenvalues - expectation(state, a)).max())
    scale_b = float(np.abs(b.eigenvalues - expectation(state, b)).max())
    if not (_strictly_positive(c, scale_a) and _strictly_positive(d, scale_b)):
        return BoundResult.undefined("reverse_fidelity_product", HYPOTHESIS_REASON, c=c, d=d)
    rf = ReverseFactor.from_sequences(c, d)
    s = float(np.dot(c, d))
    return BoundResult(
        kind="reverse_fidelity_product",
        value=rf.factor * s**2,
        intermediates={
            "c": c,
            "d": d,
            "omega": rf.factor,
            "paired_sum": s,
            "max_a": rf.max_a, "min_a": rf.min_a,
            "max_b": rf.max_b, "min_b": rf.min_b,
            "pairing": "sorted-signed order",
        },
    )


def reverse_basis_product_bound(state: QuantumState, a: Observable, b: Observable,
                                basis: OrthonormalBasis) -> BoundResult:
    """Lambda * (sum_n |alpha_n||beta_n|)^2 for a pure state and a chosen basis.

    By Polya-Szego it is at least ||alpha||^2 ||beta||^2 = Var A * Var B, with
    equality at a basis where all |alpha_n| are equal and all |beta_n| are
    equal; :func:`varbounds.optimize.optimize_reverse_product_bound` returns
    such a basis and this minimum.
    """
    alpha, beta = _alpha_beta(state, a, b, basis)
    aa = np.abs(alpha)
    bb = np.abs(beta)
    if not (_strictly_positive(aa) and _strictly_positive(bb)):
        return BoundResult.undefined("reverse_basis_product", HYPOTHESIS_REASON,
                                     alpha_abs=aa, beta_abs=bb)
    rf = ReverseFactor.from_sequences(aa, bb)
    s = float(np.dot(aa, bb))
    return BoundResult(
        kind="reverse_basis_product",
        value=rf.factor * s**2,
        intermediates={
            "alpha_abs": aa,
            "beta_abs": bb,
            "lambda": rf.factor,
            "paired_sum": s,
        },
    )


def _dw_ingredients(state: QuantumState, a: Observable, b: Observable):
    ms = moments(state, a, b)
    if ms.var_a <= 0.0 or ms.var_b <= 0.0:
        return ms, None, NULL_DEVIATION_REASON
    denom = 1.0 - ms.cov / (ms.std_a * ms.std_b)
    if denom <= DENOMINATOR_TOL:
        return ms, None, CORRELATED_REASON
    return ms, denom, None


def dw_deviation_sum_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """Dunkl-Williams upper bound on Delta A + Delta B.

    sqrt(2) * Delta(A-B) / sqrt(1 - Cov/(Delta A Delta B)); works for mixed
    states through trace moments.
    """
    check_dims(state, a, b)
    ms, denom, reason = _dw_ingredients(state, a, b)
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


def dw_variance_sum_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """Squared Dunkl-Williams bound: 2 Delta(A-B)^2 / (1 - Cov/(DA DB)) - 2 DA DB."""
    check_dims(state, a, b)
    ms, denom, reason = _dw_ingredients(state, a, b)
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
