"""Upper (reverse) bounds on variance products and sums.

Two families:

* reverse Cauchy-Schwarz (Polya-Szego) product bounds, with the
  multiplicative factor built from the extrema of the strictly positive
  weight sequences (``reverse_fidelity_product_bound`` over eigenbasis
  fidelities, ``reverse_basis_product_bound`` over deviation coefficients
  in an arbitrary basis);
* Dunkl-Williams sum bounds on Delta A + Delta B and on the sum of
  variances.

As in :mod:`varbounds.lower_bounds`, each formula evaluates every row of
one :class:`~varbounds.moments.Instance` and returns a
:class:`~varbounds.lower_bounds.BoundArrays`, and each ``*_bound`` returns
the row of a one-row instance; :mod:`varbounds.verify` calls the same
formulas on the instances of its random ensembles.  The positivity test
and the reverse factor work along the last axis, and every square is
``x * x``.

An upper bound that cannot be formed (hypothesis violation, vanishing
denominator) is returned with ``defined=False`` and the +inf sentinel
rather than dropping offending terms: removing an index from one sequence
silently changes the paired sum and can falsify the inequality.
"""

from __future__ import annotations

import numpy as np

from ._record import FrozenRecord
from .linalg import Observable, OrthonormalBasis, QuantumState
from .lower_bounds import BoundArrays, BoundResult
from .moments import Instance, MomentSet, coefficient_moduli, inner

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


class ReverseFactor(FrozenRecord):
    """Extrema of two positive sequences and the reverse-CS multiplier.

    The fields are floats for a single pair of sequences and arrays over
    the leading axes for stacks of them.
    """

    _fields = ("max_a", "min_a", "max_b", "min_b")

    def __init__(self, max_a: float, min_a: float, max_b: float, min_b: float):
        self.__dict__.update(max_a=max_a, min_a=min_a, max_b=max_b, min_b=min_b)

    @property
    def factor(self) -> float:
        """(M_a M_b + m_a m_b)^2 / (4 M_a M_b m_a m_b), the square taken as x * x."""
        top = self.max_a * self.max_b + self.min_a * self.min_b
        with np.errstate(divide="ignore", invalid="ignore"):
            return top * top / (4.0 * self.max_a * self.max_b * self.min_a * self.min_b)


def _positive_extremes(top, low, scale=None):
    """Sequences strictly positive at threshold 1e-12 of the largest entry, from their extremes.

    ``top`` and ``low`` are the largest and smallest entries.  ``scale`` (an
    upper bound on the sequence's unweighted deviations: the largest
    eigenvalue deviation for the fidelity sequences, the Frobenius norm of
    A - <A> for the basis coefficients) adds an absolute floor, so that
    sequences made entirely of round-off dust near an eigenstate count as
    violating the hypothesis, exactly like their exact-arithmetic zeros
    would.
    """
    ok = low > POSITIVITY_RTOL * top
    # a scale is >= 0, so top > 1e-12 * scale already asks for top > 0
    ok &= top > (0.0 if scale is None else POSITIVITY_RTOL * scale)
    return ok


def _reverse_product(kind: str, seqs: np.ndarray, scales, factor_name: str) -> BoundArrays:
    """Omega * (sum_i c_i d_i)^2 per row, undefined where c or d is not strictly positive.

    ``seqs`` stacks c and d, shape (2, rows, k); ``scales`` are their
    absolute positivity scales.
    """
    top, low = seqs.max(axis=-1), seqs.min(axis=-1)
    ok = _positive_extremes(top, low, scales).all(axis=0)
    rf = ReverseFactor(max_a=top[0], min_a=low[0], max_b=top[1], min_b=low[1])
    omega = np.where(ok, rf.factor, np.inf)
    s = inner(*seqs)
    value = np.multiply(omega, s * s, out=np.full(len(s), np.inf), where=ok)
    return BoundArrays.upper(kind, value, [(~ok, HYPOTHESIS_REASON)], **{
        factor_name: omega,
        "paired_sum": s,
        "max_a": rf.max_a, "min_a": rf.min_a,
        "max_b": rf.max_b, "min_b": rf.min_b,
    })


def reverse_fidelity_product(inst: Instance) -> BoundArrays:
    """Omega * (sum_i c_i d_i)^2 with c, d the absolute weighted sequences.

    Defined only when every entry of both sequences is strictly positive
    (threshold ``1e-12`` relative to the largest entry); the pairing follows
    the same sorted-signed arrangement used by the fidelity product bound.
    """
    seqs = inst.sequences
    c, d = cd = np.abs(np.array([seqs.u, seqs.v]))
    res = _reverse_product("reverse_fidelity_product", cd, inst.eig_scales, "omega")
    res.intermediates.update(c=c, d=d, pairing="sorted-signed order")
    return res


def reverse_basis_product(inst: Instance, basis=None) -> BoundArrays:
    """Lambda * (sum_n |alpha_n||beta_n|)^2 for a pure state and a chosen basis.

    By Polya-Szego it is at least ||alpha||^2 ||beta||^2 = Var A * Var B, with
    equality at a basis where all |alpha_n| are equal and all |beta_n| are
    equal; :func:`varbounds.optimize.optimize_reverse_product_bound` returns
    such a basis and this minimum.  The positivity floor is scaled by
    ||A - <A>||_F and ||B - <B>||_F, so at an eigenstate of A or B the bound
    is undefined in every basis.  ``basis`` is as in
    :func:`~varbounds.moments.coefficient_moduli`.
    """
    moduli = coefficient_moduli(inst, basis)
    res = _reverse_product("reverse_basis_product", moduli, inst.frobenius_scales, "lambda")
    res.intermediates.update(alpha_abs=moduli[0], beta_abs=moduli[1])
    return res


def _dw_denominator(ms: MomentSet) -> tuple[np.ndarray, list]:
    """1 - Cov/(Delta A Delta B) per row, and the cases where the Dunkl-Williams bounds are undefined.

    The denominator reads 1 where a variance vanishes; those rows are undefined.
    """
    null = (ms.var_a <= 0.0) | (ms.var_b <= 0.0)
    denom = np.where(null, 1.0, 1.0 - ms.cov / np.where(null, 1.0, ms.std_a * ms.std_b))
    return denom, [(null, NULL_DEVIATION_REASON), (denom <= DENOMINATOR_TOL, CORRELATED_REASON)]


def dw_deviation_sum(inst: Instance) -> BoundArrays:
    """Dunkl-Williams upper bound on Delta A + Delta B.

    sqrt(2) * Delta(A-B) / sqrt(1 - Cov/(Delta A Delta B)); works for mixed
    states through trace moments.
    """
    ms = inst.moments
    denom, cases = _dw_denominator(ms)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.sqrt(2.0 * ms.var_diff / denom)
    return BoundArrays.upper("dw_deviation_sum", value, cases, variance_of_difference=ms.var_diff,
                             denominator=denom, deviation_sum=ms.std_a + ms.std_b)


def dw_variance_sum(inst: Instance) -> BoundArrays:
    """Squared Dunkl-Williams bound: 2 Delta(A-B)^2 / (1 - Cov/(DA DB)) - 2 DA DB."""
    ms = inst.moments
    denom, cases = _dw_denominator(ms)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = 2.0 * ms.var_diff / denom - 2.0 * ms.std_a * ms.std_b
    return BoundArrays.upper("dw_variance_sum", value, cases, variance_of_difference=ms.var_diff,
                             denominator=denom, variance_sum=ms.var_a + ms.var_b)


def reverse_fidelity_product_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`reverse_fidelity_product` of one state and pair."""
    return reverse_fidelity_product(Instance(state, a, b)).one()


def reverse_basis_product_bound(state: QuantumState, a: Observable, b: Observable,
                                basis: OrthonormalBasis) -> BoundResult:
    """:func:`reverse_basis_product` of one pure state and pair, in ``basis``."""
    return reverse_basis_product(Instance(state, a, b), basis).one()


def dw_deviation_sum_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`dw_deviation_sum` of one state and pair."""
    return dw_deviation_sum(Instance(state, a, b)).one()


def dw_variance_sum_bound(state: QuantumState, a: Observable, b: Observable) -> BoundResult:
    """:func:`dw_variance_sum` of one state and pair."""
    return dw_variance_sum(Instance(state, a, b)).one()
