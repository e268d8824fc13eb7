"""Basis optima of the basis-dependent variance bounds, all in closed form.

The basis product and sum bounds have closed-form maxima over bases.  By
Cauchy-Schwarz and the parallelogram law, sum_n |alpha_n||beta_n| <=
Delta A * Delta B, with equality exactly when |alpha_n| is proportional to
|beta_n|.  So the maxima are Var A * Var B for the product and
(Delta A + Delta B)^2 / 2 for the sum.  :func:`aligned_basis` is the witness
basis that attains both.

The reverse (Polya-Szego) product bound Lambda * (sum_n |alpha_n||beta_n|)^2
is at least ||alpha||^2 ||beta||^2 = Var A * Var B in every basis, with
equality when all |alpha_n| are equal and all |beta_n| are equal (then
Lambda = 1).  Such a basis exists at every d >= 2, so the minimum over bases
is Var A * Var B; :func:`flat_basis` is the witness that attains it.

Each ``optimize_*`` function returns its witness basis, the witness's
name and the bound evaluated there; nothing is searched.  Both witnesses
are completed to a full basis by one Householder QR (:func:`_frame`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MixedStateUnsupported
from .linalg import Observable, OrthonormalBasis, QuantumState
from .lower_bounds import basis_product, basis_sum
from .moments import Instance
from .upper_bounds import reverse_basis_product

__all__ = [
    "OptimizationReport",
    "optimize_product_bound",
    "optimize_reverse_product_bound",
    "optimize_sum_bound",
]


@dataclass
class OptimizationReport:
    """A basis optimum: its value, the witness basis and the witness's name.

    ``mode`` is ``max`` for the lower bounds and ``min`` for the reverse
    bound; ``witness`` is ``aligned`` or ``flat``.
    """

    best_value: float
    best_basis: OrthonormalBasis
    mode: str
    witness: str

    # Not fields: the benchmark's search tracer (bench/layers.py) still reads
    # them.  They go with ROADMAP item 2's search re-mix and metric clean-up.
    evaluations = 0
    converged = True


def _frame(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unitary whose first two columns are u/||u|| and the unit part of v orthogonal to u.

    A Householder (complete) QR keeps the columns orthonormal to round-off
    even when v is nearly parallel to u, where one Gram-Schmidt pass would
    not.  Multiplying each of the first two columns by the phase of its R
    diagonal entry undoes LAPACK's phase choice.
    """
    q, r = np.linalg.qr(np.column_stack([u, v]), mode="complete")
    phase = np.ones(q.shape[1], dtype=np.complex128)
    phase[:2] = [z / abs(z) if z else 1.0 for z in np.diagonal(r)]
    return q * phase


def aligned_basis(f: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """Basis whose columns carry proportional weights of ``f`` and ``g``.

    Scale g to the norm of f and align its phase so that <f|g'> is real and
    non-negative.  Then the bisectors f + g' and f - g' are orthogonal, and
    each satisfies |<col|f>|/||f|| = |<col|g>|/||g||; every further column
    is orthogonal to f and g.  That is the Cauchy-Schwarz equality case of
    the basis product bound.  :func:`_frame` normalizes the bisectors and
    completes the basis; where f is parallel to g the second bisector is
    round-off, and the QR still returns an orthonormal basis.  Returns None
    when either vector is numerically null.
    """
    nf = math.sqrt(np.vdot(f, f).real)
    ng = math.sqrt(np.vdot(g, g).real)
    if nf < 1e-14 or ng < 1e-14:
        return None
    ov = complex(np.vdot(f, g))
    scale = nf / ng
    if ov:
        scale *= ov.conjugate() / abs(ov)
    g = g * scale
    return _frame(f + g, f - g)


def flat_basis(f: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """Basis in which all coefficients of f have one modulus, and all of g another.

    With f_hat, g_hat the normalized vectors and c = <f_hat|g_hat>, take
    x = 1/sqrt(d) and y with moduli 1/sqrt(d) and phases arg c + phi_n.  The
    phi_n are pairs +delta, -delta (and one 0 at odd d) whose cosines average
    to |c|, so <x|y> = c.  The pairs (f_hat, g_hat) and (x, y) then have the
    same Gram matrix, and W = R Q^dagger, built from the frames Q of
    (f_hat, g_hat) and R of (x, y), maps f_hat to x and g_hat to y.  The basis
    is the columns of W^dagger = Q R^dagger.  Needs d >= 2; returns None when
    f or g is exactly zero.
    """
    nf = np.linalg.norm(f)
    ng = np.linalg.norm(g)
    if nf == 0.0 or ng == 0.0:
        return None
    d = f.size
    fh = f / nf
    gh = g / ng
    c = np.vdot(fh, gh)
    m = abs(c)
    # cos delta = (d m - odd) / (d - odd), taken through atan2 with the sine
    # built from s = sin(angle between f and g), which stays accurate where
    # m rounds to 1 (the phases must match g's tiny part orthogonal to f)
    s = np.linalg.norm(gh - c * fh)
    pairs, odd = divmod(d, 2)
    delta = math.atan2(s * math.sqrt(d * (d * (1 + m) - 2 * odd) / (1 + m)), d * m - odd)
    phi = np.concatenate([np.zeros(odd), np.full(pairs, delta), np.full(pairs, -delta)])
    x = np.full(d, 1.0 / math.sqrt(d), dtype=np.complex128)
    y = np.exp(1j * (np.angle(c) + phi)) / math.sqrt(d)
    return _frame(fh, gh) @ _frame(x, y).conj().T


def _at_witness(inst: Instance, bound, witness, label: str, mode: str) -> OptimizationReport:
    """The optimum over bases: ``bound`` at the basis ``witness(f, g)``, with no search.

    The witness and the bound read the instance's deviation vectors f, g.
    When ``witness`` finds f or g null, the standard basis stands in.  At
    d=1, [[1]] is the only basis and f, g vanish up to round-off: the lower
    bounds are reported as 0, the reverse bound as its value there (+inf,
    because its positivity hypothesis fails).
    """
    if not inst.state.is_pure:
        raise MixedStateUnsupported("basis optimization is a pure-state construction")
    d = inst.dim
    if d == 1:
        basis = OrthonormalBasis(np.ones((1, 1)))
        value = 0.0 if mode == "max" else float(bound(inst, basis).value)
    else:
        u = witness(inst.dev_a, inst.dev_b)
        basis = OrthonormalBasis.standard(d) if u is None else OrthonormalBasis(u)
        value = float(bound(inst, basis).value)
    return OptimizationReport(best_value=value, best_basis=basis, mode=mode, witness=label)


def product_optimum(inst: Instance) -> OptimizationReport:
    """:func:`optimize_product_bound` of one instance."""
    return _at_witness(inst, basis_product, aligned_basis, "aligned", "max")


def sum_optimum(inst: Instance) -> OptimizationReport:
    """:func:`optimize_sum_bound` of one instance."""
    return _at_witness(inst, basis_sum, aligned_basis, "aligned", "max")


def optimize_product_bound(state: QuantumState, a: Observable, b: Observable) -> OptimizationReport:
    """Maximum over bases of the basis product bound (sum_n |alpha_n||beta_n|)^2.

    It equals Var A * Var B and is reached at :func:`aligned_basis`, which the
    report returns as its ``aligned`` witness.
    """
    return product_optimum(Instance(state, a, b))


def optimize_sum_bound(state: QuantumState, a: Observable, b: Observable) -> OptimizationReport:
    """Maximum over bases of the basis sum bound (1/2) sum_n (|alpha_n|+|beta_n|)^2.

    It equals (Delta A + Delta B)^2 / 2 and is reached at :func:`aligned_basis`,
    which the report returns as its ``aligned`` witness.
    """
    return sum_optimum(Instance(state, a, b))


def optimize_reverse_product_bound(state: QuantumState, a: Observable,
                                   b: Observable) -> OptimizationReport:
    """Minimum over bases of the reverse basis product bound (tightest upper bound).

    It equals Var A * Var B and is reached at :func:`flat_basis`, which the
    report returns as its ``flat`` witness.  When f or g is zero, or is
    round-off dust at an eigenstate, the bound is undefined in every basis
    and the report gives +inf.
    """
    return _at_witness(Instance(state, a, b), reverse_basis_product, flat_basis, "flat", "min")
