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
are completed to a full basis by one Householder QR (:func:`_frame`), which
calls LAPACK through the two gufuncs behind ``np.linalg.qr``.
:func:`product_optimum` and :func:`sum_optimum` give the same optima for
every row of a :class:`~varbounds.moments.Instance`, with one stacked QR
for all the aligned witnesses; a sweep's ``optimized_*`` columns call them
once, and ``optimize_product_bound``/``optimize_sum_bound`` call them on a
one-row instance.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from ._record import Record
from .errors import MixedStateUnsupported
from .linalg import Observable, OrthonormalBasis, QuantumState, check_orthonormal
from .lower_bounds import BoundArrays, basis_product, basis_sum
from .moments import Instance, inner
from .upper_bounds import reverse_basis_product

__all__ = [
    "OptimizationReport",
    "optimize_product_bound",
    "optimize_reverse_product_bound",
    "optimize_sum_bound",
]


class OptimizationReport(Record):
    """A basis optimum: its value, the witness basis and the witness's name.

    ``mode`` is ``max`` for the lower bounds and ``min`` for the reverse
    bound; ``witness`` is ``aligned`` or ``flat``.  The ``optimize_*``
    functions report one instance: a float and an :class:`OrthonormalBasis`.
    :func:`product_optimum` and :func:`sum_optimum` report every row of an
    instance: an array of values and a stack of column matrices.
    """

    _fields = ("best_value", "best_basis", "mode", "witness")
    # Not fields: the benchmark's search tracer (bench/layers.py) still reads
    # them.  They go with ROADMAP item 2's search re-mix and metric clean-up.
    evaluations = 0
    converged = True

    def __init__(self, best_value: float, best_basis: OrthonormalBasis, mode: str, witness: str):
        self.best_value = best_value
        self.best_basis = best_basis
        self.mode = mode
        self.witness = witness


def _frame(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unitary whose first two columns are u/||u|| and the unit part of v orthogonal to u.

    Needs d >= 2 (the callers handle d = 1, where [[1]] is the only
    basis).  Over leading axes: for stacks of vectors one LAPACK call
    factors the whole stack, and each matrix is the one a single call
    gives.  A Householder (complete) QR keeps the columns orthonormal to
    round-off even when v is nearly parallel to u, where one Gram-Schmidt
    pass would not.  Multiplying each of the first two columns by the
    phase of its R diagonal entry undoes LAPACK's phase choice.

    The two gufuncs are those ``np.linalg.qr(mode="complete")`` runs, with
    the same Q and R bits, called directly on the fresh (..., d, 2) array:
    ``qr_r_raw`` overwrites it with R on and above the diagonal (and the
    reflectors below it) and ``qr_complete`` forms Q.  That skips the
    wrapper's copies, error-state contexts and ``triu``, most of its cost.
    A failed factorization gives NaN, which the caller's orthonormality
    check rejects.
    """
    uv = np.empty(u.shape + (2,), dtype=np.complex128)
    uv[..., 0] = u
    uv[..., 1] = v
    tau = _umath_linalg.qr_r_raw(uv, signature="D->D")
    q = _umath_linalg.qr_complete(uv, tau, signature="DD->D")
    diag = uv.diagonal(0, -2, -1)
    mod = np.abs(diag)
    phase = np.ones(q.shape[:-1], dtype=np.complex128)
    np.divide(diag, mod, out=phase[..., :2], where=mod != 0)
    return q * phase[..., None, :]


def aligned_basis(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Basis whose columns carry proportional weights of ``f`` and ``g``.

    Scale g to the norm of f and align its phase so that <f|g'> is real and
    non-negative.  Then the bisectors f + g' and f - g' are orthogonal, and
    each satisfies |<col|f>|/||f|| = |<col|g>|/||g||; every further column
    is orthogonal to f and g.  That is the Cauchy-Schwarz equality case of
    the basis product bound.  :func:`_frame` normalizes the bisectors and
    completes the basis; where f is parallel to g the second bisector is
    round-off, and the QR still returns an orthonormal basis.  Works over
    leading axes (one basis per row, one QR call for all of them); where f
    or g is numerically null the standard basis stands in.  The scale of
    all rows is one array expression: |<f|g>| is ``hypot`` of its parts, as
    Python's ``abs`` takes it, and the phase divides each part by it.
    Needs d >= 2, as :func:`_frame` does.
    """
    d = f.shape[-1]
    rows_f, rows_g = f.reshape(-1, d), g.reshape(-1, d)
    ff, gg, ov = inner(np.array([rows_f, rows_g, rows_f]), np.array([rows_f, rows_g, rows_g]))
    nf, ng = np.sqrt(ff.real), np.sqrt(gg.real)
    null = (nf < 1e-14) | (ng < 1e-14)
    mod = np.hypot(ov.real, ov.imag)
    phase = np.ones_like(ov)  # conj(<f|g>) / |<f|g>|, and 1 where <f|g> is 0
    np.divide(ov.real, mod, out=phase.real, where=mod != 0)
    np.divide(-ov.imag, mod, out=phase.imag, where=mod != 0)
    rows_g = rows_g * (np.divide(nf, ng, out=np.zeros_like(nf), where=~null) * phase)[:, None]
    columns = _frame(rows_f + rows_g, rows_f - rows_g)
    columns[null] = np.eye(d)
    return columns.reshape(f.shape + (d,))


def flat_basis(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Basis in which all coefficients of f have one modulus, and all of g another.

    With f_hat, g_hat the normalized vectors and c = <f_hat|g_hat>, take
    x = 1/sqrt(d) and y with moduli 1/sqrt(d) and phases arg c + phi_n.  The
    phi_n are pairs +delta, -delta (and one 0 at odd d) whose cosines average
    to |c|, so <x|y> = c.  The pairs (f_hat, g_hat) and (x, y) then have the
    same Gram matrix, and W = R Q^dagger, built from the frames Q of
    (f_hat, g_hat) and R of (x, y), maps f_hat to x and g_hat to y.  The basis
    is the columns of W^dagger = Q R^dagger.  Needs d >= 2 and one pair of
    vectors; where f or g is exactly zero the standard basis stands in.
    """
    nf = np.linalg.norm(f)
    ng = np.linalg.norm(g)
    d = f.size
    if nf == 0.0 or ng == 0.0:
        return np.eye(d, dtype=np.complex128)
    fh = f / nf
    gh = g / ng
    c = np.vdot(fh, gh)
    m = float(abs(c))  # numpy's modulus; the scalar arithmetic below is then in Python floats
    # cos delta = (d m - odd) / (d - odd), taken through atan2 with the sine
    # built from s = sin(angle between f and g), which stays accurate where
    # m rounds to 1 (the phases must match g's tiny part orthogonal to f)
    s = np.linalg.norm(gh - c * fh)
    pairs, odd = divmod(d, 2)
    delta = math.atan2(s * math.sqrt(d * (d * (1 + m) - 2 * odd) / (1 + m)), d * m - odd)
    phi = np.array([0.0] * odd + [delta] * pairs + [-delta] * pairs)
    x = np.full(d, 1.0 / math.sqrt(d), dtype=np.complex128)
    y = np.exp(1j * (np.arctan2(c.imag, c.real) + phi)) / math.sqrt(d)  # arg c as np.angle takes it
    q, r = _frame(np.array([fh, x]), np.array([gh, y]))
    return q @ r.conj().T


def _flat_bases(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """:func:`flat_basis` of each row."""
    return np.array([flat_basis(x, y) for x, y in zip(f, g)])


def _at_witness(inst: Instance, bound, witness, label: str, mode: str) -> OptimizationReport:
    """The optimum over bases for every row: ``bound`` at the bases ``witness(f, g)``, with no search.

    The witness and the bound read the instance's deviation vectors f, g.
    The caller checks the witness bases: :class:`OrthonormalBasis` for one
    row, :func:`~varbounds.linalg.check_orthonormal` for a stack.  At d=1,
    [[1]] is the only basis and f, g vanish up to round-off: the lower
    bounds are reported as 0, the reverse bound as its value there (+inf,
    because its positivity hypothesis fails).
    """
    if not inst.is_pure:
        raise MixedStateUnsupported("basis optimization is a pure-state construction")
    if inst.dim == 1:
        columns = np.ones((len(inst), 1, 1), dtype=np.complex128)
    else:
        columns = witness(inst.dev_a, inst.dev_b)
    value = bound(inst, columns).value
    if inst.dim == 1 and mode == "max":
        value = np.zeros(len(inst))
    return OptimizationReport(best_value=value, best_basis=columns, mode=mode, witness=label)


def _one(report: OptimizationReport) -> OptimizationReport:
    """The report of a one-row instance, with a float value and an :class:`OrthonormalBasis`."""
    return OptimizationReport(best_value=float(report.best_value[0]),
                              best_basis=OrthonormalBasis(report.best_basis[0]),
                              mode=report.mode, witness=report.witness)


def product_optimum(inst: Instance) -> OptimizationReport:
    """:func:`optimize_product_bound` of every row of an instance."""
    return _at_witness(inst, basis_product, aligned_basis, "aligned", "max")


def sum_optimum(inst: Instance) -> OptimizationReport:
    """:func:`optimize_sum_bound` of every row of an instance."""
    return _at_witness(inst, basis_sum, aligned_basis, "aligned", "max")


def _column(kind: str, report: OptimizationReport) -> BoundArrays:
    """A stack of optima as a bound column, after checking every witness basis."""
    check_orthonormal(report.best_basis)
    return BoundArrays(kind, report.best_value)


def optimized_product(inst: Instance) -> BoundArrays:
    """The product optimum of each row, as the sweep column ``optimized_product``."""
    return _column("optimized_product", product_optimum(inst))


def optimized_sum(inst: Instance) -> BoundArrays:
    """The sum optimum of each row, as the sweep column ``optimized_sum``."""
    return _column("optimized_sum", sum_optimum(inst))


def optimize_product_bound(state: QuantumState, a: Observable, b: Observable) -> OptimizationReport:
    """Maximum over bases of the basis product bound (sum_n |alpha_n||beta_n|)^2.

    It equals Var A * Var B and is reached at :func:`aligned_basis`, which the
    report returns as its ``aligned`` witness.
    """
    return _one(product_optimum(Instance(state, a, b)))


def optimize_sum_bound(state: QuantumState, a: Observable, b: Observable) -> OptimizationReport:
    """Maximum over bases of the basis sum bound (1/2) sum_n (|alpha_n|+|beta_n|)^2.

    It equals (Delta A + Delta B)^2 / 2 and is reached at :func:`aligned_basis`,
    which the report returns as its ``aligned`` witness.
    """
    return _one(sum_optimum(Instance(state, a, b)))


def optimize_reverse_product_bound(state: QuantumState, a: Observable,
                                   b: Observable) -> OptimizationReport:
    """Minimum over bases of the reverse basis product bound (tightest upper bound).

    It equals Var A * Var B and is reached at :func:`flat_basis`, which the
    report returns as its ``flat`` witness.  When f or g is zero, or is
    round-off dust at an eigenstate, the bound is undefined in every basis
    and the report gives +inf.
    """
    return _one(_at_witness(Instance(state, a, b), reverse_basis_product, _flat_bases, "flat", "min"))
