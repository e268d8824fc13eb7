"""Basis optima of the basis-dependent variance bounds.

The basis product and sum bounds have closed-form maxima over bases.  By
Cauchy-Schwarz and the parallelogram law, sum_n |alpha_n||beta_n| <=
Delta A * Delta B, with equality exactly when |alpha_n| is proportional to
|beta_n|.  So the maxima are Var A * Var B for the product and
(Delta A + Delta B)^2 / 2 for the sum.  :func:`aligned_basis` is the witness
basis that attains both.  :func:`optimize_product_bound` and
:func:`optimize_sum_bound` return that witness and the bound at it, with no
search; the optimizer flags do not affect them.

The reverse (Polya-Szego) product bound has no known closed-form minimum,
so :func:`optimize_reverse_product_bound` runs a derivative-free search.
Its knobs are the :class:`OptimizerConfig` fields, and they affect only
this search.  The search space is the set of complete orthonormal bases,
parameterized by a fixed-order product of complex Givens rotations (one
angle and one phase per index pair, ``d(d-1)`` reals total).  The objective
contains absolute values and is non-smooth, so a coordinate compass search
with step halving is used.  It is restarted from three mandatory seeds
(standard basis, eigenbasis of each observable), the aligned seed, and a
configurable number of random starts.  The starts run in lockstep: each
step sends the candidates of every active start through one batched reward
call, and each start keeps its own point, step, evaluation budget and exit
status, so a report is bit-identical to running the starts one after
another.  Everything is deterministic under a fixed RNG seed (PCG64 via
``numpy.random.default_rng``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameterCount, MixedStateUnsupported
from .linalg import Observable, OrthonormalBasis, QuantumState, check_dims
from .lower_bounds import basis_product_bound, basis_sum_bound
from .moments import deviation_vector
from .upper_bounds import POSITIVITY_RTOL

__all__ = [
    "OptimizationReport",
    "OptimizerConfig",
    "UnitaryParams",
    "optimize_product_bound",
    "optimize_reverse_product_bound",
    "optimize_sum_bound",
    "synthesize_basis",
]

DEFAULT_SEED = 0xDEBA515
RNG_NAME = "pcg64"

# Largest candidate stack, in complex matrix entries (rows * d^2), sent through
# one reward call; bounds memory at large d and never splits a call at d <= 5.
_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the reverse-bound compass search; all are exposed as CLI flags."""

    restarts: int = 32
    seed: int = DEFAULT_SEED
    max_evals: int = 20_000
    step_init: float = math.pi / 4
    step_min: float = 1e-7
    tol: float = 1e-12


@dataclass(frozen=True)
class UnitaryParams:
    """Givens angles and phases describing one unitary of dimension ``dim``."""

    dim: int
    angles: np.ndarray  # length dim*(dim-1): rotation angles then phases

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float).reshape(-1)
        expected = self.dim * (self.dim - 1)
        if angles.shape[0] != expected:
            raise BadParameterCount(
                f"dim {self.dim} needs {expected} parameters, got {angles.shape[0]}"
            )
        object.__setattr__(self, "angles", angles)


@dataclass
class OptimizationReport:
    best_value: float
    best_basis: OrthonormalBasis
    restarts_used: int
    evaluations: int
    converged: bool
    trace: list = field(default_factory=list)  # (start index, start's best value)
    mode: str = "max"
    start_labels: tuple = ()


def givens_pair_order(dim: int) -> list[tuple[int, int]]:
    """Fixed composition order of the rotation planes."""
    return [(p, q) for p in range(dim - 1) for q in range(p + 1, dim)]


def synthesize_unitaries(dim: int, params: np.ndarray) -> np.ndarray:
    """Build a C-contiguous stack ``(m, dim, dim)`` of unitaries from parameter rows ``(m, dim*(dim-1))``.

    Row layout: the first ``dim*(dim-1)/2`` entries are rotation angles, the
    rest are phases, both in :func:`givens_pair_order`.
    """
    params = np.atleast_2d(np.asarray(params, dtype=float))
    pairs = givens_pair_order(dim)
    npairs = len(pairs)
    if params.shape[1] != 2 * npairs:
        raise BadParameterCount(
            f"dim {dim} needs {2 * npairs} parameters, got {params.shape[1]}"
        )
    m = params.shape[0]
    # u[col, row, candidate]: a Givens update is one contiguous operation per column
    u = np.zeros((dim, dim, m), dtype=np.complex128)
    u[np.arange(dim), np.arange(dim)] = 1.0
    c = np.cos(params[:, :npairs].T).astype(np.complex128)  # the cast a real factor gets anyway
    s = np.sin(params[:, :npairs].T)
    w = np.exp(1j * params[:, npairs:].T)
    sw = s * w
    msw = -(s * np.conj(w))
    colp = np.empty((dim, m), dtype=np.complex128)
    tmp = np.empty_like(colp)
    for k, (p, q) in enumerate(pairs):
        colp[...] = u[p]
        # u[p] = c colp + sw colq, then u[q] = msw colp + c colq, without temporaries
        np.multiply(c[k], colp, out=u[p])
        u[p] += np.multiply(sw[k], u[q], out=tmp)
        np.multiply(c[k], u[q], out=u[q])
        u[q] += np.multiply(msw[k], colp, out=tmp)
    return np.ascontiguousarray(u.transpose(2, 1, 0))


def synthesize_basis(params: UnitaryParams) -> OrthonormalBasis:
    """Deterministically turn a parameter vector into an orthonormal basis."""
    u = synthesize_unitaries(params.dim, params.angles[None, :])[0]
    return OrthonormalBasis(u)


def _compass(reward, x0, cfg: OptimizerConfig, chunk: int):
    """Maximize ``reward`` from every start (row of ``x0``, shape ``(n, k)``) in lockstep.

    ``reward(params, starts)`` scores parameter rows ``(m, k)``, row ``i``
    belonging to start ``starts[i]``.  Each start keeps its own point, best
    value, step, evaluation count and exit status and follows the rule of a
    search run on its own: it moves to the first maximum of its ``2k``
    candidates when that beats its best by ``tol``, else its step halves; it
    stops unconverged at ``max_evals`` before it can stop converged below
    ``step_min``.  Starts share only the reward calls, at most ``chunk`` per call.
    """
    x = np.array(x0, dtype=float)
    n, k = x.shape
    best = reward(x, np.arange(n))
    evals = np.ones(n, dtype=int)
    step = np.full(n, cfg.step_init)
    converged = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    directions = np.vstack([np.eye(k), -np.eye(k)])
    while True:
        active &= evals < cfg.max_evals
        done = active & (step < cfg.step_min)
        converged |= done
        active &= ~done
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        cand = x[idx, None, :] + step[idx, None, None] * directions
        vals = np.concatenate([
            reward(cand[c:c + chunk].reshape(-1, k), np.repeat(idx[c:c + chunk], 2 * k))
            for c in range(0, idx.size, chunk)
        ]).reshape(idx.size, 2 * k)
        evals[idx] += 2 * k
        i = np.argmax(vals, axis=1)
        top = vals[np.arange(idx.size), i]
        move = top > best[idx] + cfg.tol
        x[idx[move]] = cand[move, i[move]]
        best[idx[move]] = top[move]
        step[idx[~move]] *= 0.5
    return x, best, evals, converged


def _gram_schmidt_complete(cols: list[np.ndarray], dim: int) -> np.ndarray:
    """Complete a partial orthonormal column list to a full basis."""
    out = list(cols)
    for k in range(dim):
        if len(out) == dim:
            break
        e = np.zeros(dim, dtype=np.complex128)
        e[k] = 1.0
        for c in out:
            e = e - c * np.vdot(c, e)
        n = np.linalg.norm(e)
        if n > 1e-8:
            out.append(e / n)
    return np.column_stack(out)


def aligned_basis(f: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """Basis whose columns carry proportional weights of ``f`` and ``g``.

    After phase-aligning g to f, the two columns (f_hat + g_hat) and
    (f_hat - g_hat) (normalized) satisfy |<col|f>|/||f|| = |<col|g>|/||g||,
    which is the Cauchy-Schwarz equality case of the basis product bound.
    Returns None when either vector is numerically null.
    """
    nf = np.linalg.norm(f)
    ng = np.linalg.norm(g)
    if nf < 1e-14 or ng < 1e-14:
        return None
    fh = f / nf
    gh = g / ng
    ov = np.vdot(fh, gh)
    if abs(ov) > 0:
        gh = gh * (np.conj(ov) / abs(ov))
    cols = []
    for cand in (fh + gh, fh - gh):
        n = np.linalg.norm(cand)
        if n > 1e-9:
            cols.append(cand / n)
    return _gram_schmidt_complete(cols, f.size)


def _value_reverse(aa: np.ndarray, bb: np.ndarray) -> np.ndarray:
    """Reverse basis bound of coefficient moduli ``(m, d)``; +inf where the positivity hypothesis fails."""
    at = np.ascontiguousarray(aa.T)  # extrema are exact, and fast along contiguous rows
    bt = np.ascontiguousarray(bb.T)
    amax = at.max(axis=0)
    amin = at.min(axis=0)
    bmax = bt.max(axis=0)
    bmin = bt.min(axis=0)
    ok = (amin > POSITIVITY_RTOL * amax) & (bmin > POSITIVITY_RTOL * bmax)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (amax * bmax + amin * bmin) ** 2 / (4.0 * amax * bmax * amin * bmin)
    s = np.einsum("mn,mn->m", aa, bb)
    return np.where(ok, lam * s**2, np.inf)


def _reverse_values(u: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Reverse bound in each basis of the stack ``u`` (m, d, d), columns as basis vectors."""
    uc = np.conj(u)
    return _value_reverse(np.abs(np.einsum("mij,i->mj", uc, f)), np.abs(np.einsum("mij,i->mj", uc, g)))


def _pure_deviations(state, a, b):
    """Dimension and deviation vectors of a pure state; mixed states raise."""
    if not state.is_pure:
        raise MixedStateUnsupported("basis optimization is a pure-state construction")
    return check_dims(state, a, b), deviation_vector(state, a), deviation_vector(state, b)


def _only_basis(value: float, mode: str) -> OptimizationReport:
    """Report at d=1: [[1]] is the only basis, so there is nothing to search."""
    return OptimizationReport(
        best_value=value,
        best_basis=OrthonormalBasis(np.ones((1, 1))),
        restarts_used=0,
        evaluations=0,
        converged=True,
        mode=mode,
    )


def _at_witness(state, a, b, bound) -> OptimizationReport:
    """The product/sum maximum: ``bound`` at the aligned basis, with no search.

    When f or g is null every basis gives 0, and the standard basis stands in.
    """
    d, f, g = _pure_deviations(state, a, b)
    if d == 1:
        return _only_basis(0.0, "max")
    u = aligned_basis(f, g)
    basis = OrthonormalBasis.standard(d) if u is None else OrthonormalBasis(u)
    value = float(bound(state, a, b, basis).value)
    return OptimizationReport(
        best_value=value,
        best_basis=basis,
        restarts_used=0,
        evaluations=0,
        converged=True,
        trace=[(0, value)],
        mode="max",
        start_labels=("aligned",),
    )


def _optimize_over_bases(state, a, b, cfg):
    """Compass search for the basis minimizing the reverse basis product bound."""
    d, f, g = _pure_deviations(state, a, b)
    cfg = cfg or OptimizerConfig()
    if d == 1:
        return _only_basis(float(_value_reverse(np.abs(f)[None], np.abs(g)[None])[0]), "min")

    # reward = -value, so +inf (hypothesis fails) becomes -inf
    def make_reward(u0s, identity):
        def reward(params, starts):
            u = synthesize_unitaries(d, params)
            turn = ~identity[starts]  # rows whose start basis is not exactly the identity
            if turn.any():
                u[turn] = np.einsum("mij,mjk->mik", u0s[starts[turn]], u[turn])
            return -_reverse_values(u, f, g)
        return reward

    starts = [
        ("standard", np.eye(d, dtype=np.complex128)),
        ("eigenbasis_a", np.asarray(a.eigenvectors)),
        ("eigenbasis_b", np.asarray(b.eigenvectors)),
    ]
    al = aligned_basis(f, g)
    if al is not None:
        starts.append(("aligned", al))

    k = d * (d - 1)
    rng = np.random.default_rng(cfg.seed)
    zero = np.zeros(k)
    runs = [(label, u0, zero) for label, u0 in starts]
    for r in range(cfg.restarts):
        runs.append((f"restart_{r}", np.eye(d, dtype=np.complex128), rng.uniform(0.0, 2.0 * math.pi, k)))

    u0s = np.stack([u0 for _, u0, _ in runs])
    identity = np.array([np.array_equal(u0, np.eye(d)) for u0 in u0s])
    chunk = max(1, _CHUNK_ENTRIES // (2 * k * d * d))
    xs, r_bests, evals, convs = _compass(make_reward(u0s, identity), [x0 for _, _, x0 in runs], cfg, chunk)

    trace = [(idx, float(-r_best)) for idx, r_best in enumerate(r_bests)]
    win = int(np.argmax(r_bests))  # the first start with the best reward
    if r_bests[win] == -np.inf:  # undefined in every basis tried: report the standard basis
        best_u = np.eye(d, dtype=np.complex128)
    else:
        best_u = np.einsum("ij,jk->ik", u0s[win], synthesize_unitaries(d, xs[win][None, :])[0])
    return OptimizationReport(
        best_value=float(_reverse_values(best_u[None], f, g)[0]),
        best_basis=OrthonormalBasis(best_u),
        restarts_used=cfg.restarts,
        evaluations=int(evals.sum()),
        converged=bool(convs.all()),
        trace=trace,
        mode="min",
        start_labels=tuple(label for label, _, _ in runs),
    )


def optimize_product_bound(state: QuantumState, a: Observable, b: Observable,
                           cfg: OptimizerConfig | None = None) -> OptimizationReport:
    """Maximum over bases of the basis product bound (sum_n |alpha_n||beta_n|)^2.

    It equals Var A * Var B and is reached at :func:`aligned_basis`, which the
    report returns with a one-entry trace; ``cfg`` is accepted and unused.
    """
    return _at_witness(state, a, b, basis_product_bound)


def optimize_sum_bound(state: QuantumState, a: Observable, b: Observable,
                       cfg: OptimizerConfig | None = None) -> OptimizationReport:
    """Maximum over bases of the basis sum bound (1/2) sum_n (|alpha_n|+|beta_n|)^2.

    It equals (Delta A + Delta B)^2 / 2 and is reached at :func:`aligned_basis`,
    which the report returns with a one-entry trace; ``cfg`` is accepted and unused.
    """
    return _at_witness(state, a, b, basis_sum_bound)


def optimize_reverse_product_bound(state: QuantumState, a: Observable, b: Observable,
                                   cfg: OptimizerConfig | None = None) -> OptimizationReport:
    """Minimize the reverse basis product bound over bases (tightest upper bound)."""
    return _optimize_over_bases(state, a, b, cfg)
