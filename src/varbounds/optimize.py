"""Derivative-free optimization of basis-dependent variance bounds.

This compass search serves only the basis bounds (product, sum and reverse
product); every other bound in the package has a closed form.

The search space is the set of complete orthonormal bases, parameterized by
a fixed-order product of complex Givens rotations (one angle and one phase
per index pair, ``d(d-1)`` reals total).  The objectives contain absolute
values and are non-smooth, so a coordinate compass search with step halving
is used, restarted from three mandatory seeds (standard basis, eigenbasis
of each observable), one analytic "aligned" seed, and a configurable number
of random starts.  The starts run in lockstep: each step sends the
candidates of every active start through one batched reward call, and each
start keeps its own point, step, evaluation budget and exit status, so a
report is bit-identical to running the starts one after another.
Everything is deterministic under a fixed RNG seed (PCG64 via
``numpy.random.default_rng``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameterCount, MixedStateUnsupported
from .linalg import Observable, OrthonormalBasis, QuantumState, check_dims
from .moments import deviation_vector

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

_HYPOTHESIS_RTOL = 1e-12  # strict positivity threshold of the reverse bound
# Largest candidate stack, in complex matrix entries (rows * d^2), sent through
# one reward call; bounds memory at large d and never splits a call at d <= 5.
_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the compass search; all are exposed as CLI flags."""

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
    """Build a stack of unitaries from parameter rows ``(m, dim*(dim-1))``.

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
    u = np.tile(np.eye(dim, dtype=np.complex128), (m, 1, 1))
    for k, (p, q) in enumerate(pairs):
        c = np.cos(params[:, k])
        s = np.sin(params[:, k])
        w = np.exp(1j * params[:, npairs + k])
        colp = u[:, :, p].copy()
        colq = u[:, :, q]
        u[:, :, p] = c[:, None] * colp + (s * w)[:, None] * colq
        u[:, :, q] = -(s * np.conj(w))[:, None] * colp + c[:, None] * colq
    return u


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


def _abs_components(u_stack: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """|<basis column n | vec>| for a stack of unitaries: shape (m, d)."""
    return np.abs(np.einsum("mij,i->mj", np.conj(u_stack), vec))


def _value_product(aa: np.ndarray, bb: np.ndarray) -> np.ndarray:
    return np.einsum("mn,mn->m", aa, bb) ** 2


def _value_sum(aa: np.ndarray, bb: np.ndarray) -> np.ndarray:
    return 0.5 * ((aa + bb) ** 2).sum(axis=1)


def _value_reverse(aa: np.ndarray, bb: np.ndarray) -> np.ndarray:
    """Reverse basis bound; +inf where the positivity hypothesis fails."""
    amax = aa.max(axis=1)
    amin = aa.min(axis=1)
    bmax = bb.max(axis=1)
    bmin = bb.min(axis=1)
    ok = (amin > _HYPOTHESIS_RTOL * amax) & (bmin > _HYPOTHESIS_RTOL * bmax)
    out = np.full(aa.shape[0], np.inf)
    if np.any(ok):
        lam = (amax[ok] * bmax[ok] + amin[ok] * bmin[ok]) ** 2 / (
            4.0 * amax[ok] * bmax[ok] * amin[ok] * bmin[ok]
        )
        s = np.einsum("mn,mn->m", aa[ok], bb[ok])
        out[ok] = lam * s**2
    return out


_OBJECTIVES = {
    "product": (_value_product, "max"),
    "sum": (_value_sum, "max"),
    "reverse_product": (_value_reverse, "min"),
}


def _optimize_over_bases(state, a, b, cfg, objective_name):
    if not state.is_pure:
        raise MixedStateUnsupported("basis optimization is a pure-state construction")
    d = check_dims(state, a, b)
    cfg = cfg or OptimizerConfig()
    value_of, mode = _OBJECTIVES[objective_name]
    sign = 1.0 if mode == "max" else -1.0

    f = deviation_vector(state, a)
    g = deviation_vector(state, b)

    if d == 1:  # no parameters: [[1]] is the only basis, so there is nothing to search
        return OptimizationReport(
            best_value=float(value_of(np.abs(f)[None], np.abs(g)[None])[0]),
            best_basis=OrthonormalBasis(np.ones((1, 1))),
            restarts_used=0,
            evaluations=0,
            converged=True,
            mode=mode,
        )

    # min mode: reward = -value, and +inf objective values become -inf rewards
    def make_reward(u0s):
        def reward(params, starts):
            u = np.einsum("mij,mjk->mik", u0s[starts], synthesize_unitaries(d, params))
            vals = value_of(_abs_components(u, f), _abs_components(u, g))
            return np.where(np.isfinite(vals), sign * vals, -np.inf)
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
    chunk = max(1, _CHUNK_ENTRIES // (2 * k * d * d))
    xs, r_bests, evals, convs = _compass(make_reward(u0s), [x0 for _, _, x0 in runs], cfg, chunk)

    trace = []
    labels = []
    best_reward = -np.inf
    best_u = np.eye(d, dtype=np.complex128)
    for idx, (label, u0, _) in enumerate(runs):
        r_best = r_bests[idx]
        val = sign * r_best  # back to objective scale; may be +/-inf for reverse
        trace.append((idx, float(val)))
        labels.append(label)
        if r_best > best_reward:
            best_reward = r_best
            best_u = np.einsum("ij,jk->ik", u0, synthesize_unitaries(d, xs[idx][None, :])[0])

    basis = OrthonormalBasis(best_u)
    final = float(value_of(_abs_components(best_u[None], f), _abs_components(best_u[None], g))[0])
    return OptimizationReport(
        best_value=final,
        best_basis=basis,
        restarts_used=cfg.restarts,
        evaluations=int(evals.sum()),
        converged=bool(convs.all()),
        trace=trace,
        mode=mode,
        start_labels=tuple(labels),
    )


def optimize_product_bound(state: QuantumState, a: Observable, b: Observable,
                           cfg: OptimizerConfig | None = None) -> OptimizationReport:
    """Maximize the basis product bound (sum_n |alpha_n||beta_n|)^2 over bases."""
    return _optimize_over_bases(state, a, b, cfg, "product")


def optimize_sum_bound(state: QuantumState, a: Observable, b: Observable,
                       cfg: OptimizerConfig | None = None) -> OptimizationReport:
    """Maximize the basis sum bound (1/2) sum_n (|alpha_n|+|beta_n|)^2 over bases."""
    return _optimize_over_bases(state, a, b, cfg, "sum")


def optimize_reverse_product_bound(state: QuantumState, a: Observable, b: Observable,
                                   cfg: OptimizerConfig | None = None) -> OptimizationReport:
    """Minimize the reverse basis product bound over bases (tightest upper bound)."""
    return _optimize_over_bases(state, a, b, cfg, "reverse_product")
