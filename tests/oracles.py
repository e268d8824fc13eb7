"""Independent test oracles, kept apart from the production paths."""

import math

import numpy as np

from varbounds.errors import BadParameterCount
from varbounds.linalg import OrthonormalBasis, check_dims
from varbounds.moments import deviation_vector
from varbounds.optimize import OptimizationReport, aligned_basis, givens_pair_order


def _d2_coefficient_moduli(f, g, th, ph):
    """|alpha_n|, |beta_n| on a grid of d=2 basis parameters."""
    c = np.cos(th)
    s = np.sin(th)
    wconj = np.exp(-1j * ph)
    a1 = np.abs(c * f[0] + s * wconj * f[1])
    a2 = np.abs(-s * np.conj(wconj) * f[0] + c * f[1])
    b1 = np.abs(c * g[0] + s * wconj * g[1])
    b2 = np.abs(-s * np.conj(wconj) * g[0] + c * g[1])
    return a1, a2, b1, b2


def scan_basis_bound_d2(state, a, b, objective="product", resolution=1e-4):
    """Exhaustive two-angle scan of the d=2 basis bounds.

    Coarse pass at step 0.01 over the full fundamental domain, then a dense
    window at ``resolution`` around the coarse maximum.  This is the test
    oracle from the acceptance plan, not a production path.
    """
    f = deviation_vector(state, a)
    g = deviation_vector(state, b)

    def evaluate(th, ph):
        a1, a2, b1, b2 = _d2_coefficient_moduli(f, g, th, ph)
        if objective == "product":
            return (a1 * b1 + a2 * b2) ** 2
        return 0.5 * ((a1 + b1) ** 2 + (a2 + b2) ** 2)

    def grid_max(t0, t1, p0, p1, step):
        th = np.arange(t0, t1 + step / 2, step)
        ph = np.arange(p0, p1 + step / 2, step)
        tt, pp = np.meshgrid(th, ph, indexing="ij")
        vals = evaluate(tt, pp)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        return float(vals[i, j]), float(th[i]), float(ph[j])

    best, t_c, p_c = grid_max(0.0, np.pi, 0.0, 2 * np.pi, 0.01)
    refined, _, _ = grid_max(t_c - 0.02, t_c + 0.02, p_c - 0.02, p_c + 0.02, resolution)
    return max(best, refined)


def mp_sum_1_over(state, a, b, perp):
    """max over sign of +/-i<[A,B]> + |<psi|(A +/- iB)|v>|^2, best over rows v of ``perp``."""
    psi = state.vector
    am = a.matrix
    bm = b.matrix
    comm = np.vdot(psi, (am @ bm - bm @ am) @ psi)
    best = -np.inf
    for sign in (1.0, -1.0):
        row = psi.conj() @ (am + sign * 1j * bm)  # <psi|(A +/- iB)
        best = max(best, float((sign * 1j * comm).real + np.max(np.abs(perp @ row) ** 2)))
    return best


def mp_sum_1_d2(state, a, b):
    """Exact Maccone-Pati baseline at d=2, where the complement of psi is one ray."""
    psi = state.vector
    perp = np.array([[-np.conj(psi[1]), np.conj(psi[0])]])
    return mp_sum_1_over(state, a, b, perp)


def mp_sum_1_sampled(state, a, b, rng, samples=20_000):
    """Maccone-Pati objective maximized over random unit vectors orthogonal to psi.

    A lower estimate of the supremum; no sample may exceed the true value.
    """
    psi = state.vector
    v = rng.standard_normal((samples, psi.size)) + 1j * rng.standard_normal((samples, psi.size))
    v -= np.outer(v @ psi.conj(), psi)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return mp_sum_1_over(state, a, b, v)


def compass_sequential(reward, x0, cfg):
    """The compass search from one start, one reward call per step.

    Verbatim copy of the search as it ran before the starts were batched;
    ``reward`` maps ``(m, k)`` parameter rows to ``(m,)`` rewards.
    """
    x = np.asarray(x0, dtype=float).copy()
    best = float(reward(x[None, :])[0])
    evals = 1
    k = x.size
    directions = np.vstack([np.eye(k), -np.eye(k)])
    step = cfg.step_init
    converged = False
    while evals < cfg.max_evals:
        if step < cfg.step_min:
            converged = True
            break
        cand = x[None, :] + step * directions
        vals = reward(cand)
        evals += cand.shape[0]
        i = int(np.argmax(vals))
        if vals[i] > best + cfg.tol:
            x = cand[i]
            best = float(vals[i])
        else:
            step *= 0.5
    return x, best, evals, converged


def synthesize_unitaries_reference(dim, params):
    """Stack ``(m, dim, dim)`` of unitaries from Givens parameter rows.

    Verbatim copy of the synthesis as it ran before its stack was laid out
    column-major over candidates, the reference for bit-identity.
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


def _abs_components(u_stack, vec):
    """|<basis column n | vec>| for a stack of unitaries: shape (m, d)."""
    return np.abs(np.einsum("mij,i->mj", np.conj(u_stack), vec))


def _value_product(aa, bb):
    return np.einsum("mn,mn->m", aa, bb) ** 2


def _value_sum(aa, bb):
    return 0.5 * ((aa + bb) ** 2).sum(axis=1)


def _value_reverse(aa, bb):
    """Reverse basis bound; +inf where the positivity hypothesis fails."""
    amax = aa.max(axis=1)
    amin = aa.min(axis=1)
    bmax = bb.max(axis=1)
    bmin = bb.min(axis=1)
    ok = (amin > 1e-12 * amax) & (bmin > 1e-12 * bmax)
    out = np.full(aa.shape[0], np.inf)
    if np.any(ok):
        lam = (amax[ok] * bmax[ok] + amin[ok] * bmin[ok]) ** 2 / (
            4.0 * amax[ok] * bmax[ok] * amin[ok] * bmin[ok]
        )
        s = np.einsum("mn,mn->m", aa[ok], bb[ok])
        out[ok] = lam * s**2
    return out


# The three basis objectives as the compass search scored them before product
# and sum became closed forms; verbatim copies of the kernels of that time.
OBJECTIVES = {
    "product": (_value_product, "max"),
    "sum": (_value_sum, "max"),
    "reverse_product": (_value_reverse, "min"),
}


def optimize_sequential(state, a, b, cfg, objective_name):
    """Compass search over bases with the starts run one after another.

    Verbatim copy of the per-start loop as it ran before the starts were
    batched, with the synthesis and objective kernels as they were then
    (:data:`OBJECTIVES`).  Production searches only ``reverse_product``; for
    ``product`` and ``sum`` this is the search their closed forms replaced.
    Returns an ``OptimizationReport``.
    """
    d = check_dims(state, a, b)
    value_of, mode = OBJECTIVES[objective_name]
    sign = 1.0 if mode == "max" else -1.0

    f = deviation_vector(state, a)
    g = deviation_vector(state, b)

    def make_reward(u0):
        def reward(params):
            u = np.einsum("ij,mjk->mik", u0, synthesize_unitaries_reference(d, params))
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

    trace = []
    labels = []
    total_evals = 0
    all_converged = True
    best_reward = -np.inf
    best_u = np.eye(d, dtype=np.complex128)
    for idx, (label, u0, x0) in enumerate(runs):
        reward = make_reward(u0)
        x, r_best, evals, conv = compass_sequential(reward, x0, cfg)
        total_evals += evals
        all_converged = all_converged and conv
        val = sign * r_best
        trace.append((idx, float(val)))
        labels.append(label)
        if r_best > best_reward:
            best_reward = r_best
            best_u = np.einsum("ij,jk->ik", u0, synthesize_unitaries_reference(d, x[None, :])[0])

    final = float(value_of(_abs_components(best_u[None], f), _abs_components(best_u[None], g))[0])
    return OptimizationReport(
        best_value=final,
        best_basis=OrthonormalBasis(best_u),
        restarts_used=cfg.restarts,
        evaluations=total_evals,
        converged=all_converged,
        trace=trace,
        mode=mode,
        start_labels=tuple(labels),
    )
