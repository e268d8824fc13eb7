"""Independent test oracles, kept apart from the production paths."""

import json

import numpy as np

from varbounds.moments import deviation_vector


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
        vals = evaluate(th[:, None], ph[None, :])  # trig on the 1-D axes, broadcast to the grid
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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not np.isfinite(f):
            return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
        return f
    return obj


def render_json_reference(obj) -> str:
    """The former ``reporting.render_json``: copy to plain Python values, then ``json.dumps``."""
    data = obj.to_json_dict()
    return json.dumps(_jsonable(data), indent=2, sort_keys=True) + "\n"
