"""Independent test oracles, kept apart from the production paths."""

import json
import math

import numpy as np

from varbounds.upper_bounds import CORRELATED_REASON, HYPOTHESIS_REASON, NULL_DEVIATION_REASON


# -- moments, one state at a time ---------------------------------------------------
# Written here rather than imported from varbounds.moments, so that an error in
# the library's moments cannot hide in the oracle that judges them: psi^dagger M psi
# with np.vdot, tr(rho M) as one einsum, and every square x * x.

def _expect(state, m) -> complex:
    """<M> for any square matrix M: psi^dagger M psi, or tr(rho M)."""
    if state.is_pure:
        return complex(np.vdot(state.vector, m @ state.vector))
    return complex(np.einsum("ij,ji->", state.rho, m))


def expectation(state, a) -> float:
    return _expect(state, a.matrix).real


def variance(state, a) -> float:
    """<A^2> - <A>^2, with <A^2> = ||A psi||^2 for a pure state; round-off negatives read 0."""
    if state.is_pure:
        av = a.matrix @ state.vector
        second = np.vdot(av, av).real
    else:
        second = _expect(state, a.matrix @ a.matrix).real
    mean = expectation(state, a)
    return max(float(second - mean * mean), 0.0)


def covariance(state, a, b) -> float:
    """Re<AB> - <A><B>, which is <{A,B}>/2 - <A><B>."""
    return _expect(state, a.matrix @ b.matrix).real - expectation(state, a) * expectation(state, b)


def commutator_expectation(state, a, b) -> complex:
    """<[A,B]> = <AB> - conj(<AB>) = 2i Im<AB>."""
    return 2j * _expect(state, a.matrix @ b.matrix).imag


def deviation_vector(state, a) -> np.ndarray:
    """(A - <A>) psi of a pure state."""
    psi = state.vector
    return a.matrix @ psi - expectation(state, a) * psi


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


# -- every bound on its own -------------------------------------------------------
# The arithmetic of each bound before the bounds shared one set of moments,
# plus the reverse basis bound's absolute positivity floor: each bound calls
# the standalone moment functions itself and shares nothing with another
# bound or with the library's Instance.  A square is x * x, the correctly
# rounded one (Python's x ** 2 calls pow, which is not).  Values must agree
# bit for bit.
PURE_ONLY = ("basis_product", "basis_sum", "mp_sum_1", "mp_sum_2", "reverse_basis_product",
             "optimized_product", "optimized_sum")


def _sorted_sequence(state, a):
    """(sorted (a_i - <A>) sqrt(F_i), a_i - <A>)."""
    ta = a.eigenvalues - expectation(state, a)
    vecs = a.eigenvectors
    if state.is_pure:
        fid = np.abs(vecs.conj().T @ state.vector) ** 2
    else:
        fid = np.einsum("im,ij,jm->m", vecs.conj(), state.rho, vecs).real
    raw = ta * np.sqrt(np.maximum(fid, 0.0))
    return raw[np.argsort(raw, kind="stable")], ta


def _positive(seq, scale):
    top = float(seq.max())
    return top > 1e-12 * scale and top > 0.0 and float(seq.min()) > 1e-12 * top


def _reverse_value(c, d):
    cmax, cmin, dmax, dmin = float(c.max()), float(c.min()), float(d.max()), float(d.min())
    top = cmax * dmax + cmin * dmin
    omega = top * top / (4.0 * cmax * dmax * cmin * dmin)
    paired = float(np.dot(c, d))
    return omega * (paired * paired)


def _coefficient_moduli(state, a, b, columns):
    f = deviation_vector(state, a)
    g = deviation_vector(state, b)
    return np.abs(columns.conj().T @ f), np.abs(columns.conj().T @ g)


def _aligned_columns(state, a, b):
    """The witness basis of the product and sum optima, or the standard basis.

    The bisectors of f and of g scaled to f's norm and phase-aligned to f,
    completed by a Householder QR whose first two columns take the phases
    of R's diagonal.
    """
    f = deviation_vector(state, a)
    g = deviation_vector(state, b)
    nf = math.sqrt(np.vdot(f, f).real)
    ng = math.sqrt(np.vdot(g, g).real)
    if nf < 1e-14 or ng < 1e-14:
        return np.eye(f.size, dtype=np.complex128)
    ov = complex(np.vdot(f, g))
    scale = nf / ng
    if ov:
        scale *= ov.conjugate() / abs(ov)
    g = g * scale
    q, r = np.linalg.qr(np.column_stack([f + g, f - g]), mode="complete")
    phase = np.ones(f.size, dtype=np.complex128)
    phase[:2] = [z / abs(z) if z else 1.0 for z in np.diagonal(r)]
    return q * phase


def _rs_product(state, a, b):
    half_comm = abs(commutator_expectation(state, a, b) / 2.0)
    cov = covariance(state, a, b)
    return half_comm * half_comm + cov * cov


def _basis_product(state, a, b, columns=None):
    cols = np.eye(state.dim, dtype=np.complex128) if columns is None else columns
    aa, bb = _coefficient_moduli(state, a, b, cols)
    paired = float(np.dot(aa, bb))
    return paired * paired


def _basis_sum(state, a, b, columns=None):
    cols = np.eye(state.dim, dtype=np.complex128) if columns is None else columns
    aa, bb = _coefficient_moduli(state, a, b, cols)
    return float(0.5 * ((aa + bb) ** 2).sum())


def _fidelity_product(state, a, b):
    u, _ = _sorted_sequence(state, a)
    v, _ = _sorted_sequence(state, b)
    asc = float(np.einsum("...i,...i->...", u, v))
    alt = float(np.einsum("...i,...i->...", u, v[..., ::-1]))
    return max(asc * asc, alt * alt)


def _parallelogram_sum(state, a, b):
    u, _ = _sorted_sequence(state, a)
    v, _ = _sorted_sequence(state, b)
    return float(0.5 * ((u + v) ** 2).sum(axis=-1))


def _mp_sum_1(state, a, b):
    psi = state.vector
    comm = commutator_expectation(state, a, b)
    per_sign = {}
    for sign in (1.0, -1.0):
        w = (a.matrix - sign * 1j * b.matrix) @ psi
        w = w - psi * np.vdot(psi, w)
        per_sign[sign] = float((sign * 1j * comm).real) + float(np.vdot(w, w).real)
    return per_sign[1.0] if per_sign[1.0] >= per_sign[-1.0] else per_sign[-1.0]


def _mp_sum_2(state, a, b):
    psi = state.vector
    mv = (a.matrix + b.matrix) @ psi
    mean = np.vdot(psi, mv).real
    return 0.5 * max(np.vdot(mv, mv).real - mean * mean, 0.0)


def _reverse_fidelity_product(state, a, b):
    u, ta = _sorted_sequence(state, a)
    v, tb = _sorted_sequence(state, b)
    c, d = np.abs(u), np.abs(v)
    if not (_positive(c, float(np.abs(ta).max())) and _positive(d, float(np.abs(tb).max()))):
        return None, HYPOTHESIS_REASON
    return _reverse_value(c, d), "ok"


def _reverse_basis_product(state, a, b):
    aa, bb = _coefficient_moduli(state, a, b, np.eye(state.dim, dtype=np.complex128))
    eye = np.eye(state.dim)
    scale_a = np.linalg.norm(a.matrix - expectation(state, a) * eye)
    scale_b = np.linalg.norm(b.matrix - expectation(state, b) * eye)
    if not (_positive(aa, scale_a) and _positive(bb, scale_b)):
        return None, HYPOTHESIS_REASON
    return _reverse_value(aa, bb), "ok"


def _dunkl_williams(state, a, b):
    """(variance of A - B, denominator, Delta A, Delta B), or a reason."""
    var_a, var_b = variance(state, a), variance(state, b)
    cov = covariance(state, a, b)
    if var_a <= 0.0 or var_b <= 0.0:
        return NULL_DEVIATION_REASON
    std_a, std_b = float(np.sqrt(var_a)), float(np.sqrt(var_b))
    denom = 1.0 - cov / (std_a * std_b)
    if denom <= 1e-12:
        return CORRELATED_REASON
    return max(var_a + var_b - 2.0 * cov, 0.0), denom, std_a, std_b


def _dw_deviation_sum(state, a, b):
    dw = _dunkl_williams(state, a, b)
    if isinstance(dw, str):
        return None, dw
    var_diff, denom, _, _ = dw
    return float(np.sqrt(2.0 * var_diff / denom)), "ok"


def _dw_variance_sum(state, a, b):
    dw = _dunkl_williams(state, a, b)
    if isinstance(dw, str):
        return None, dw
    var_diff, denom, std_a, std_b = dw
    return float(2.0 * var_diff / denom - 2.0 * std_a * std_b), "ok"


def _optimized_product(state, a, b):
    return _basis_product(state, a, b, _aligned_columns(state, a, b))


def _optimized_sum(state, a, b):
    return _basis_sum(state, a, b, _aligned_columns(state, a, b))


REFERENCE_BOUNDS = {
    "rs_product": _rs_product,
    "basis_product": _basis_product,
    "fidelity_product": _fidelity_product,
    "parallelogram_sum": _parallelogram_sum,
    "basis_sum": _basis_sum,
    "mp_sum_1": _mp_sum_1,
    "mp_sum_2": _mp_sum_2,
    "reverse_fidelity_product": _reverse_fidelity_product,
    "reverse_basis_product": _reverse_basis_product,
    "dw_deviation_sum": _dw_deviation_sum,
    "dw_variance_sum": _dw_variance_sum,
    "optimized_product": _optimized_product,
    "optimized_sum": _optimized_sum,
}


def reference_bound(bid, state, a, b):
    """(value or None, status) of one bound, as ``compute_instance`` reports it."""
    if bid in PURE_ONLY and not state.is_pure:
        return None, "mixed state unsupported"
    out = REFERENCE_BOUNDS[bid](state, a, b)
    return out if isinstance(out, tuple) else (float(out), "ok")


def reference_exact(state, a, b):
    """Exact variance product, sum and deviation sum."""
    var_a, var_b = variance(state, a), variance(state, b)
    return {"product": var_a * var_b, "sum": var_a + var_b,
            "dev_sum": float(np.sqrt(var_a)) + float(np.sqrt(var_b))}


def pure_bloch_vector_reference(r) -> np.ndarray:
    """The normalized state vector of a pure qubit with Bloch vector r, one state at a time.

    Numpy scalars and ``np.linalg.norm`` throughout, with the rephasing
    modulus taken by Python's ``abs``: the bits a sweep's Bloch family has
    always had.
    """
    r = np.asarray(r, dtype=float)
    x, y, z = r / float(np.linalg.norm(r))
    half = math.acos(min(1.0, max(-1.0, z))) / 2.0
    vec = np.array([math.cos(half), math.sin(half) * np.exp(1j * math.atan2(y, x))])
    ph = vec[int(np.argmax(np.abs(vec)))]
    vec = vec * np.conj(ph) / abs(ph)
    return vec / np.linalg.norm(vec)
