"""Cyclic Jacobi eigensolver for dense Hermitian matrices.

Works on stacks of matrices with shape ``(..., d, d)`` in vectorized
sweeps.  Intended for d <= 32; convergence is declared when the
off-diagonal Frobenius mass drops below ``1e-14 * ||M||_F``.

Output conventions (these make every downstream sweep reproducible):

* eigenvalues ascending, stable sort;
* eigenvectors within a degenerate cluster (gap < 1e-9) re-orthonormalized
  by Gram-Schmidt in index order;
* each eigenvector's largest-magnitude component is made real positive
  (first index wins on ties).
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian, NumericalConsistencyError

HERMITICITY_RTOL = 1e-12
OFFDIAG_TOL = 1e-14
DEGENERACY_GAP = 1e-9
_MAX_SWEEPS = 100


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate Hermiticity of ``(..., d, d)`` and return the symmetrized matrix."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotHermitian("matrix has non-finite entries")
    dag = np.conj(np.swapaxes(m, -1, -2))
    dev = np.abs(m - dag).max(axis=(-1, -2))
    scale = np.abs(m).max(axis=(-1, -2))
    if np.any(dev > HERMITICITY_RTOL * np.maximum(scale, 1e-300)):
        worst = float(np.max(dev))
        raise NotHermitian(f"max |M - M^dag| = {worst:.3e} exceeds tolerance")
    return 0.5 * (m + dag)


def _offdiag_mass(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of the off-diagonal part, per matrix in the stack."""
    d = a.shape[-1]
    sq = np.abs(a) ** 2
    sq[..., np.arange(d), np.arange(d)] = 0.0
    return np.sqrt(sq.sum(axis=(-1, -2)))


def _rotate_pair(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Zero the (p, q) entries of every matrix in the stack, in place."""
    apq = a[:, p, q]
    r = np.abs(apq)
    active = r > 1e-300
    w = np.where(active, apq / np.where(active, r, 1.0), 1.0)

    app = a[:, p, p].real
    aqq = a[:, q, q].real
    tau = (aqq - app) / np.where(active, 2.0 * r, 1.0)
    sign = np.where(tau >= 0.0, 1.0, -1.0)
    t = -sign / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    t = np.where(active, t, 0.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c

    # Column update A <- A J with J = [[c, -s], [s w*, c w*]] on (p, q).
    sw = (s * np.conj(w))[:, None]
    cw = (c * np.conj(w))[:, None]
    cp = a[:, :, p].copy()
    cq = a[:, :, q]
    a[:, :, p] = c[:, None] * cp + sw * cq
    a[:, :, q] = -s[:, None] * cp + cw * cq
    # Row update A <- J^dag A.
    rp = a[:, p, :].copy()
    rq = a[:, q, :]
    a[:, p, :] = c[:, None] * rp + (s * w)[:, None] * rq
    a[:, q, :] = -s[:, None] * rp + (c * w)[:, None] * rq
    # Accumulate eigenvectors V <- V J.
    vp = v[:, :, p].copy()
    vq = v[:, :, q]
    v[:, :, p] = c[:, None] * vp + sw * vq
    v[:, :, q] = -s[:, None] * vp + cw * vq


def _gram_schmidt_clusters(w: np.ndarray, v: np.ndarray) -> None:
    """Re-orthonormalize eigenvector columns inside degenerate clusters."""
    n, d = w.shape
    gaps = np.diff(w, axis=1)
    needs = np.any(gaps < DEGENERACY_GAP, axis=1)
    for i in np.nonzero(needs)[0]:
        start = 0
        for stop in range(1, d + 1):
            if stop == d or w[i, stop] - w[i, stop - 1] >= DEGENERACY_GAP:
                if stop - start > 1:
                    block = v[i, :, start:stop]
                    for k in range(block.shape[1]):
                        col = block[:, k]
                        for j in range(k):
                            col = col - block[:, j] * np.vdot(block[:, j], col)
                        block[:, k] = col / np.linalg.norm(col)
                start = stop


def _fix_phases(v: np.ndarray) -> None:
    """Make each column's largest-magnitude component real positive."""
    mags = np.abs(v)
    anchor = mags.argmax(axis=1)  # (n, d): row index per column
    n = v.shape[0]
    picked = np.take_along_axis(v, anchor[:, None, :], axis=1)[:, 0, :]
    mag = np.abs(picked)
    phase = np.where(mag > 0, picked / np.where(mag > 0, mag, 1.0), 1.0)
    v *= np.conj(phase)[:, None, :]
    # kill the residual imaginary dust on the anchor component
    idx = np.arange(n)[:, None]
    cols = np.arange(v.shape[2])[None, :]
    v[idx, anchor, cols] = np.abs(v[idx, anchor, cols])


def hermitian_eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize Hermitian ``(..., d, d)``; returns (eigenvalues, eigenvectors).

    Eigenvalues have shape ``(..., d)`` ascending; eigenvectors ``(..., d, d)``
    with orthonormal columns in matching order.  Deterministic: identical
    input bits give identical output bits.
    """
    a = require_hermitian(mats)
    batch_shape = a.shape[:-2]
    d = a.shape[-1]
    a = a.reshape(-1, d, d).copy()
    n = a.shape[0]
    v = np.tile(np.eye(d, dtype=np.complex128), (n, 1, 1))

    if d == 1:
        w = a[:, 0, 0].real.reshape(batch_shape + (1,))
        return w, np.ones(batch_shape + (1, 1), dtype=np.complex128)

    fro = np.sqrt((np.abs(a) ** 2).sum(axis=(1, 2)))
    thresh = OFFDIAG_TOL * np.maximum(fro, 1e-300)
    for _ in range(_MAX_SWEEPS):
        if np.all(_offdiag_mass(a) <= thresh):
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                _rotate_pair(a, v, p, q)
    else:
        raise NumericalConsistencyError("Jacobi sweeps did not converge")

    w = a[:, np.arange(d), np.arange(d)].real
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    v = np.take_along_axis(v, order[:, None, :], axis=2)

    _gram_schmidt_clusters(w, v)
    _fix_phases(v)
    return w.reshape(batch_shape + (d,)), v.reshape(batch_shape + (d, d))
