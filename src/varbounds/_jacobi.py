"""Hermitian eigendecomposition with a deterministic eigenvector convention.

``require_hermitian`` validates a stack of matrices and symmetrizes it;
``hermitian_eigh`` diagonalizes a stack that has passed it with LAPACK
(``np.linalg.eigh``), in any dimension.  Callers validate once and keep the
symmetrized matrix, so nothing is checked twice.

The module keeps the name of the cyclic Jacobi solver it used to hold,
because the benchmark harness in ``bench/`` imports ``varbounds._jacobi``
and traces ``hermitian_eigh`` and ``require_hermitian`` under these names;
renaming it belongs with the benchmark's own clean-up.

Output conventions:

* eigenvalues ascending, as LAPACK returns them;
* inside a degenerate eigenspace, the orthonormal vectors LAPACK returns;
* each eigenvector's largest-magnitude component is made real positive
  (first index wins on ties).

Two calls on identical input bits give identical output bits on one
machine; across machines the results agree as far as their LAPACK builds do.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian

HERMITICITY_RTOL = 1e-12


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate Hermiticity of ``(..., d, d)`` and return the symmetrized matrix.

    Each test reduces every matrix to one number first: the largest modulus
    of its entries, which is NaN or inf exactly when an entry is, and the
    largest modulus of M - M^dag.  The reductions keep their axes, so one
    matrix is tested on arrays rather than on slower numpy scalars.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    scale = np.abs(m).max(axis=(-1, -2), keepdims=True)
    if not np.isfinite(scale).all():
        raise NotHermitian("matrix has non-finite entries")
    dag = m.conj().swapaxes(-1, -2)
    dev = np.abs(m - dag).max(axis=(-1, -2), keepdims=True)
    if (dev > HERMITICITY_RTOL * np.maximum(scale, 1e-300)).any():
        raise NotHermitian(f"max |M - M^dag| = {dev.max():.3e} exceeds tolerance")
    return 0.5 * (m + dag)


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


def hermitian_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize ``(..., d, d)``; returns (eigenvalues, eigenvectors).

    ``a`` is the output of :func:`require_hermitian`: a complex128 stack,
    already validated and symmetrized.  LAPACK reads one triangle only, so
    an unvalidated matrix is not rejected here.  Eigenvalues have shape
    ``(..., d)`` ascending; eigenvectors ``(..., d, d)`` with orthonormal
    columns in matching order.  Deterministic on one machine: identical
    input bits give identical output bits.
    """
    batch_shape = a.shape[:-2]
    d = a.shape[-1]
    w, v = np.linalg.eigh(a.reshape(-1, d, d))
    _fix_phases(v)
    return w.reshape(batch_shape + (d,)), v.reshape(batch_shape + (d, d))
