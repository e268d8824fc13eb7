"""Seeded random ensembles used by the verification harness and tests."""

from __future__ import annotations

import numpy as np

__all__ = ["gue_hermitian", "haar_state", "haar_unitary", "wishart_density_matrix"]

RNG_NAME = "pcg64"  # the bit generator of np.random.default_rng, named in reports


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_state(rng: np.random.Generator, dim: int, size: int | None = None) -> np.ndarray:
    """Haar-random pure state vectors, shape ``(size, dim)`` or ``(dim,)``."""
    shape = (dim,) if size is None else (size, dim)
    v = _complex_gaussian(rng, shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def gue_hermitian(rng: np.random.Generator, dim: int, size: int | None = None) -> np.ndarray:
    """Hermitian part of complex Gaussian matrices (GUE-style)."""
    shape = (dim, dim) if size is None else (size, dim, dim)
    g = _complex_gaussian(rng, shape)
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


def wishart_density_matrix(rng: np.random.Generator, dim: int, size: int | None = None) -> np.ndarray:
    """Normalized Wishart density matrices G G^dag / tr(G G^dag)."""
    shape = (dim, dim) if size is None else (size, dim, dim)
    g = _complex_gaussian(rng, shape)
    w = g @ np.conj(np.swapaxes(g, -1, -2))
    tr = np.trace(w, axis1=-2, axis2=-1).real
    return w / tr[..., None, None]


def haar_unitary(rng: np.random.Generator, dim: int, size: int | None = None) -> np.ndarray:
    """Haar-random unitaries via phase-fixed QR of a complex Gaussian."""
    shape = (dim, dim) if size is None else (size, dim, dim)
    q, r = np.linalg.qr(_complex_gaussian(rng, shape))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]
