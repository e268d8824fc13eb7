"""Seeded random ensembles used by the verification harness and tests.

Each ensemble is a draw of complex Gaussian numbers followed by a build
from them.  The two steps are separate private helpers, so a caller that
must draw the numbers of every row (to keep the generator's later values)
can build only the rows it reads; ``verify`` does so for its density
matrices and its bases.  The public functions draw and build every row.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gue_hermitian", "haar_state", "haar_unitary", "wishart_density_matrix"]

RNG_NAME = "pcg64"  # the bit generator of np.random.default_rng, named in reports


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """``rng.standard_normal(shape) + 1j * rng.standard_normal(shape)``, bit for bit.

    The two draws are written straight into the real and imaginary parts,
    so no complex temporary is made.
    """
    z = np.empty(shape, dtype=np.complex128)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


def _matrix_shape(dim: int, size: int | None) -> tuple:
    return (dim, dim) if size is None else (size, dim, dim)


def _hermitian_part(g: np.ndarray) -> np.ndarray:
    """(g + g^dag) / 2, built in one new array."""
    h = np.conjugate(np.swapaxes(g, -1, -2), out=np.empty_like(g))
    h += g
    h *= 0.5
    return h


def _wishart(g: np.ndarray) -> np.ndarray:
    """G G^dag / tr(G G^dag)."""
    w = g @ np.conj(np.swapaxes(g, -1, -2))
    w /= np.trace(w, axis1=-2, axis2=-1).real[..., None, None]
    return w


def _phase_fixed_q(g: np.ndarray) -> np.ndarray:
    """The Q of g = QR, each column multiplied by the phase of R's diagonal entry."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[..., None, :]
    return q


def haar_state(rng: np.random.Generator, dim: int, size: int | None = None) -> np.ndarray:
    """Haar-random pure state vectors, shape ``(size, dim)`` or ``(dim,)``."""
    v = _complex_gaussian(rng, (dim,) if size is None else (size, dim))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def gue_hermitian(rng: np.random.Generator, dim: int, size: int | None = None) -> np.ndarray:
    """Hermitian part of complex Gaussian matrices (GUE-style)."""
    return _hermitian_part(_complex_gaussian(rng, _matrix_shape(dim, size)))


def wishart_density_matrix(rng: np.random.Generator, dim: int, size: int | None = None) -> np.ndarray:
    """Normalized Wishart density matrices G G^dag / tr(G G^dag)."""
    return _wishart(_complex_gaussian(rng, _matrix_shape(dim, size)))


def haar_unitary(rng: np.random.Generator, dim: int, size: int | None = None) -> np.ndarray:
    """Haar-random unitaries via phase-fixed QR of a complex Gaussian."""
    return _phase_fixed_q(_complex_gaussian(rng, _matrix_shape(dim, size)))
