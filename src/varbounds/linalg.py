"""Observables, states, and orthonormal bases for small dense Hilbert spaces.

Backing arrays are set read-only, so instances can be shared freely across
threads.  An :class:`Observable`'s spectrum is computed once, on first use,
and cached; concurrent first reads may each compute it, and they compute
the same bits.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ._jacobi import hermitian_eigh, require_hermitian
from .errors import BlochNormExceeded, DimensionMismatch, VarboundsError

__all__ = [
    "Observable",
    "OrthonormalBasis",
    "QuantumState",
    "eigh",
    "pauli_operators",
    "qubit_state_from_bloch",
    "spin1_operators",
]

ORTHONORMALITY_TOL = 1e-10


def _frozen(a: np.ndarray, fresh: bool = False) -> np.ndarray:
    """A read-only copy of ``a``; ``a`` itself when the caller just made it (``fresh``)."""
    out = a if fresh else np.array(a)
    out.setflags(write=False)
    return out


def check_orthonormal(columns: np.ndarray) -> None:
    """Raise unless each square column matrix, over the leading axes, has orthonormal columns."""
    gram = np.matmul(columns.conj().swapaxes(-1, -2), columns)
    if not np.abs(gram - np.eye(columns.shape[-1])).max() <= ORTHONORMALITY_TOL:  # NaN fails too
        raise VarboundsError("basis columns are not orthonormal")


class OrthonormalBasis:
    """A complete orthonormal basis, stored as the columns of a unitary."""

    def __init__(self, columns: np.ndarray):
        cols = np.asarray(columns, dtype=np.complex128)
        if cols.ndim != 2 or cols.shape[0] != cols.shape[1]:
            raise VarboundsError(f"basis must be a square column matrix, got {cols.shape}")
        check_orthonormal(cols)
        self.columns = _frozen(cols)

    @classmethod
    def standard(cls, dim: int) -> "OrthonormalBasis":
        return cls(np.eye(dim, dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    def column(self, n: int) -> np.ndarray:
        return self.columns[:, n]


class Observable:
    """Hermitian operator, or a stack of them, whose spectral decomposition is computed on first use.

    The matrix, shape (d, d), or a stack of matrices, shape (n, d, d), is
    validated and frozen at construction.  The first read of
    ``eigenvalues`` or ``eigenvectors`` diagonalizes it once (a stack with
    one batched LAPACK call) and caches both for the object's lifetime;
    code that only applies the matrix never pays for the eigensolver.  Two
    threads reading first may both diagonalize, and both get the same bits.
    ``obs[rows]`` is some rows of a stack, which share the spectrum once it
    is computed.

    Eigenvalues are ascending; eigenvector columns follow the deterministic
    phase convention of :func:`eigh`, so repeated construction from the same
    matrix on one machine is bit-reproducible, and a matrix in a stack has
    the bits it has alone.
    """

    def __init__(self, matrix: np.ndarray):
        m = require_hermitian(np.asarray(matrix, dtype=np.complex128))
        if m.ndim not in (2, 3):
            raise VarboundsError(f"Observable expects a matrix or a stack of matrices, got shape {m.shape}")
        self.matrix = _frozen(m, fresh=True)
        self._spectrum = None

    def __getitem__(self, rows) -> "Observable":
        """The observables at ``rows`` of a stack, validated already, with the spectrum if it is computed."""
        if self.matrix.ndim != 3:
            raise VarboundsError("only a stack of observables has rows")
        out = object.__new__(Observable)
        out.matrix = _frozen(self.matrix[rows], fresh=True)
        spectrum = self._spectrum
        out._spectrum = None if spectrum is None else tuple(_frozen(x[rows], fresh=True) for x in spectrum)
        return out

    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        spectrum = self._spectrum
        if spectrum is None:
            w, v = hermitian_eigh(self.matrix)
            spectrum = self._spectrum = (_frozen(w, fresh=True), _frozen(v, fresh=True))
        return spectrum

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigh()[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigh()[1]

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def eigenbasis(self) -> OrthonormalBasis:
        return OrthonormalBasis(self.eigenvectors)

    def shifted(self, c: float) -> "Observable":
        """The observable plus ``c`` times the identity."""
        return Observable(self.matrix + c * np.eye(self.dim))

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim}, eigenvalues={np.round(self.eigenvalues, 6)})"


def row_dots(x: np.ndarray) -> np.ndarray:
    """x . x over the last axis of a real array: BLAS ddot per row, as ``x.dot(x)``."""
    return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


def unit_rows(vectors) -> np.ndarray:
    """Each row of an (n, d) stack of state vectors over its norm, which must be 1 within 1e-12.

    ||v||^2 is the BLAS ddot of the real parts plus that of the imaginary parts, the sum
    ``np.linalg.norm`` takes, so a row has the bits of ``v / np.linalg.norm(v)``.  A row
    with a NaN or infinite entry is rejected."""
    v = np.ascontiguousarray(vectors, dtype=np.complex128)
    parts = v.view(np.float64).reshape(*v.shape, 2).transpose(2, 0, 1)  # real, imaginary
    dots = np.vecdot(parts, parts)  # per row and part, shape (2, n)
    nrm = np.sqrt(dots[0] + dots[1])[:, None]
    far = ~(np.abs(nrm - 1.0) <= 1e-12)
    if far.any():
        raise VarboundsError(f"pure state norm {float(nrm[far][0])!r} is not 1 within 1e-12")
    return v / nrm


def density_rows(matrices) -> np.ndarray:
    """An (n, d, d) stack of density matrices, validated and symmetrized.

    Each must be Hermitian (see :func:`require_hermitian`, whose symmetrized
    matrix is returned), have trace 1 within 1e-12 and no eigenvalue below
    -1e-10.  The last test asks for a Cholesky factor of rho + 1e-10 I, one
    batched LAPACK call several times cheaper than the eigenvalues, which
    are computed only to report a rejected matrix.
    """
    r = require_hermitian(np.asarray(matrices, dtype=np.complex128))
    tr = np.trace(r, axis1=-2, axis2=-1).real
    far = np.abs(tr - 1.0) > 1e-12
    if far.any():
        raise VarboundsError(f"density matrix trace {float(tr[far][0])!r} is not 1 within 1e-12")
    try:
        np.linalg.cholesky(r + 1e-10 * np.eye(r.shape[-1]))
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(r)[..., 0].min()
        raise VarboundsError(f"density matrix has eigenvalue {low:.3e} < -1e-10") from None
    return r


class QuantumState:
    """A pure state vector or a mixed-state density matrix."""

    def __init__(self, kind: str, vector=None, rho=None):
        if kind == "pure":
            v = np.asarray(vector, dtype=np.complex128).reshape(1, -1)
            self.vector = _frozen(unit_rows(v)[0], fresh=True)
            self.rho = None
        elif kind == "mixed":
            self.vector = None
            self.rho = _frozen(density_rows(np.asarray(rho, dtype=np.complex128)[None])[0], fresh=True)
        else:
            raise VarboundsError(f"unknown state kind {kind!r}")
        self.kind = kind

    @classmethod
    def pure(cls, vector: Iterable[complex]) -> "QuantumState":
        return cls("pure", vector=vector)

    @classmethod
    def mixed(cls, rho: np.ndarray) -> "QuantumState":
        return cls("mixed", rho=rho)

    @property
    def is_pure(self) -> bool:
        return self.kind == "pure"

    @property
    def dim(self) -> int:
        return self.vector.shape[0] if self.is_pure else self.rho.shape[0]

    def density_matrix(self) -> np.ndarray:
        if self.is_pure:
            return np.outer(self.vector, self.vector.conj())
        return np.array(self.rho)

    def __repr__(self) -> str:
        return f"QuantumState(kind={self.kind!r}, dim={self.dim})"


def check_dims(state: QuantumState, *observables: Observable) -> int:
    d = state.dim
    for obs in observables:
        if obs.dim != d:
            raise DimensionMismatch(f"state dim {d} vs observable dim {obs.dim}")
    return d


def eigh(matrix: np.ndarray) -> tuple[np.ndarray, OrthonormalBasis]:
    """Hermitian eigendecomposition with ascending eigenvalues.

    Returns the eigenvalues and the eigenvector columns as an
    :class:`OrthonormalBasis`.  Raises :class:`NotHermitian` when the input
    violates the symmetry tolerance.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2:
        raise VarboundsError(f"eigh expects a single matrix, got shape {m.shape}")
    w, v = hermitian_eigh(require_hermitian(m))
    return w, OrthonormalBasis(v)


def spin1_operators() -> tuple[Observable, Observable, Observable]:
    """Angular momentum components (Lx, Ly, Lz) for spin 1.

    Basis ordering is (|m=1>, |m=0>, |m=-1>), so Lz = diag(1, 0, -1).
    The su(2) relation [Lx, Ly] = i Lz is asserted at construction.
    """
    s = 1.0 / math.sqrt(2.0)
    lx = np.array([[0, s, 0], [s, 0, s], [0, s, 0]], dtype=np.complex128)
    ly = np.array([[0, -1j * s, 0], [1j * s, 0, -1j * s], [0, 1j * s, 0]], dtype=np.complex128)
    lz = np.diag([1.0, 0.0, -1.0]).astype(np.complex128)
    comm = lx @ ly - ly @ lx - 1j * lz
    assert np.abs(comm).max() <= 1e-14
    return Observable(lx), Observable(ly), Observable(lz)


def pauli_operators() -> tuple[Observable, Observable, Observable]:
    """The Pauli matrices (sigma_x, sigma_y, sigma_z)."""
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    return Observable(sx), Observable(sy), Observable(sz)


def pure_bloch_vectors(r: np.ndarray, nrm: np.ndarray) -> np.ndarray:
    """Unnormalized cos(t/2)|0> + e^(i phi) sin(t/2)|1> per unit Bloch vector r / nrm, r of shape (n, 3).

    Rephased as :func:`eigh` does.  Angles and moduli are per-row Python floats (scalar ``abs``, as
    ``np.abs`` of a complex rounds differently), so a row has the same bits in any stack."""
    angles = []
    for x, y, z in (r / nrm[:, None]).tolist():
        half = math.acos(min(1.0, max(-1.0, z))) / 2.0
        angles.append((math.cos(half), math.sin(half), math.atan2(y, x)))
    cos_half, sin_half, phi = np.array(angles).reshape(-1, 3).T
    vec = np.stack([cos_half.astype(np.complex128), sin_half * np.exp(1j * phi)], axis=1)
    anchor = vec[np.arange(len(vec)), np.argmax(np.abs(vec), axis=1)]
    modulus = np.array([abs(z) for z in anchor.tolist()])
    return vec * anchor.conj()[:, None] / modulus[:, None]


def qubit_state_from_bloch(r) -> QuantumState:
    """Qubit state rho = (I + r . sigma) / 2 from a Bloch vector.

    Returns a pure state (as a vector) when ||r|| >= 1 - 1e-10, otherwise a
    mixed state.  Raises :class:`BlochNormExceeded` for ||r|| > 1 + 1e-12.
    """
    r = np.asarray(r, dtype=float).reshape(1, -1)
    if r.shape != (1, 3):
        raise VarboundsError("Bloch vector must have three components")
    nrm = np.sqrt(row_dots(r))
    if nrm[0] > 1.0 + 1e-12:
        raise BlochNormExceeded(f"||r|| = {float(nrm[0])!r} exceeds 1")
    if nrm[0] >= 1.0 - 1e-10:
        return QuantumState.pure(pure_bloch_vectors(r, nrm)[0])
    x, y, z = r[0]
    rho = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
    return QuantumState.mixed(rho)
