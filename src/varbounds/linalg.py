"""Observables, states, and orthonormal bases for small dense Hilbert spaces.

Everything here is immutable after construction (backing arrays are set
read-only), so instances can be shared freely across threads.
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


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


class OrthonormalBasis:
    """A complete orthonormal basis, stored as the columns of a unitary."""

    def __init__(self, columns: np.ndarray):
        cols = np.asarray(columns, dtype=np.complex128)
        if cols.ndim != 2 or cols.shape[0] != cols.shape[1]:
            raise VarboundsError(f"basis must be a square column matrix, got {cols.shape}")
        gram = cols.conj().T @ cols
        if np.abs(gram - np.eye(cols.shape[0])).max() > ORTHONORMALITY_TOL:
            raise VarboundsError("basis columns are not orthonormal")
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
    """Hermitian operator with its spectral decomposition cached.

    Eigenvalues are ascending; eigenvector columns follow the deterministic
    phase convention of :func:`eigh`, so repeated construction from the same
    matrix on one machine is bit-reproducible.
    """

    def __init__(self, matrix: np.ndarray):
        m = require_hermitian(np.asarray(matrix, dtype=np.complex128))
        if m.ndim != 2:
            raise VarboundsError("Observable expects a single matrix")
        w, v = hermitian_eigh(m)
        self.matrix = _frozen(m)
        self.eigenvalues = _frozen(w)
        self.eigenvectors = _frozen(v)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenbasis(self) -> OrthonormalBasis:
        return OrthonormalBasis(self.eigenvectors)

    def shifted(self, c: float) -> "Observable":
        """The observable plus ``c`` times the identity."""
        return Observable(self.matrix + c * np.eye(self.dim))

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim}, eigenvalues={np.round(self.eigenvalues, 6)})"


class QuantumState:
    """A pure state vector or a mixed-state density matrix."""

    def __init__(self, kind: str, vector=None, rho=None):
        if kind == "pure":
            v = np.asarray(vector, dtype=np.complex128).reshape(-1)
            nrm = np.linalg.norm(v)
            if abs(nrm - 1.0) > 1e-12:
                raise VarboundsError(f"pure state norm {nrm!r} is not 1 within 1e-12")
            self.vector = _frozen(v / nrm)
            self.rho = None
        elif kind == "mixed":
            r = require_hermitian(np.asarray(rho, dtype=np.complex128))
            tr = np.trace(r).real
            if abs(tr - 1.0) > 1e-12:
                raise VarboundsError(f"density matrix trace {tr!r} is not 1 within 1e-12")
            low = np.linalg.eigvalsh(r)[0]
            if low < -1e-10:
                raise VarboundsError(f"density matrix has eigenvalue {low:.3e} < -1e-10")
            self.vector = None
            self.rho = _frozen(r)
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
    w, v = hermitian_eigh(m)
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


def qubit_state_from_bloch(r) -> QuantumState:
    """Qubit state rho = (I + r . sigma) / 2 from a Bloch vector.

    Returns a pure state (as a vector) when ||r|| >= 1 - 1e-10, otherwise a
    mixed state.  Raises :class:`BlochNormExceeded` for ||r|| > 1 + 1e-12.
    """
    r = np.asarray(r, dtype=float).reshape(-1)
    if r.shape != (3,):
        raise VarboundsError("Bloch vector must have three components")
    nrm = float(np.linalg.norm(r))
    if nrm > 1.0 + 1e-12:
        raise BlochNormExceeded(f"||r|| = {nrm!r} exceeds 1")
    if nrm >= 1.0 - 1e-10:
        x, y, z = r / nrm
        theta = math.acos(min(1.0, max(-1.0, z)))
        half = theta / 2.0
        phi = math.atan2(y, x)
        vec = np.array([math.cos(half), math.sin(half) * np.exp(1j * phi)])
        # same phase convention as eigh: largest component real positive
        anchor = int(np.argmax(np.abs(vec)))
        ph = vec[anchor]
        vec = vec * np.conj(ph) / abs(ph)
        return QuantumState.pure(vec)
    x, y, z = r
    rho = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
    return QuantumState.mixed(rho)
