"""Exception types shared across the package."""


class VarboundsError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(VarboundsError):
    """Operands act on Hilbert spaces of different dimensions."""


class NotHermitian(VarboundsError):
    """A matrix required to be Hermitian violates the symmetry tolerance."""


class BlochNormExceeded(VarboundsError):
    """A Bloch vector lies outside the unit ball."""


class MixedStateUnsupported(VarboundsError):
    """Operation is defined only for pure states."""


class UnknownPreset(VarboundsError):
    """Sweep preset name is not registered."""


class UnknownBoundId(VarboundsError):
    """Bound identifier is not registered."""


class ConfigError(VarboundsError):
    """Config file is syntactically or semantically invalid."""


class NumericalConsistencyError(VarboundsError):
    """An internal cross-check failed beyond round-off tolerance."""
