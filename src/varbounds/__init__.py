"""State-dependent lower and upper bounds on variances of two observables.

The library computes, verifies, and optimizes uncertainty-style lower
bounds and reverse (upper) bounds on the product and the sum of variances
of two incompatible observables, and reproduces four reference sweep
experiments as machine-readable tables.
"""

__version__ = "0.1.0"

from .errors import (
    BlochNormExceeded,
    ConfigError,
    DimensionMismatch,
    MixedStateUnsupported,
    NotHermitian,
    NumericalConsistencyError,
    UnknownBoundId,
    UnknownPreset,
    VarboundsError,
)
from .linalg import (
    Observable,
    OrthonormalBasis,
    QuantumState,
    eigh,
    pauli_operators,
    qubit_state_from_bloch,
    spin1_operators,
)
from .moments import (
    MomentSet,
    anticommutator_expectation,
    commutator_expectation,
    covariance,
    deviation_vector,
    expectation,
    moments,
    variance,
)
from .lower_bounds import (
    BoundResult,
    SortedWeightSequences,
    basis_product_bound,
    basis_sum_bound,
    fidelity_product_bound,
    mp_sum_bound_1,
    mp_sum_bound_2,
    parallelogram_sum_bound,
    rs_product_bound,
    sorted_weight_sequences,
)
from .upper_bounds import (
    ReverseFactor,
    dw_deviation_sum_bound,
    dw_variance_sum_bound,
    reverse_basis_product_bound,
    reverse_fidelity_product_bound,
)
from .optimize import (
    OptimizationReport,
    optimize_product_bound,
    optimize_reverse_product_bound,
    optimize_sum_bound,
)
from .sweep import SweepSpec, SweepTable, compute_instance, run_sweep
from .verify import VerificationReport, run_verification
from .reporting import emit

__all__ = [
    "BlochNormExceeded",
    "BoundResult",
    "ConfigError",
    "DimensionMismatch",
    "MixedStateUnsupported",
    "MomentSet",
    "NotHermitian",
    "NumericalConsistencyError",
    "Observable",
    "OptimizationReport",
    "OrthonormalBasis",
    "QuantumState",
    "ReverseFactor",
    "SortedWeightSequences",
    "UnknownBoundId",
    "UnknownPreset",
    "VarboundsError",
    "anticommutator_expectation",
    "basis_product_bound",
    "basis_sum_bound",
    "commutator_expectation",
    "covariance",
    "deviation_vector",
    "dw_deviation_sum_bound",
    "dw_variance_sum_bound",
    "eigh",
    "expectation",
    "fidelity_product_bound",
    "moments",
    "mp_sum_bound_1",
    "mp_sum_bound_2",
    "optimize_product_bound",
    "optimize_reverse_product_bound",
    "optimize_sum_bound",
    "parallelogram_sum_bound",
    "pauli_operators",
    "qubit_state_from_bloch",
    "reverse_basis_product_bound",
    "reverse_fidelity_product_bound",
    "SweepSpec",
    "SweepTable",
    "VerificationReport",
    "compute_instance",
    "emit",
    "rs_product_bound",
    "run_sweep",
    "run_verification",
    "sorted_weight_sequences",
    "spin1_operators",
    "variance",
]
