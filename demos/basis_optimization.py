"""Optimizing the basis-dependent bounds over complete orthonormal bases.

The coefficient bounds depend on the basis used to decompose the deviation
vectors.  The lower bounds have closed-form maxima, Var A * Var B for the
product and (Delta A + Delta B)^2 / 2 for the sum, reached at an
analytically aligned basis that the optimizer returns as the witness.  The
reverse bound has no closed-form minimum: a compass search over Givens
angles minimizes it, restarted from the standard basis, both eigenbases,
the aligned basis and random starts.
"""

import numpy as np

from varbounds import (
    OptimizerConfig,
    OrthonormalBasis,
    QuantumState,
    basis_product_bound,
    optimize_product_bound,
    optimize_reverse_product_bound,
    optimize_sum_bound,
    spin1_operators,
    variance,
)

lx, ly, _ = spin1_operators()
theta = np.pi / 5
state = QuantumState.pure([np.cos(theta), -np.sin(theta), 0.0])

product = variance(state, lx) * variance(state, ly)
standard = basis_product_bound(state, lx, ly, OrthonormalBasis.standard(3)).value

report = optimize_product_bound(state, lx, ly)
print(f"exact product         : {product:.8f}")
print(f"standard-basis bound  : {standard:.8f}")
print(f"optimized bound       : {report.best_value:.8f} (at the {report.start_labels[0]} basis)")

sum_report = optimize_sum_bound(state, lx, ly)
da, db = np.sqrt(variance(state, lx)), np.sqrt(variance(state, ly))
print(f"optimized sum bound   : {sum_report.best_value:.8f} "
      f"(closed-form optimum {(da + db) ** 2 / 2:.8f})")

# the reverse product bound is minimized by search, where it is defined
cfg = OptimizerConfig(restarts=8, seed=1234)
rev_report = optimize_reverse_product_bound(state, lx, ly, cfg=cfg)
print(f"\nminimized reverse     : {rev_report.best_value:.8f} >= product {product:.8f}")
print(f"evaluations           : {rev_report.evaluations}, converged: {rev_report.converged}")
print("per-start values:")
for (idx, value), label in zip(rev_report.trace, rev_report.start_labels):
    print(f"  {label:>14}: {value:.8f}")
