"""Optimizing the basis-dependent bounds over complete orthonormal bases.

The coefficient bounds depend on the basis used to decompose the deviation
vectors f = (A - <A>)|psi> and g = (B - <B>)|psi>.  Every optimum over bases
has a closed form and a witness basis, so nothing is searched:

* the product and sum lower bounds are maximized, at Var A * Var B and
  (Delta A + Delta B)^2 / 2, by the aligned basis (|alpha_n| proportional
  to |beta_n|);
* the reverse product upper bound is minimized, at Var A * Var B, by the
  flat basis (all |alpha_n| equal and all |beta_n| equal, so Lambda = 1).
"""

import numpy as np

from varbounds import (
    OrthonormalBasis,
    QuantumState,
    basis_product_bound,
    optimize_product_bound,
    optimize_reverse_product_bound,
    optimize_sum_bound,
    reverse_basis_product_bound,
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
print(f"optimized bound       : {report.best_value:.8f} (at the {report.witness} basis)")

sum_report = optimize_sum_bound(state, lx, ly)
da, db = np.sqrt(variance(state, lx)), np.sqrt(variance(state, ly))
print(f"optimized sum bound   : {sum_report.best_value:.8f} "
      f"(closed-form optimum {(da + db) ** 2 / 2:.8f})")

# the reverse product bound is minimized at the flat basis, where Lambda = 1
rev_report = optimize_reverse_product_bound(state, lx, ly)
rev = reverse_basis_product_bound(state, lx, ly, rev_report.best_basis)
print(f"\nminimized reverse     : {rev_report.best_value:.8f} (product {product:.8f}, "
      f"at the {rev_report.witness} basis)")
print(f"Lambda at the witness : {rev.intermediates['lambda']:.15f}")
print("flat basis (columns):")
with np.printoptions(precision=4, suppress=True):
    print(rev_report.best_basis.columns)
print(f"|alpha_n|             : {np.array2string(rev.intermediates['alpha_abs'], precision=10)}")
print(f"|beta_n|              : {np.array2string(rev.intermediates['beta_abs'], precision=10)}")
