"""Lower bounds on the variance sum, including the classic baselines.

Same spin-1 family as the product demo.  All three bounds are
optimization-free; the two baselines need a state orthogonal to |psi>,
which both take in closed form (mp_sum_1 the normalized projection of
(A -/+ iB)|psi>, mp_sum_2 that of (A+B)|psi>).
"""

import numpy as np

from varbounds import SweepSpec, emit, run_sweep

table = run_sweep(SweepSpec(preset="fig2", theta_count=41))

theta = table.column("theta")
total = table.column("exact_sum")
par = table.column("parallelogram_sum")
mp1 = table.column("mp_sum_1")
mp2 = table.column("mp_sum_2")

print(f"{'theta':>8} {'sum':>10} {'parallel':>10} {'mp1':>10} {'mp2':>10}")
for i in range(0, len(theta), 4):
    print(f"{theta[i]:8.4f} {total[i]:10.6f} {par[i]:10.6f} {mp1[i]:10.6f} {mp2[i]:10.6f}")

assert np.all(par <= total + 1e-10)
assert np.all(mp1 <= total + 1e-10)
assert np.all(mp2 <= total + 1e-10)
print("\nparallelogram bound dominates mp2 everywhere here:",
      bool(np.all(par >= mp2 - 1e-10)))
print("mean slack sum - parallelogram:", float(np.mean(total - par)))

emit(table, "csv", "sum_lower_bounds.csv")
print("wrote sum_lower_bounds.csv")
