"""Watch the accelerated stochastic solver close the duality gap.

The run records carry the primal objective, the L1 marginal violation of
the averaged primal, and the gap surrogate f(x_s) + G(lambda_tilde); a run
without a stopping rule evaluates all three at every checkpoint.  The
|gap| shrinks roughly like 1/S^2 in the outer iteration count S.
"""

import numpy as np

from pdasgd import CostMatrix, Distribution, OTInstance, SemiDualOracle, SolverOptions, run

rng = np.random.default_rng(11)
n = 16
inst = OTInstance(
    CostMatrix(rng.random((n, n))),
    Distribution(rng.dirichlet(np.ones(n) * 3)),
    Distribution(rng.dirichlet(np.ones(n) * 3)),
    eta=0.1,
)
oracle = SemiDualOracle(inst)

result = run(oracle, SolverOptions(inner_iterations=n, outer_iterations=320, seed=0))

# Every outer iteration leaves a record; print every 20th.
print(f"{'outer':>6} {'|gap|':>12} {'violation':>12} {'gradients':>10}")
for record in result.records[19::20]:
    print(
        f"{record.outer_index:6d} {abs(record.duality_gap):12.3e} "
        f"{record.constraint_violation_l1:12.3e} {record.cumulative_component_gradients:10d}"
    )

g = {r.outer_index: abs(r.duality_gap) for r in result.records}
print(f"\n|gap| contraction 80 -> 320 outer iterations: {g[80] / g[320]:.1f}x (1/S^2 predicts 16x)")
