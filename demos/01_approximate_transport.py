"""Approximate a small transport problem and compare with the exact optimum.

The pipeline picks the entropic penalty from the target accuracy, smooths
the marginals away from zero, minimizes the semi-dual stochastically until
a computable certificate holds, and rounds the averaged primal back onto
the transport polytope.
"""

import numpy as np

from pdasgd import ApproxConfig, approx_ot, exact_ot_oracle, marginal_distance

rng = np.random.default_rng(0)
n = 4
cost = rng.random((n, n))
cost /= cost.max()
alpha = rng.dirichlet(np.ones(n))
beta = rng.dirichlet(np.ones(n))

plan_star, optimum = exact_ot_oracle(cost, alpha, beta)
print(f"exact optimum (vertex enumeration): {optimum:.6f}")

for epsilon in (0.1, 0.05, 0.02):
    result = approx_ot(
        cost, alpha, beta,
        ApproxConfig(epsilon=epsilon, max_outer=200_000, seed=1),
    )
    print(
        f"epsilon={epsilon:<5}: value={result.ot_value:.6f} "
        f"(excess {result.ot_value - optimum:+.2e} <= {epsilon}), "
        f"outer iterations={result.outer_iterations}, stop={result.stop_reason}"
    )
    # the output is feasible for the *original* marginals, not the smoothed ones
    print(f"              feasibility gap: {marginal_distance(result.plan, alpha, beta):.2e}")
