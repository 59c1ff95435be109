"""A tour of the semi-dual oracle: values, gradients, and the primal map.

Eliminating one dual block of the entropic transport dual leaves a smooth
convex finite sum G(v) = (1/n) sum_i g_i(v) whose gradient is exactly the
column-marginal residual of the recovered primal plan.  The solver reads
all three through a workspace, whose kernel is built at the point it is
given: one snapshot of v gives G(v) and its gradient, and a weighted
snapshot adds the plan x(v) to a running average.
"""

import numpy as np

from pdasgd.core import CostMatrix, Distribution, OTInstance
from pdasgd.semidual import SemiDualOracle

rng = np.random.default_rng(3)
n = 5
inst = OTInstance(
    CostMatrix(rng.random((n, n))),
    Distribution(rng.dirichlet(np.ones(n) * 5)),
    Distribution(rng.dirichlet(np.ones(n) * 5)),
    eta=0.2,
)
oracle = SemiDualOracle(inst)
v = rng.normal(size=n)
workspace = oracle.workspace(v)
snapshot = workspace.snapshot(v)

print(f"G(v)                = {snapshot.value:.8f}")
print(f"mean of components  = {np.mean([oracle.component_value(i, v) for i in range(n)]):.8f}")
print(f"G(v + 3)            = {workspace.snapshot(v + 3.0).value:.8f}   (translation invariant)")

# a snapshot of weight 1 adds x(v) to the workspace's (so far empty) average,
# and the primal map's rows always match the row marginal exactly
workspace.snapshot(v, 1.0)
x = workspace.average()
print(f"\nmax |row_sums(x(v)) - alpha| = {np.abs(x.sum(axis=1) - oracle.alpha).max():.2e}")

# ... and the gradient of G is the column residual
grad = snapshot.gradient
print(f"max |grad G - (col_sums - beta)| = {np.abs(grad - (x.sum(axis=0) - oracle.beta)).max():.2e}")

# sanity: central finite differences of snapshot values agree
step = 1e-6
fd = np.array([
    (workspace.snapshot(v + step * e).value - workspace.snapshot(v - step * e).value) / (2 * step)
    for e in np.eye(n)
])
print(f"max |grad G - finite differences| = {np.abs(grad - fd).max():.2e}")

# component i is L_i-smooth with L_i = n alpha_i / eta; the solver samples
# components with probability L_i / (n Lbar) and steps with Lbar = 1/eta
weights = oracle.sampling_weights().weights
average = oracle.average_smoothness()
print(f"\nper-component smoothness n*alpha_i/eta = {np.round(n * average * weights, 3)}")
print(f"average smoothness 1/eta = {average:.3f}")
print(f"component sampling weights (= alpha): {np.round(weights, 3)}")
