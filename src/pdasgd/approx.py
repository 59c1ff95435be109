"""End-to-end epsilon-approximation of optimal transport.

One pipeline serves every solver, the library call, the command line and
the benchmark harness: validate the inputs, derive the entropic penalty and
the marginal budget from the target accuracy, mix the marginals toward
uniform so both are strictly positive, run the chosen solver on the
smoothed problem, and round its plan back onto the polytope of the
*original* marginals.  The solvers are the stochastic semi-dual method
(``pdasgd``) and the Sinkhorn and Greenkhorn matrix-scaling baselines, so
comparisons between them differ only in the solver.

Stopping: the exact primal suboptimality is unobservable, so by default
the stochastic solver stops on the weak-duality surrogate
``f(x_s) + G(lambda_tilde)`` (an upper bound on ``f(x_s) - f*``) together
with the L1 marginal violation.  The rule is an AND whose violation half
is checked first, at every outer iteration; the surrogate, an n^2
``x ln x`` pass, is evaluated only where the violation passes, so the
pdasgd records carry it only there.  The ``"accuracy"`` rule never
evaluates it.  The fired criterion is recorded so
theory-versus-practice divergence stays visible.  A single run certifies
its own realized iterate, not an expectation over seeds; benchmarks report
per-seed spread instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import baselines
from .core import (
    CostMatrix,
    Distribution,
    OTInstance,
    TransportPlan,
    as_weights,
    marginal_residual,
    transport_cost,
)
from .rounding import RoundingReport, round_to_polytope
from .semidual import SemiDualOracle
from .solver import RunRecord, SolverOptions, is_count, run

PROFILES = ("theory", "benchmark")
METHODS = ("pdasgd", "sinkhorn", "greenkhorn")
STOP_RULES = ("certificate", "accuracy")
# The op_counts keys of each method's result.
OP_COUNTS = {
    "pdasgd": ("component_gradients", "inner_steps"),
    "sinkhorn": ("sweeps",),
    "greenkhorn": ("updates",),
}

STOP_CONVERGED = "gap+marginal"
STOP_ACCURACY = "accuracy-reached"
STOP_CAP = "iteration-cap"
STOP_TRIVIAL = "trivial"

# Safety factor on the theoretical iteration cap; the cap's hidden constant
# is unknown and a flagged (capped) run certifies nothing.  At 1, small
# instances run out of budget before the certificate holds.
DEFAULT_KAPPA = 8.0
# Floor of every method's default budget in dense passes: pdasgd's outer
# iterations, Sinkhorn's sweeps, or rounds of n Greenkhorn updates.  The
# asymptotic caps are far too small for small instances.
MIN_BUDGET = 10_000


def derive_parameters(epsilon: float, n: int, cost) -> Optional[tuple[float, float]]:
    """Entropic penalty and marginal budget for a target accuracy.

    Returns ``(eta, eps_prime) = (epsilon / (8 ln n), epsilon / (6 |C|_inf))``.
    When ``epsilon >= 48 |C|_inf`` (eps_prime >= 8, a zero cost included)
    every feasible plan costs at most |C|_inf <= epsilon / 48 more than the
    optimum, so that case returns None as a trivial-instance signal instead
    of raising.  Raises when |C|_inf / eta overflows or eps_prime underflows
    to 0: the solvers' kernels could not represent the instance.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n < 2:
        raise ValueError("parameter derivation requires n >= 2")
    max_cost = cost.max_abs if isinstance(cost, CostMatrix) else float(np.abs(np.asarray(cost)).max())
    eps_prime = epsilon / (6.0 * max_cost) if max_cost > 0 else math.inf
    if eps_prime >= 8.0:
        return None
    eta = epsilon / (8.0 * math.log(n))
    if not math.isfinite(max_cost / eta) or eps_prime == 0.0:
        raise ValueError(
            f"cost scale |C|_inf = {max_cost:.6g} is out of float range at epsilon = {epsilon:.6g}; rescale the cost"
        )
    return eta, eps_prime


def smooth_marginals(alpha, beta, eps_prime: float, n: int) -> tuple[Distribution, Distribution]:
    """Mix both marginals with uniform: (1 - eps'/8) b + (eps'/8n) 1.

    Every smoothed entry is at least eps'/(8n) > 0 and the total L1
    perturbation of the pair is at most eps'/2.
    """
    if not 0 < eps_prime < 8:
        raise ValueError("eps_prime must lie in (0, 8)")
    a = as_weights(alpha)
    b = as_weights(beta)
    lam = 1.0 - eps_prime / 8.0
    floor = eps_prime / (8.0 * n)
    return Distribution(lam * a + floor), Distribution(lam * b + floor)


def theoretical_iteration_cap(epsilon: float, n: int, max_cost: float, kappa: float = 1.0) -> int:
    """Total-iteration budget ceil(kappa * n |C|_inf sqrt(ln n) / epsilon).

    The hidden constant of the complexity bound is not pinned down anywhere,
    so ``kappa`` is configuration: 1 here gives the bare bound, and
    :class:`ApproxConfig` defaults to :data:`DEFAULT_KAPPA`.  The cap counts inner
    iterations; ``approx_ot`` divides it by the inner loop length m.
    Raises when the cap is not a finite float.
    """
    if epsilon <= 0 or n < 2 or max_cost <= 0:
        raise ValueError("cap requires epsilon > 0, n >= 2 and a positive max cost")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    cap = kappa * n * max_cost * math.sqrt(math.log(n)) / epsilon
    if not math.isfinite(cap):
        raise ValueError(f"the iteration cap overflows at |C|_inf = {max_cost:.6g}, epsilon = {epsilon:.6g}; set max_outer")
    return math.ceil(cap)


def resolve_profile(profile: str, n: int) -> tuple[int, float]:
    """(inner loop length m, z-step multiplier) for a named profile."""
    if profile == "theory":
        return n, 1.0
    if profile == "benchmark":
        return max(1, round(2.0 * math.sqrt(n))), 15.0
    raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")


@dataclass
class ApproxConfig:
    epsilon: float
    solver_profile: str = "benchmark"
    max_outer: Optional[int] = None
    seed: int = 0
    kappa: float = DEFAULT_KAPPA

    def __post_init__(self):
        # written so that NaN fails every check; epsilon = inf is a trivial instance
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.solver_profile not in PROFILES:
            raise ValueError(f"solver_profile must be one of {PROFILES}, got {self.solver_profile!r}")
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa!r}")
        if self.max_outer is not None and not is_count(self.max_outer):
            raise ValueError(f"max_outer must be None or an integer >= 1, got {self.max_outer!r}")


@dataclass
class ApproxResult:
    plan: TransportPlan
    ot_value: float
    records: list
    stop_reason: str
    eta: float
    eps_prime: float
    unrounded: np.ndarray
    rounding_report: Optional[RoundingReport]
    outer_iterations: int
    op_counts: dict

    @property
    def flagged(self) -> bool:
        return self.stop_reason == STOP_CAP


def _trivial_result(cost: CostMatrix, a: Distribution, b: Distribution, method: str) -> ApproxResult:
    plan = TransportPlan(np.outer(a.weights, b.weights))
    return ApproxResult(
        plan=plan,
        ot_value=transport_cost(plan, cost),
        records=[],
        stop_reason=STOP_TRIVIAL,
        eta=0.0,
        eps_prime=0.0,
        unrounded=plan.entries,
        rounding_report=None,
        outer_iterations=0,
        op_counts=dict.fromkeys(OP_COUNTS[method], 0),
    )


def _solve_pdasgd(cost, a_s, b_s, eta, eps_prime, config, reached):
    """Semi-dual solve; returns (raw plan, stop reason, fields of the result)."""
    n = cost.n
    oracle = SemiDualOracle(OTInstance(cost, a_s, b_s, eta))
    m, multiplier = resolve_profile(config.solver_profile, n)
    outer_cap = config.max_outer or max(
        MIN_BUDGET, math.ceil(theoretical_iteration_cap(config.epsilon, n, cost.max_abs, config.kappa) / m)
    )
    options = SolverOptions(
        inner_iterations=m,
        outer_iterations=outer_cap,
        seed=config.seed,
        z_step_multiplier=multiplier,
    )
    gap_budget = config.epsilon / 4.0
    violation_budget = eps_prime / 2.0

    def stop(record: RunRecord, marginals, gap) -> Optional[str]:
        if reached is not None:
            return reached(*marginals)
        # The violation half first: only then is the gap's n^2 pass paid.
        if record.constraint_violation_l1 <= violation_budget and gap() <= gap_budget:
            return STOP_CONVERGED
        return None

    result = run(oracle, options, stop=stop)
    state = result.state
    return result.primal, result.stop_reason, dict(
        records=result.records,
        outer_iterations=state.s,
        op_counts={
            "component_gradients": state.n_component_gradients,
            "inner_steps": state.n_inner_steps,
        },
    )


def _solve_scaling(method, cost, a_s, b_s, eta, eps_prime, config, reached):
    """Sinkhorn or Greenkhorn solve, same return shape as :func:`_solve_pdasgd`."""
    n = cost.n
    if config.max_outer is not None:
        max_iter = config.max_outer
    else:
        # Sweep/update budget in the solver's own step currency; the scaling
        # methods pay quadratically in |C|_inf / epsilon, hence the squared term.
        sweeps = max(MIN_BUDGET, math.ceil(config.kappa * math.log(n) * (cost.max_abs / config.epsilon) ** 2))
        max_iter = sweeps if method == "sinkhorn" else sweeps * n
    tol = eps_prime / 2.0 if reached is None else 0.0
    # Looked up on the module at call time, so wrappers installed there apply.
    runner = baselines.sinkhorn if method == "sinkhorn" else baselines.greenkhorn
    plan, info = runner(cost, a_s, b_s, eta, tol_marginal=tol, max_iter=max_iter, stop=reached)
    reason = STOP_CONVERGED if info["stop_reason"] == "marginal-tol" else info["stop_reason"]
    (key,) = OP_COUNTS[method]
    return plan.entries, reason, dict(
        records=[],
        outer_iterations=info["iterations"],
        op_counts={key: info["iterations"]},
    )


def approx_ot(cost, alpha, beta, config: ApproxConfig, method: str = "pdasgd", stop: str = "certificate") -> ApproxResult:
    """Feasible plan whose cost exceeds the optimum by at most epsilon.

    One pipeline for every solver: validate the inputs, derive (eta, eps'),
    smooth the marginals, solve with ``method`` (one of :data:`METHODS`),
    and round the unrounded plan, renormalized to mass 1, onto the polytope
    of the original marginals.  The returned plan is feasible for
    (alpha, beta) to 1e-10.

    ``stop`` picks the stopping rule:

    * ``"certificate"``: pdasgd stops when the marginal violation is at
      most eps'/2 and the duality gap at most epsilon/4; the scaling
      methods stop when their plan is within eps'/2 in L1 of the smoothed
      marginals.  Reason ``gap+marginal``.
    * ``"accuracy"``: every method stops at the first checkpoint where the
      unrounded plan is within epsilon in L1 of the *original* marginals.
      Reason ``accuracy-reached``.

    An instance with epsilon >= 48 |C|_inf is trivial (see
    :func:`derive_parameters`): the product plan is returned with reason
    ``trivial``.  If the budget runs out first, the last plan is still
    rounded and returned with ``stop_reason`` set to the cap.  The budget
    is max(10^4, ceil(cap / m)) outer iterations for pdasgd, with cap from
    :func:`theoretical_iteration_cap` and m the profile's inner loop length,
    max(10^4, ceil(kappa ln n |C|_inf^2 / epsilon^2)) Sinkhorn sweeps, and
    n times that in Greenkhorn updates.  So every method gets at least
    10^4 (:data:`MIN_BUDGET`) dense passes.  ``config.max_outer`` overrides
    all three.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if stop not in STOP_RULES:
        raise ValueError(f"unknown stop rule {stop!r}; expected one of {STOP_RULES}")
    c = cost if isinstance(cost, CostMatrix) else CostMatrix(cost)
    a = alpha if isinstance(alpha, Distribution) else Distribution(alpha)
    b = beta if isinstance(beta, Distribution) else Distribution(beta)
    n = c.n
    if a.n != n or b.n != n:
        raise ValueError(f"marginal sizes must match the cost matrix: cost {n}, rows {a.n}, cols {b.n}")
    params = derive_parameters(config.epsilon, n, c)
    if params is None:
        return _trivial_result(c, a, b, method)
    eta, eps_prime = params
    a_s, b_s = smooth_marginals(a, b, eps_prime, n)

    reached = None
    if stop == "accuracy":

        def reached(rows, cols) -> Optional[str]:
            return STOP_ACCURACY if marginal_residual(rows, cols, a.weights, b.weights) <= config.epsilon else None

    if method == "pdasgd":
        raw, reason, fields = _solve_pdasgd(c, a_s, b_s, eta, eps_prime, config, reached)
    else:
        raw, reason, fields = _solve_scaling(method, c, a_s, b_s, eta, eps_prime, config, reached)
    # Iterates carry total mass 1 only up to their marginal tolerance;
    # renormalize so the rounding mass gate applies uniformly.
    rounded, report = round_to_polytope(raw / raw.sum(), a, b)
    return ApproxResult(
        plan=rounded,
        ot_value=transport_cost(rounded, c),
        stop_reason=reason or STOP_CAP,
        eta=eta,
        eps_prime=eps_prime,
        unrounded=raw,
        rounding_report=report,
        **fields,
    )


def approx_ot_scaling(cost, alpha, beta, config: ApproxConfig, method: str = "sinkhorn") -> ApproxResult:
    """``approx_ot(cost, alpha, beta, config, method=method)`` under its older name."""
    return approx_ot(cost, alpha, beta, config, method=method)
