"""End-to-end epsilon-approximation of optimal transport.

One pipeline serves every solver, the library call, the command line and
the benchmark harness: validate the inputs, derive the entropic penalty and
the marginal budget from the target accuracy, mix the marginals toward
uniform so both are strictly positive, run the chosen solver on the
smoothed problem, and round its plan back onto the polytope of the
*original* marginals.  The solvers are the stochastic semi-dual method
(``pdasgd``) and the Sinkhorn and Greenkhorn matrix-scaling baselines, so
comparisons between them differ only in the solver.

Stopping: the named rule is built once, one object for every solver
(:func:`~pdasgd.core.drive`).  The exact primal suboptimality is
unobservable, so the default certificate is the L1 marginal violation
and, for pdasgd, the weak-duality surrogate ``f(x_s) + G(lambda_tilde)``,
an upper bound on ``f(x_s) - f*``.  The surrogate, an n^2 ``x ln x``
pass, is evaluated only where the violation passes, so the pdasgd records
carry it only there.  A single run certifies its own realized iterate,
not an expectation over seeds; benchmarks report per-seed spread instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import baselines
from .core import (
    STOP_DIVERGED,
    CostMatrix,
    Distribution,
    OTInstance,
    StoppingRule,
    TransportPlan,
    as_weights,
    is_integer,
    marginal_residual,
    transport_cost,
)
from .rounding import RoundingReport, round_to_polytope
from .semidual import SemiDualOracle
from .solver import SolverOptions, run

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
FLAGGED = (STOP_CAP, STOP_DIVERGED)  # reasons of results that certify nothing

# Safety factor on the theoretical iteration cap; the cap's hidden constant
# is unknown and a flagged (capped) run certifies nothing.  At 1, small
# instances run out of budget before the certificate holds.
DEFAULT_KAPPA = 8.0
# Floor of every method's default budget in checkpoints: pdasgd's outer
# iterations, Sinkhorn's sweeps, or rounds of n Greenkhorn updates.  The
# asymptotic caps are far too small for small instances.
MIN_BUDGET = 10_000
# Inner steps per outer iteration of the benchmark profile; each averages b components.
BENCHMARK_STEPS = 4


def derive_parameters(epsilon: float, cost) -> Optional[tuple[float, float]]:
    """Entropic penalty and marginal budget for a target accuracy on an n x n cost.

    Returns ``(eta, eps_prime) = (epsilon / (8 ln n), epsilon / (6 |C|_inf))``.
    When ``epsilon >= 48 |C|_inf`` (eps_prime >= 8, a zero cost included)
    every feasible plan costs at most |C|_inf <= epsilon / 48 more than the
    optimum, so that case returns None as a trivial-instance signal instead
    of raising.  Raises when |C|_inf / eta overflows or eps_prime underflows
    to 0: the solvers' kernels could not represent the instance.  A raw
    ``cost`` is validated as a :class:`CostMatrix`, which rejects a
    non-finite or negative entry by name, and n is its side.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    cost = cost if isinstance(cost, CostMatrix) else CostMatrix(cost)
    if cost.n < 2:
        raise ValueError("parameter derivation requires n >= 2")
    max_cost = cost.max_abs
    eps_prime = epsilon / (6.0 * max_cost) if max_cost > 0 else math.inf
    if eps_prime >= 8.0:
        return None
    eta = epsilon / (8.0 * math.log(cost.n))
    if not math.isfinite(max_cost / eta) or eps_prime == 0.0:
        raise ValueError(
            f"cost scale |C|_inf = {max_cost:.6g} is out of float range at epsilon = {epsilon:.6g}; rescale the cost"
        )
    return eta, eps_prime


def smooth_marginals(alpha, beta, eps_prime: float) -> tuple[Distribution, Distribution]:
    """Mix both marginals with uniform: (1 - eps'/8) b + (eps'/8n) 1, n each marginal's own size.

    Every smoothed entry is at least eps'/(8n) > 0 and the total L1
    perturbation of the pair is at most eps'/2.
    """
    if not 0 < eps_prime < 8:
        raise ValueError("eps_prime must lie in (0, 8)")
    a = as_weights(alpha)
    b = as_weights(beta)
    lam = 1.0 - eps_prime / 8.0
    return Distribution(lam * a + eps_prime / (8.0 * a.size)), Distribution(lam * b + eps_prime / (8.0 * b.size))


def theoretical_iteration_cap(epsilon: float, n: int, max_cost: float, kappa: float = 1.0) -> int:
    """Total-iteration budget ceil(kappa * n |C|_inf sqrt(ln n) / epsilon).

    The hidden constant of the complexity bound is not pinned down anywhere,
    so ``kappa`` is configuration: 1 here gives the bare bound, and
    :class:`ApproxConfig` defaults to :data:`DEFAULT_KAPPA`.  The cap counts inner
    iterations; ``approx_ot`` divides it by the inner loop length m.
    Raises when the cap is not a finite float.
    """
    if not epsilon > 0 or n < 2 or not max_cost > 0:
        raise ValueError("cap requires epsilon > 0, n >= 2 and a positive max cost")
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa!r}")
    return _finite_cap(kappa * n * max_cost * math.sqrt(math.log(n)) / epsilon, max_cost, epsilon)


def _finite_cap(cap: float, max_cost: float, epsilon: float) -> int:
    if not math.isfinite(cap):
        raise ValueError(f"the iteration cap overflows at |C|_inf = {max_cost:.6g}, epsilon = {epsilon:.6g}; set max_outer")
    return math.ceil(cap)


def resolve_profile(profile: str, n: int) -> tuple[int, float, int]:
    """(inner loop length m, z-step multiplier, batch b) for a named profile.

    ``theory`` takes m = n single-component steps at multiplier 1, the
    paper's parameters.  ``benchmark`` takes :data:`BENCHMARK_STEPS` steps,
    each the mean of b = max(1, round(sqrt(n) / 2)) components, so m = 4b
    (2 sqrt(n) at every even image side); its multiplier 15b keeps the z
    step per component at 15 gamma_s.
    """
    if profile == "theory":
        return n, 1.0, 1
    if profile == "benchmark":
        b = max(1, round(math.sqrt(n) / 2.0))
        return BENCHMARK_STEPS * b, 15.0 * b, b
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
        if self.max_outer is not None and not is_integer(self.max_outer, least=1):
            raise ValueError(f"max_outer must be None or an integer >= 1, got {self.max_outer!r}")
        if not is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


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
        return self.stop_reason in FLAGGED


def _trivial_result(base: OTInstance, method: str) -> ApproxResult:
    plan = TransportPlan(np.outer(base.row_marginal.weights, base.col_marginal.weights))
    return ApproxResult(
        plan=plan,
        ot_value=transport_cost(plan, base.cost),
        records=[],
        stop_reason=STOP_TRIVIAL,
        eta=0.0,
        eps_prime=0.0,
        unrounded=plan.entries,
        rounding_report=None,
        outer_iterations=0,
        op_counts=dict.fromkeys(OP_COUNTS[method], 0),
    )


def stopping_rule(stop: str, a: np.ndarray, b: np.ndarray, epsilon: float, eps_prime: float) -> StoppingRule:
    """The named rule on the original marginals (a, b), one object for every method; see :func:`approx_ot`."""
    if stop == "accuracy":
        return lambda point: STOP_ACCURACY if marginal_residual(point.rows, point.cols, a, b) <= epsilon else None

    def certificate(point) -> Optional[str]:
        # The violation half first: only then is the gap's n^2 pass paid.
        if point.violation <= eps_prime / 2.0 and (point.gap is None or point.gap() <= epsilon / 4.0):
            return STOP_CONVERGED
        return None

    return certificate


def _budget(config: ApproxConfig, instance: OTInstance, m: Optional[int] = None) -> int:
    """``config.max_outer`` checkpoints, else max(MIN_BUDGET, ceil(cap)): pdasgd's cap over its ``m``, or the scaling cap."""
    if config.max_outer:
        return config.max_outer
    n, max_cost, epsilon = instance.n, instance.cost.max_abs, config.epsilon
    if m:
        return max(MIN_BUDGET, math.ceil(theoretical_iteration_cap(epsilon, n, max_cost, config.kappa) / m))
    ratio = max_cost / epsilon  # the scaling methods pay quadratically in it
    return max(MIN_BUDGET, _finite_cap(config.kappa * math.log(n) * (ratio * ratio), max_cost, epsilon))


def approx_ot(cost, alpha, beta, config: ApproxConfig, method: str = "pdasgd", stop: str = "certificate") -> ApproxResult:
    """Feasible plan whose cost exceeds the optimum by at most epsilon.

    One pipeline for every solver: validate the inputs, derive (eta, eps'),
    smooth the marginals, solve with ``method`` (one of :data:`METHODS`),
    and round the unrounded plan, renormalized to mass 1, onto the polytope
    of the original marginals.  The returned plan is feasible for
    (alpha, beta) to 1e-10.

    ``stop`` names the rule, one object for every method:

    * ``"certificate"``: the plan is within eps'/2 in L1 of the smoothed
      marginals and, for pdasgd, the duality gap is at most epsilon/4.
      Reason ``gap+marginal``.
    * ``"accuracy"``: the unrounded plan is within epsilon in L1 of the
      *original* marginals.  Reason ``accuracy-reached``.

    An instance with epsilon >= 48 |C|_inf is trivial (see
    :func:`derive_parameters`): the product plan is returned with reason
    ``trivial``.  Otherwise the solver's stop reason
    (:func:`~pdasgd.core.drive`) is passed through, the budget's None as
    ``iteration-cap``; a capped or diverged run's last plan, or the
    independent coupling if pdasgd has none, is still rounded, and the
    result is ``flagged``.  The budget is max(10^4, ceil(cap / m)) outer
    iterations for pdasgd, with cap from :func:`theoretical_iteration_cap`
    and m the profile's inner loop length, and max(10^4, ceil(kappa ln n
    |C|_inf^2 / epsilon^2)) Sinkhorn sweeps or rounds of n Greenkhorn
    updates.  So every method gets at least 10^4 (:data:`MIN_BUDGET`)
    checkpoints, and ``config.max_outer`` overrides that count for all three.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if stop not in STOP_RULES:
        raise ValueError(f"unknown stop rule {stop!r}; expected one of {STOP_RULES}")
    base = OTInstance.of(cost, alpha, beta)
    params = derive_parameters(config.epsilon, base.cost)
    if params is None:
        return _trivial_result(base, method)
    eta, eps_prime = params
    a, b = base.row_marginal, base.col_marginal
    instance = OTInstance(base.cost, *smooth_marginals(a, b, eps_prime), eta)

    rule = stopping_rule(stop, a.weights, b.weights, config.epsilon, eps_prime)
    # The solvers and the oracle are looked up on their modules at call time, so wrappers installed there apply.
    if method == "pdasgd":
        m, multiplier, batch = resolve_profile(config.solver_profile, instance.n)
        budget = _budget(config, instance, m)
        options = SolverOptions(m, budget, seed=config.seed, z_step_multiplier=multiplier, batch=batch)
        result = run(SemiDualOracle(instance), options, rule)
    else:
        runner = baselines.sinkhorn if method == "sinkhorn" else baselines.greenkhorn
        result = runner(instance, _budget(config, instance), rule)
    raw = np.outer(instance.row_marginal.weights, instance.col_marginal.weights) if result.plan is None else result.plan
    # Iterates carry total mass 1 only up to their marginal tolerance;
    # renormalize so the rounding mass gate applies uniformly.
    rounded, report = round_to_polytope(raw / raw.sum(), a, b)
    return ApproxResult(
        plan=rounded,
        ot_value=transport_cost(rounded, base.cost),
        records=result.records,
        stop_reason=result.stop_reason or STOP_CAP,
        eta=eta,
        eps_prime=eps_prime,
        unrounded=raw,
        rounding_report=report,
        outer_iterations=result.iterations,
        op_counts=result.op_counts,
    )


def approx_ot_scaling(cost, alpha, beta, config: ApproxConfig, method: str = "sinkhorn") -> ApproxResult:
    """``approx_ot(cost, alpha, beta, config, method=method)`` under its older name."""
    return approx_ot(cost, alpha, beta, config, method=method)
