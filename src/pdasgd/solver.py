"""Primal-dual accelerated stochastic gradient descent with variance reduction.

Minimizes a finite-sum dual objective ``phi(lam) = (1/h) sum_i phi_i(lam)``
while averaging the associated primal iterates.  The oracle evaluates the
anchor ``lam_tilde`` once each time it is set, at init and after each reset,
as a snapshot: ``phi(lam_tilde)`` for the record's gap, the full gradient
``u = grad phi(lam_tilde)`` and every anchor component gradient
``grad phi_i(lam_tilde)``.  Each outer iteration s:

  * runs m inner steps of Katyusha-style momentum on the current snapshot

        lam   <- tau1_s z + tau2 lam_tilde + (1 - tau1_s - tau2) y
        g     <- u + (grad phi_i(lam) - grad phi_i(lam_tilde)) / (h p_i)
        z     <- z - multiplier * gamma_s * g / 2
        y     <- lam - g / (9 Lbar)

    with ``tau2 = 1/2``, ``tau1_s = 2/(s+4)``, ``gamma_s = 1/(9 tau1_s Lbar)``
    and component i drawn with probability ``p_i = L_i / (h Lbar)``,
  * resets ``lam_tilde`` to the mean of the m produced y iterates and takes
    its snapshot, and
  * picks one of the m inner ``lam`` values uniformly at random, maps it to
    the primal, and folds it into the running weighted average
    ``x_s = D / Ccoef`` with weight ``1 / tau1_s``.

An inner step thus computes one component gradient, at ``lam``; the anchor
term comes from the snapshot.

The ``multiplier`` scales only the z step; 1 is the plain method and the
benchmark profile uses 15.

Randomness: each run owns a SplitMix64 stream seeded from the options.  Per
outer iteration the draw order is (1) the uniform inner index whose ``lam``
feeds the primal average, then (2) one categorical component draw per inner
step.  The m component draws are made in one batch at the start of the
outer iteration, in that same stream order, so batching changes no index.
Two runs with equal seeds and options produce bitwise-identical iterates
and records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from .rng import CategoricalSampler, SplitMix64


class Snapshot(Protocol):
    """An oracle's evaluation at one anchor point lam_tilde.

    ``value`` is phi(lam_tilde), ``gradient`` is grad phi(lam_tilde), and
    ``anchor(i, out)`` writes grad phi_i(lam_tilde) into ``out``.
    """

    value: float
    gradient: np.ndarray

    def anchor(self, i: int, out: np.ndarray) -> np.ndarray: ...


class FiniteSumOracle(Protocol):
    """What the solver needs from a dual objective.

    ``component_count`` components over duals of size ``dual_dimension``;
    ``component_gradient(i, lam, out)`` writes grad phi_i(lam) into ``out``;
    ``snapshot(lam)`` returns the :class:`Snapshot` of lam;
    ``sampling_weights()`` returns a probability vector (or a Distribution)
    positive wherever L_i > 0; ``average_smoothness()`` returns Lbar;
    ``primal_map(lam)`` returns the primal point attached to lam, as a fresh
    array the solver may overwrite.  The
    telemetry hooks ``primal_objective(x)`` and ``constraint_violation_l1(x)``
    fill the run records.
    """

    component_count: int
    dual_dimension: int

    def component_gradient(self, i: int, lam: np.ndarray, out: np.ndarray) -> np.ndarray: ...

    def snapshot(self, lam: np.ndarray) -> Snapshot: ...

    def sampling_weights(self): ...

    def average_smoothness(self) -> float: ...

    def primal_map(self, lam: np.ndarray) -> np.ndarray: ...

    def primal_objective(self, x: np.ndarray) -> float: ...

    def constraint_violation_l1(self, x: np.ndarray) -> float: ...


class DivergenceError(RuntimeError):
    """An iterate became non-finite."""


TAU2 = 0.5


def tau1(s: int) -> float:
    """Momentum weight 2/(s+4) of the s-th outer iteration."""
    if s < 0:
        raise ValueError("outer index must be nonnegative")
    return 2.0 / (s + 4)


def gamma(s: int, avg_smoothness: float) -> float:
    """z step size 1/(9 tau1_s Lbar) = (s+4) / (18 Lbar)."""
    if avg_smoothness <= 0:
        raise ValueError("average smoothness must be positive")
    return (s + 4) / (18.0 * avg_smoothness)


@dataclass
class SolverOptions:
    inner_iterations: int
    outer_iterations: int
    seed: int = 0
    z_step_multiplier: float = 1.0
    checkpoint_stride: int = 1
    initial_dual: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.inner_iterations < 1:
            raise ValueError("inner_iterations must be >= 1")
        if self.outer_iterations < 1:
            raise ValueError("outer_iterations must be >= 1")
        if self.z_step_multiplier <= 0:
            raise ValueError("z_step_multiplier must be positive")
        if self.checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be >= 1")


@dataclass
class RunRecord:
    outer_index: int
    cumulative_component_gradients: int
    cumulative_full_gradients: int
    primal_objective: float
    constraint_violation_l1: float
    duality_gap: float


@dataclass
class SolverState:
    y: np.ndarray
    z: np.ndarray
    lambda_tilde: np.ndarray
    lambda_cur: np.ndarray
    snapshot: Snapshot  # of lambda_tilde
    D: np.ndarray  # weighted primal accumulator, shape of primal_map output
    Ccoef: float
    s: int
    rng: SplitMix64
    sampler: CategoricalSampler
    weights: np.ndarray
    avg_smoothness: float
    n_component_gradients: int = 0
    n_full_gradients: int = 0
    n_inner_steps: int = 0
    # scratch buffers for the allocation-free inner loop
    _grad_new: np.ndarray = None
    _grad_anchor: np.ndarray = None
    _vr_grad: np.ndarray = None
    _y_sum: np.ndarray = None
    _picked_lambda: np.ndarray = None
    _pick_index: int = -1

    def primal_average(self) -> np.ndarray:
        if self.Ccoef <= 0:
            raise RuntimeError("no primal iterate accumulated yet")
        return self.D / self.Ccoef


def _weights_array(w) -> np.ndarray:
    return np.ascontiguousarray(getattr(w, "weights", w), dtype=np.float64)


def init_state(oracle: FiniteSumOracle, options: SolverOptions) -> SolverState:
    """All-zero dual sequences unless an initial dual is supplied."""
    weights = _weights_array(oracle.sampling_weights())
    h = oracle.component_count
    if weights.size != h:
        raise ValueError("sampling weights must have one entry per component")
    d = oracle.dual_dimension
    if options.initial_dual is None:
        lam0 = np.zeros(d)
    else:
        lam0 = np.array(options.initial_dual, dtype=np.float64)
        if lam0.shape != (d,):
            raise ValueError(f"initial dual must have shape ({d},)")
    zeros = lambda: np.zeros(d)
    primal_shape = np.asarray(oracle.primal_map(lam0)).shape
    return SolverState(
        y=lam0.copy(),
        z=lam0.copy(),
        lambda_tilde=lam0.copy(),
        lambda_cur=lam0.copy(),
        snapshot=oracle.snapshot(lam0),
        D=np.zeros(primal_shape),
        Ccoef=0.0,
        s=0,
        rng=SplitMix64(options.seed),
        sampler=CategoricalSampler(weights),
        weights=weights,
        avg_smoothness=float(oracle.average_smoothness()),
        _grad_new=zeros(),
        _grad_anchor=zeros(),
        _vr_grad=zeros(),
        _y_sum=zeros(),
        _picked_lambda=lam0.copy(),
    )


def variance_reduced_gradient(
    oracle: FiniteSumOracle,
    i: int,
    lam: np.ndarray,
    snapshot: Snapshot,
    p_i: float,
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """u + (grad phi_i(lam) - grad phi_i(lam_tilde)) / (h p_i), into ``out``.

    ``u`` and grad phi_i(lam_tilde) are read from the snapshot of the anchor
    lam_tilde.  The p_i-weighted average of this estimator over all
    components equals grad phi(lam) exactly.
    """
    h = oracle.component_count
    oracle.component_gradient(i, lam, out)
    out -= snapshot.anchor(i, scratch)
    out /= h * p_i
    out += snapshot.gradient
    return out


def inner_step(state: SolverState, oracle: FiniteSumOracle, s: int, options: SolverOptions, i: int) -> None:
    """One momentum + variance-reduced update of (lambda, z, y) on component i.

    Computes and charges one component gradient, at lambda; the anchor's is
    read from the snapshot.
    """
    t1 = tau1(s)
    g_s = gamma(s, state.avg_smoothness)
    # lambda <- tau1 z + tau2 lambda_tilde + (1 - tau1 - tau2) y
    np.multiply(state.z, t1, out=state.lambda_cur)
    state.lambda_cur += TAU2 * state.lambda_tilde
    w_y = 1.0 - t1 - TAU2
    if w_y != 0.0:
        state.lambda_cur += w_y * state.y
    variance_reduced_gradient(
        oracle,
        i,
        state.lambda_cur,
        state.snapshot,
        state.weights[i],
        state._vr_grad,
        state._grad_anchor,
    )
    state.z -= (options.z_step_multiplier * g_s / 2.0) * state._vr_grad
    np.multiply(state._vr_grad, -1.0 / (9.0 * state.avg_smoothness), out=state.y)
    state.y += state.lambda_cur
    state.n_component_gradients += 1
    state.n_inner_steps += 1


def outer_iteration(state: SolverState, oracle: FiniteSumOracle, options: SolverOptions) -> None:
    """m inner steps, anchor reset and snapshot, and primal accumulation.

    The full gradient is charged here, to the outer iteration that uses the
    snapshot, which was taken when lambda_tilde was last set.
    """
    s = state.s
    m = options.inner_iterations
    h = oracle.component_count
    state.n_component_gradients += h
    state.n_full_gradients += 1
    # The primal average uses one uniformly chosen inner lambda; drawing the
    # index up front lets us keep a single snapshot instead of all m iterates.
    state._pick_index = state.rng.next_index(m)
    components = state.sampler.draws(state.rng, m).tolist()
    state._y_sum[:] = 0.0
    for j, i in enumerate(components):
        inner_step(state, oracle, s, options, i)
        state._y_sum += state.y
        if j == state._pick_index:
            state._picked_lambda[:] = state.lambda_cur
    np.multiply(state._y_sum, 1.0 / m, out=state.lambda_tilde)
    t1 = tau1(s)
    picked = oracle.primal_map(state._picked_lambda)
    picked /= t1
    state.D += picked
    state.Ccoef += 1.0 / t1
    state.s = s + 1
    for name, vec in (("lambda_tilde", state.lambda_tilde), ("z", state.z), ("y", state.y)):
        if not np.isfinite(vec).all():
            raise DivergenceError(
                f"non-finite {name} after outer iteration {state.s} "
                f"(max |z| = {np.abs(state.z).max():.3e})"
            )
    state.snapshot = oracle.snapshot(state.lambda_tilde)


@dataclass
class SolveResult:
    primal: np.ndarray
    dual: np.ndarray
    records: list
    stop_reason: Optional[str]
    state: SolverState


StoppingRule = Callable[[RunRecord, np.ndarray, np.ndarray], Optional[str]]


def make_record(state: SolverState, oracle: FiniteSumOracle) -> tuple[RunRecord, np.ndarray]:
    """Telemetry for the current averaged primal; returns (record, x_s)."""
    x_s = state.primal_average()
    f_val = float(oracle.primal_objective(x_s))
    violation = float(oracle.constraint_violation_l1(x_s))
    gap = f_val + float(state.snapshot.value)
    record = RunRecord(
        outer_index=state.s,
        cumulative_component_gradients=state.n_component_gradients,
        cumulative_full_gradients=state.n_full_gradients,
        primal_objective=f_val,
        constraint_violation_l1=violation,
        duality_gap=gap,
    )
    return record, x_s


def run(
    oracle: FiniteSumOracle,
    options: SolverOptions,
    stop: Optional[StoppingRule] = None,
) -> SolveResult:
    """Run outer iterations until the budget or the stopping rule fires.

    The stopping rule is evaluated on each checkpoint record (every
    ``checkpoint_stride`` outer iterations and at the end) together with the
    averaged primal and the current dual anchor; returning a string stops the
    run with that reason.  Deterministic given (seed, oracle, options).
    """
    state = init_state(oracle, options)
    records: list[RunRecord] = []
    stop_reason = None
    S = options.outer_iterations
    stride = options.checkpoint_stride
    for _ in range(S):
        outer_iteration(state, oracle, options)
        if state.s % stride == 0 or state.s == S:
            record, x_s = make_record(state, oracle)
            records.append(record)
            if stop is not None:
                stop_reason = stop(record, x_s, state.lambda_tilde)
                if stop_reason is not None:
                    break
    return SolveResult(
        primal=state.primal_average(),
        dual=state.lambda_tilde.copy(),
        records=records,
        stop_reason=stop_reason,
        state=state,
    )
