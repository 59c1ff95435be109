"""Primal-dual accelerated stochastic gradient descent with variance reduction.

Minimizes a finite-sum dual objective ``phi(lam) = (1/h) sum_i phi_i(lam)``
while averaging the associated primal iterates.  Each run owns a workspace
from ``oracle.workspace(lam0)``, which keeps the run's dense state: it
evaluates the anchor ``lam_tilde`` once each time it is set, at init and
after each reset, as a snapshot (the full gradient ``u = grad
phi(lam_tilde)``, the step rows below, and ``phi(lam_tilde)`` once a
record's gap reads it),
and it keeps the weighted average of primal maps, its total weight and its
row and column sums with their violation.  Each outer iteration s:

  * reads its m components, its step matrix, tau1_s and the weight of y
    from the schedule of its draw batch, and has the snapshot write the
    components' rows per chunk,
  * runs m / b inner steps of Katyusha-style momentum on the current
    snapshot, each on a mini-batch B of b = ``options.batch`` components

        lam   <- tau1_s z + tau2 lam_tilde + (1 - tau1_s - tau2) y
        g     <- u + mean_{i in B} (grad phi_i(lam) - grad phi_i(lam_tilde)) / (h p_i)
        z     <- z - multiplier * gamma_s * g / 2
        y     <- lam - g / (9 Lbar)

    with ``tau2 = 1/2``, ``tau1_s = 2/(s+4)``, ``gamma_s = 1/(9 tau1_s Lbar)``
    and each component i drawn with probability ``p_i = L_i / (h Lbar)``,
  * resets ``lam_tilde`` to the mean of the m / b produced y iterates, and
  * takes the snapshot of the new ``lam_tilde`` with weight ``1 / tau1_s``,
    which adds its primal map with that weight to the average x_s.

x_s averages maps at the anchors, not at uniformly picked inner ``lam``
values: the stop rule certifies it a posteriori, and the paper's a-priori
bound is not claimed for it.  A checkpoint reads only x_s's sums and
their violation; x_s itself is built where the certificate needs it and for
the result.  The semi-dual workspace keeps a re-based kernel, so its
snapshots are matrix-vector products and the average costs O(n) each
(see :mod:`pdasgd.semidual`).

The inner steps run these lines in an equal, cheaper form.  With ``p =
tau1_s z + tau2 lam_tilde`` in place of z, lam and a step's pre-activation
``t = Lbar lam + a'`` are linear in y and p, for a' the snapshot's
lam-free row of the step.  The oracle's importance gradient at t is
the mean over the step's b components of ``grad phi_i(lam) / (h p_i)``,
plus a lam-free vector, and the snapshot's correction is u minus it at
lam_tilde, so g is their sum.  A step owns a block ``[y, p, t, h, c,
a']`` of a buffer of a leading block and up to :data:`CHUNK_STEPS` step
blocks, with c its correction and a' the next step's row, both written
by the snapshot (the first a' into the leading block; the last is 0, so
the next chunk adds its own), and b rows of one contiguous (b * steps,
d) buffer, which the snapshot writes and the oracle's step reads with
t.  The views each chunk reads and writes, the snapshot's targets, the
y rows it sums and the block that starts the next chunk, are built once
per run.  The oracle runs a chunk's steps in one loop call (``steps``):
per step it writes h, then calls the solver's ``product(block, after)``,
one ``dot`` by the outer iteration's 3 x 6 step matrix that writes the
next block's y, p and t.  So a step costs the oracle's few numpy calls
and one product, with no Python frame of its own.  How the rows and h
are computed is the oracle's choice (see :mod:`pdasgd.semidual`).

The ``multiplier`` scales only the z step; 1 is the plain method, and the
benchmark profile uses 15 b, the same z step per component as 15 single
steps.

Randomness: each run owns a SplitMix64 stream seeded from the options,
used only for the categorical component draws, b per inner step, made in
step order in batches of whole outer iterations within the budget, so
batching changes no index.  Each batch of k outer iterations is drawn as a
(k, m) array, one row per outer iteration, and its schedule, the k step
matrices with their tau1_s and ``1 - tau1_s - tau2``, is computed with it
in one vectorised pass (:func:`step_matrices`) of the same IEEE operations
on the same scalars as one outer index at a time.  Two runs with equal
seeds and options produce bitwise-identical iterates and records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional, Protocol

import numpy as np

from .core import Checkpoint, Distribution, SolveResult, StoppingRule, as_weights, drive, is_integer
from .rng import CategoricalSampler, SplitMix64


class Snapshot(Protocol):
    """An oracle's evaluation at one anchor point lam_tilde.

    ``value`` is phi(lam_tilde), ``gradient`` is u = grad phi(lam_tilde),
    and ``rows(indices, anchors, rows, corrections)`` writes the rows of
    one chunk of steps, step j on the j-th run of b = len(indices) /
    len(corrections) consecutive components: row j of ``anchors`` as the
    step's a', from which ``steps`` reads its gradient at lam as ``t = a' +
    Lbar lam``, rows jb to jb + b - 1 of ``rows``, a contiguous
    (len(indices), d) buffer, as the rows that ``steps`` reads with t, and
    row j of ``corrections`` as u minus the step's gradient at lam_tilde.
    All four are caller-owned.  ``value`` may be computed on first read.
    """

    value: float
    gradient: np.ndarray

    def rows(self, indices: np.ndarray, anchors: np.ndarray, rows: np.ndarray, corrections: np.ndarray) -> None: ...


class Workspace(Protocol):
    """One run's dense state over an oracle, owned by the solver.

    ``snapshot(lam, weight)`` returns the :class:`Snapshot` of lam, whose
    rows the inner steps read, and adds weight times the primal
    point attached to lam to a running weighted average and weight to its
    total ``weight``; ``marginals()`` returns the average's row and column
    sums, arrays the caller must not write, and their L1 distance to the
    oracle's marginals; ``average()`` returns the average as a fresh array, leaves it unchanged
    and raises while nothing has been accumulated.
    """

    weight: float

    def snapshot(self, lam: np.ndarray, weight: float = 0.0) -> Snapshot: ...

    def marginals(self) -> tuple[np.ndarray, np.ndarray, float]: ...

    def average(self) -> np.ndarray: ...


class FiniteSumOracle(Protocol):
    """What the solver needs from a dual objective.

    h components, one per entry of ``sampling_weights()``, over duals of
    size ``dual_dimension``.  ``steps(steps, product)`` runs one chunk of
    inner steps in order: each of ``steps`` is a tuple of views ``(t, h,
    block, after, rows)``, and for each the oracle writes into h the mean
    of grad phi_i(lam) / (h p_i) over the step's b components, plus any
    lam-free vector, from ``t = a' + Lbar lam`` and the components'
    snapshot ``rows``, and then calls ``product(block, after)``, which
    writes the next step's t, so a step's t is read only after the step
    before it has run.  ``workspace(lam)`` returns a fresh
    :class:`Workspace` for one run that starts at lam, which takes the
    snapshots and keeps the primal sum; ``sampling_weights()`` returns a
    probability vector (or a Distribution) positive wherever L_i > 0,
    which :func:`init_state` validates once as a
    :class:`~pdasgd.core.Distribution`; ``average_smoothness()`` returns
    Lbar; ``primal_objective(x)`` fills the records of certified
    checkpoints.
    """

    dual_dimension: int

    def steps(self, steps: list, product: Callable) -> None: ...

    def workspace(self, lam: np.ndarray) -> Workspace: ...

    def sampling_weights(self): ...

    def average_smoothness(self) -> float: ...

    def primal_objective(self, x: np.ndarray) -> float: ...


TAU2 = 0.5
Y, P, T, H, C, A = range(6)  # the rows of one step's block in SolverState.blocks
CHUNK_STEPS = 64  # step blocks in the buffer: longer inner loops run in chunks, in O(64 d) memory
DRAW_BATCH = 4096  # at most this many component draws at once, or one outer iteration's m


def tau1(s):
    """Momentum weight 2/(s+4) of the s-th outer iteration, or of each in an array of indices."""
    if np.min(s) < 0:
        raise ValueError("outer index must be nonnegative")
    return 2.0 / (s + 4)


def gamma(s, avg_smoothness: float):
    """z step size 1/(9 tau1_s Lbar) = (s+4) / (18 Lbar), of one outer index or of each in an array."""
    if avg_smoothness <= 0:
        raise ValueError("average smoothness must be positive")
    return (s + 4) / (18.0 * avg_smoothness)


@dataclass
class SolverOptions:
    inner_iterations: int
    outer_iterations: int
    seed: int = 0
    z_step_multiplier: float = 1.0
    initial_dual: Optional[np.ndarray] = None
    batch: int = 1  # components averaged per inner step

    def __post_init__(self):
        for name in ("inner_iterations", "outer_iterations"):
            value = getattr(self, name)
            if not is_integer(value, least=1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not (is_integer(self.batch, least=1) and self.inner_iterations % self.batch == 0):
            raise ValueError(
                f"batch must be an integer >= 1 that divides inner_iterations = {self.inner_iterations}, got {self.batch!r}"
            )
        if not is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        # written so that NaN fails it
        if not 0 < self.z_step_multiplier < math.inf:
            raise ValueError(f"z_step_multiplier must be positive and finite, got {self.z_step_multiplier!r}")
        if self.initial_dual is not None and not np.isfinite(self.initial_dual).all():
            raise ValueError("initial_dual must be finite, got non-finite entries")


@dataclass
class RunRecord:
    """Telemetry of one checkpoint, the averaged primal x_s of one outer iteration.

    ``primal_objective`` is f(x_s) and ``duality_gap`` is f(x_s) +
    phi(lambda_tilde); both are None unless the checkpoint's certificate was
    evaluated (see :func:`run`).
    """

    outer_index: int
    cumulative_component_gradients: int
    primal_objective: Optional[float]
    constraint_violation_l1: float
    duality_gap: Optional[float]


@dataclass
class SolverState:
    lambda_tilde: np.ndarray  # a fresh array at each reset: its snapshot keeps it
    z: np.ndarray
    blocks: np.ndarray  # (min(m/b, CHUNK_STEPS) + 2, 6, d): a leading block, then steps; block 1 keeps y
    workspace: Workspace  # holds the weighted primal average x_s
    snapshot: Snapshot  # of lambda_tilde
    s: int
    rng: SplitMix64
    sampler: CategoricalSampler
    avg_smoothness: float
    _steps: list = None  # per step: views of its t, its h, its block, the next block's y, p and t, and its b rows
    _chunks: list = None  # per chunk of an outer iteration: its draws' bounds, its step count and its views
    _first: tuple = None  # block 1's y, p, t and rows y to t, and block 0's a'
    _mean: float = None  # 1 / (m / b), the weight of a y iterate in lambda_tilde
    _schedule: Iterator = None  # per outer iteration of the draw batch: its components, step matrix, tau1 and w_y
    y = property(lambda self: self.blocks[1, Y])


def step_matrices(s: np.ndarray, avg_smoothness: float, multiplier: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (len(s), 3, 6) maps of a block to the next block's y, p and t, one per outer index in s, with tau1 and w_y.

    ``w_y = 1 - tau1 - tau2`` is the weight of y in lambda; each entry is
    the same IEEE operations on the same scalars whatever s holds.
    """
    t1 = tau1(s)
    w_y = 1.0 - t1 - TAU2
    y_coef = -1.0 / (9.0 * avg_smoothness)
    p_coef = -(t1 * (multiplier * gamma(s, avg_smoothness) / 2.0))
    t_coef = avg_smoothness * (p_coef + w_y * y_coef)
    zero, one, y_col = np.zeros_like(t1), np.ones_like(t1), np.full_like(t1, y_coef)
    columns = (  # row by row
        w_y, one, zero, y_col, y_col, zero,  # y = lambda - g / (9 Lbar)
        zero, one, zero, p_coef, p_coef, zero,  # p += p_coef g, the z step as it moves p
        avg_smoothness * (w_y * w_y), avg_smoothness * (1.0 + w_y), zero, t_coef, t_coef, one,  # Lbar lambda + a'
    )
    return np.stack(columns, axis=-1).reshape(len(t1), 3, 6), t1, w_y


def init_state(oracle: FiniteSumOracle, options: SolverOptions) -> SolverState:
    """All-zero dual sequences unless an initial dual is supplied."""
    weights = Distribution(as_weights(oracle.sampling_weights()))
    d = oracle.dual_dimension
    if options.initial_dual is None:
        lam0 = np.zeros(d)
    else:
        lam0 = np.array(options.initial_dual, dtype=np.float64)
        if lam0.shape != (d,):
            raise ValueError(f"initial dual must have shape ({d},)")
    b = options.batch
    steps_per_outer = options.inner_iterations // b
    chunk = min(steps_per_outer, CHUNK_STEPS)
    blocks = np.zeros((chunk + 2, 6, d))
    blocks[1, Y] = lam0
    workspace = oracle.workspace(lam0)
    rows = np.empty((chunk * b, d))
    steps = [
        (block[T], block[H], block, after[:H], batch)
        for block, after, batch in zip(blocks[1:], blocks[2:], rows.reshape(chunk, b, d))
    ]
    chunks = []
    for start in range(0, steps_per_outer, chunk):
        k = min(chunk, steps_per_outer - start)
        # step j's a' lands in the block before its own, which forms its t; the
        # a' after the last step is 0, so the next chunk adds its own first a'
        chunks.append((
            start * b, (start + k) * b, k, blocks[:k, A], blocks[1:k + 1, C],
            rows[:k * b], blocks[k, A], blocks[2:k + 2, Y], blocks[k + 1, :H],
        ))
    return SolverState(
        lambda_tilde=lam0,
        z=lam0.copy(),
        blocks=blocks,
        workspace=workspace,
        snapshot=workspace.snapshot(lam0),
        s=0,
        rng=SplitMix64(options.seed),
        sampler=CategoricalSampler(weights),
        avg_smoothness=float(oracle.average_smoothness()),
        _steps=steps,
        _chunks=chunks,
        _first=(blocks[1, Y], blocks[1, P], blocks[1, T], blocks[1, :H], blocks[0, A]),
        _mean=1.0 / steps_per_outer,
        _schedule=iter(()),
    )


def inner_step(state: SolverState, oracle: FiniteSumOracle, update: np.ndarray, steps: int) -> None:
    """``steps`` momentum + variance-reduced updates, one chunk, from the state's block 1, in one oracle call.

    Each block's t, c and a' and each step's rows are set on entry; step k
    writes its h, the mean of its b components' importance gradients, and
    then block k+1's y, p and t through ``update.dot``.  :func:`run`
    charges the work.
    """
    oracle.steps(state._steps[:steps], update.dot)  # the bound method skips np.dot's dispatcher


def outer_iteration(state: SolverState, oracle: FiniteSumOracle, options: SolverOptions) -> bool:
    """m / b inner steps, anchor reset, and the snapshot that adds to the primal average.

    Returns False, before the workspace sees the iterate, when lambda_tilde
    (whose sum holds y) or z is non-finite, and True otherwise.
    """
    step = next(state._schedule, None)
    if step is None:  # a new draw batch of whole outer iterations within the budget, and their schedule
        s, m = state.s, options.inner_iterations
        outers = max(1, min(DRAW_BATCH // m, options.outer_iterations - s))
        components = state.sampler.draws(state.rng, outers * m).reshape(outers, m)
        updates, t1, w_y = step_matrices(np.arange(s, s + outers), state.avg_smoothness, options.z_step_multiplier)
        state._schedule = zip(components, updates, t1.tolist(), w_y.tolist())
        step = next(state._schedule)
    components, update, t1, w_y = step
    y, p, t, first, lead = state._first
    snapshot, tau2_anchor = state.snapshot, TAU2 * state.lambda_tilde
    y_sum = None
    np.add(t1 * state.z, tau2_anchor, out=p)
    # a diverging drift can overflow or divide by zero in the oracle's steps;
    # the inf or NaN left fails the finite check
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # t = Lbar lambda + a'_i, where the chunk that runs the step adds a'_i
        np.multiply(p + w_y * y, state.avg_smoothness, out=t)
        for lo, hi, steps, anchors, corrections, rows, tail, ys, last in state._chunks:
            snapshot.rows(components[lo:hi], anchors, rows, corrections)
            tail.fill(0.0)
            t += lead
            inner_step(state, oracle, update, steps)
            if y_sum is None:
                y_sum = np.add.reduce(ys, 0)
            else:
                y_sum += np.add.reduce(ys, 0)
            first[...] = last  # the last y, p and t start the next chunk
        np.divide(p - tau2_anchor, t1, out=state.z)
        y_sum *= state._mean
    state.lambda_tilde, state.s = y_sum, state.s + 1
    if not (np.logical_and.reduce(np.isfinite(y_sum)) and np.logical_and.reduce(np.isfinite(state.z))):
        return False
    state.snapshot = state.workspace.snapshot(state.lambda_tilde, 1.0 / t1)
    return True


def certify(record: RunRecord, state: SolverState, oracle: FiniteSumOracle) -> float:
    """The duality gap f(x_s) + phi(lambda_tilde) of the state's current record, evaluated once.

    The first call builds x_s and writes f(x_s) and the gap, with
    phi(lambda_tilde) read from the current snapshot, into the record;
    later calls return the recorded gap.  A first call after the state has
    moved past the record's outer iteration raises, since x_s and
    lambda_tilde are then another iteration's.
    """
    if record.duality_gap is None:
        if record.outer_index != state.s:
            raise RuntimeError(
                f"cannot certify the record of outer iteration {record.outer_index} "
                f"at outer iteration {state.s}"
            )
        record.primal_objective = float(oracle.primal_objective(state.workspace.average()))
        record.duality_gap = record.primal_objective + float(state.snapshot.value)
    return record.duality_gap


def run(oracle: FiniteSumOracle, options: SolverOptions, stop: StoppingRule) -> SolveResult:
    """Outer iterations, one checkpoint each, to the budget ``options.outer_iterations`` under :func:`~pdasgd.core.drive`.

    A finite outer iteration appends its record, and its checkpoint carries
    x_s's sums and violation and a ``gap`` that builds x_s and evaluates
    the duality gap (:func:`certify`, n^2 passes) on its first call, which
    must come before the next outer iteration; a record carries
    ``primal_objective`` and ``duality_gap`` only then.  A non-finite
    iterate's checkpoint has a NaN violation and no record.  The result's
    ``plan`` is x_s of the last finite outer iteration, or None if there is
    none, and its ``dual`` is lambda_tilde.  ``op_counts`` charges each
    outer iteration h + m component gradients and m / b inner steps.  The
    state, with the workspace's n^2 kernel, is freed on return.
    Deterministic given (seed, oracle, options).
    """
    state = init_state(oracle, options)
    m = options.inner_iterations
    per_outer = state.sampler.n + m  # a snapshot's h components and the m steps' components
    records: list[RunRecord] = []

    def checkpoints():
        while outer_iteration(state, oracle, options):
            # x_s's sums come from the workspace without building x_s; certify adds f(x_s) and the gap
            rows, cols, violation = state.workspace.marginals()
            records.append(RunRecord(state.s, state.s * per_outer, None, violation, None))
            yield Checkpoint(state.s, rows, cols, violation, partial(certify, records[-1], state, oracle))
        yield Checkpoint(state.s, None, None, math.nan)  # lambda_tilde or z is not finite

    stop_reason, _ = drive(checkpoints(), options.outer_iterations, stop)
    plan = state.workspace.average() if state.workspace.weight > 0 else None
    op_counts = {"component_gradients": state.s * per_outer, "inner_steps": state.s * (m // options.batch)}
    return SolveResult(plan, state.lambda_tilde.copy(), stop_reason, state.s, op_counts, records)
