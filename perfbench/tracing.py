"""Span tracing of the traced run, recorded around calls into each layer.

Spans come from wrapping public calls of the program, never from code
inside it:

* ``SemiDualOracle`` methods, through a timing subclass bound into the
  ``pdasgd.approx`` namespace, where ``approx_ot`` builds its oracle;
* ``CategoricalSampler.draw``, through a subclass bound into the
  ``pdasgd.solver`` namespace, where the solver builds its sampler;
* the functions ``pdasgd.solver.inner_step``, ``pdasgd.approx.run``,
  ``pdasgd.approx.round_to_polytope``, ``pdasgd.approx.smooth_marginals``
  and ``pdasgd.baselines.sinkhorn``;
* the pipeline call itself and ``make_image_pair``, from the benchmark.

Hook points are looked up by name when the hooks are installed.  A missing
one (say, an oracle method renamed) is recorded with the reason; the
metrics that need it are reported as null with that reason, and the run
goes on.

Each span records its name, start, end, parent span and solve id, in
compact arrays kept in memory and written out once at the end.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (span name, module whose namespace is patched, attribute in it).  A dotted
# attribute names a method; all methods of one class share one subclass.
HOOKS = (
    ("semidual.full_gradient", "pdasgd.approx", "SemiDualOracle.full_gradient"),
    ("semidual.dual_value", "pdasgd.approx", "SemiDualOracle.dual_value"),
    ("semidual.primal_map", "pdasgd.approx", "SemiDualOracle.primal_map"),
    ("semidual.primal_objective", "pdasgd.approx", "SemiDualOracle.primal_objective"),
    ("semidual.constraint_violation_l1", "pdasgd.approx", "SemiDualOracle.constraint_violation_l1"),
    ("semidual.component_gradient", "pdasgd.approx", "SemiDualOracle.component_gradient"),
    ("rng.draw", "pdasgd.solver", "CategoricalSampler.draw"),
    ("solver.inner_step", "pdasgd.solver", "inner_step"),
    ("solver.run", "pdasgd.approx", "run"),
    ("rounding.round_to_polytope", "pdasgd.approx", "round_to_polytope"),
    ("approx.smooth_marginals", "pdasgd.approx", "smooth_marginals"),
    ("baselines.sinkhorn", "pdasgd.baselines", "sinkhorn"),
)


class Tracer:
    """Spans of one traced run, in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.solve_id = -1  # -1 outside any solve, e.g. during set-up
        self.missing: dict[str, str] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        nid = self._name_id(name)
        names, parents, solves, starts, ends, stack = (
            self.name, self.parent, self.solve, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            solves.append(self.solve_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    @contextmanager
    def hooks(self):
        """Install every hook of ``HOOKS`` that exists; restore on exit."""
        saved = []
        methods: dict[tuple, dict] = {}
        for span, module_name, attr in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                self.missing[span] = f"module {module_name} not importable: {exc}"
                continue
            owner, _, method = attr.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            fn = getattr(target, method, None)
            if target is None or not callable(fn):
                self.missing[span] = f"hook {module_name}.{attr} not found"
                continue
            if owner:
                methods.setdefault((module, owner, target), {})[method] = self.wrap(span, fn)
            else:
                saved.append((module, method, fn))
                setattr(module, method, self.wrap(span, fn))
        for (module, owner, cls), wrapped in methods.items():
            saved.append((module, owner, cls))
            setattr(module, owner, type(f"Traced{cls.__name__}", (cls,), wrapped))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def per_name(self, solves=None) -> dict:
        """name -> (count, inclusive seconds, self seconds) over the given solves."""
        if not self.start:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        solve = np.frombuffer(self.solve, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        keep = np.isin(solve, list(solves)) if solves is not None else np.ones(dur.size, bool)
        out = {}
        for nid, label in enumerate(self.names):
            sel = keep & (name == nid)
            out[label] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            solve=np.frombuffer(self.solve, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
