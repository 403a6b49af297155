"""Counters and spans around the public calls into each msid layer.

The probe patches module attributes and class methods of ``msid`` while it
is active and restores them on exit; nothing inside ``src/`` is edited.

Two modes share the same counting code:

* count mode (``spans=False``) wraps only the two boundaries that carry
  deterministic work counts: ``msid.objective.run_intervals`` (rollouts,
  lockstep steps, step x row products) and ``msid.solver.horizontal_step``
  (Hessian-vector products requested by projected CG);
* span mode (``spans=True``) additionally records a span for every call
  into the solver, objective, simulate, models, experiments and smoothness
  layers.  Each span keeps its name, start, end, parent span and the id of
  the top-level benchmark call it belongs to.  Spans stay in memory and are
  written out by ``save_spans`` when the run ends; self time (span time
  minus child span time) is accumulated per span name as spans close.
"""
from __future__ import annotations

import array
import contextlib
import dataclasses
import time
from collections import Counter, defaultdict

import numpy as np

import msid.experiments
import msid.objective
import msid.smoothness
import msid.solver
from msid.objective import EstimationProblem
from msid.solver import NlpProblem

# (owner, attribute, span name); run_intervals and horizontal_step carry the
# deterministic counters and are patched in both modes
_COUNTED = (
    (msid.objective, "run_intervals", "simulate.run_intervals"),
    (msid.solver, "horizontal_step", "solver.horizontal_step"),
)
_SPANNED = (
    (msid.solver, "solve", "solver.solve"),
    (msid.solver, "lagrange_multipliers", "solver.lagrange_multipliers"),
    (msid.solver, "vertical_step", "solver.vertical_step"),
    (NlpProblem, "jacobian", "solver.jacobian"),
    (EstimationProblem, "__init__", "objective.init"),
    (EstimationProblem, "default_point", "objective.default_point"),
    (EstimationProblem, "heuristic_seeds", "objective.heuristic_seeds"),
    (EstimationProblem, "heuristic_seeds_msa", "objective.heuristic_seeds_msa"),
    (EstimationProblem, "cost", "objective.cost"),
    (EstimationProblem, "gradient", "objective.gradient"),
    (EstimationProblem, "gn_hessian_vec", "objective.gn_hessian_vec"),
    (EstimationProblem, "lagrangian_hessian_vec", "objective.lagrangian_hessian_vec"),
    (EstimationProblem, "constraints", "objective.constraints"),
    (EstimationProblem, "constraint_jacobian", "objective.constraint_jacobian"),
    (EstimationProblem, "constraint_jac_t_vec", "objective.constraint_jac_t_vec"),
    (EstimationProblem, "cost_multiple", "objective.cost_multiple"),
    (msid.experiments, "grid_scan", "experiments.grid_scan"),
    (msid.smoothness, "smoothness_report", "smoothness.smoothness_report"),
)
# StateSpaceModel callables that get a span; init_state is only counted
_MODEL_SPANS = {
    "transition": "models.transition",
    "output": "models.output",
    "transition_jacobians": "models.transition_jacobians",
    "output_jacobians": "models.output_jacobians",
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Probe:
    """Counters, and optionally spans, for one benchmark pass."""

    def __init__(self, spans: bool):
        self.spans = spans
        self.counts = Counter()
        self.self_s = defaultdict(float)      # span name -> self time
        self.total_s = defaultdict(float)     # span name -> inclusive time
        self.calls = Counter()                # span name -> calls
        self.parent_calls = Counter()         # (span name, parent span name) -> calls
        self.layer_entries = Counter()        # layer -> calls entering it from outside
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_root = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack: list[list] = []          # [span id, name, child time, root id]
        self._active = False

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        """Wrap fn so each call records a span named ``name``."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        layer = _layer(name)
        stack = self._stack
        clock = time.perf_counter
        names, parents, roots = self.span_name, self.span_parent, self.span_root
        starts, ends = self.span_start, self.span_end

        def wrapped(*args, **kwargs):
            sid = len(names)
            if stack:
                parent = stack[-1]
                pid, pname, root = parent[0], parent[1], parent[3]
            else:
                pid, pname, root = -1, "", sid
            self.calls[name] += 1
            self.parent_calls[name, pname] += 1
            if _layer(pname) != layer:
                self.layer_entries[layer] += 1
            names.append(nid)
            parents.append(pid)
            roots.append(root)
            ends.append(0.0)
            frame = [sid, name, 0.0, root]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[sid] = t1
                dur = t1 - t0
                self.self_s[name] += dur - frame[2]
                self.total_s[name] += dur
                if stack:
                    stack[-1][2] += dur
        return wrapped

    def _count_rollouts(self, fn):
        counts = self.counts

        def run_intervals(*args, **kwargs):
            roll = fn(*args, **kwargs)
            rows, steps = roll.states.shape[:2]
            counts["simulate.rollouts"] += 1
            counts["simulate.rollouts_sens"] += roll.output_sens is not None
            counts["simulate.steps"] += steps
            counts["simulate.step_rows"] += steps * rows
            return roll
        return run_intervals

    def _count_hess_vec(self, fn):
        counts = self.counts

        def horizontal_step(grad, hess_op, *args, **kwargs):
            def counted_hess_op(p):
                counts["solver.hess_vec.calls"] += 1
                return hess_op(p)
            return fn(grad, counted_hess_op, *args, **kwargs)
        return horizontal_step

    def wrap_model(self, model):
        """A copy of a StateSpaceModel whose callables are probed."""
        if not self.spans:
            return model
        counts = self.counts
        init_state = model.init_state

        def counted_init_state(*args, **kwargs):
            if self._active:    # not the calls made while building problems
                counts["models.init_state.calls"] += 1
            return init_state(*args, **kwargs)

        fields = {attr: self._span(name, getattr(model, attr))
                  for attr, name in _MODEL_SPANS.items()}
        return dataclasses.replace(model, init_state=counted_init_state, **fields)

    def top(self, label, thunk):
        """Run one top-level benchmark call, as a root span in span mode."""
        if self.spans:
            return self._span("bench." + label, thunk)()
        return thunk()

    @contextlib.contextmanager
    def active(self):
        """Patch the msid boundaries for the duration of the block."""
        saved = []
        patches = [(owner, attr, wrap(getattr(owner, attr)))
                   for (owner, attr, _), wrap in zip(
                       _COUNTED, (self._count_rollouts, self._count_hess_vec))]
        if self.spans:
            patches = [(owner, attr, self._span(name, fn))
                       for (owner, attr, fn), (_, _, name) in zip(patches, _COUNTED)]
            patches += [(owner, attr, self._span(name, getattr(owner, attr)))
                        for owner, attr, name in _SPANNED]
        try:
            for owner, attr, fn in patches:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, fn)
            self._active = True
            yield self
        finally:
            self._active = False
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- reporting ---------------------------------------------------------

    def n_spans(self) -> int:
        return len(self.span_name)

    def save_spans(self, path):
        """Write every recorded span to ``path`` (a NumPy .npz archive)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            root=np.frombuffer(self.span_root, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
