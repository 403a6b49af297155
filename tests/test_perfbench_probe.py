"""The benchmark probe patches msid functions by name; check that every
name it patches still exists and that a solve still goes through them."""
import importlib.util
import inspect
import pathlib

import numpy as np
import pytest

import msid.objective
import msid.solver
from msid import (EstimationProblem, MultipleShooting, NlpProblem, ShootingPlan,
                  SolverOptions, as_nlp, gen_logistic)
from msid.models import LogisticMap, lower_to_state_space

PROBE_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def _load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_patch_points_resolve():
    probe = _load_probe()
    for owner, attr, _ in probe._COUNTED + probe._SPANNED:
        # the probe saves and restores owner.__dict__[attr]
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
        assert callable(vars(owner)[attr]), f"{owner.__name__}.{attr}"
    params = list(inspect.signature(msid.solver.horizontal_step).parameters)
    assert params[:2] == ["grad", "hess_op"]


def test_probe_sees_solver_calls():
    probe = _load_probe()
    nlp = NlpProblem(
        n=2, m=1,
        f=lambda x: float(x @ x),
        grad=lambda x: 2.0 * x,
        hess_vec=lambda x, lam, p: 2.0 * p,
        c=lambda x: np.array([x[0] + x[1] - 2.0]),
        jac=lambda x: np.array([[1.0, 1.0]]))
    p = probe.Probe(spans=True)
    with p.active():
        res = msid.solver.solve(nlp, np.array([3.0, -1.0]))
    assert res.converged
    for name in ("solver.solve", "solver.lagrange_multipliers",
                 "solver.vertical_step", "solver.horizontal_step",
                 "solver.jacobian"):
        assert p.calls[name] > 0, name
    assert p.counts["solver.hess_vec.calls"] > 0


def _rollout_kind(kwargs):
    if not kwargs.get("outputs", True):
        return "curvature-only"
    if kwargs.get("trajectory") is not None:
        return "phase-2-only"
    return "sensitivity" if kwargs["with_sens"] else "cost-only"


@pytest.mark.parametrize("spans", [False, True], ids=["counts", "spans"])
def test_probe_counts_every_kind_of_rollout(spans, monkeypatch):
    # the probe reads the shape of ``states`` and ``output_sens`` of every
    # rollout; each kind must keep both and count as one rollout
    probe = _load_probe()
    kinds, steps = [], []
    run_intervals = msid.objective.run_intervals

    def recorded(*args, **kwargs):
        roll = run_intervals(*args, **kwargs)
        kinds.append(_rollout_kind(kwargs))
        steps.append(roll.states.shape[1])
        return roll
    monkeypatch.setattr(msid.objective, "run_intervals", recorded)
    prob = EstimationProblem(lower_to_state_space(LogisticMap()), gen_logistic(n=40),
                             MultipleShooting(ShootingPlan.from_max_len(40, 2)))
    p = probe.Probe(spans=spans)
    with p.active():
        res = msid.solver.solve(as_nlp(prob), prob.default_point(np.array([3.5])),
                                SolverOptions(max_iter=8))
    assert res.iterations > 0
    assert {"cost-only", "phase-2-only", "curvature-only"} <= set(kinds)
    assert p.counts["simulate.rollouts"] == len(kinds)
    assert p.counts["simulate.steps"] == sum(steps)
    assert p.counts["simulate.rollouts_sens"] == sum(
        k in ("sensitivity", "phase-2-only") for k in kinds)
