"""The benchmark probe patches msid functions by name; check that every
name it patches still exists and that a solve still goes through them."""
import importlib.util
import inspect
import pathlib

import numpy as np

import msid.solver
from msid import NlpProblem

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
