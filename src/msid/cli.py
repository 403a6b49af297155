"""Config-driven command-line front end.

``msid run --config cfg.json`` executes one of four commands (simulate,
estimate, smoothness, study) described by a JSON config, writing result
records, optional solver traces, and a manifest into the output
directory.  ``msid validate`` checks a config without computing.

Exit codes: 0 success, 2 missing file, 3 schema violation (message
names the offending field path), 4 solver did not converge (status
``max-iter``) or could not evaluate its start (status ``non-finite``).
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from .dataset import Dataset
from .models import (LogisticMap, Pendulum, farina_polynomial, linear_arx,
                     linear_oe_2nd, lower_to_state_space)
from .objective import (EstimationProblem, MsaPem, MultipleShooting,
                        ShootingPlan, SingleShooting, as_nlp,
                        incremental_k_schedule)
from .smoothness import estimate_contraction, smoothness_report
from .solver import SolverOptions, solve
from . import experiments as xp

EXIT_OK, EXIT_MISSING, EXIT_SCHEMA, EXIT_SOLVER = 0, 2, 3, 4
# solver statuses that exit with EXIT_SOLVER
FAILED_STATUSES = ("max-iter", "non-finite")


class ConfigError(Exception):
    """Schema violation; the message starts with the offending field path."""


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------

def _require_keys(obj: dict, path: str, required: tuple, optional: tuple):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}: unknown field")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: missing required field")


def _check(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _num(obj, path, kind=float, positive=False, min_value=None):
    _check(isinstance(obj, (int, float)) and not isinstance(obj, bool),
           path, "expected a number")
    val = kind(obj)
    if positive:
        _check(val > 0, path, "must be positive")
    if min_value is not None:
        _check(val >= min_value, path, f"must be >= {min_value}")
    return val


MODEL_FAMILIES = ("logistic", "pendulum", "linear-oe-2nd", "linear-arx", "farina")
COMMANDS = ("simulate", "estimate", "smoothness", "study")
GENERATOR_FIELDS = {
    "logistic": ("theta", "x0", "n", "noise_std"),
    "pendulum": ("scenario", "n", "noise_std"),
    "linear2nd": ("setting", "n", "noise_std", "input_std", "input_hold"),
    "farina": ("n", "noise_std"),
}


def validate_config(cfg: dict) -> dict:
    """Validate a raw config dict; returns it unchanged on success."""
    _require_keys(cfg, "config", ("command",),
                  ("model", "dataset", "formulation", "solver", "seed", "out",
                   "study", "smoothness"))
    command = cfg["command"]
    _check(command in COMMANDS, "config.command",
           f"must be one of {', '.join(COMMANDS)}")
    if "seed" in cfg:
        _num(cfg["seed"], "config.seed", int, min_value=0)
    if "model" in cfg:
        _validate_model(cfg["model"])
    if "dataset" in cfg:
        _validate_dataset(cfg["dataset"])
    if "formulation" in cfg:
        _validate_formulation(cfg["formulation"])
    if "solver" in cfg:
        _validate_solver(cfg["solver"])
    if command == "simulate":
        _check("dataset" in cfg, "config.dataset", "missing required field")
    if command == "estimate":
        for key in ("model", "dataset", "formulation"):
            _check(key in cfg, f"config.{key}", "missing required field")
    if command == "smoothness":
        for key in ("model", "dataset", "smoothness"):
            _check(key in cfg, f"config.{key}", "missing required field")
        _validate_smoothness(cfg["smoothness"])
        family = cfg["model"]["family"]
        dim = _theta_dim(family)
        _check(len(cfg["smoothness"]["param_box"]) == dim,
               "config.smoothness.param_box",
               f"expected {dim} [lo, hi] pairs for family {family!r}")
    if command == "study":
        _check("study" in cfg, "config.study", "missing required field")
        _validate_study(cfg["study"])
        kind = cfg["study"]["kind"]
        for key in STUDY_INPUTS[kind]:
            _check(key in cfg, f"config.{key}", "missing required field")
        if kind == "grid":
            family = cfg["model"]["family"]
            dim = _theta_dim(family)
            _check(len(cfg["study"]["grid"]) == dim, "config.study.grid",
                   f"expected {dim} axes for family {family!r}")
    return cfg


# top-level fields each study kind reads
STUDY_INPUTS = {"multi-start": ("model", "dataset", "formulation"), "monte-carlo": (),
                "grid": ("model", "dataset", "formulation"),
                "timing": ("model", "dataset"), "incremental": ("model", "dataset")}


def _theta_dim(family: str) -> int:
    return lower_to_state_space(build_model_family({"family": family})).theta_dim


def _validate_model(obj):
    _require_keys(obj, "config.model", ("family",), ("theta",))
    _check(obj["family"] in MODEL_FAMILIES, "config.model.family",
           f"must be one of {', '.join(MODEL_FAMILIES)}")
    if "theta" in obj:
        _check(isinstance(obj["theta"], list), "config.model.theta",
               "expected a list of numbers")
        for i, v in enumerate(obj["theta"]):
            _num(v, f"config.model.theta[{i}]")
        dim = _theta_dim(obj["family"])
        _check(len(obj["theta"]) == dim, "config.model.theta",
               f"expected {dim} values for family {obj['family']!r}")


def _validate_dataset(obj):
    _require_keys(obj, "config.dataset", (), ("generator", "csv") +
                  tuple(sorted({f for fs in GENERATOR_FIELDS.values() for f in fs})))
    _check(("generator" in obj) != ("csv" in obj), "config.dataset",
           "exactly one of 'generator' or 'csv' is required")
    if "generator" in obj:
        gen = obj["generator"]
        _check(gen in GENERATOR_FIELDS, "config.dataset.generator",
               f"must be one of {', '.join(GENERATOR_FIELDS)}")
        for key in obj:
            if key != "generator":
                _check(key in GENERATOR_FIELDS[gen], f"config.dataset.{key}",
                       f"not a field of generator {gen!r}")
        if "n" in obj:
            _num(obj["n"], "config.dataset.n", int, min_value=1)
        if "scenario" in obj:
            _check(obj["scenario"] in ("a", "b", "c"), "config.dataset.scenario",
                   "must be 'a', 'b' or 'c'")
        if "setting" in obj:
            _check(obj["setting"] in ("a", "b", "c"), "config.dataset.setting",
                   "must be 'a', 'b' or 'c'")


def _validate_formulation(obj):
    _require_keys(obj, "config.formulation", ("kind",),
                  ("max_len", "boundaries", "horizon", "incremental",
                   "optimize_x0"))
    kind = obj["kind"]
    _check(kind in ("single", "multiple", "msa"), "config.formulation.kind",
           "must be 'single', 'multiple' or 'msa'")
    if kind == "multiple":
        _check("max_len" in obj or "boundaries" in obj,
               "config.formulation", "needs 'max_len' or 'boundaries'")
        if "max_len" in obj:
            _num(obj["max_len"], "config.formulation.max_len", int, min_value=1)
        if "boundaries" in obj:
            bnd = obj["boundaries"]
            _check(isinstance(bnd, list) and all(
                isinstance(b, int) and not isinstance(b, bool) and b >= 0
                for b in bnd),
                "config.formulation.boundaries",
                "expected a list of non-negative integers")
            _check(len(set(bnd)) == len(bnd), "config.formulation.boundaries",
                   "duplicated boundary")
            _check(sorted(bnd) == list(bnd), "config.formulation.boundaries",
                   "boundaries must be increasing")
    if kind == "msa":
        _check("horizon" in obj, "config.formulation.horizon",
               "missing required field")
        _num(obj["horizon"], "config.formulation.horizon", int, min_value=1)


_SOLVER_FIELDS = {f.name: f.type for f in dataclasses.fields(SolverOptions)}


def _validate_solver(obj):
    _require_keys(obj, "config.solver", (), tuple(_SOLVER_FIELDS))
    for key, val in obj.items():
        if key == "trace":
            _check(isinstance(val, bool), f"config.solver.{key}",
                   "expected a boolean")
        elif key in ("max_iter", "stall_patience", "cg_extra"):
            _num(val, f"config.solver.{key}", int, min_value=1)
        else:
            _num(val, f"config.solver.{key}", float, positive=True)


def _validate_smoothness(obj):
    _require_keys(obj, "config.smoothness", ("lengths", "param_box"),
                  ("pair_samples", "contraction_samples"))
    # the growth regime is fitted to the estimates at three or more lengths
    _check(isinstance(obj["lengths"], list) and len(obj["lengths"]) >= 3,
           "config.smoothness.lengths", "expected a list of at least 3 lengths")
    for i, n in enumerate(obj["lengths"]):
        _num(n, f"config.smoothness.lengths[{i}]", int, min_value=1)
    box = obj["param_box"]
    _check(isinstance(box, list) and box, "config.smoothness.param_box",
           "expected a list of [lo, hi] pairs")
    for i, pair in enumerate(box):
        _check(isinstance(pair, list) and len(pair) == 2,
               f"config.smoothness.param_box[{i}]", "expected [lo, hi]")
        lo = _num(pair[0], f"config.smoothness.param_box[{i}][0]")
        hi = _num(pair[1], f"config.smoothness.param_box[{i}][1]")
        _check(lo < hi, f"config.smoothness.param_box[{i}]", "needs lo < hi")
    if "pair_samples" in obj:
        _num(obj["pair_samples"], "config.smoothness.pair_samples", int,
             min_value=2)
    if "contraction_samples" in obj:
        _num(obj["contraction_samples"], "config.smoothness.contraction_samples",
             int, min_value=1)


def _validate_study(obj):
    _require_keys(obj, "config.study", ("kind",),
                  ("guesses", "target", "tol", "generator", "setting",
                   "n_realizations", "methods", "noise_std", "k_list",
                   "dm_list", "reps", "grid", "fixed_seeds", "k_max"))
    kind = obj["kind"]
    _check(kind in ("multi-start", "monte-carlo", "grid", "timing",
                    "incremental"),
           "config.study.kind", "must be one of multi-start, monte-carlo, "
           "grid, timing, incremental")
    if kind == "multi-start":
        _check("guesses" in obj, "config.study.guesses",
               "missing required field")
        _check(isinstance(obj["guesses"], list) and obj["guesses"],
               "config.study.guesses", "expected a non-empty list")
    if kind == "monte-carlo":
        if "n_realizations" in obj:
            _num(obj["n_realizations"], "config.study.n_realizations", int,
                 min_value=1)
        if "methods" in obj:
            _check(isinstance(obj["methods"], list) and obj["methods"],
                   "config.study.methods", "expected a non-empty list")
    if kind == "grid":
        _check("grid" in obj, "config.study.grid", "missing required field")
        grid = obj["grid"]
        _check(isinstance(grid, list) and grid, "config.study.grid",
               "expected a list of axis specs [lo, hi, count]")
        for i, axis in enumerate(grid):
            _check(isinstance(axis, list) and len(axis) == 3,
                   f"config.study.grid[{i}]", "expected [lo, hi, count]")
            _num(axis[0], f"config.study.grid[{i}][0]")
            _num(axis[1], f"config.study.grid[{i}][1]")
            _num(axis[2], f"config.study.grid[{i}][2]", int, min_value=1)
        _check(isinstance(obj.get("fixed_seeds", []), list),
               "config.study.fixed_seeds", "expected a list of numbers")
        for i, v in enumerate(obj.get("fixed_seeds", [])):
            _num(v, f"config.study.fixed_seeds[{i}]")
    if kind == "timing":
        _check("k_list" in obj or "dm_list" in obj, "config.study",
               "needs 'k_list' or 'dm_list'")
    if kind == "incremental":
        _check("k_max" in obj, "config.study.k_max", "missing required field")
        _num(obj["k_max"], "config.study.k_max", int, min_value=1)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_model_family(obj: dict):
    family = obj["family"]
    theta = obj.get("theta")
    if family == "logistic":
        return LogisticMap()
    if family == "pendulum":
        return Pendulum()
    if family == "linear-oe-2nd":
        return linear_oe_2nd(tuple(theta) if theta else (0.5, -0.2, 2.0))
    if family == "linear-arx":
        return linear_arx(2, 1, tuple(theta) if theta else (0.5, -0.2, 2.0))
    if family == "farina":
        return farina_polynomial(tuple(theta) if theta else xp.FARINA_TRUE)
    raise ConfigError(f"config.model.family: unknown family {family!r}")


def build_dataset(obj: dict, seed: int) -> Dataset:
    if "csv" in obj:
        path = obj["csv"]
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        try:
            ds = Dataset.from_csv(path)
        except ValueError as exc:
            raise ConfigError(f"config.dataset.csv: {exc}") from None
        _check(ds.n >= 1, "config.dataset.csv", f"{path} holds no data rows")
        return ds
    kwargs = {k: v for k, v in obj.items() if k != "generator"}
    return xp.GENERATORS[obj["generator"]](seed=seed, **kwargs)


def build_formulation(obj: dict, n: int):
    kind = obj["kind"]
    if kind == "single":
        return SingleShooting(optimize_x0=obj.get("optimize_x0", True))
    if kind == "multiple":
        if "boundaries" in obj:
            bnd = sorted({0, n, *obj["boundaries"]})
            _check(bnd[-1] == n, "config.formulation.boundaries",
                   f"boundaries must not exceed the record length {n}")
            plan = ShootingPlan(tuple(bnd), int(np.diff(bnd).max()))
        else:
            plan = ShootingPlan.from_max_len(n, obj["max_len"])
        return MultipleShooting(plan)
    return MsaPem(obj["horizon"])


def build_problem(cfg: dict, seed: int) -> EstimationProblem:
    """The estimation problem of a config: model, record and formulation."""
    model = lower_to_state_space(build_model_family(cfg["model"]))
    ds = build_dataset(cfg["dataset"], seed)
    return EstimationProblem(model, ds, build_formulation(cfg["formulation"], ds.n))


def build_solver_options(obj: dict | None, trace: bool) -> SolverOptions:
    kwargs = dict(obj or {})
    if trace:
        kwargs["trace"] = True
    return SolverOptions(**kwargs)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _strip_timing(obj):
    """Drop wall times, and the timing study's summaries of them, so
    reruns of (config, seed) are byte-identical."""
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k not in
                ("wall_time", "time_per_eval", "msa_slope", "msa_r2", "ms_spread")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_json(path: str, payload: dict, deterministic: bool = True):
    if deterministic:
        payload = _strip_timing(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonify)
        fh.write("\n")


def write_manifest(out_dir: str, cfg_text: str, cfg: dict, seed: int):
    manifest = {
        "config": cfg,
        "config_sha256": hashlib.sha256(cfg_text.encode()).hexdigest(),
        "seed": seed,
        "versions": {"msid": __version__,
                     "python": platform.python_version(),
                     "numpy": np.__version__},
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


def write_trace(path: str, trace: list):
    with open(path, "w") as fh:
        for rec in trace:
            fh.write(json.dumps(rec, sort_keys=True, default=_jsonify))
            fh.write("\n")


def _result_payload(res) -> dict:
    return {"point": res.point.tolist(),
            "multipliers": res.multipliers.tolist(),
            "status": res.status, "cost": res.cost,
            "kkt_residual": res.kkt_residual,
            "constraint_violation": res.constraint_violation,
            "iterations": res.iterations, "n_eval": res.n_eval,
            "wall_time": res.wall_time}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg, seed, out_dir, trace):
    ds = build_dataset(cfg["dataset"], seed)
    ds.to_csv(os.path.join(out_dir, "dataset.csv"))
    return EXIT_OK


def cmd_estimate(cfg, seed, out_dir, trace):
    problem = build_problem(cfg, seed)
    model = problem.model
    opts = build_solver_options(cfg.get("solver"), trace)
    form_cfg = cfg["formulation"]
    if form_cfg["kind"] == "msa" and form_cfg.get("incremental"):
        theta0 = np.asarray(cfg["model"].get("theta", model.default_theta), float)
        schedule = incremental_k_schedule(model, problem.dataset, theta0,
                                          form_cfg["horizon"], opts)
        payload = {"schedule": [{"horizon": k, **_result_payload(r)}
                                for k, r in schedule],
                   "theta": schedule[-1][1].point[: model.theta_dim].tolist()}
        write_json(os.path.join(out_dir, "result.json"), payload)
        return EXIT_OK if all(r.status not in FAILED_STATUSES
                              for _, r in schedule) else EXIT_SOLVER
    theta0 = cfg["model"].get("theta")
    phi0 = problem.default_point(None if theta0 is None
                                 else np.asarray(theta0, float))
    res = solve(as_nlp(problem), phi0, opts)
    payload = _result_payload(res)
    payload["theta"] = res.point[: model.theta_dim].tolist()
    write_json(os.path.join(out_dir, "result.json"), payload)
    if trace:
        write_trace(os.path.join(out_dir, "trace.jsonl"), res.trace)
    if res.status in FAILED_STATUSES:
        print(f"solver did not converge: status={res.status} "
              f"kkt={res.kkt_residual:.3e} cviol={res.constraint_violation:.3e}",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_smoothness(cfg, seed, out_dir, trace):
    sm = cfg["smoothness"]
    lengths = [int(n) for n in sm["lengths"]]
    # param_box lists [lo, hi] per parameter; the estimators take (lo, hi) vectors
    box = tuple(np.array(b, float) for b in zip(*sm["param_box"]))
    cfg = {"formulation": {"kind": "single"}, **cfg}
    problems = {n: build_problem({**cfg, "dataset": {**cfg["dataset"], "n": n}},
                                 seed) for n in lengths}
    model = problems[lengths[0]].model

    def cost_builder(n):
        prob = problems[n]
        return lambda th: prob.cost(prob.default_point(np.atleast_1d(th)))

    def grad_builder(n):
        prob = problems[n]
        nth = model.theta_dim
        return lambda th: prob.gradient(
            prob.default_point(np.atleast_1d(th)))[:nth]

    def hess_builder(n):
        prob = problems[n]
        nth = model.theta_dim

        def hv(th, d):
            phi = prob.default_point(np.atleast_1d(th))
            full = np.zeros_like(phi)
            full[:nth] = np.atleast_1d(d)
            return prob.gn_hessian_vec(phi, full)[:nth]

        return hv

    ds_full = problems[max(lengths)].dataset
    y_lo, y_hi = float(ds_full.y.min()), float(ds_full.y.max())
    contraction = estimate_contraction(
        model, 0.5 * (box[0] + box[1]), (y_lo, y_hi),
        samples=int(sm.get("contraction_samples", 2000)), seed=seed,
        output_box=(y_lo, y_hi),
        input_box=(float(ds_full.u.min()), float(ds_full.u.max())))
    report = smoothness_report(
        cost_builder, grad_builder, lengths, box, contraction,
        pair_samples=int(sm.get("pair_samples", 200)), seed=seed,
        hess_vec_builder=hess_builder)
    with open(os.path.join(out_dir, "smoothness.json"), "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    return EXIT_OK


def cmd_study(cfg, seed, out_dir, trace):
    study = cfg["study"]
    kind = study["kind"]
    opts = build_solver_options(cfg.get("solver"), False)
    if kind == "multi-start":
        problem = build_problem(cfg, seed)
        result = xp.multi_start_study(problem, study["guesses"], opts,
                                      target=study.get("target"),
                                      tol=study.get("tol", 1e-3))
    elif kind == "monte-carlo":
        mc = xp.MonteCarloConfig(
            generator=study.get("generator", "linear2nd"),
            setting=study.get("setting", "c"),
            n_realizations=int(study.get("n_realizations", 20)),
            methods=tuple(study.get("methods", ("arx", "oe-ss"))),
            seed=seed, noise_std=study.get("noise_std"), solver=opts)
        result = xp.monte_carlo_study(mc)
    elif kind == "grid":
        problem = build_problem(cfg, seed)
        axes = [np.linspace(lo, hi, int(count)) for lo, hi, count in study["grid"]]
        seeds = study.get("fixed_seeds")
        want = problem.n_seeds * problem.model.state_dim    # depends on the record
        _check(seeds is None or len(seeds) == want, "config.study.fixed_seeds",
               f"expected {want} numbers for this problem")
        grid = xp.grid_scan(problem, axes, seeds)
        result = xp.ExperimentResult(
            config={"study": "grid", "axes": [a.tolist() for a in axes]},
            records=[{"costs": grid.tolist()}],
            summaries={"total_variation": xp.total_variation(grid)})
    elif kind == "timing":
        family = build_model_family(cfg["model"])
        ds = build_dataset(cfg["dataset"], seed)
        result = xp.timing_study(family, ds,
                                 k_list=study.get("k_list", ()),
                                 dm_list=study.get("dm_list", ()),
                                 reps=int(study.get("reps", 5)))
        # the measured times go to their own file; result.json drops them
        write_json(os.path.join(out_dir, "timing.json"),
                   dataclasses.asdict(result), deterministic=False)
    else:
        family = build_model_family(cfg["model"])
        model = lower_to_state_space(family)
        ds = build_dataset(cfg["dataset"], seed)
        theta0 = np.asarray(cfg["model"].get("theta", model.default_theta), float)
        schedule = incremental_k_schedule(model, ds, theta0,
                                          int(study["k_max"]), opts)
        result = xp.ExperimentResult(
            config={"study": "incremental", "k_max": int(study["k_max"])},
            records=[{"horizon": k, **_result_payload(r)}
                     for k, r in schedule],
            summaries={"theta": schedule[-1][1].point[: model.theta_dim].tolist()})
    write_json(os.path.join(out_dir, "result.json"),
               dataclasses.asdict(result))
    return EXIT_OK


COMMAND_HANDLERS = {"simulate": cmd_simulate, "estimate": cmd_estimate,
                    "smoothness": cmd_smoothness, "study": cmd_study}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _load_config(path: str):
    if not os.path.exists(path):
        print(f"config file not found: {path}", file=sys.stderr)
        return None, None
    with open(path) as fh:
        text = fh.read()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})")
    return cfg, text


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msid",
        description="prediction-error system identification toolkit")
    sub = parser.add_subparsers(dest="action", required=True)
    for name, help_text in (("run", "execute a config"),
                            ("validate", "check a config without running")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        if name == "run":
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
            p.add_argument("--out", default=None, help="output directory")
            p.add_argument("--trace", action="store_true",
                           help="write per-iteration solver records")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg, text = _load_config(args.config)
        if cfg is None:
            return EXIT_MISSING
        validate_config(cfg)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    if args.action == "validate":
        print("config ok")
        return EXIT_OK
    if args.seed is not None:
        cfg["seed"] = args.seed
    seed = int(cfg.get("seed", 0))
    out_dir = args.out or cfg.get("out", "msid-out")
    os.makedirs(out_dir, exist_ok=True)
    write_manifest(out_dir, text, cfg, seed)
    try:
        return COMMAND_HANDLERS[cfg["command"]](cfg, seed, out_dir, args.trace)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except FileNotFoundError as exc:
        print(f"file not found: {exc}", file=sys.stderr)
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
