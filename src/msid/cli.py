"""Config-driven command-line front end.

``msid run --config cfg.json`` executes one of four commands (simulate,
estimate, smoothness, study) described by a JSON config, writing result
records, optional solver traces, and a manifest into the output
directory.

Each command has two steps.  *Build* turns the config and seed into
everything the command needs: the model, the datasets (CSV files are
read here), the formulation and estimation problem, the solver options
and the parsed study inputs; it reads every config field there, and
refuses any field that the command, its study kind or its formulation
kind does not read.  *Execute* solves or runs the study and writes the
outputs.  ``msid validate`` checks the config's field names and JSON
types and then builds, without solving; ``msid run`` takes the same
steps and then executes.  The two therefore accept the same configs,
and a config that fails to build stops ``run`` before it creates any
output.

Exit codes: 0 success, 2 a path that cannot be read or written (a
missing config or CSV dataset, a path to either that names a directory,
or an output directory that names a file, lies under one, or holds a
directory where ``run`` writes a file), 3 schema violation (message
names the offending field path; a config that is not UTF-8 is not valid
JSON), 4 solver did not converge (status ``max-iter``) or could not
evaluate its start (status ``non-finite``).
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
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


def _check(cond, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _required(obj: dict, key: str, path: str):
    _check(key in obj, f"{path}.{key}", "missing required field")
    return obj[key]


def _given(obj: dict, *keys: str, **renamed: str) -> dict:
    """The keys that obj sets, as keyword arguments (renamed: name=key); a
    key left out is not passed, so the callee owns its default."""
    names = dict(zip(keys, keys), **renamed)
    return {name: obj[key] for name, key in names.items() if key in obj}


_MAIN = ("command", "seed", "out")     # main reads these for every command


def _fields(obj: dict, path: str, owner: str, *keys: str, **blocks: tuple):
    """Refuse every field of obj but keys and blocks, and every field of a
    block but its own: the fields that owner's build step reads."""
    for key in obj:
        _check(key in keys or key in blocks, f"{path}.{key}",
               f"not a field of {owner}")
    for key, fields in blocks.items():
        _fields(obj.get(key, {}), f"{path}.{key}", owner, *fields)


def _call(path: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), its ValueError reported against a field path."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Schema: field names and JSON types
# ---------------------------------------------------------------------------

def _leaf(types: tuple, what: str, *rules: tuple):
    """Check of one JSON value: its exact type (a boolean is no number)
    and then each (test, message) rule on its value."""
    def check(obj, path):
        _check(type(obj) in types, path, f"expected {what}")
        for test, rule in rules:
            _check(test(obj), path, rule)
    return check


def _at_least(low: int):
    return _leaf((int,), "an integer", (lambda v: v >= low, f"must be >= {low}"))


# json.loads reads NaN, Infinity and -Infinity, and an integer past the
# float range would overflow where it is used as one
_FINITE = (lambda v: abs(v) <= sys.float_info.max, "must be finite")
NUM = _leaf((int, float), "a number", _FINITE)
NON_NEGATIVE = _leaf((int, float), "a number", _FINITE, (lambda v: v >= 0, "must be >= 0"))
POSITIVE = _leaf((int, float), "a number", _FINITE, (lambda v: v > 0, "must be positive"))
INT = _leaf((int,), "an integer")
COUNT = _at_least(1)
STR = _leaf((str,), "a string")
BOOL = _leaf((bool,), "a boolean")

# a dict is an object of optional fields, [spec] a list of any length and
# a tuple a list with one entry per spec; which fields a command needs,
# and what their values may be beyond these types, its build step checks
SCHEMA = {
    "command": STR, "seed": _at_least(0), "out": STR,
    "model": {"family": STR, "theta": [NUM]},
    "dataset": {"generator": STR, "csv": STR, "theta": NUM, "x0": NUM,
                "n": COUNT, "noise_std": NON_NEGATIVE, "scenario": STR,
                "setting": STR, "input_std": NUM, "input_hold": COUNT},
    "formulation": {"kind": STR, "max_len": INT, "boundaries": [INT],
                    "horizon": INT, "optimize_x0": BOOL},
    # every solver option but the trace switch, which is the --trace flag
    "solver": {f.name: COUNT if f.type == "int" else POSITIVE
               for f in dataclasses.fields(SolverOptions) if f.type != "bool"},
    "smoothness": {"lengths": [COUNT], "param_box": [(NUM, NUM)],
                   "pair_samples": _at_least(2), "contraction_samples": COUNT},
    "study": {"kind": STR, "guesses": [[NUM]], "target": [NUM], "tol": NUM,
              "generator": STR, "setting": STR, "n_realizations": COUNT,
              "methods": [STR], "noise_std": NON_NEGATIVE, "k_list": [INT],
              "dm_list": [INT], "reps": COUNT, "grid": [(NUM, NUM, COUNT)],
              "fixed_seeds": [NUM], "k_max": COUNT},
}


def _check_schema(obj, spec, path: str):
    if isinstance(spec, dict):
        _check(isinstance(obj, dict), path, "expected an object")
        for key, value in obj.items():
            _check(key in spec, f"{path}.{key}", "unknown field")
            _check_schema(value, spec[key], f"{path}.{key}")
    elif isinstance(spec, (list, tuple)):
        fixed = isinstance(spec, tuple)
        _check(isinstance(obj, list) and (not fixed or len(obj) == len(spec)),
               path, f"expected a list of {len(spec)}" if fixed else "expected a list")
        for i, value in enumerate(obj):
            _check_schema(value, spec[i] if fixed else spec[0], f"{path}[{i}]")
    else:
        spec(obj, path)


def validate_config(cfg) -> dict:
    """Check a raw config's field names and JSON types; returns it unchanged."""
    _check_schema(cfg, SCHEMA, "config")
    _check(_required(cfg, "command", "config") in COMMANDS, "config.command",
           f"must be one of {', '.join(COMMANDS)}")
    return cfg


# ---------------------------------------------------------------------------
# Build: config and seed -> everything a command needs
# ---------------------------------------------------------------------------

# the model families a config names, each at its default θ; linear_arx has
# none, so the linear output-error model's stands in for it
FAMILIES = {"logistic": LogisticMap, "pendulum": Pendulum,
            "linear-oe-2nd": linear_oe_2nd,
            "linear-arx": lambda: linear_arx(2, 1, (0.5, -0.2, 2.0)),
            "farina": farina_polynomial}


def _per_parameter(items: list, model, path: str, what: str = "values") -> list:
    """items, after checking that there is one per model parameter."""
    _check(len(items) == model.theta_dim, path,
           f"expected {model.theta_dim} {what}, one per model parameter")
    return items


def build_model(cfg: dict):
    """(family, state-space model, config.model.theta or the model's default);
    only an estimate (its start) and a timing study accept model.theta."""
    obj = _required(cfg, "model", "config")
    name = _required(obj, "family", "config.model")
    _check(name in FAMILIES, "config.model.family", f"unknown family {name!r}")
    family = FAMILIES[name]()
    model = lower_to_state_space(family)
    theta = _per_parameter(obj.get("theta", model.default_theta), model,
                           "config.model.theta")
    return family, model, np.asarray(theta, float)


def build_dataset(obj: dict, seed: int) -> Dataset:
    _check(("generator" in obj) != ("csv" in obj), "config.dataset",
           "exactly one of 'generator' or 'csv' is required")
    if "csv" in obj:
        _fields(obj, "config.dataset", "a CSV dataset", "csv")
        path = obj["csv"]
        ds = _call("config.dataset.csv", Dataset.from_csv, path)
        _check(ds.n >= 1, "config.dataset.csv", f"{path} holds no data rows")
        return ds
    name = obj["generator"]
    _check(name in xp.GENERATORS, "config.dataset.generator",
           f"must be one of {', '.join(xp.GENERATORS)}")
    gen = xp.GENERATORS[name]
    _fields(obj, "config.dataset", f"generator {name!r}", "generator",
            *inspect.signature(gen).parameters)
    kwargs = {k: v for k, v in obj.items() if k != "generator"}
    return _call("config.dataset", gen, seed=seed, **kwargs)


def build_formulation(obj: dict, n: int):
    kind = _required(obj, "kind", "config.formulation")
    owner = f"formulation kind {kind!r}"
    if kind == "single":
        _fields(obj, "config.formulation", owner, "kind", "optimize_x0")
        return SingleShooting(**_given(obj, "optimize_x0"))
    if kind == "multiple" and "boundaries" in obj:
        _fields(obj, "config.formulation", f"{owner} with boundaries",
                "kind", "boundaries")
        path = "config.formulation.boundaries"
        bnd = list(obj["boundaries"])
        _check(max(bnd, default=0) <= n, path,
               f"boundaries must not exceed the record length {n}")
        # the record's ends close the plan where the config leaves them out
        bnd = [0] * (bnd[:1] != [0]) + bnd + [n] * (bnd[-1:] != [n])
        return MultipleShooting(_call(path, ShootingPlan, tuple(bnd)))
    if kind == "multiple":
        _fields(obj, "config.formulation", owner, "kind", "max_len")
        max_len = _required(obj, "max_len", "config.formulation")
        return MultipleShooting(_call("config.formulation.max_len",
                                      ShootingPlan.from_max_len, n, max_len))
    if kind == "msa":
        _fields(obj, "config.formulation", owner, "kind", "horizon")
        return _call("config.formulation.horizon", MsaPem,
                     _required(obj, "horizon", "config.formulation"))
    raise ConfigError("config.formulation.kind: must be 'single', 'multiple' or 'msa'")


def build_problem(cfg: dict, seed: int):
    """The estimation problem of a config, and its start config.model.theta."""
    _, model, theta = build_model(cfg)
    ds = build_dataset(_required(cfg, "dataset", "config"), seed)
    form = build_formulation(_required(cfg, "formulation", "config"), ds.n)
    return _call("config.formulation", EstimationProblem, model, ds, form), theta


def build_solver_options(cfg: dict) -> SolverOptions:
    return SolverOptions(**cfg.get("solver", {}))


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
# Commands: each build_* returns its execute step, execute(out_dir, trace)
# ---------------------------------------------------------------------------

def build_simulate(cfg, seed):
    _fields(cfg, "config", "command 'simulate'", *_MAIN, "dataset")
    ds = build_dataset(_required(cfg, "dataset", "config"), seed)

    def execute(out_dir, trace):
        ds.to_csv(os.path.join(out_dir, "dataset.csv"))
        return EXIT_OK
    return execute


def build_estimate(cfg, seed):
    _fields(cfg, "config", "command 'estimate'", *_MAIN, "model", "dataset",
            "formulation", "solver")
    problem, theta = build_problem(cfg, seed)
    phi0 = problem.default_point(theta)
    opts = build_solver_options(cfg)

    def execute(out_dir, trace):
        res = solve(as_nlp(problem), phi0, dataclasses.replace(opts, trace=trace))
        payload = _result_payload(res)
        payload["theta"] = res.point[: problem.model.theta_dim].tolist()
        write_json(os.path.join(out_dir, "result.json"), payload)
        if trace:
            write_trace(os.path.join(out_dir, "trace.jsonl"), res.trace)
        if res.status in FAILED_STATUSES:
            print(f"solver did not converge: status={res.status} "
                  f"kkt={res.kkt_residual:.3e} cviol={res.constraint_violation:.3e}",
                  file=sys.stderr)
            return EXIT_SOLVER
        return EXIT_OK
    return execute


def build_smoothness(cfg, seed):
    _fields(cfg, "config", "command 'smoothness'", *_MAIN, "dataset",
            "formulation", "smoothness", model=("family",))
    sm = _required(cfg, "smoothness", "config")
    lengths = _required(sm, "lengths", "config.smoothness")
    # the growth regime is fitted to the estimates at three or more lengths
    _check(len(lengths) >= 3, "config.smoothness.lengths",
           "expected a list of at least 3 lengths")
    _, model, _ = build_model(cfg)
    pairs = _per_parameter(_required(sm, "param_box", "config.smoothness"), model,
                           "config.smoothness.param_box", "[lo, hi] pairs")
    for i, (lo, hi) in enumerate(pairs):
        _check(lo < hi, f"config.smoothness.param_box[{i}]", "needs lo < hi")
    # the estimators take the box as (lo, hi) vectors
    box = tuple(np.array(b, float) for b in zip(*pairs))
    data = _required(cfg, "dataset", "config")
    _check("n" not in data, "config.dataset.n",
           "not a field of command 'smoothness', whose lengths set n")
    form = cfg.get("formulation", {"kind": "single"})
    # a generator runs at each length; a CSV record is read once and its
    # first n samples serve length n
    record = build_dataset(data, seed) if "csv" in data else None
    problems = {}
    for i, n in enumerate(lengths):
        if record is None:
            ds = build_dataset({**data, "n": n}, seed)
        else:
            _check(n <= record.n, f"config.smoothness.lengths[{i}]",
                   f"{n} exceeds the {record.n} samples of {data['csv']}")
            ds = Dataset(record.u[:n], record.y[:n], record.meta)
        problems[n] = _call(f"config.smoothness.lengths[{i}]", EstimationProblem,
                            model, ds, build_formulation(form, ds.n))
    nth = model.theta_dim
    contraction_kw = _given(sm, samples="contraction_samples")
    report_kw = _given(sm, "pair_samples")

    def cost_builder(n):
        prob = problems[n]
        return lambda th: prob.cost(prob.default_point(np.atleast_1d(th)))

    def grad_builder(n):
        prob = problems[n]
        return lambda th: prob.gradient(
            prob.default_point(np.atleast_1d(th)))[:nth]

    def hess_builder(n):
        prob = problems[n]

        def hv(th, d):
            phi = prob.default_point(np.atleast_1d(th))
            full = np.zeros_like(phi)
            full[:nth] = np.atleast_1d(d)
            return prob.gn_hessian_vec(phi, full)[:nth]

        return hv

    def execute(out_dir, trace):
        ds_full = problems[max(lengths)].dataset
        y_lo, y_hi = float(ds_full.y.min()), float(ds_full.y.max())
        contraction = estimate_contraction(
            model, 0.5 * (box[0] + box[1]), (y_lo, y_hi), (y_lo, y_hi),
            (float(ds_full.u.min()), float(ds_full.u.max())), seed=seed,
            **contraction_kw)
        report = smoothness_report(
            cost_builder, grad_builder, lengths, box, contraction, seed=seed,
            hess_vec_builder=hess_builder, **report_kw)
        with open(os.path.join(out_dir, "smoothness.json"), "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        return EXIT_OK
    return execute


# Each study builder takes (cfg, cfg["study"], seed) and returns
# run(out_dir) -> ExperimentResult.

def _guesses(study: dict, model) -> list:
    guesses = _required(study, "guesses", "config.study")
    _check(guesses, "config.study.guesses", "expected a non-empty list")
    for i, guess in enumerate(guesses):
        _per_parameter(guess, model, f"config.study.guesses[{i}]")
    return guesses


def _multi_start(cfg, study, seed):
    _fields(cfg, "config", "study kind 'multi-start'", *_MAIN, "dataset", "formulation",
            "solver", model=("family",), study=("kind", "guesses", "target", "tol"))
    problem, _ = build_problem(cfg, seed)
    guesses = _guesses(study, problem.model)
    target = study.get("target")
    if target is not None:
        _per_parameter(target, problem.model, "config.study.target")
    opts, kwargs = build_solver_options(cfg), _given(study, "tol")
    return lambda out_dir: xp.multi_start_study(
        problem, guesses, opts, target=target, **kwargs)


def _monte_carlo(cfg, study, seed):
    keys = ("generator", "setting", "n_realizations", "methods", "noise_std")
    _fields(cfg, "config", "study kind 'monte-carlo'", *_MAIN, "solver",
            study=("kind", *keys))
    mc = _call("config.study", xp.MonteCarloConfig, seed=seed,
               solver=build_solver_options(cfg), **_given(study, *keys))
    return lambda out_dir: xp.monte_carlo_study(mc)


def _grid(cfg, study, seed):
    _fields(cfg, "config", "study kind 'grid'", *_MAIN, "dataset",
            "formulation", model=("family",), study=("kind", "grid", "fixed_seeds"))
    problem, _ = build_problem(cfg, seed)
    spec = _per_parameter(_required(study, "grid", "config.study"), problem.model,
                          "config.study.grid", "axes")
    axes = [np.linspace(lo, hi, count) for lo, hi, count in spec]
    seeds = study.get("fixed_seeds")
    want = problem.n_seeds * problem.model.state_dim    # depends on the record
    _check(seeds is None or len(seeds) == want, "config.study.fixed_seeds",
           f"expected {want} numbers for this problem")

    def run(out_dir):
        grid = xp.grid_scan(problem, axes, seeds)
        return xp.ExperimentResult(
            config={"study": "grid", "axes": [a.tolist() for a in axes]},
            records=[{"costs": grid.tolist()}],
            summaries={"total_variation": xp.total_variation(grid)})
    return run


def _timing(cfg, study, seed):
    _fields(cfg, "config", "study kind 'timing'", *_MAIN, "model", "dataset",
            study=("kind", "k_list", "dm_list", "reps"))
    family, _, theta = build_model(cfg)
    ds = build_dataset(_required(cfg, "dataset", "config"), seed)
    k_list, dm_list = study.get("k_list", []), study.get("dm_list", [])
    _check(k_list or dm_list, "config.study", "needs 'k_list' or 'dm_list'")
    for i, k in enumerate(k_list):
        _call(f"config.study.k_list[{i}]", MsaPem, k)
    for i, dm in enumerate(dm_list):
        _call(f"config.study.dm_list[{i}]", ShootingPlan.from_max_len, ds.n, dm)
    kwargs = _given(study, "reps")

    def run(out_dir):
        result = xp.timing_study(family, ds, theta, k_list=k_list,
                                 dm_list=dm_list, **kwargs)
        # the measured times go to their own file; result.json drops them
        write_json(os.path.join(out_dir, "timing.json"),
                   dataclasses.asdict(result), deterministic=False)
        return result
    return run


def _incremental(cfg, study, seed):
    _fields(cfg, "config", "study kind 'incremental'", *_MAIN, "dataset",
            "solver", model=("family",), study=("kind", "guesses", "tol", "k_max"))
    _, model, _ = build_model(cfg)
    ds = build_dataset(_required(cfg, "dataset", "config"), seed)
    guesses = _guesses(study, model)
    k_max = _required(study, "k_max", "config.study")
    opts, kwargs = build_solver_options(cfg), _given(study, "tol")

    def run(out_dir):
        schedules = [incremental_k_schedule(model, ds, guess, k_max, opts, **kwargs)
                     for guess in guesses]
        return xp.ExperimentResult(
            config={"study": "incremental", "k_max": k_max},
            records=[{"guess": guess, "horizon": k, **_result_payload(r)}
                     for guess, schedule in zip(guesses, schedules)
                     for k, r in schedule],
            summaries={"theta": [schedule[-1][1].point[: model.theta_dim].tolist()
                                 for schedule in schedules]})
    return run


STUDIES = {"multi-start": _multi_start, "monte-carlo": _monte_carlo,
           "grid": _grid, "timing": _timing, "incremental": _incremental}


def build_study(cfg, seed):
    study = _required(cfg, "study", "config")
    kind = _required(study, "kind", "config.study")
    _check(kind in STUDIES, "config.study.kind",
           f"must be one of {', '.join(STUDIES)}")
    run = STUDIES[kind](cfg, study, seed)

    def execute(out_dir, trace):
        write_json(os.path.join(out_dir, "result.json"),
                   dataclasses.asdict(run(out_dir)))
        return EXIT_OK
    return execute


COMMANDS = {"simulate": build_simulate, "estimate": build_estimate,
            "smoothness": build_smoothness, "study": build_study}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _load_config(path: str):
    # JSON's encoding, whatever the host locale
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
            return json.loads(text), text
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: not valid JSON ({exc})") from None


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msid",
        description="prediction-error system identification toolkit")
    sub = parser.add_subparsers(dest="action", required=True)
    for name, help_text in (("run", "execute a config"),
                            ("validate", "build a config without running it")):
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
        if getattr(args, "seed", None) is not None and isinstance(cfg, dict):
            cfg["seed"] = args.seed
        validate_config(cfg)
        seed = cfg.get("seed", 0)
        execute = COMMANDS[cfg["command"]](cfg, seed)
        if args.action == "validate":
            print("config ok")
            return EXIT_OK
        out_dir = args.out or cfg.get("out", "msid-out")
        os.makedirs(out_dir, exist_ok=True)
        write_manifest(out_dir, text, cfg, seed)
        return execute(out_dir, args.trace)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        reason = {FileNotFoundError: "file not found",
                  IsADirectoryError: "a directory, not a file"}.get(type(exc), exc.strerror)
        print(f"{reason}: {exc.filename}", file=sys.stderr)
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
