"""Dataset generators and estimation studies.

Generators simulate the benchmark systems (logistic map, pendulum,
second-order linear system, bilinear polynomial system) and record the
exact noise realization and true state trajectory in the dataset
metadata, so later analyses can recover true initial conditions.
Studies wrap the solver into multi-start, Monte Carlo, grid-scan and
timing drivers, all reproducible from (config, seed).
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dataset import Dataset
from .models import Pendulum, farina_polynomial, linear_oe_2nd, lower_to_state_space
from .objective import (EstimationProblem, MsaPem, MultipleShooting,
                        ShootingPlan, SingleShooting, as_nlp)
from . import solver
from .solver import SolverOptions

# the true systems of the pendulum and Farina records are the families' defaults
PENDULUM_TRUE = (Pendulum.g_over_l, Pendulum.k_a)
# the studies' solver settings are SolverOptions' defaults; the name stays
# because perfbench/workloads.py imports it
study_options = SolverOptions

LINEAR2ND_SETTINGS = {
    "a": (0.5, -0.2, 2.0),
    "b": (1.5, -0.7, 0.5),
    "c": (1.8, -0.95, 0.1),
}
FARINA_TRUE = farina_polynomial().theta


def held_gaussian(rng, n: int, std: float, hold: int) -> np.ndarray:
    """Zero-mean Gaussian sequence where each draw is held ``hold`` samples."""
    draws = rng.normal(0.0, std, size=-(-n // hold))
    return np.repeat(draws, hold)[:n]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_logistic(theta: float = 3.78, x0: float = 0.5, n: int = 200,
                 seed: int = 0, noise_std: float = 0.0) -> Dataset:
    """Logistic-map record y[k] = theta*y[k-1]*(1 - y[k-1]), noiseless by default."""
    rng = np.random.default_rng(seed)
    states = np.zeros(n)
    x = float(x0)
    for k in range(n):
        x = theta * x * (1.0 - x)
        states[k] = x
    noise = rng.normal(0.0, noise_std, size=n) if noise_std else np.zeros(n)
    meta = {"generator": "logistic", "seed": seed, "theta": theta, "x0": x0,
            "noise_std": noise_std, "true_states": states.tolist(),
            "noise": noise.tolist()}
    return Dataset(np.zeros(n), states + noise, meta)


def _pendulum_control(e1, e2, e3, u1, u2, delta):
    # Gains carry a 1/delta factor: with delta-scaled gains the linearized
    # loop around the upright position has spectral radius 1.054 and the
    # pendulum falls over; with 1/delta it is 0.998 and regulation holds.
    return ((40.0 * e1 - 78.8 * e2 + 38.808 * e3) / delta
            + 1.02 * u1 - 0.02 * u2)


def gen_pendulum(scenario: str = "a", seed: int = 0, n: int = 1024,
                 noise_std: float | None = None) -> Dataset:
    """Pendulum record under one of three excitation scenarios.

    (a) open loop, held Gaussian input of standard deviation 10, output
    noise 0.03; (b) closed loop around a randomly stepped reference near
    the upright position, noiseless; (c) as (a) with input deviation 50,
    which drives full rotations.
    """
    if scenario not in ("a", "b", "c"):
        raise ValueError("scenario must be one of 'a', 'b', 'c'")
    rng = np.random.default_rng(seed)
    a_true, ka = PENDULUM_TRUE
    mass, delta = Pendulum.mass, Pendulum.delta
    if noise_std is None:
        noise_std = 0.0 if scenario == "b" else 0.03

    u = np.zeros(n)
    states = np.zeros((n, 2))
    if scenario == "b":
        ref = np.pi + held_gaussian(rng, n, 0.2, 20)
        x1 = np.pi
    else:
        u[:] = held_gaussian(rng, n, 10.0 if scenario == "a" else 50.0, 20)
        x1 = 0.0
    x2 = 0.0
    e_hist = [0.0, 0.0, 0.0]      # e[k-1], e[k-2], e[k-3]
    u1 = u2 = 0.0
    for k in range(n):
        if scenario == "b":
            u[k] = _pendulum_control(e_hist[0], e_hist[1], e_hist[2], u1, u2, delta)
        # the state update reads the previous input sample
        u_prev = u[k - 1] if k else 0.0
        x1, x2 = (x1 + delta * x2,
                  -delta * a_true * np.sin(x1) + (1 - delta * ka / mass) * x2
                  + (delta / mass) * u_prev)
        states[k] = (x1, x2)
        if scenario == "b":
            e_hist = [ref[k] - x1, e_hist[0], e_hist[1]]
            u2, u1 = u1, u[k]
    noise = rng.normal(0.0, noise_std, size=n) if noise_std else np.zeros(n)
    meta = {"generator": "pendulum", "scenario": scenario, "seed": seed,
            "noise_std": noise_std, "theta": list(PENDULUM_TRUE),
            "true_states": states.tolist(), "noise": noise.tolist()}
    return Dataset(u, states[:, 0] + noise, meta)


def gen_linear2nd(setting: str = "a", seed: int = 0, n: int = 300,
                  noise_std: float = 0.05, input_std: float = 1.0,
                  input_hold: int = 5) -> Dataset:
    """Second-order linear output-error record y[k] = ybar[k] + v[k]."""
    if setting not in LINEAR2ND_SETTINGS:
        raise ValueError("setting must be one of 'a', 'b', 'c'")
    th1, th2, th3 = LINEAR2ND_SETTINGS[setting]
    rng = np.random.default_rng(seed)
    u = held_gaussian(rng, n, input_std, input_hold)
    ybar = np.zeros(n)
    y1 = y2 = 0.0
    for k in range(n):
        u_prev = u[k - 1] if k else 0.0
        yk = th1 * y1 + th2 * y2 + th3 * u_prev
        ybar[k] = yk
        y2, y1 = y1, yk
    noise = rng.normal(0.0, noise_std, size=n) if noise_std else np.zeros(n)
    meta = {"generator": "linear2nd", "setting": setting, "seed": seed,
            "noise_std": noise_std, "theta": [th1, th2, th3],
            "input_std": input_std, "input_hold": input_hold,
            "true_output": ybar.tolist(), "noise": noise.tolist()}
    return Dataset(u, ybar + noise, meta)


def gen_farina(seed: int = 0, n: int = 500, noise_std: float = 0.5 * 0.18) -> Dataset:
    """Bilinear polynomial record driven by a slow first-order AR input."""
    rng = np.random.default_rng(seed)
    u = np.zeros(n)
    uk = 0.0
    for k in range(n):
        uk = 0.99 * uk + 0.1 * rng.normal()
        u[k] = uk
    th1, th2 = FARINA_TRUE
    ybar = np.zeros(n)
    y1 = 0.0
    for k in range(n):
        u1 = u[k - 1] if k else 0.0
        u2 = u[k - 2] if k >= 2 else 0.0
        yk = th1 * u1 * u2 + th2 * u1 * y1
        ybar[k] = yk
        y1 = yk
    noise = rng.normal(0.0, noise_std, size=n) if noise_std else np.zeros(n)
    meta = {"generator": "farina", "seed": seed, "noise_std": noise_std,
            "theta": list(FARINA_TRUE), "true_output": ybar.tolist(),
            "noise": noise.tolist()}
    return Dataset(u, ybar + noise, meta)


GENERATORS = {
    "logistic": gen_logistic,
    "pendulum": gen_pendulum,
    "linear2nd": gen_linear2nd,
    "farina": gen_farina,
}


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    config: dict
    records: list = field(default_factory=list)
    summaries: dict = field(default_factory=dict)


def linear_fit_r2(x, y):
    """Least-squares line through (x, y); returns (slope, intercept, r2)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


# ---------------------------------------------------------------------------
# Estimation helpers
# ---------------------------------------------------------------------------

def arx_fit(dataset: Dataset, n_a: int, n_b: int) -> np.ndarray:
    """Closed-form least-squares ARX estimate (a_1..a_na, b_1..b_nb).

    The first max(n_a, n_b) samples are excluded from the regression.
    """
    y, u = dataset.y, dataset.u
    n = dataset.n
    start = max(n_a, n_b)
    rows = np.arange(start, n)
    cols = [y[rows - i] for i in range(1, n_a + 1)]
    cols += [u[rows - j] for j in range(1, n_b + 1)]
    design = np.stack(cols, axis=1)
    theta, *_ = np.linalg.lstsq(design, y[rows], rcond=None)
    return theta


def _method_tag(method: str):
    """Split a method tag into its kind and its argument: the interval cap
    of ``oe-ms:<max_len>`` or the horizon of ``msa:<K>``, both >= 1, and
    None for ``arx`` and ``oe-ss``."""
    kind, colon, arg = method.partition(":")
    if ((kind in ("arx", "oe-ss") and not colon)
            or (kind in ("oe-ms", "msa") and arg.isdigit() and int(arg) >= 1)):
        return kind, int(arg) if colon else None
    raise ValueError(f"unknown estimation method {method!r}")


def _build_formulation(method: str, n: int):
    """The formulation of a method tag other than ``arx``."""
    kind, arg = _method_tag(method)
    if kind == "oe-ss":
        return SingleShooting(optimize_x0=True)
    if kind == "oe-ms":
        return MultipleShooting(ShootingPlan.from_max_len(n, arg))
    return MsaPem(arg)


def estimate(model_family, dataset: Dataset, method: str, theta_init=None,
             solver_options: SolverOptions | None = None):
    """Run one estimation method on one dataset; returns (theta, info)."""
    if method == "arx":
        t0 = time.perf_counter()
        theta = arx_fit(dataset, 2, 1)
        return theta, {"status": "closed-form", "n_eval": 1,
                       "wall_time": time.perf_counter() - t0}
    model = lower_to_state_space(model_family)
    form = _build_formulation(method, dataset.n)
    problem = EstimationProblem(model, dataset, form)
    phi0 = problem.default_point(theta_init)
    # looked up at call time, so a wrapper put on msid.solver.solve sees it
    res = solver.solve(as_nlp(problem), phi0, solver_options)
    theta = res.point[: model.theta_dim]
    return theta, {"status": res.status, "n_eval": res.n_eval,
                   "wall_time": res.wall_time, "cost": res.cost,
                   "kkt_residual": res.kkt_residual}


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------

def multi_start_study(problem: EstimationProblem, guesses,
                      solver_options: SolverOptions | None = None,
                      target=None, tol: float = 1e-3) -> ExperimentResult:
    """Solve the same problem from many initial parameter guesses."""
    result = ExperimentResult(config={
        "study": "multi-start", "model": problem.model.name,
        "formulation": type(problem.formulation).__name__,
        "n_guesses": len(guesses),
        "target": None if target is None else np.asarray(target, float).tolist(),
        "tol": tol})
    successes = 0
    for guess in guesses:
        guess = np.atleast_1d(np.asarray(guess, float))
        phi0 = problem.default_point(guess)
        res = solver.solve(as_nlp(problem), phi0, solver_options)
        theta = res.point[: problem.model.theta_dim]
        rec = {"guess": guess.tolist(), "theta": theta.tolist(),
               "cost": res.cost, "status": res.status,
               "n_eval": res.n_eval, "wall_time": res.wall_time}
        if target is not None:
            tgt = np.asarray(target, float)
            rec["success"] = bool(np.all(np.abs(theta - tgt)
                                         <= tol * np.maximum(1.0, np.abs(tgt))))
            successes += rec["success"]
        result.records.append(rec)
    result.summaries = {"median_evals": float(np.median([r["n_eval"] for r in result.records]))}
    if target is not None:
        result.summaries["successes"] = successes
    return result


@dataclass
class MonteCarloConfig:
    """A Monte Carlo study; construction checks the generator, the setting
    and every method tag, so a bad one fails before any estimation."""

    generator: str = "linear2nd"
    setting: str = "c"
    n_realizations: int = 20
    methods: tuple = ("arx", "oe-ss")
    seed: int = 0
    noise_std: float | None = None
    solver: SolverOptions | None = None

    def __post_init__(self):
        self.methods = tuple(self.methods)      # a config gives a JSON list
        if self.generator not in ("linear2nd", "farina"):
            raise ValueError("generator must be 'linear2nd' or 'farina', "
                             f"not {self.generator!r}")
        if self.generator == "linear2nd" and self.setting not in LINEAR2ND_SETTINGS:
            raise ValueError(f"setting must be one of {', '.join(LINEAR2ND_SETTINGS)}, "
                             f"not {self.setting!r}")
        for method in self.methods:
            _method_tag(method)


def monte_carlo_study(config: MonteCarloConfig) -> ExperimentResult:
    """Repeated data regeneration and estimation for each method.

    Iterative methods start from the ARX estimate of the same
    realization.  Per-realization seeds are spawned deterministically
    from the study seed.
    """
    kw = {} if config.noise_std is None else {"noise_std": config.noise_std}
    if config.generator == "linear2nd":
        theta_true = np.asarray(LINEAR2ND_SETTINGS[config.setting])
        family = linear_oe_2nd(tuple(theta_true))
        gen = partial(gen_linear2nd, config.setting, **kw)
    else:
        theta_true = np.asarray(FARINA_TRUE)
        family = farina_polynomial()
        gen = partial(gen_farina, **kw)

    seeds = np.random.SeedSequence(config.seed).spawn(config.n_realizations)
    result = ExperimentResult(config={
        "study": "monte-carlo", "generator": config.generator,
        "setting": config.setting, "n_realizations": config.n_realizations,
        "methods": list(config.methods), "seed": config.seed,
        "theta_true": theta_true.tolist()})
    for i, ss in enumerate(seeds):
        run_seed = int(ss.generate_state(1)[0]) % (2 ** 32)
        dataset = gen(seed=run_seed)
        init = (arx_fit(dataset, 2, 1)[: len(theta_true)]
                if config.generator == "linear2nd" else theta_true * 0.0)
        for method in config.methods:
            theta, info = estimate(family, dataset, method,
                                   theta_init=init, solver_options=config.solver)
            err = np.asarray(theta[: len(theta_true)]) - theta_true
            result.records.append({
                "realization": i, "seed": run_seed, "method": method,
                "theta": np.asarray(theta).tolist(), "error": err.tolist(),
                **info})
    by_method = {}
    for method in config.methods:
        errs = np.array([r["error"] for r in result.records if r["method"] == method])
        by_method[method] = {
            "median_error": [float(np.median(errs[:, j])) for j in range(errs.shape[1])],
            "median_abs_error": [float(np.median(np.abs(errs[:, j])))
                                 for j in range(errs.shape[1])]}
    result.summaries = {"by_method": by_method}
    return result


def grid_scan(problem: EstimationProblem, theta_grid, fixed_seeds=None) -> np.ndarray:
    """Cost surface over a Cartesian parameter grid with seeds held fixed.

    ``theta_grid`` is one 1-D axis per parameter; returns the cost array
    with one axis per parameter (a 1x..x1 grid yields a single cell).
    Shooting formulations evaluate the whole grid in one pass of
    ``batch_costs``; multi-step-ahead problems, which have no seeds to
    hold fixed, are evaluated cell by cell.
    """
    axes = [np.atleast_1d(np.asarray(a, float)) for a in theta_grid]
    if len(axes) != problem.model.theta_dim:
        raise ValueError("need one grid axis per model parameter")
    if fixed_seeds is None:
        fixed_seeds = problem.default_point()[problem.model.theta_dim:]
    shape = tuple(len(a) for a in axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    thetas = np.stack([m.ravel() for m in mesh], axis=1)
    if isinstance(problem.formulation, MsaPem):
        costs = np.array([problem.cost(t) for t in thetas])
    else:
        costs = problem.batch_costs(thetas, fixed_seeds)
    return costs.reshape(shape)


def total_variation(grid: np.ndarray) -> float:
    """Mean absolute difference between adjacent cells of log(1 + V).

    A scalar intricacy proxy for cost-surface plots; rough surfaces score
    higher.  Non-finite cells are ignored.
    """
    g = np.log1p(np.asarray(grid, float))
    diffs = []
    for axis in range(g.ndim):
        d = np.abs(np.diff(g, axis=axis)).ravel()
        diffs.append(d[np.isfinite(d)])
    alld = np.concatenate(diffs) if diffs else np.zeros(0)
    return float(alld.mean()) if alld.size else 0.0


SAMPLE_SECONDS = 0.1    # wall time per setting and repetition


def timing_study(model_family, dataset: Dataset, theta, k_list=(), dm_list=(),
                 reps: int = 5) -> ExperimentResult:
    """Wall time per cost evaluation at the parameters theta versus the
    horizon K and versus the interval cap of multiple shooting.

    Multiple-shooting timing uses ``batch_costs`` at one parameter
    vector, whose work is proportional to the record length alone.  Each
    repetition spends about SAMPLE_SECONDS on every horizon (then on
    every cap), one evaluation of each in turn, so a change of load on a
    shared machine slows every setting alike instead of bending the
    curve; the garbage collector is off meanwhile.  A setting's time is
    the mean over all of its evaluations.
    """
    model = lower_to_state_space(model_family)
    theta = np.asarray(theta, float)
    result = ExperimentResult(config={
        "study": "timing", "model": model.name, "n": dataset.n,
        "k_list": list(k_list), "dm_list": list(dm_list), "reps": reps})

    def msa_eval(k):
        problem = EstimationProblem(model, dataset, MsaPem(int(k)))
        phi = problem.default_point(theta)

        def run():
            problem._cache.clear()
            problem.cost(phi)
        return run

    def ms_eval(dm):
        plan = ShootingPlan.from_max_len(dataset.n, int(dm))
        problem = EstimationProblem(model, dataset, MultipleShooting(plan))
        seeds = problem.default_point(theta)[model.theta_dim:]
        return lambda: problem.batch_costs(theta[None, :], seeds)

    def mean_times(evals):
        loops = []
        for run in evals:
            run()                               # warm-up
            t0 = time.perf_counter()            # then a loop count that
            run()                               # spends about SAMPLE_SECONDS
            took = max(time.perf_counter() - t0, 1e-9)
            loops.append(max(1, round(SAMPLE_SECONDS / took)))
        spent = [0.0] * len(evals)
        gc_was_on = gc.isenabled()
        gc.disable()            # a collection of the whole heap is not the cost
        try:
            for r in range(reps):
                for j in range(max(loops, default=0)):
                    for i, run in enumerate(evals):
                        if j < loops[i]:
                            t0 = time.perf_counter()
                            run()
                            spent[i] += time.perf_counter() - t0
        finally:
            if gc_was_on:
                gc.enable()
        return [t / (reps * n) for t, n in zip(spent, loops)]

    for k, t in zip(k_list, mean_times([msa_eval(k) for k in k_list])):
        result.records.append({"kind": "msa", "K": int(k),
                               "time_per_eval": t})
    for dm, t in zip(dm_list, mean_times([ms_eval(dm) for dm in dm_list])):
        result.records.append({"kind": "multiple-shooting", "max_len": int(dm),
                               "time_per_eval": t})
    msa = [(r["K"], r["time_per_eval"]) for r in result.records if r["kind"] == "msa"]
    if len(msa) >= 3:
        slope, _, r2 = linear_fit_r2([k for k, _ in msa], [t for _, t in msa])
        result.summaries["msa_slope"] = slope
        result.summaries["msa_r2"] = r2
    ms = [r["time_per_eval"] for r in result.records
          if r["kind"] == "multiple-shooting"]
    if ms:
        result.summaries["ms_spread"] = (max(ms) - min(ms)) / max(min(ms), 1e-12)
    return result
