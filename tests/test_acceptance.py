"""End-to-end acceptance checks.

Each test covers one numbered claim about the toolkit, prints a single
PASS/FAIL line for it and then asserts.  Criteria 4-10 run the bundled
studies in ``configs/`` through ``msid run``, changing at most the
formulation or pendulum scenario they sweep (criterion 10 also runs its
starts as a multi-start study), and read the files it writes.
"""
import json
import pathlib

import numpy as np
import pytest

from msid import (EstimationProblem, MsaPem, MultipleShooting, ShootingPlan,
                  SingleShooting, SolverOptions, solve)
from msid.cli import main
from msid.experiments import FARINA_TRUE, PENDULUM_TRUE
from msid.models import (LogisticMap, NeuralNetOE, Pendulum, farina_polynomial,
                         linear_oe_2nd, lower_to_state_space)
from msid.smoothness import SmoothnessReport

import oracles
from test_models import ALL_FAMILIES
from test_simulate import rollout
from test_solver import KKT_CASES

CRITERION_LINES = []
CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def _report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def _toy_dataset(model, n, rng):
    from msid import Dataset
    u = rng.normal(scale=0.5, size=n)
    y = rng.uniform(0.2, 0.8, size=n)
    return Dataset(u, y, {})


def _formulations(n, state_dim):
    forms = [("single", SingleShooting(optimize_x0=state_dim > 0)),
             ("msa", MsaPem(3))]
    if state_dim > 0:
        forms.append(("multiple", MultipleShooting(ShootingPlan.from_max_len(n, 4))))
    return forms


def _rel_gap(analytic, fd):
    analytic = np.asarray(analytic, float).ravel()
    fd = np.asarray(fd, float).ravel()
    scale = np.maximum(np.abs(fd), 0.01 * np.max(np.abs(fd), initial=0.0))
    scale = np.maximum(scale, 1e-6)
    return float(np.max(np.abs(analytic - fd) / scale))


def test_criterion_01_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    n = 12
    worst_g = 0.0
    worst_j = 0.0
    counts = {"single": 0, "multiple": 0, "msa": 0}
    for family in ALL_FAMILIES:
        model = lower_to_state_space(family)
        ds = _toy_dataset(model, n, rng)
        theta0 = np.asarray(model.default_theta, float)
        if theta0.size == 0:
            theta0 = rng.normal(scale=0.3, size=model.theta_dim)
        for name, form in _formulations(n, model.state_dim):
            prob = EstimationProblem(model, ds, form)
            points = 0
            while points < 9:
                theta = theta0 + rng.normal(scale=0.03, size=model.theta_dim)
                phi = prob.default_point(theta)
                phi += rng.normal(scale=0.01, size=phi.size)
                if not np.isfinite(prob.cost(phi)):
                    continue
                g = prob.gradient(phi)
                fd = oracles.fd_gradient(prob.cost, phi, h=1e-6)
                worst_g = max(worst_g, _rel_gap(g, fd))
                if prob.n_constraints:
                    jac = prob.constraint_jacobian(phi).toarray()
                    fdj = oracles.fd_jacobian(prob.constraints, phi, h=1e-6)
                    worst_j = max(worst_j, _rel_gap(jac, fdj))
                points += 1
                counts[name] += 1
    ok = (worst_g < 1e-5 and worst_j < 1e-5
          and all(c >= 50 for c in counts.values() if c))
    _report(1, ok, "analytic gradients and constraint Jacobians vs central "
            f"differences: worst grad {worst_g:.2e}, worst jac {worst_j:.2e}, "
            f"points {counts}")


def test_criterion_02_split_cost_equals_full_cost():
    rng = np.random.default_rng(22)
    families = [LogisticMap(), Pendulum(), linear_oe_2nd(), farina_polynomial(),
                NeuralNetOE(n_y=1, n_u=1, hidden=3)]
    cases = 0
    worst_v = 0.0
    worst_c = 0.0
    while cases < 200:
        model = lower_to_state_space(families[rng.integers(len(families))])
        n = int(rng.integers(15, 41))
        ds = _toy_dataset(model, n, rng)
        max_len = int(rng.integers(1, 11))
        plan = ShootingPlan.from_max_len(n, max_len)
        theta = np.asarray(model.default_theta, float) \
            + rng.normal(scale=0.05, size=model.theta_dim)
        x0 = rng.normal(scale=0.3, size=model.state_dim)
        prob_ss = EstimationProblem(model, ds, SingleShooting(optimize_x0=True))
        v_full = prob_ss.cost(np.concatenate([theta, x0]))
        if not np.isfinite(v_full):
            continue
        states = rollout(model, x0, ds, 0, n, theta).states[0]
        seeds = [x0] + [states[s - 1] for s in plan.starts[1:]]
        prob_ms = EstimationProblem(model, ds, MultipleShooting(plan))
        phi = np.concatenate([theta] + seeds)
        v_split = prob_ms.cost(phi)
        c = prob_ms.constraints(phi)
        worst_v = max(worst_v, abs(v_split - v_full) / (1.0 + abs(v_full)))
        worst_c = max(worst_c, float(np.max(np.abs(c))) if c.size else 0.0)
        cases += 1
    ok = worst_v <= 1e-12 and worst_c <= 1e-12
    _report(2, ok, f"200 random chained-seed splits: worst cost gap "
            f"{worst_v:.2e}, worst constraint {worst_c:.2e}")


def test_criterion_03_solver_kkt_certificates():
    opts = SolverOptions(tol=1e-10, constraint_tol=1e-10, delta0=1.0)
    n_ok = 0
    worst_kkt = 0.0
    worst_dist = 0.0
    for case in KKT_CASES:
        nlp, x0, x_star, _ = case.values
        res = solve(nlp, x0, opts)
        dist = float(np.max(np.abs(res.point - x_star)))
        worst_kkt = max(worst_kkt, res.kkt_residual)
        worst_dist = max(worst_dist, dist)
        n_ok += (res.converged and res.kkt_residual < 1e-8 and dist < 1e-6)
    ok = n_ok == len(KKT_CASES) and len(KKT_CASES) >= 10
    _report(3, ok, f"{n_ok}/{len(KKT_CASES)} analytic problems solved with "
            f"KKT residual < 1e-8 (worst {worst_kkt:.2e}) and distance "
            f"< 1e-6 (worst {worst_dist:.2e})")


def _config(name):
    return json.loads((CONFIG_DIR / name).read_text())


def _run(tmp_path, cfg, label, output="result.json"):
    """Run ``cfg`` through ``msid run`` and read one of its output files."""
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / label
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0, label
    return (out / output).read_text()


@pytest.fixture(scope="module")
def logistic_sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("logistic")
    cfg = _config("logistic_multistart.json")
    out = {}
    for label, form in (("ms2", {"kind": "multiple", "max_len": 2}),
                        ("ms5", {"kind": "multiple", "max_len": 5}),
                        ("ms10", {"kind": "multiple", "max_len": 10}),
                        ("ss", {"kind": "single"})):
        cfg["formulation"] = form
        out[label] = json.loads(_run(tmp, cfg, label))["records"]
    return out


def test_criterion_04_logistic_recovery(logistic_sweep):
    ms_hits, ss_hits = (sum(abs(r["theta"][0] - 3.78) < 1e-3
                            for r in logistic_sweep[k]) for k in ("ms2", "ss"))
    ok = ms_hits == 15 and ss_hits <= 5
    _report(4, ok, f"short-interval shooting recovers 3.78 from {ms_hits}/15 "
            f"starts; single shooting from {ss_hits}/15 (cap 5)")


def test_criterion_05_evaluation_count_ordering(logistic_sweep):
    med = {k: np.median([r["n_eval"] for r in v])
           for k, v in logistic_sweep.items()}
    saturated = sum(r["n_eval"] >= 1000 for r in logistic_sweep["ms10"])
    ok = (med["ms2"] < med["ms5"] < med["ms10"]
          and saturated >= 8 and med["ss"] < med["ms5"])
    _report(5, ok, "median cost evaluations "
            f"ms2 {med['ms2']:.0f} < ms5 {med['ms5']:.0f} < ms10 "
            f"{med['ms10']:.0f} ({saturated}/15 at cap), single shooting "
            f"{med['ss']:.0f} (early local stop)")


def test_criterion_06_pendulum_basins(tmp_path):
    true = np.asarray(PENDULUM_TRUE)
    cfg = _config("pendulum_basins.json")
    ms_form = cfg["formulation"]
    hits = {}
    for scen in ("b", "c"):
        cfg["dataset"]["scenario"] = scen
        for label, form in (("ms", ms_form), ("ss", {"kind": "single"})):
            cfg["formulation"] = form
            records = json.loads(_run(tmp_path, cfg, f"{scen}-{label}"))["records"]
            hits[scen, label] = sum(
                bool(np.all(np.abs(np.asarray(r["theta"]) - true)
                            <= 0.02 * np.abs(true))) for r in records)
    grid = _config("pendulum_grid.json")
    tv = {}
    for label, form in (("ms", grid["formulation"]), ("ss", {"kind": "single"})):
        grid["formulation"] = form
        tv[label] = json.loads(_run(tmp_path, grid, f"grid-{label}"))[
            "summaries"]["total_variation"]
    ratio = tv["ss"] / tv["ms"]
    ok = (hits["b", "ms"] >= 23 and hits["c", "ms"] >= 23
          and hits["b", "ss"] <= 10 and hits["c", "ss"] <= 10
          and ratio >= 5.0)
    _report(6, ok, "pendulum recovery within 2%: interval shooting "
            f"b {hits['b', 'ms']}/25, c {hits['c', 'ms']}/25; single shooting "
            f"b {hits['b', 'ss']}/25, c {hits['c', 'ss']}/25; cost-surface "
            f"intricacy ratio {ratio:.0f}x (floor 5x)")


def test_criterion_07_growth_regimes(tmp_path):
    # chaotic map: both constants blow up exponentially with the length;
    # contractive linear model: constants settle once past the startup
    rep_lg, rep_ln = (
        SmoothnessReport.from_json(_run(tmp_path, _config(f"{name}.json"), name,
                                        "smoothness.json"))
        for name in ("logistic_smoothness", "linear2nd_smoothness"))
    lv = rep_ln.lipschitz_estimates
    spread = max(lv) / min(lv)
    ok = (rep_lg.regime_v is not None and rep_lg.regime_beta is not None
          and rep_lg.regime_v.regime == "exponential"
          and rep_lg.regime_beta.regime == "exponential"
          and rep_lg.regime_v.rate > 0
          and rep_lg.regime_beta.rate > rep_lg.regime_v.rate
          and rep_ln.regime_v.regime == "bounded"
          and spread < 2.0)
    _report(7, ok, "chaotic map exponential rates "
            f"(cost {rep_lg.regime_v.rate:.2f}, gradient "
            f"{rep_lg.regime_beta.rate:.2f}); contractive model bounded "
            f"with {spread:.2f}x spread (cap 2x)")


def test_criterion_08_monte_carlo_bias_pattern(tmp_path):
    result = json.loads(_run(tmp_path, _config("linear2nd_montecarlo.json"),
                             "monte-carlo"))
    bm = result["summaries"]["by_method"]
    arx_bias = abs(bm["arx"]["median_error"][0])
    ss_bias = abs(bm["oe-ss"]["median_error"][0])
    ss_mae = np.asarray(bm["oe-ss"]["median_abs_error"])
    ms_ok = all(
        np.all(np.asarray(bm[f"oe-ms:{dm}"]["median_abs_error"])
               <= 2.0 * np.maximum(ss_mae, 1e-12))
        for dm in (2, 5, 10, 20))
    m7 = np.asarray(bm["msa:7"]["median_abs_error"])
    m20 = np.asarray(bm["msa:20"]["median_abs_error"])
    ok = arx_bias > 3.0 * ss_bias and ms_ok and np.all(m7 < m20)
    _report(8, ok, f"one-step fit bias {arx_bias:.4f} vs simulation fit "
            f"{ss_bias:.4f} (>3x); interval variants within 2x of the "
            f"simulation-fit error; horizon 7 beats horizon 20")


def test_criterion_09_horizon_cost_scaling(tmp_path):
    s = json.loads(_run(tmp_path, _config("msa_timing.json"), "timing",
                        "timing.json"))["summaries"]
    ok = s["msa_r2"] >= 0.9 and s["msa_slope"] > 0 and s["ms_spread"] < 0.2
    _report(9, ok, "multi-step cost time linear in the horizon "
            f"(R2 {s['msa_r2']:.3f}, slope {s['msa_slope']:.2e}); interval "
            f"cost time flat within {100 * s['ms_spread']:.0f}%")


def test_criterion_10_incremental_horizon_refinement(tmp_path):
    # the one-shot solves share the study's starts, data and solver options
    true = np.asarray(FARINA_TRUE)
    cfg = _config("farina_incremental.json")
    inc = json.loads(_run(tmp_path, cfg, "incremental"))["summaries"]["theta"]
    study = cfg["study"]
    cfg["formulation"] = {"kind": "msa", "horizon": study["k_max"]}
    cfg["study"] = {"kind": "multi-start", "guesses": study["guesses"]}
    direct = [r["theta"] for r in json.loads(_run(tmp_path, cfg, "direct"))["records"]]
    med_inc, med_dir = (np.median([float(np.linalg.norm(np.asarray(theta) - true))
                                   for theta in thetas]) for thetas in (inc, direct))
    ok = med_inc <= med_dir
    _report(10, ok, f"growing-horizon refinement median distance "
            f"{med_inc:.6f} <= one-shot horizon-30 median {med_dir:.6f}")
