import dataclasses
import json

import numpy as np
import pytest

import msid.solver
from msid import (EstimationProblem, ExperimentResult, MsaPem,
                  MultipleShooting, ShootingPlan, SingleShooting, arx_fit,
                  gen_farina, gen_linear2nd, gen_logistic, gen_pendulum,
                  grid_scan, linear_fit_r2, multi_start_study, total_variation)
from msid.cli import write_json
from msid.experiments import (LINEAR2ND_SETTINGS, MonteCarloConfig,
                              held_gaussian, study_options, timing_study)
from msid.models import (LinearARMAX, LogisticMap, NeuralNetOE,
                         lower_to_state_space)

import oracles


# ---------------------------------------------------------------------------
# Data generators
# ---------------------------------------------------------------------------

def test_generators_are_deterministic():
    for make in (lambda: gen_logistic(n=50, seed=3, noise_std=0.01),
                 lambda: gen_pendulum("a", seed=3, n=128),
                 lambda: gen_linear2nd("c", seed=3, n=100),
                 lambda: gen_farina(seed=3, n=100)):
        d1, d2 = make(), make()
        np.testing.assert_array_equal(d1.y, d2.y)
        np.testing.assert_array_equal(d1.u, d2.u)


def test_logistic_generator_matches_oracle():
    ds = gen_logistic(theta=3.78, x0=0.5, n=25)
    np.testing.assert_allclose(ds.y, oracles.logistic_sequence(3.78, 0.5, 25),
                               rtol=1e-15)
    assert np.all(ds.u == 0.0)


def test_held_gaussian_holds_values():
    rng = np.random.default_rng(0)
    sig = held_gaussian(rng, 50, std=2.0, hold=10)
    assert sig.shape == (50,)
    for blk in range(5):
        seg = sig[10 * blk: 10 * (blk + 1)]
        assert np.all(seg == seg[0])
    assert len(np.unique(sig)) == 5


def test_pendulum_scenarios_have_distinct_behaviors():
    # (a) small excitation: swings stay below the horizontal
    ya = np.asarray(gen_pendulum("a", seed=0).meta["true_states"])[:, 0]
    assert np.max(np.abs(ya)) < 0.6 * np.pi
    # (b) closed loop around the upright position
    yb = gen_pendulum("b", seed=0).y
    assert np.all(np.abs(yb - np.pi) < 1.0)
    # (c) large excitation: the pendulum swings over the top
    yc = np.asarray(gen_pendulum("c", seed=0).meta["true_states"])[:, 0]
    assert np.max(np.abs(yc)) > 2.0 * np.pi


def test_pendulum_noise_defaults():
    ds_a = gen_pendulum("a", seed=1)
    assert ds_a.meta["noise_std"] == pytest.approx(0.03)
    ds_b = gen_pendulum("b", seed=1)
    assert ds_b.meta["noise_std"] == 0.0
    np.testing.assert_array_equal(
        ds_b.y, np.asarray(ds_b.meta["true_states"])[:, 0])


def test_linear2nd_settings_pole_radii():
    # characteristic roots of z^2 - a1 z - a2
    for setting, (a1, a2, _) in LINEAR2ND_SETTINGS.items():
        roots = np.roots([1.0, -a1, -a2])
        radius = np.max(np.abs(roots))
        assert radius < 1.0, setting
    a1, a2, _ = LINEAR2ND_SETTINGS["c"]
    radius_c = np.max(np.abs(np.roots([1.0, -a1, -a2])))
    assert 0.85 <= radius_c <= 0.99


def test_linear2nd_generator_output_follows_difference_equation():
    ds = gen_linear2nd("a", seed=0, n=80, noise_std=0.0)
    a1, a2, b1 = LINEAR2ND_SETTINGS["a"]
    y = np.zeros(80)
    y1 = y2 = 0.0
    for k in range(80):
        u_prev = ds.u[k - 1] if k else 0.0
        y[k] = a1 * y1 + a2 * y2 + b1 * u_prev
        y2, y1 = y1, y[k]
    np.testing.assert_allclose(ds.y, y, rtol=1e-12, atol=1e-12)


def test_farina_generator_structure():
    ds = gen_farina(seed=0, n=200, noise_std=0.0)
    # y[k] = 0.6 u[k-1]u[k-2] - 0.5 u[k-1]y[k-1] (bilinear recursion)
    y = np.zeros(200)
    prev = 0.0
    for k in range(200):
        u1 = ds.u[k - 1] if k else 0.0
        u2 = ds.u[k - 2] if k >= 2 else 0.0
        y[k] = 0.6 * u1 * u2 - 0.5 * u1 * prev
        prev = y[k]
    np.testing.assert_allclose(ds.y, y, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Small numeric helpers
# ---------------------------------------------------------------------------

def test_linear_fit_r2_on_exact_line():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    slope, intercept, r2 = linear_fit_r2(x, 2.5 * x - 1.0)
    assert slope == pytest.approx(2.5)
    assert intercept == pytest.approx(-1.0)
    assert r2 == pytest.approx(1.0)


def test_arx_fit_recovers_arx_truth():
    # build data that exactly follows an ARX law with held-first padding
    rng = np.random.default_rng(5)
    from msid import Dataset
    n = 200
    u = rng.normal(size=n)
    y = np.zeros(n)
    for k in range(n):
        y1 = y[k - 1] if k >= 1 else y[0]
        y2 = y[k - 2] if k >= 2 else y[0]
        u1 = u[k - 1] if k >= 1 else u[0]
        y[k] = 0.4 * y1 - 0.3 * y2 + 1.5 * u1
    theta = arx_fit(Dataset(u, y, {}), 2, 1)
    np.testing.assert_allclose(theta, [0.4, -0.3, 1.5], atol=1e-8)


def test_study_options_defaults_and_overrides():
    opts = study_options()
    assert opts.delta0 == 0.1
    assert opts.max_iter == 1000
    assert opts.mu0 == 1e-3
    assert opts.penalty_margin == 1e-4
    assert study_options(max_iter=150).max_iter == 150


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------

def test_multi_start_study_counts_successes():
    prob = EstimationProblem(lower_to_state_space(LogisticMap()),
                             gen_logistic(n=100),
                             MultipleShooting(ShootingPlan.from_max_len(100, 2)))
    res = multi_start_study(prob, [3.3, 3.7], study_options(),
                            target=[3.78], tol=1e-3)
    assert res.summaries["successes"] == 2
    assert len(res.records) == 2
    assert all(abs(r["theta"][0] - 3.78) < 1e-3 for r in res.records)


def test_multi_start_study_solves_through_the_solver_module(monkeypatch):
    # a wrapper put on msid.solver.solve (the benchmark probe's span) must
    # see every solve of a study
    calls = []
    solve = msid.solver.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)
    monkeypatch.setattr(msid.solver, "solve", counted)
    prob = EstimationProblem(lower_to_state_space(LogisticMap()),
                             gen_logistic(n=40),
                             MultipleShooting(ShootingPlan.from_max_len(40, 2)))
    res = multi_start_study(prob, [3.5, 3.7], study_options(max_iter=5))
    assert len(res.records) == 2
    assert len(calls) == 2


@pytest.mark.parametrize("field, value, message", [
    ("generator", "pendulum", "generator must be"),
    ("setting", "z", "setting must be"),
    ("methods", ("arx", "oe-ms:0"), "unknown estimation method 'oe-ms:0'"),
    ("methods", ("msa",), "unknown estimation method 'msa'")])
def test_monte_carlo_config_checks_its_fields(field, value, message):
    with pytest.raises(ValueError, match=message):
        MonteCarloConfig(**{field: value})
    MonteCarloConfig(generator="farina", setting="z",
                     methods=("arx", "oe-ss", "oe-ms:5", "msa:7"))


def test_timing_study_with_horizons_only():
    res = timing_study(LogisticMap(), gen_logistic(n=40), k_list=(1, 2, 3), reps=1)
    assert [r["K"] for r in res.records] == [1, 2, 3]
    assert "ms_spread" not in res.summaries


def test_experiment_result_json_round_trip(tmp_path):
    res = ExperimentResult(config={"study": "demo", "arr": np.array([1.0, 2.0])},
                           records=[{"theta": [3.78], "cost": 0.0}],
                           summaries={"successes": np.int64(2)})
    path = tmp_path / "result.json"
    write_json(path, dataclasses.asdict(res))
    back = json.loads(path.read_text())
    assert back["config"]["study"] == "demo"
    assert back["config"]["arr"] == [1.0, 2.0]
    assert back["records"] == [{"theta": [3.78], "cost": 0.0}]
    assert back["summaries"]["successes"] == 2


# ---------------------------------------------------------------------------
# Grid scans
# ---------------------------------------------------------------------------

def _grid_problem(max_len):
    return EstimationProblem(lower_to_state_space(LogisticMap()),
                             gen_logistic(n=40),
                             MultipleShooting(ShootingPlan.from_max_len(40, max_len)))


@pytest.mark.parametrize("family", [NeuralNetOE(n_y=2, n_u=1, hidden=3),
                                    LinearARMAX(n_a=2, n_b=1, n_c=2)])
@pytest.mark.parametrize("form", [SingleShooting(optimize_x0=True),
                                  SingleShooting(optimize_x0=False),
                                  MultipleShooting(ShootingPlan.from_max_len(50, 7)),
                                  MsaPem(3)], ids=lambda f: type(f).__name__)
def test_grid_scan_matches_cost(family, form):
    model = lower_to_state_space(family)
    prob = EstimationProblem(model, gen_farina(seed=1, n=50), form)
    theta0 = model.default_theta + 0.1
    # three values on the first axis and two on the last, the rest fixed
    axes = [[v] for v in theta0]
    axes[0] = theta0[0] + np.array([-0.3, 0.0, 0.4])
    axes[-1] = theta0[-1] + np.array([0.0, 0.2])
    seeds = prob.default_point(theta0)[model.theta_dim:]
    grid = grid_scan(prob, axes, seeds)
    assert grid.shape == (3,) + (1,) * (model.theta_dim - 2) + (2,)
    for idx in np.ndindex(grid.shape):
        theta = np.array([axes[j][i] for j, i in enumerate(idx)])
        want = prob.cost(np.concatenate([theta, seeds]))
        assert grid[idx] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_batched_grid_matches_cell_by_cell_costs():
    prob = _grid_problem(5)
    thetas = np.linspace(2.8, 3.9, 9)[:, None]
    seeds = prob.default_point(np.array([3.0]))[1:]
    batched = prob.batch_costs(thetas, seeds)
    for i, th in enumerate(thetas):
        direct = prob.cost(np.concatenate([th, seeds]))
        if np.isfinite(direct):
            assert batched[i] == pytest.approx(direct, rel=1e-9)
        else:
            assert batched[i] == np.inf


def test_grid_scan_shape_and_orientation():
    prob = _grid_problem(5)
    grid = grid_scan(prob, [np.linspace(3.0, 3.9, 7)])
    assert grid.shape == (7,)
    # the cell nearest the true parameter has the smallest cost
    assert np.argmin(grid) == 5  # 3.75 is the grid point nearest to 3.78


def test_grid_scan_divergent_cells_marked_infinite():
    prob = EstimationProblem(lower_to_state_space(LogisticMap()),
                             gen_logistic(n=60),
                             SingleShooting(optimize_x0=False))
    grid = grid_scan(prob, [np.array([3.5, 4.8])])
    assert np.isfinite(grid[0])
    assert grid[1] == np.inf


def test_total_variation_orders_rough_above_smooth():
    x = np.linspace(0, 1, 50)
    smooth = np.outer(x, x)
    rng = np.random.default_rng(0)
    rough = smooth + 0.5 * rng.standard_normal((50, 50)) ** 2
    assert total_variation(rough) > 5 * total_variation(smooth)


def test_total_variation_ignores_infinite_cells():
    grid = np.array([[1.0, np.inf], [2.0, 3.0]])
    assert np.isfinite(total_variation(grid))
