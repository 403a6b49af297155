import errno
import json
import os
import pathlib

import pytest

import msid.experiments as xp
from msid import EstimationProblem, SolverOptions, incremental_k_schedule
from msid.cli import main
from msid.experiments import gen_farina, gen_logistic
from msid.models import farina_polynomial, lower_to_state_space
from msid.smoothness import SmoothnessReport

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _simulate_cfg(n=30, seed=7):
    return {"command": "simulate", "seed": seed,
            "dataset": {"generator": "logistic", "n": n}}


def _estimate_cfg(n=60, max_len=2):
    return {"command": "estimate", "seed": 0,
            "model": {"family": "logistic", "theta": [3.4]},
            "dataset": {"generator": "logistic", "n": n},
            "formulation": {"kind": "multiple", "max_len": max_len}}


# ---------------------------------------------------------------------------
# Validation and exit codes
# ---------------------------------------------------------------------------

def test_validate_accepts_good_config(tmp_path, capsys):
    path = _write(tmp_path, _simulate_cfg())
    assert main(["validate", "--config", path]) == 0
    assert "config ok" in capsys.readouterr().out


def test_bundled_configs_validate():
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs, "no bundled configs found"
    for cfg in configs:
        assert main(["validate", "--config", str(cfg)]) == 0, cfg.name


def test_bundled_solver_blocks_set_no_default():
    # the studies' settings are SolverOptions' defaults; a config sets only
    # what it changes
    defaults = SolverOptions()
    for cfg in sorted(CONFIG_DIR.glob("*.json")):
        for key, value in json.loads(cfg.read_text()).get("solver", {}).items():
            assert value != getattr(defaults, key), f"{cfg.name}: solver.{key}"


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err
    assert main(["validate", "--config", str(tmp_path)]) == 2
    assert f"a directory, not a file: {tmp_path}" in capsys.readouterr().err


# an output directory that names a file, lies under one, or holds a
# directory where run writes a file: (output path, the path reported,
# the reason), relative to a directory holding the file "taken"
UNUSABLE_OUTPUTS = {
    "names-a-file": ("taken", "taken", os.strerror(errno.EEXIST)),
    "under-a-file": ("taken/out", "taken/out", os.strerror(errno.ENOTDIR)),
    "holds-a-directory": ("out", "out/manifest.json", "a directory, not a file"),
}


@pytest.mark.parametrize("via", ["--out", "config.out"])
@pytest.mark.parametrize("case", UNUSABLE_OUTPUTS)
def test_unusable_output_path_exits_2(case, via, tmp_path, capsys):
    out, reported, reason = UNUSABLE_OUTPUTS[case]
    (tmp_path / "taken").write_text("")
    (tmp_path / "out" / "manifest.json").mkdir(parents=True)
    cfg, argv = _simulate_cfg(), []
    if via == "--out":
        argv = ["--out", str(tmp_path / out)]
    else:
        cfg["out"] = str(tmp_path / out)
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 0
    assert main(["run", "--config", path, *argv]) == 2
    assert f"{reason}: {tmp_path / reported}" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["validate", "run"])
def test_config_not_utf8_exits_3(action, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"command": "simulate", "seed": 0, "out": "\xff"}')
    argv = ["--out", str(tmp_path / "out")] if action == "run" else []
    assert main([action, "--config", str(path), *argv]) == 3
    err = capsys.readouterr().err
    assert "invalid config: config: not valid JSON (" in err
    assert "can't decode byte 0xff" in err
    assert not (tmp_path / "out").exists()


def test_malformed_json_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == 3
    assert "invalid config" in capsys.readouterr().err


def test_unknown_command_exits_3(tmp_path, capsys):
    cfg = _simulate_cfg()
    cfg["command"] = "frobnicate"
    assert main(["validate", "--config", _write(tmp_path, cfg)]) == 3
    assert "command" in capsys.readouterr().err


def test_error_message_names_offending_field(tmp_path, capsys):
    cfg = _simulate_cfg()
    cfg["dataset"]["n"] = -5
    assert main(["validate", "--config", _write(tmp_path, cfg)]) == 3
    assert "dataset.n" in capsys.readouterr().err


def test_duplicate_shooting_boundary_rejected(tmp_path, capsys):
    cfg = _estimate_cfg()
    cfg["formulation"] = {"kind": "multiple", "boundaries": [0, 10, 10]}
    assert main(["validate", "--config", _write(tmp_path, cfg)]) == 3
    assert "formulation" in capsys.readouterr().err


def test_msa_horizon_must_be_positive(tmp_path, capsys):
    cfg = _estimate_cfg()
    cfg["formulation"] = {"kind": "msa", "horizon": 0}
    assert main(["validate", "--config", _write(tmp_path, cfg)]) == 3
    assert "horizon" in capsys.readouterr().err


def test_unknown_solver_option_rejected(tmp_path, capsys):
    cfg = _estimate_cfg()
    cfg["solver"] = {"warp_speed": True}
    assert main(["validate", "--config", _write(tmp_path, cfg)]) == 3
    assert "solver" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

def test_simulate_writes_dataset_and_manifest(tmp_path):
    path = _write(tmp_path, _simulate_cfg())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    lines = (out / "dataset.csv").read_text().splitlines()
    assert lines[0] == "k,u,y"
    assert len(lines) == 31
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert len(manifest["config_sha256"]) == 64


def test_simulate_reruns_are_byte_identical(tmp_path):
    path = _write(tmp_path, _simulate_cfg())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(out1)]) == 0
    assert main(["run", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    path = _write(tmp_path, _simulate_cfg())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg2 = _simulate_cfg()
    cfg2["dataset"]["noise_std"] = 0.1
    noisy = _write(tmp_path, cfg2, "noisy.json")
    assert main(["run", "--config", noisy, "--out", str(out1)]) == 0
    assert main(["run", "--config", noisy, "--out", str(out2), "--seed", "99"]) == 0
    assert (out1 / "dataset.csv").read_text() != (out2 / "dataset.csv").read_text()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_estimate_recovers_logistic_parameter(tmp_path):
    path = _write(tmp_path, _estimate_cfg())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    # stagnation at the rounding floor is an acceptable finish here
    assert result["status"] in ("converged", "step-too-small")
    assert abs(result["theta"][0] - 3.78) < 1e-3
    assert "wall_time" not in result


def test_estimate_result_is_deterministic(tmp_path):
    path = _write(tmp_path, _estimate_cfg(n=40))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(out1)]) == 0
    assert main(["run", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()


def test_estimate_trace_flag_writes_iteration_log(tmp_path):
    path = _write(tmp_path, _estimate_cfg(n=40))
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--trace"]) == 0
    lines = (out / "trace.jsonl").read_text().splitlines()
    assert lines
    rec = json.loads(lines[0])
    assert "radius" in rec and "ratio" in rec


def test_estimate_nonconvergence_exits_4(tmp_path, capsys):
    cfg = _estimate_cfg(n=60)
    cfg["formulation"] = {"kind": "single"}
    cfg["model"]["theta"] = [3.2]          # trapped start for single shooting
    cfg["solver"] = {"max_iter": 3}
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "did not converge" in err
    result = json.loads((out / "result.json").read_text())
    assert result["status"] == "max-iter"


# ---------------------------------------------------------------------------
# Configs that validate must run to a documented exit code
# ---------------------------------------------------------------------------

def test_interior_boundaries_are_closed_by_record_ends(tmp_path):
    # boundaries 2..58 mean the plan 0 | 2 | ... | 58 | 60, the max_len-2 plan
    results = []
    for name, form in (
            ("interior", {"kind": "multiple", "boundaries": list(range(2, 60, 2))}),
            ("full", {"kind": "multiple", "boundaries": list(range(0, 61, 2))}),
            ("max_len", {"kind": "multiple", "max_len": 2})):
        cfg = _estimate_cfg(n=60)
        cfg["formulation"] = form
        path = _write(tmp_path, cfg, f"{name}.json")
        assert main(["validate", "--config", path]) == 0
        out = tmp_path / name
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        results.append((out / "result.json").read_bytes())
    assert results[0] == results[1] == results[2]


def test_boundary_beyond_record_exits_3(tmp_path, capsys):
    cfg = _estimate_cfg(n=60)
    cfg["formulation"] = {"kind": "multiple", "boundaries": [0, 30, 90]}
    path = _write(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "formulation.boundaries" in capsys.readouterr().err


def test_empty_dataset_rejected(tmp_path, capsys):
    cfg = _estimate_cfg()
    cfg["dataset"]["n"] = 0
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 3
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "dataset.n" in capsys.readouterr().err


def test_non_finite_start_exits_4(tmp_path, capsys):
    cfg = _estimate_cfg(n=40)
    cfg["model"]["theta"] = [1e80]
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 4
    assert "status=non-finite" in capsys.readouterr().err
    result = json.loads((out / "result.json").read_text())
    assert (result["status"], result["iterations"], result["n_eval"]) == ("non-finite", 0, 1)


def _edge_estimate_cfg(family, n, formulation, theta=None, **dataset):
    cfg = {"command": "estimate", "seed": 0, "model": {"family": family},
           "dataset": {"generator": family, "n": n, **dataset},
           "formulation": formulation}
    if theta is not None:
        cfg["model"]["theta"] = theta
    return cfg


_ARX_GRID = [[0.4, 0.6, 2], [-0.3, -0.1, 2], [1.8, 2.2, 2]]

# (config, exit code): schema-valid configs at the edges of what the
# formulations, studies and smoothness command accept
EDGE_CONFIGS = {
    "single-n1": (_edge_estimate_cfg("logistic", 1, {"kind": "single"}), 0),
    # the transient leaves no residual step: refused when the problem is built
    "single-fixed-x0-n1": (_edge_estimate_cfg(
        "logistic", 1, {"kind": "single", "optimize_x0": False}), 3),
    "msa-horizon-past-record": (_edge_estimate_cfg(
        "logistic", 5, {"kind": "msa", "horizon": 50}), 0),
    "arx-single": (_edge_estimate_cfg(
        "linear-arx", 40, {"kind": "single"}, generator="linear2nd"), 0),
    "arx-multiple": (_edge_estimate_cfg(
        "linear-arx", 40, {"kind": "multiple", "max_len": 4}, generator="linear2nd"), 0),
    "arx-msa-grid": ({"command": "study", "seed": 0, "model": {"family": "linear-arx"},
                      "dataset": {"generator": "linear2nd", "n": 40},
                      "formulation": {"kind": "msa", "horizon": 3},
                      "study": {"kind": "grid", "grid": _ARX_GRID}}, 0),
    "smoothness-lengths-1-2-3": ({
        "command": "smoothness", "seed": 0, "model": {"family": "logistic"},
        "dataset": {"generator": "logistic"},
        "smoothness": {"lengths": [1, 2, 3], "param_box": [[3.6, 3.9]],
                       "pair_samples": 2}}, 0),
    "grid-1x1-n1": ({"command": "study", "seed": 0, "model": {"family": "pendulum"},
                     "dataset": {"generator": "pendulum", "n": 1},
                     "formulation": {"kind": "single"},
                     "study": {"kind": "grid", "grid": [[30.0, 30.0, 1], [2.0, 2.0, 1]]}}, 0),
    "timing-n1": ({"command": "study", "seed": 0, "model": {"family": "logistic"},
                   "dataset": {"generator": "logistic", "n": 1},
                   "study": {"kind": "timing", "k_list": [1], "dm_list": [1],
                             "reps": 1}}, 0),
    "pendulum-theta-1e300": (_edge_estimate_cfg(
        "pendulum", 40, {"kind": "multiple", "max_len": 8}, theta=[1e300, 1e300],
        scenario="b"), 4),
    # CG stops on a curvature of inf - inf, without a warning, and the
    # solve ends "step-too-small", which exits 0
    "logistic-csv-y10-1e140": ({
        **json.loads((CONFIG_DIR / "logistic_estimate_ms2.json").read_text()),
        "dataset": {"csv": "logistic-y10-1e140.csv"}}, 0),
}

# the records that edge configs read, by file name: (sample index, value)
# written into a 40-sample logistic record
EDGE_CSVS = {"logistic-y10-1e140.csv": (10, 1e140)}


def _logistic_csv(path, index, sample, n=40):
    """A logistic record of n samples whose y[index] is sample."""
    record = gen_logistic(n=n)
    y = record.y.copy()
    y[index] = sample
    path.write_text("k,u,y\n" + "".join(
        f"{j + 1},{float(record.u[j])!r},{float(y[j])!r}\n" for j in range(n)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg, code", EDGE_CONFIGS.values(), ids=EDGE_CONFIGS)
def test_edge_configs_end_in_a_documented_exit_code(tmp_path, monkeypatch, cfg, code):
    monkeypatch.chdir(tmp_path)
    csv = cfg["dataset"].get("csv")
    if csv:
        _logistic_csv(tmp_path / csv, *EDGE_CSVS[csv])
    path = _write(tmp_path, cfg)
    # validate builds what run builds, so the two agree on a refused config
    assert main(["validate", "--config", path]) == (3 if code == 3 else 0)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == code


def test_a_problem_without_residuals_names_its_field(tmp_path, capsys):
    # single shooting from a fixed x0 drops the transient, which a record
    # of n <= n_transient samples does not outlast
    fixed_x0 = {"kind": "single", "optimize_x0": False}
    smoothness = json.loads((CONFIG_DIR / "linear2nd_smoothness.json").read_text())
    smoothness["smoothness"].update(lengths=[1, 2, 3], pair_samples=2)
    cases = ((_edge_estimate_cfg("logistic", 1, fixed_x0), "config.formulation: "),
             (smoothness, "config.smoothness.lengths[0]: "))
    for cfg, field in cases:
        assert cfg["formulation"] == fixed_x0
        path = _write(tmp_path, cfg)
        for action in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert main([*action, "--config", path]) == 3
            assert field + "keeps no residual" in capsys.readouterr().err


def _csv_estimate_cfg(tmp_path, text):
    csv = tmp_path / "data.csv"
    csv.write_text(text)
    cfg = _estimate_cfg()
    cfg["dataset"] = {"csv": str(csv)}
    return _write(tmp_path, cfg)


def test_csv_dataset_takes_csv_alone(tmp_path, capsys):
    csv = tmp_path / "logistic.csv"
    gen_logistic(n=60).to_csv(csv)
    cfg = _estimate_cfg()
    cfg["dataset"] = {"csv": str(csv), "n": 10}
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["validate", "--config", path]) == 3
    assert main(["run", "--config", path, "--out", str(out)]) == 3
    assert capsys.readouterr().err.count(
        "config.dataset.n: not a field of a CSV dataset") == 2
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sample", [1e151, 1e200, 1e308])
def test_csv_sample_beyond_the_divergence_limit_exits_3(tmp_path, capsys, sample):
    # no prediction can reach such a sample; its squared residual overflowed
    csv = tmp_path / "logistic.csv"
    _logistic_csv(csv, 20, sample)
    estimate = _estimate_cfg()
    estimate["dataset"] = {"csv": str(csv)}
    smoothness = _smoothness_cfg("logistic", {"csv": str(csv)}, [[3.6, 3.9]])
    for cfg in (estimate, smoothness):
        path = _write(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["validate", "--config", path]) == 3
        assert main(["run", "--config", path, "--out", str(out)]) == 3
        assert capsys.readouterr().err.count(
            "config.dataset.csv: dataset entries must be finite and at most") == 2
        assert not out.exists()


def test_header_only_csv_exits_3(tmp_path, capsys):
    path = _csv_estimate_cfg(tmp_path, "k,u,y\n")
    assert main(["validate", "--config", path]) == 3
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "dataset.csv" in capsys.readouterr().err


def test_bad_csv_header_exits_3(tmp_path, capsys):
    path = _csv_estimate_cfg(tmp_path, "time,input,output\n1,0.0,0.5\n")
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "dataset.csv" in capsys.readouterr().err


def test_theta_length_must_match_model(tmp_path, capsys):
    cfg = _estimate_cfg()
    cfg["model"]["theta"] = [3.4, 1.0]
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 3
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "model.theta" in capsys.readouterr().err


def test_unused_model_key_rejected(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "logistic_estimate_ms2.json").read_text())
    cfg["model"]["hidden"] = 7
    assert main(["validate", "--config", _write(tmp_path, cfg)]) == 3
    assert "config.model" in capsys.readouterr().err


# (bundled config, field, value, exit code, message): each of these configs
# used to pass validate and then fail, or crash, only under run
BUILD_FAILURES = {
    "multi-start-tol": ("logistic_multistart", "study.tol", "x", 3,
                        "config.study.tol: expected a number"),
    "multi-start-guess-length": ("logistic_multistart", "study.guesses",
                                 [[3.4, 1.0]], 3,
                                 "config.study.guesses[0]: expected 1 values"),
    "multi-start-guess-type": ("logistic_multistart", "study.guesses", ["a"], 3,
                               "config.study.guesses[0]: expected a list"),
    "multi-start-target": ("pendulum_basins", "study.target", [1, 2, 3], 3,
                           "config.study.target: expected 2 values"),
    "monte-carlo-method": ("linear2nd_montecarlo", "study.methods", ["oe-xx"], 3,
                           "config.study: unknown estimation method 'oe-xx'"),
    "monte-carlo-generator": ("linear2nd_montecarlo", "study.generator",
                              "pendulum", 3, "config.study: generator must be"),
    "monte-carlo-setting": ("linear2nd_montecarlo", "study.setting", "z", 3,
                            "config.study: setting must be"),
    "timing-reps": ("msa_timing", "study.reps", "x", 3,
                    "config.study.reps: expected an integer"),
    "timing-horizon": ("msa_timing", "study.k_list", [0], 3,
                       "config.study.k_list[0]: prediction horizon must be >= 1"),
    # a max_len-16 plan over 1024 pendulum samples has 64 two-state seeds
    "grid-fixed-seeds": ("pendulum_grid", "study.fixed_seeds", [0.5, 0.4], 3,
                         "config.study.fixed_seeds: expected 128 numbers"),
    "missing-csv": ("logistic_estimate_ms2", "dataset",
                    {"csv": "no-such-dir/data.csv"}, 2,
                    "file not found: no-such-dir/data.csv"),
    "csv-directory": ("logistic_estimate_ms2", "dataset", {"csv": str(CONFIG_DIR)},
                      2, f"a directory, not a file: {CONFIG_DIR}"),
    "incremental-flag": ("logistic_estimate_ms2", "formulation.incremental",
                         "yes please", 3,
                         "config.formulation.incremental: unknown field"),
    "solver-trace": ("logistic_estimate_ms2", "solver.trace", True, 3,
                     "config.solver.trace: unknown field"),
    # the trust-region policy and the penalty's start and margin are fixed
    # in the solver, not config keys
    "solver-shrink-factor": ("logistic_estimate_ms2", "solver.shrink_factor", 0.5, 3,
                             "config.solver.shrink_factor: unknown field"),
    "solver-mu0": ("logistic_estimate_ms2", "solver.mu0", 1e-3, 3,
                   "config.solver.mu0: unknown field"),
    "solver-penalty-margin": ("logistic_estimate_ms2", "solver.penalty_margin", 1e-4, 3,
                              "config.solver.penalty_margin: unknown field"),
    # json.loads reads NaN and Infinity, which no number field takes
    "param-box-infinite": ("logistic_smoothness", "smoothness.param_box",
                           [[3.6, float("inf")]], 3,
                           "config.smoothness.param_box[0][1]: must be finite"),
    "param-box-unbounded": ("logistic_smoothness", "smoothness.param_box",
                            [[-float("inf"), float("inf")]], 3,
                            "config.smoothness.param_box[0][0]: must be finite"),
    "grid-axis-infinite": ("pendulum_grid", "study.grid",
                           [[20, float("inf"), 3], [0.5, 6.0, 3]], 3,
                           "config.study.grid[0][1]: must be finite"),
    "pair-samples": ("logistic_smoothness", "smoothness.pair_samples", 2.5, 3,
                     "config.smoothness.pair_samples: expected an integer"),
    "dataset-n": ("logistic_estimate_ms2", "dataset.n", 10.7, 3,
                  "config.dataset.n: expected an integer"),
    "max-iter": ("logistic_estimate_ms2", "solver.max_iter", 2.5, 3,
                 "config.solver.max_iter: expected an integer"),
    # a plan given by boundaries has no max_len
    "boundaries-max-len": ("logistic_estimate_ms2", "formulation.boundaries", [0, 100], 3,
                           "config.formulation.max_len: not a field of formulation "
                           "kind 'multiple' with boundaries"),
}

# (bundled config, field, value, owner): fields of the schema that the
# command, study kind or formulation kind named by owner does not read
UNREAD_FIELDS = {
    "incremental-formulation": ("farina_incremental", "formulation",
                                {"kind": "msa", "horizon": 30}, "study kind 'incremental'"),
    "timing-formulation": ("msa_timing", "formulation", {"kind": "single"},
                           "study kind 'timing'"),
    "timing-solver": ("msa_timing", "solver", {"max_iter": 5}, "study kind 'timing'"),
    "timing-guesses": ("msa_timing", "study.guesses", [[0.0, 0.0]], "study kind 'timing'"),
    "monte-carlo-model": ("linear2nd_montecarlo", "model", {"family": "linear-oe-2nd"},
                          "study kind 'monte-carlo'"),
    "monte-carlo-dataset": ("linear2nd_montecarlo", "dataset", {"generator": "linear2nd"},
                            "study kind 'monte-carlo'"),
    "monte-carlo-formulation": ("linear2nd_montecarlo", "formulation", {"kind": "single"},
                                "study kind 'monte-carlo'"),
    "grid-solver": ("pendulum_grid", "solver", {"max_iter": 5}, "study kind 'grid'"),
    "grid-reps": ("pendulum_grid", "study.reps", 3, "study kind 'grid'"),
    "grid-k-max": ("pendulum_grid", "study.k_max", 30, "study kind 'grid'"),
    "grid-tol": ("pendulum_grid", "study.tol", 0.1, "study kind 'grid'"),
    "multi-start-k-max": ("logistic_multistart", "study.k_max", 30,
                          "study kind 'multi-start'"),
    "multi-start-reps": ("logistic_multistart", "study.reps", 3, "study kind 'multi-start'"),
    "multi-start-realizations": ("logistic_multistart", "study.n_realizations", 5,
                                 "study kind 'multi-start'"),
    "smoothness-solver": ("logistic_smoothness", "solver", {"max_iter": 5},
                          "command 'smoothness'"),
    "smoothness-study": ("logistic_smoothness", "study", {"kind": "grid"},
                         "command 'smoothness'"),
    # the smoothness lengths set n
    "smoothness-dataset-n": ("logistic_smoothness", "dataset.n", 40, "command 'smoothness'"),
    "simulate-model": ("logistic_simulate", "model", {"family": "logistic"},
                       "command 'simulate'"),
    "simulate-formulation": ("logistic_simulate", "formulation", {"kind": "single"},
                             "command 'simulate'"),
    "simulate-solver": ("logistic_simulate", "solver", {"max_iter": 5}, "command 'simulate'"),
    "simulate-smoothness": ("logistic_simulate", "smoothness", {"lengths": [10, 20, 40]},
                            "command 'simulate'"),
    "multiple-horizon": ("logistic_estimate_ms2", "formulation.horizon", 5,
                         "formulation kind 'multiple'"),
    "single-max-len": ("logistic_smoothness", "formulation.max_len", 2,
                       "formulation kind 'single'"),
    # only an estimate (its start) and a timing study (the model's θ) read it
    "grid-model-theta": ("pendulum_grid", "model.theta", [10, 1], "study kind 'grid'"),
    "multi-start-model-theta": ("logistic_multistart", "model.theta", [3.0],
                                "study kind 'multi-start'"),
    "incremental-model-theta": ("farina_incremental", "model.theta", [0.0, 0.0],
                                "study kind 'incremental'"),
    "smoothness-model-theta": ("logistic_smoothness", "model.theta", [3.7],
                               "command 'smoothness'"),
}
BUILD_FAILURES.update(
    (name, (cfg, field, value, 3, f"config.{field}: not a field of {owner}"))
    for name, (cfg, field, value, owner) in UNREAD_FIELDS.items())


@pytest.mark.parametrize("name, field, value, code, message",
                         BUILD_FAILURES.values(), ids=BUILD_FAILURES)
def test_validate_and_run_agree(tmp_path, capsys, name, field, value, code,
                                message):
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    *parents, key = field.split(".")
    obj = cfg
    for part in parents:
        obj = obj.setdefault(part, {})
    obj[key] = value
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == code
    assert message in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def _grid_cfg(family="logistic", grid=None):
    return {"command": "study", "seed": 0,
            "model": {"family": family},
            "dataset": {"generator": family, "n": 40},
            "formulation": {"kind": "multiple", "max_len": 4},
            "study": {"kind": "grid", "grid": grid or [[3.0, 3.9, 3]]}}


def test_grid_needs_one_axis_per_parameter(tmp_path, capsys):
    path = _write(tmp_path, _grid_cfg("pendulum", [[20, 50, 3]]))
    assert main(["validate", "--config", path]) == 3
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "config.study.grid: expected 2 axes" in capsys.readouterr().err


def test_grid_axis_bounds_must_be_numbers(tmp_path, capsys):
    path = _write(tmp_path, _grid_cfg(grid=[["a", 3.9, 3]]))
    assert main(["validate", "--config", path]) == 3
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "config.study.grid[0][0]" in capsys.readouterr().err


def test_grid_needs_a_formulation(tmp_path, capsys):
    cfg = _grid_cfg()
    del cfg["formulation"]
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 3
    assert "config.formulation: missing required field" in capsys.readouterr().err


def test_grid_fixed_seed_count_checked_at_run(tmp_path, capsys):
    # a max_len-4 plan over 40 samples has 10 seeds, not 2
    cfg = _grid_cfg()
    cfg["study"]["fixed_seeds"] = [0.5, 0.4]
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 3
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "config.study.fixed_seeds" in capsys.readouterr().err
    cfg["study"]["fixed_seeds"] = [0.5] * 10
    path = _write(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_timing_study_result_is_deterministic(tmp_path):
    cfg = {"command": "study", "seed": 0,
           "model": {"family": "logistic"},
           "dataset": {"generator": "logistic", "n": 60},
           "study": {"kind": "timing", "k_list": [1, 2, 3], "dm_list": [2, 4],
                     "reps": 1}}
    path = _write(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(out1)]) == 0
    assert main(["run", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
    timing = json.loads((out1 / "timing.json").read_text())
    settings = [(r["kind"], r.get("K", r.get("max_len"))) for r in timing["records"]]
    assert settings == [("msa", 1), ("msa", 2), ("msa", 3),
                        ("multiple-shooting", 2), ("multiple-shooting", 4)]
    assert all(r["time_per_eval"] > 0 for r in timing["records"])
    assert set(timing["summaries"]) == {"msa_slope", "msa_r2", "ms_spread"}


@pytest.mark.parametrize("family, theta", [("logistic", [3.5]),
                                           ("pendulum", [30.0, 1.5])])
def test_timing_study_times_at_model_theta(tmp_path, monkeypatch, family, theta):
    # every cost the study times, by horizon and by interval cap, is at θ
    timed = []
    cost, batch_costs = EstimationProblem.cost, EstimationProblem.batch_costs

    def spy_cost(self, phi):
        timed.append(phi[: self.model.theta_dim].tolist())
        return cost(self, phi)

    def spy_batch_costs(self, thetas, seeds):
        timed.extend(row.tolist() for row in thetas)
        return batch_costs(self, thetas, seeds)
    monkeypatch.setattr(EstimationProblem, "cost", spy_cost)
    monkeypatch.setattr(EstimationProblem, "batch_costs", spy_batch_costs)
    monkeypatch.setattr(xp, "SAMPLE_SECONDS", 0.0)
    cfg = {"command": "study", "seed": 0,
           "model": {"family": family, "theta": theta},
           "dataset": {"generator": family, "n": 40},
           "study": {"kind": "timing", "k_list": [1, 2], "dm_list": [4],
                     "reps": 1}}
    path = _write(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert timed and all(t == theta for t in timed)


def _incremental_cfg(guesses, tol):
    return {"command": "study", "seed": 0, "model": {"family": "farina"},
            "dataset": {"generator": "farina", "n": 60},
            "study": {"kind": "incremental", "guesses": guesses, "tol": tol,
                      "k_max": 4}}


def test_incremental_study_runs_one_schedule_per_guess(tmp_path):
    guesses = [[0.0, 0.0], [1.0, -0.5]]
    path = _write(tmp_path, _incremental_cfg(guesses, 0.0))
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    model = lower_to_state_space(farina_polynomial())
    expected, thetas = [], []
    for guess in guesses:
        schedule = incremental_k_schedule(model, gen_farina(n=60), guess, 4,
                                          SolverOptions(), tol=0.0)
        assert [k for k, _ in schedule] == [1, 2, 3, 4]
        expected += [{"guess": guess, "horizon": k, "point": r.point.tolist(),
                      "multipliers": r.multipliers.tolist(), "status": r.status,
                      "cost": r.cost, "kkt_residual": r.kkt_residual,
                      "constraint_violation": r.constraint_violation,
                      "iterations": r.iterations, "n_eval": r.n_eval}
                     for k, r in schedule]
        thetas.append(schedule[-1][1].point[:2].tolist())
    assert result["records"] == expected
    assert result["summaries"] == {"theta": thetas}
    # a tolerance no step undercuts stops each schedule at its second horizon
    path = _write(tmp_path, _incremental_cfg(guesses, 1e9), "early.json")
    assert main(["run", "--config", path, "--out", str(tmp_path / "early")]) == 0
    early = json.loads((tmp_path / "early" / "result.json").read_text())["records"]
    assert [(r["guess"], r["horizon"]) for r in early] == [
        (guess, k) for guess in guesses for k in (1, 2)]


def _smoothness_cfg(family, dataset, param_box):
    return {"command": "smoothness", "seed": 0,
            "model": {"family": family}, "dataset": dataset,
            "formulation": {"kind": "single", "optimize_x0": False},
            "smoothness": {"lengths": [10, 20, 40], "param_box": param_box,
                           "pair_samples": 10}}


@pytest.mark.parametrize("family, dataset, param_box", [
    ("logistic", {"generator": "logistic"}, [[3.6, 3.9]]),
    ("linear-oe-2nd", {"generator": "linear2nd", "setting": "a"},
     [[0.4, 0.6], [-0.3, -0.1], [1.8, 2.2]])], ids=["logistic", "linear-oe-2nd"])
def test_smoothness_report_round_trips_and_reruns(tmp_path, family, dataset,
                                                  param_box):
    path = _write(tmp_path, _smoothness_cfg(family, dataset, param_box))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(out1)]) == 0
    assert main(["run", "--config", path, "--out", str(out2)]) == 0
    text = (out1 / "smoothness.json").read_text()
    report = SmoothnessReport.from_json(text)
    assert report.to_json() + "\n" == text
    assert report.lengths == [10, 20, 40]
    assert all(v > 0 for v in report.lipschitz_estimates + report.beta_estimates)
    assert (out1 / "smoothness.json").read_bytes() == (out2 / "smoothness.json").read_bytes()


def test_smoothness_reads_a_csv_prefix_per_length(tmp_path, capsys):
    # length n uses the record's first n samples, as the generator does
    gen_cfg = _smoothness_cfg("logistic", {"generator": "logistic"}, [[3.6, 3.9]])
    csv = tmp_path / "logistic.csv"
    gen_logistic(n=40).to_csv(csv)
    csv_cfg = {**gen_cfg, "dataset": {"csv": str(csv)}}
    outs = []
    for name, cfg in (("gen", gen_cfg), ("csv", csv_cfg)):
        path = _write(tmp_path, cfg, f"{name}.json")
        assert main(["run", "--config", path, "--out", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name / "smoothness.json").read_bytes())
    assert outs[0] == outs[1]
    # a length past the end of the record fails at build, in both commands
    csv_cfg["smoothness"] = {**csv_cfg["smoothness"], "lengths": [10, 20, 80]}
    path = _write(tmp_path, csv_cfg, "long.json")
    out = tmp_path / "long"
    assert main(["validate", "--config", path]) == 3
    assert main(["run", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("config.smoothness.lengths[2]: 80 exceeds the 40 samples") == 2
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("param_box", [[0.4, 0.6]], "param_box: expected 3"),
    ("lengths", [80, 160], "lengths: expected a list of at least 3"),
    ("contraction_samples", 0, "contraction_samples: must be >= 1")],
    ids=["param_box", "lengths", "contraction_samples"])
def test_smoothness_fields_checked_at_validate(tmp_path, capsys, field, value,
                                               message):
    # each of these configs ran into a traceback before validate checked it
    cfg = _smoothness_cfg("linear-oe-2nd", {"generator": "linear2nd"},
                          [[0.4, 0.6], [-0.3, -0.1], [1.8, 2.2]])
    cfg["smoothness"][field] = value
    path = _write(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 3
    assert f"config.smoothness.{message}" in capsys.readouterr().err
