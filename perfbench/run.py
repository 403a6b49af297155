"""Benchmark of the msid toolkit: one process, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload logistic-ms2 --seed 0 --seconds 25 --trace 0

Workloads: logistic-ms2, pendulum-ss, pendulum-ms16, surface and, not in
BENCHMARK.json, farina-msa (see ``workloads.py``).  BLAS and OpenMP are pinned to one
thread before NumPy is imported.  A run

1. times set-up in fresh child processes (imports, data generation, model
   lowering, problem construction) and reports the median;
2. repeats the workload's fixed set of top-level calls while the
   ``--seconds`` budget allows (at least once), each call starting only
   after the previous one returned;
3. checks the outputs and that the deterministic work counts repeat across
   passes and across runs of the same seed and program;
4. reports the time per unit of work as a multiple of a fixed calibration
   loop timed next to every call (``cal_per_unit``, see ``calibration``);
5. prints the environment, the deterministic counts, the study outcomes
   and, as its last line, one JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run makes one untraced pass and one traced pass and reports the
per-layer metrics of the traced pass.  Everything a run records is also
written under ``perfbench/results/``.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# counts that must repeat exactly for one seed and one program
DETERMINISTIC = ("solver.iterations", "solver.n_eval", "solver.hess_vec.calls",
                 "simulate.rollouts", "simulate.steps", "simulate.step_rows")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _monotonic() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading
    # can be compared with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- set-up -----------------------------------------------------------------

def timed_setup(name: str, seed: int):
    """Import msid, generate the data and build the problems of a workload."""
    clock = time.perf_counter
    t0 = clock()
    import workloads
    t1 = clock()
    if name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name]
    data = wl.data(seed)
    t2 = clock()
    built = wl.build(data, lambda model: model)
    t3 = clock()
    return wl, data, built, {"setup.import_s": t1 - t0, "setup.data_s": t2 - t1,
                             "setup.problem_s": t3 - t2}


def setup_child(args) -> int:
    _, _, _, phases = timed_setup(args.workload, args.seed)
    print(json.dumps({"ready": _monotonic(), **phases}))
    return 0


def measure_setup(name: str, seed: int, repeats: int) -> list:
    """Fresh process to ready-for-the-first-call, ``repeats`` times."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    for _ in range(repeats):
        t0 = _monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode:
            raise BenchError("set-up child failed:\n" + proc.stderr)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append({"setup_s": rec.pop("ready") - t0, **rec})
    return samples


# -- environment --------------------------------------------------------------

def _blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import glob
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    """HEAD of the enclosing git checkout, read from files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_hash(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "cpu": _cpu_model(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "commit": _commit(),
        "source_sha256": source_hash((SRC / "msid").glob("*.py")),
        "bench_sha256": source_hash(HERE / f for f in ("run.py", "workloads.py", "probe.py")),
    }


# -- calibration --------------------------------------------------------------

def calibration(kind: str):
    """A function that times one fixed loop of ``kind`` (best of three).

    The loops use NumPy only, no msid code, so a change to the program
    leaves them alone.  ``rollout`` steps a two-state system through 600
    small matrix-vector products, like a single-row rollout; ``dense``
    solves one 300 x 150 least-squares problem, like the constraint
    algebra.  Timed next to every call, the loop slows down with the host
    when other work runs there, so the ratio of the two holds steady.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    if kind == "rollout":
        a = np.array([[1.0, 0.01], [-0.1, 0.99]])
        b = np.array([0.0, 0.01])
        m = rng.random((120, 100))

        def work():
            x = np.zeros(2)
            for k in range(600):
                x = a @ x + b * np.sin(x[0] + 0.01 * k)
            np.linalg.lstsq(m, m[:, 0], rcond=None)
    elif kind == "dense":
        m = rng.random((300, 150))

        def work():
            np.linalg.lstsq(m, m[:, 0], rcond=None)
    else:
        raise BenchError(f"unknown calibration loop {kind!r}")
    clock = time.perf_counter

    def timed() -> float:
        best = float("inf")
        for _ in range(3):
            t0 = clock()
            work()
            best = min(best, clock() - t0)
        return best
    timed()  # warm-up
    return timed


# -- passes -------------------------------------------------------------------

def run_pass(wl, built, probe, trace: bool, calibrate) -> dict:
    """One closed-loop pass over the workload's top-level calls.

    The calibration loop is timed before the first call and after each
    call, outside the calls' times and outside ``wall_s``."""
    from workloads import Outcome
    calls = wl.calls(built, trace)
    unit_count = getattr(wl, "unit_count", None)
    outcomes, call_s, call_counts = [], [], []
    cal_s = [calibrate()]
    clock = time.perf_counter
    wall = 0.0
    with probe.active():
        for label, thunk in calls:
            before = dict(probe.counts)
            t1 = clock()
            try:
                outcome = probe.top(label, thunk)
            except Exception:  # a failing call is counted, the pass goes on
                outcome = Outcome(failures=[traceback.format_exc(limit=3)])
            call_s.append(clock() - t1)
            wall += call_s[-1]
            cal_s.append(calibrate())
            done = {k: v - before.get(k, 0) for k, v in probe.counts.items()}
            done["solver.iterations"] = sum(r.iterations for r in outcome.results)
            done["solver.n_eval"] = sum(r.n_eval for r in outcome.results)
            call_counts.append(done)
            if unit_count:
                outcome.units = done[unit_count]
            outcomes.append(outcome)
    call_units = [o.units for o in outcomes]
    for index, reason in wl.check(outcomes):
        outcomes[index].failures.append(reason)
    results = [r for o in outcomes for r in o.results]
    counts = {"solver.iterations": sum(r.iterations for r in results),
              "solver.n_eval": sum(r.n_eval for r in results)}
    counts.update((k, probe.counts[k]) for k in DETERMINISTIC if k not in counts)
    recovered = [flag for o in outcomes for flag in o.recovered]
    return {
        "wall_s": wall, "call_s": call_s, "cal_s": cal_s, "call_units": call_units,
        "call_counts": call_counts,
        "units": sum(call_units),
        "attempted": len(outcomes),
        "failed": sum(bool(o.failures) for o in outcomes),
        "failures": [f for o in outcomes for f in o.failures],
        "counts": counts, "results": results,
        "recovered_frac": sum(recovered) / len(recovered) if recovered else None,
        "converged_frac": (sum(r.converged for r in results) / len(results)
                           if results else None),
    }


def check_counts_registry(env: dict, counts: dict) -> list:
    """Compare the counts with earlier runs of the same seed and program."""
    key = ":".join(str(env[k]) for k in ("source_sha256", "bench_sha256", "workload",
                                         "seed", "numpy", "blas_threads"))
    path = RESULTS / "counts.json"
    try:
        registry = json.loads(path.read_text())
    except (OSError, ValueError):
        registry = {}
    if key in registry:
        if registry[key] != counts:
            return [f"deterministic counts differ from an earlier run of this "
                    f"seed: {registry[key]} != {counts}"]
        return []
    registry[key] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return []


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(probe, passes_u, pass_t) -> dict:
    """Per-layer metrics of the traced pass."""
    from msid.solver import SolverOptions
    s, c, pc = probe.self_s, probe.calls, probe.parent_calls
    counts = {**pass_t["counts"], **probe.counts}
    records = [rec for r in pass_t["results"] for rec in r.trace]
    accepted = sum(rec["ratio"] > SolverOptions().accept_ratio for rec in records)
    steps = counts.get("simulate.steps", 0)
    objective_self = sum(v for k, v in s.items() if k.startswith("objective.")
                         and not k.startswith("objective.heuristic_seeds"))
    m = {
        "solver.iterations": _metric(counts["solver.iterations"], "count"),
        "solver.n_eval": _metric(counts["solver.n_eval"], "count"),
        "solver.hess_vec.calls": _metric(counts["solver.hess_vec.calls"], "count"),
        "solver.accepted_frac": _metric(accepted / len(records) if records else 0.0,
                                        "ratio"),
        "solver.multipliers_s": _metric(s["solver.lagrange_multipliers"], "s"),
        "solver.vertical_s": _metric(s["solver.vertical_step"], "s"),
        "solver.horizontal_s": _metric(s["solver.horizontal_step"], "s"),
        "solver.jacobian_s": _metric(s["solver.jacobian"], "s"),
        "solver.self_s": _metric(s["solver.solve"], "s"),
        "objective.cost.calls": _metric(c["objective.cost"], "count"),
        "objective.gradient.calls": _metric(c["objective.gradient"], "count"),
        "objective.hess_vec.calls": _metric(c["objective.gn_hessian_vec"], "count"),
        "objective.constraints.calls": _metric(c["objective.constraints"], "count"),
        "objective.jacobian.calls": _metric(c["objective.constraint_jacobian"], "count"),
        "objective.jac_t_vec.calls": _metric(c["objective.constraint_jac_t_vec"], "count"),
        "objective.seeds_s": _metric(s["objective.heuristic_seeds"]
                                     + s["objective.heuristic_seeds_msa"], "s"),
        "objective.self_s": _metric(objective_self, "s"),
        "objective.rollouts_per_call": _metric(
            counts["simulate.rollouts"] / max(probe.layer_entries["objective"], 1),
            "ratio"),
        "simulate.rollouts": _metric(counts["simulate.rollouts"], "count"),
        "simulate.rollouts_sens": _metric(probe.counts["simulate.rollouts_sens"], "count"),
        "simulate.steps": _metric(steps, "count"),
        "simulate.step_rows": _metric(counts["simulate.step_rows"], "count"),
        "simulate.self_s": _metric(s["simulate.run_intervals"], "s"),
        "simulate.us_per_step": _metric(
            1e6 * probe.total_s["simulate.run_intervals"] / steps if steps else 0.0,
            "us"),
        "models.transition_s": _metric(s["models.transition"], "s"),
        "models.output_s": _metric(s["models.output"], "s"),
        "models.transition_jac_s": _metric(s["models.transition_jacobians"], "s"),
        "models.output_jac_s": _metric(s["models.output_jacobians"], "s"),
        "models.init_state.calls": _metric(probe.counts["models.init_state.calls"],
                                           "count"),
        "experiments.grid_scan_s": _metric(s["experiments.grid_scan"], "s"),
        "experiments.grid_scan.scalar_costs": _metric(
            pc["objective.cost", "experiments.grid_scan"], "count"),
        "smoothness.report_s": _metric(s["smoothness.smoothness_report"], "s"),
        "smoothness.cost.calls": _metric(
            pc["objective.cost", "smoothness.smoothness_report"], "count"),
        "smoothness.grad.calls": _metric(
            pc["objective.gradient", "smoothness.smoothness_report"], "count"),
        "smoothness.hess_vec.calls": _metric(
            pc["objective.gn_hessian_vec", "smoothness.smoothness_report"], "count"),
    }
    attributed = sum(v["value"] for k, v in m.items() if v["unit"] == "s")
    wall_u = statistics.median(p["wall_s"] for p in passes_u)
    m["trace.wall_s"] = _metric(pass_t["wall_s"], "s")
    m["trace.overhead_s"] = _metric(pass_t["wall_s"] - wall_u, "s")
    m["trace.unattributed_s"] = _metric(pass_t["wall_s"] - attributed, "s")
    m["trace.spans"] = _metric(probe.n_spans(), "count")
    return m


def run(args) -> int:
    import probe as probe_mod
    setup = measure_setup(args.workload, args.seed, SETUP_REPEATS)
    wl, data, built, _ = timed_setup(args.workload, args.seed)
    env = environment(args)
    print("# env " + json.dumps(env), flush=True)

    calibrate = calibration(wl.calibration)
    budget = args.seconds
    passes = []
    started = time.perf_counter()
    while True:
        p = probe_mod.Probe(spans=False)
        passes.append(run_pass(wl, built, p, trace=False, calibrate=calibrate))
        elapsed = time.perf_counter() - started
        if args.trace or elapsed + elapsed / len(passes) > budget:
            break
        built = wl.build(data, lambda model: model)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = None
    if args.trace:
        tprobe = probe_mod.Probe(spans=True)
        traced = run_pass(wl, wl.build(data, tprobe.wrap_model), tprobe, trace=True,
                          calibrate=calibrate)

    all_passes = passes + ([traced] if traced else [])
    problems = []
    first = passes[0]["counts"]
    for i, p in enumerate(all_passes[1:], 1):
        if p["counts"] != first:
            problems.append(f"pass {i} counts {p['counts']} != pass 0 counts {first}")
    RESULTS.mkdir(exist_ok=True)
    problems += check_counts_registry(env, first)

    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    units = passes[0]["units"]
    if any(p["units"] != units for p in all_passes):
        problems.append("work units differ between passes")
    print("# counts " + json.dumps(first), flush=True)
    # each call's time as a multiple of the calibration loop timed around it
    scaled = [[t / (0.5 * (p["cal_s"][i] + p["cal_s"][i + 1]))
               for i, t in enumerate(p["call_s"])] for p in passes]
    outcomes = {
        "wall_s": _metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "ms_per_unit": _metric(1e3 * sum(
            statistics.median(times) for times in zip(*(p["call_s"] for p in passes)))
            / max(units, 1), "ms"),
        "cal_ms": _metric(1e3 * statistics.median(c for p in passes for c in p["cal_s"]),
                          "ms"),
        "recovered_frac": _metric(passes[0]["recovered_frac"], "ratio"),
        "converged_frac": _metric(passes[0]["converged_frac"], "ratio"),
        "failed_frac": _metric(failed / attempted, "ratio"),
        "units": _metric(units, "count"),
        "passes": _metric(len(passes), "count"),
    }
    print("# outcomes " + json.dumps(outcomes), flush=True)
    for p in all_passes:
        for f in p["failures"]:
            print("# failed check: " + f.strip().replace("\n", " | "), flush=True)
    for f in problems:
        print("# determinism: " + f, flush=True)

    setup_med = {k: statistics.median(s[k] for s in setup) for k in setup[0]}
    if args.trace:
        metrics = layer_metrics(tprobe, passes, traced)
        for k in ("setup.import_s", "setup.data_s", "setup.problem_s"):
            metrics[k] = _metric(setup_med[k], "s")
        tprobe.save_spans(RESULTS / f"{args.workload}-seed{args.seed}.spans.npz")
    else:
        metrics = {
            "setup_s": _metric(setup_med["setup_s"], "s"),
            # each call's median over the passes, in calibration loops
            "cal_per_unit": _metric(sum(statistics.median(c) for c in zip(*scaled))
                                    / max(units, 1), "cal"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"env": env, "result": result, "outcomes": outcomes, "counts": first,
              "setup_samples": setup, "determinism": problems,
              "passes": [{k: v for k, v in p.items() if k != "results"}
                         for p in all_passes]}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up the workload, print the ready time and exit")
    args = ap.parse_args(argv)
    if not (SRC / "msid" / "__init__.py").is_file():
        print(f"perfbench: no msid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.setup_only:
            return setup_child(args)
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
