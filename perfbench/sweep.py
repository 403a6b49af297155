"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root, for example:

    python3 perfbench/sweep.py --workloads surface,pendulum-ss --seeds 0-9 --seconds 25

Runs are made one after another.  For every workload and metric the
summary gives the median, the quartiles (``statistics.quantiles(n=4)``)
and the quartile spread as a share of the median, which is how the
benchmark's bounds are judged.  ``--out`` writes the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_arg(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def one_run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    extra, env = {}, {}
    for line in lines:
        if line.startswith("# outcomes "):
            extra = {k: v["value"] for k, v in json.loads(line[11:]).items()}
        elif line.startswith("# env "):
            env = json.loads(line[6:])
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return {"seed": seed, "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "metrics": values, "outcomes": extra,
            "env": env}


def summarise(values) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            run = one_run(workload, seed, args.seconds, args.trace)
            runs.append(run)
            print(json.dumps({"workload": workload,
                              **{k: v for k, v in run.items() if k != "env"}}), flush=True)
        metrics = {}
        for key in runs[0]["metrics"]:
            vals = [r["metrics"][key] for r in runs]
            metrics[key] = summarise(vals)
        for key in ("wall_s", "ms_per_unit", "cal_ms", "units"):
            if key in runs[0]["outcomes"]:
                metrics["outcome." + key] = summarise([r["outcomes"][key] for r in runs])
        env = {k: v for k, v in runs[0]["env"].items() if k not in ("workload", "seed")}
        summary[workload] = {"seeds": args.seeds, "env": env,
                             "all_correct": all(r["correct"] for r in runs),
                             "metrics": metrics}
        for key, s in metrics.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload} {key}: median {s['median']:.6g} spread {spread}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
