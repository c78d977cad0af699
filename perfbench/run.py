"""Benchmark of the p/q -> invariants pipeline of the `twobridge` package.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload, each round in a fresh interpreter
(worker.py), until --seconds have passed, and checks every output.  With
--trace 0 it reports the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  Human-readable lines come first; the last line
of standard output is one JSON object.  `--workload all` runs the three
workloads one after another and ends with one JSON object keyed by
workload.  See README.md for the workloads and the speed correction.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweep", "scale", "cli")
SETUP_SAMPLES = 7  # cold starts measured on their own, besides the one in every round
WORKER_TIMEOUT_S = 150

class WorkerError(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str, spans_path: str | None = None) -> dict:
    cmd = [sys.executable, "-E", "-s", os.path.join(HERE, "worker.py"), workload, str(seed), mode]
    if spans_path:
        cmd.append(spans_path)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerError(f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def run_workload(
    workload: str, seed: int, seconds: int, metric_units: dict, traced: bool
) -> tuple[dict, list[str]]:
    """Rounds until `seconds` have passed; the result object and report lines.

    `metric_units` maps each metric to report, end-to-end or per-layer as
    `traced` says, to its unit.
    """
    run_worker(workload, seed, "setup")  # writes byte code; not measured
    start = time.monotonic()
    setups = [] if traced else [run_worker(workload, seed, "setup") for _ in range(SETUP_SAMPLES)]
    rounds = []
    spans_path = None
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans.jsonl")
    while not rounds or time.monotonic() - start < seconds:
        mode = "traced" if traced else "timed"
        rounds.append(run_worker(workload, seed, mode, spans_path if not rounds else None))

    errors = [e for r in rounds for e in r["errors"]]
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    if traced:
        metrics = traced_metrics(rounds, metric_units)
        if any(r["counts"] != rounds[0]["counts"] for r in rounds):
            errors.append("per-layer counts differ between rounds of one seed")
            result["correct"] = False
        op_p50 = statistics.median(t for r in rounds for t in r["op_s"]) * 1e3
        notes = [f"  traced operation median {op_p50:.4f} ms; spans of round 1 in {spans_path}"]
    else:
        metrics, notes = timed_metrics(rounds, setups, metric_units)
    result["metrics"] = metrics
    lines = [f"{workload}: {len(rounds)} rounds of {rounds[0]['attempted']} operations, seed {seed}"]
    lines += [f"  {name:24s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += notes
    lines.append(f"  attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for failure in rounds[0].get("failures", []):
        lines.append(f"  failed: {failure}")
    for error in errors[:5]:
        lines.append(f"  WRONG OUTPUT: {error}")
    return result, lines


def timed_metrics(rounds: list[dict], setups: list[dict], units: dict) -> tuple[dict, list[str]]:
    setup = [s["setup_s"] for s in setups + rounds]
    pooled = [math.inf if t is None else t for r in rounds for t in r["latencies"]]
    pct = rounds[0]["tail"]
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "latency_p50_ms": percentile(pooled, 50) * 1e3,
        "latency_tail_ms": percentile(pooled, pct) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024,
    }
    raw_run = statistics.median(r["run_raw_s"] for r in rounds)
    raw_setup = statistics.median(s["setup_raw_s"] for s in setups + rounds)
    extra = [
        f"  latency_tail_ms is p{pct:g} of {len(pooled)} operations",
        f"  raw wall clock: run_s {raw_run:.4f} s, setup_s {raw_setup:.5f} s",
    ]
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, extra


def traced_metrics(rounds: list[dict], units: dict) -> dict:
    metrics = {}
    for name, unit in units.items():
        if unit == "s":
            value = statistics.median(r["layer_s"].get(name, 0.0) for r in rounds)
        else:
            value = rounds[0]["counts"].get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "twobridge", "__init__.py")):
        print(f"perfbench: no twobridge package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metric_units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds, metric_units, bool(args.trace))
            print("\n".join(lines), flush=True)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
