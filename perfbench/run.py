"""Benchmark of the monogamy package, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Runs one workload (see workloads.py) in a fresh interpreter through the
public ``monogamy.cli.main`` entry point, checks every output, and prints
the metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
``--workload all`` runs every workload in turn and prints one table.

Each run times 21 set-ups (a fresh interpreter importing the package and
building the workload's inputs), in groups spread over the run (see
worker.py), and reports their median as ``setup_s``. The package is
imported from ``src/`` of the tree holding this directory; nothing is
installed. Scratch files go to ``.perfbench_work/`` in that tree and are
removed afterwards.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
TIME_LIMIT_S = 170.0  # a run ends within 180 s, killing a worker that hangs

# name: (unit, better) -- the end-to-end metrics, measured with tracing off.
# On a shared machine the same unit runs up to 1.6x slower for minutes at a
# time as neighbours load the host. So latency is gated as the p5 of the
# unit times over the p5 of the reference kernel's times, taken in turn
# with the units: the fast tails of the two move together, and their ratio
# stays put from run to run. The times themselves are printed beside it.
END_TO_END = {
    "latency_p5_vs_ref": ("ratio", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "heap_peak_mib": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    """Environment of a worker: the tree's src/ on the path, no MONOGAMY_*
    variable (MONOGAMY_SEED would override --seed), and one BLAS thread.

    With a second BLAS thread a call waits for the slower of two cores, and
    a unit ran up to 9x slower whenever anything else used the other core.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("MONOGAMY_")}
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before worker {' '.join(args)}")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """HEAD of the tree if it is a git checkout; never a repository above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """One measured run; returns the result line plus details for people."""
    w = WORKLOADS[name]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        res = spawn(["--workload", name, "--seed", str(seed), "--workdir", workdir,
                     "--seconds", str(seconds), "--trace", str(trace)], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"provenance": dict(res["provenance"], git_commit=git_commit())}
    if trace:
        metrics = res["layers"]
        info["absent"] = res["absent"]
    else:
        unit_ms = [t * 1000.0 for t in res["unit_s"]]
        ref_ms = [t * 1000.0 for t in res["ref_s"]]
        cuts = statistics.quantiles(unit_ms, n=20) if len(unit_ms) > 1 else unit_ms * 19
        ref_p5 = statistics.quantiles(ref_ms, n=20)[0] if len(ref_ms) > 1 else ref_ms[0]
        values = {
            "latency_p5_vs_ref": cuts[0] / ref_p5,
            "peak_rss_mib": res["peak_rss_mib"],
            "heap_peak_mib": res["heap_peak_mib"],
            "setup_s": statistics.median(res["setups_s"]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}
        p50 = statistics.median(unit_ms)
        figures = {"units": len(unit_ms), "latency_p5_ms": cuts[0], "latency_p50_ms": p50,
                   "latency_p90_ms": cuts[17], "reference_p5_ms": ref_p5,
                   "error_rate": res["failed"] / res["attempted"],
                   "undetermined_share": res["undetermined"] / max(res["tested"], 1)}
        if w.kind == "campaign":
            figures["campaign_states_per_s"] = len(unit_ms) * w.samples * 1000.0 / sum(unit_ms)
        else:
            figures["report_latency_p50_ms"] = p50
        info["figures"] = figures
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return {"result": result, "info": info, "messages": res["messages"]}


def print_run(name: str, run: dict) -> None:
    result, info = run["result"], run["info"]
    print(f"== {name}: {result['attempted']} operations, {result['failed']} failed")
    for metric, m in result["metrics"].items():
        better = END_TO_END.get(metric, ("", ""))[1]
        print(f"  {metric:<42} {m['value']:>14.6g} {m['unit']:<10} {better}")
    for key, value in info.get("figures", {}).items():
        print(f"  ({key:<40} {value:>14.6g})")
    if info.get("absent"):
        print(f"  traced names absent at this commit: {', '.join(info['absent'])}")
    for why in run["messages"]:
        print(f"  check failed: {why}")
    print(f"  provenance: {json.dumps(info['provenance'], sort_keys=True)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the monogamy package.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "monogamy", "cli.py")):
        print(f"error: no monogamy package under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            run = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            print_run(name, run)
            result = run["result"]
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, m in result["metrics"].items():
                combined["metrics"][prefix + metric] = m
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
