"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q -p no:cacheprovider

Workloads run at tiny sizes in-process; two tests run run.py itself.
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import monogamy  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "campaign-3q": dataclasses.replace(WORKLOADS["campaign-3q"], samples=2, trace_units=1),
    "campaign-6q": dataclasses.replace(WORKLOADS["campaign-3q"], n_qubits=6, samples=2),
    "report-wide": dataclasses.replace(WORKLOADS["report-wide"], n_qubits=4, files=2, trace_units=1),
}
EXAMPLE_CALLS = 6  # the recorded --example cases each run checks


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_of_every_workload_passes_its_checks(name, tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "SETUP_GROUPS", 0)  # run.py's tests time set-ups
    runner = worker.Runner(TINY[name], seed=3, workdir=str(tmp_path))
    times, refs, setups = runner.measure(0.0)
    assert len(times) == len(refs) == 1 and times[0] > 0 and refs[0] > 0 and setups == []
    assert runner.tally.attempted == EXAMPLE_CALLS + 2 * TINY[name].ops_per_unit
    assert runner.tally.failed == 0, runner.tally.messages


def test_perturbed_golden_value_counts_as_failure(tmp_path):
    runner = worker.Runner(TINY["campaign-3q"], seed=3, workdir=str(tmp_path))
    rows = runner.golden[(2, None)]
    rows[7] = dict(rows[7], lhs=repr(float(rows[7]["lhs"]) + 1e-9))
    runner.check_examples()
    assert (runner.tally.attempted, runner.tally.failed) == (EXAMPLE_CALLS, 1)
    assert runner.tally.messages[0].startswith("--example 2: row 7 lhs")


@pytest.mark.parametrize("name,per_pair,reports", [("campaign-3q", 20, 20), ("report-wide", 2, 1)])
def test_traced_run_counts_spin_flips_per_pair(name, per_pair, reports, tmp_path):
    runner = worker.Runner(TINY[name], seed=3, workdir=str(tmp_path))
    layers, absent = runner.trace()
    assert absent == []
    assert layers["measures.spin_flip.calls_per_pair"]["value"] == per_pair
    assert runner.tally.failed == 0, runner.tally.messages
    # the example sweeps are timed, but kept out of the units' counts
    assert layers["bounds.alpha_sweep.self_s"]["value"] > 0
    assert layers["bounds.monogamy_report.calls"]["value"] == reports
    # the originals are back in every namespace
    assert not hasattr(monogamy.cli.main, "__wrapped__")
    assert monogamy.bounds.partial_trace is monogamy.qstate.partial_trace
    assert not hasattr(monogamy.qstate.partial_trace, "__wrapped__")


def test_heap_peak_sees_the_projectors_of_a_report(tmp_path):
    # at n = 7 the three 256 KiB projectors outweigh everything else a call allocates
    w = dataclasses.replace(WORKLOADS["report-wide"], n_qubits=7, files=1)
    runner = worker.Runner(w, seed=3, workdir=str(tmp_path))
    projectors = 3 * 16 * 4**w.n_qubits / 2**20
    assert projectors < runner.heap_peak_mib() < 2 * projectors
    assert runner.tally.failed == 0, runner.tally.messages


def test_tracer_records_a_missing_name_as_absent(monkeypatch):
    monkeypatch.delattr(monogamy.bounds, "alpha_sweep")
    with Tracer() as tracer:
        pass
    assert tracer.absent == ["bounds.alpha_sweep"]
    assert tracer.calls("bounds.alpha_sweep") == 0


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    proc = _run(ROOT, "--workload", "campaign-3q", "--seed", "5", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "report-wide", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
