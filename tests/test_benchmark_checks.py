"""The benchmark's own correctness checks pass against the package.

``perfbench/worker.py`` checks every unit it times: a campaign's rows against
a state-by-state recomputation through the library (``campaign_reference``
and ``campaign_row_problem``), and a ``--state`` call's output against the
report's invariants and the golden CSV (``state_call_problem``).  An API
change that breaks these checks would otherwise first show as a benchmark
run that ends incorrect.  The worker is loaded by path and not modified.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def worker():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
        mp.syspath_prepend(str(PERFBENCH))  # the worker imports its siblings tracer and workloads
        spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)


def test_a_campaign_call_matches_the_library_reference(worker, tmp_path):
    w = worker.WORKLOADS["campaign-3q"]
    runner = worker.Runner(w, 0, str(tmp_path))
    # one --verify call; a cross-checked unit passes its rows through campaign_reference and campaign_row_problem
    runner.unit(1, cross_check=True)
    tally = runner.tally
    assert (tally.attempted, tally.tested, tally.failed, tally.messages) == (w.ops_per_unit, w.ops_per_unit, 0, [])


def test_state_calls_under_every_measure_pass_their_checks(worker, tmp_path):
    runner = worker.Runner(worker.WORKLOADS["report-wide"], 0, str(tmp_path))
    for i, measure in enumerate(worker.MEASURES):  # units cycle the measures; at seed 0 each has a golden row
        argv = runner.report_argv(i)
        assert argv[3] == measure
        code, stdout, _ = runner.call(argv)
        assert code == 0, stdout
        assert worker.state_call_problem(measure, stdout, worker.read_csv(runner.out), runner.golden[i]) is None
