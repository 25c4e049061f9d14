"""One workload in a fresh interpreter: set up, time, check, report.

run.py starts this file for the measured run. That run starts it again,
with ``--setup-only``, for each further set-up it times. The last line of
standard output is one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR \\
        [--seconds S] [--trace 0|1] [--setup-only]
"""
import time

_START = time.perf_counter()  # set-up time includes importing the package

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import tracemalloc

import numpy
import monogamy
from monogamy import cli

from tracer import Tracer
from workloads import CAMPAIGN_ROWS, MEASURES, WORKLOADS, Workload

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
TOL = 1e-9  # the CLI's default --tolerance
EXAMPLE_Q = ("2", "2.5", "3")  # --q values of scenario 4 with a golden CSV
REPORT_VALUES = ("lhs", "new_bound", "baseline_weighted", "baseline_sum",
                 "residual_new", "residual_gap")
MAX_MESSAGES = 20
HEAP_UNITS = 16  # units whose heap is traced after the timed ones
# set-ups timed during a measured run: SETUPS_PER_GROUP at a time, the
# groups spread evenly over the run, so that setup_s samples the machine
# over the whole run and not in one moment
SETUP_GROUPS = 10
SETUPS_PER_GROUP = 2
# operands of the reference kernel: a fixed 8x8 Hermitian and a 2x2 matrix
_REF_RNG = numpy.random.default_rng(0)
_REF_H = _REF_RNG.standard_normal((8, 8)) + 1j * _REF_RNG.standard_normal((8, 8))
_REF_H += _REF_H.conj().T
_REF_S = _REF_RNG.standard_normal((2, 2))


def reference_kernel() -> float:
    """Seconds taken by fixed work that does not use the package: small
    numpy and LAPACK calls on 3-qubit-sized operands, the kind of work a
    unit does. Timed before every unit, it tracks the speed of the machine."""
    t0 = time.perf_counter()
    for _ in range(30):
        x = _REF_H @ _REF_H
        numpy.kron(_REF_S, _REF_S)
        numpy.linalg.eigvalsh(_REF_H)
        numpy.trace(x).real
        numpy.sqrt(numpy.abs(x))
    return time.perf_counter() - t0


def close(a: float, b: float) -> bool:
    """a equals b to 1e-12 (relative above 1), or to the 12 significant
    digits the CLI prints, whichever is coarser."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    digit = 1.5 * 10.0 ** (math.floor(math.log10(abs(b))) - 11) if b else 0.0
    return abs(a - b) <= max(1e-12 * max(1.0, abs(b)), digit)


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def report_problem(measure, alpha, pair_values, values, asserted):
    """The first seed-free invariant a bound report breaks, or None."""
    if not all(math.isfinite(v) for v in (*pair_values, *values.values())):
        return "non-finite value"
    if any(not 0.0 <= v <= 1.0 for v in pair_values):
        return "pair value outside [0, 1]"
    # at alpha 2 both sides are squared concurrences (CREN equals the
    # concurrence on two qubits and on a pure qubit-vs-rest cut)
    if measure in ("concurrence", "cren") and alpha == 2.0:
        if values["baseline_sum"] > values["lhs"] + TOL:
            return "CKW violated: sum of squared pair concurrences above the squared cut"
    if values["residual_gap"] < -TOL:
        return f"residual_gap {values['residual_gap']!r} below -{TOL}"
    if asserted and values["residual_new"] < -TOL:
        return f"asserted bound violated: residual_new {values['residual_new']!r}"
    return None


class Tally:
    """Operations attempted and failed, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.tested = 0  # evaluations with verdicts, the base of undetermined
        self.undetermined = 0

    def add(self, ops: int, failures: list[tuple[int, str]]) -> None:
        self.attempted += ops
        self.failed += min(ops, sum(n for n, _ in failures))
        for _, why in failures:
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(why)


class Runner:
    """Builds a workload's inputs and runs, times and checks its units."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.out = os.path.join(workdir, "out.csv")
        self.files: list[str] = []
        self.golden: dict = {}
        self.tally = Tally()
        if workload.kind == "report":
            for j in range(workload.files):
                path = os.path.join(workdir, f"state{j}.json")
                monogamy.save_state(monogamy.haar_random(workload.n_qubits, seed * 1000 + j), path)
                self.files.append(path)
            if seed == 0:
                self.golden = dict(enumerate(read_csv(_golden_path("report-wide-seed0.csv"))))
        for k, q in _example_cases():
            self.golden[(k, q)] = read_csv(_golden_path(_example_golden(k, q)))

    # -- one unit -------------------------------------------------------

    def call(self, argv) -> tuple[object, str, float]:
        """Run the CLI in-process; returns (exit code, stdout, seconds)."""
        if os.path.exists(self.out):
            os.remove(self.out)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception as exc:  # a crash fails the operation, not the benchmark
            code = f"{type(exc).__name__}: {exc}"
        return code, buf.getvalue(), time.perf_counter() - t0

    def unit(self, i: int, cross_check: bool = False) -> float:
        """Run, check and tally unit i; returns its CLI wall time."""
        if self.w.kind == "campaign":
            seconds, failures = self._campaign(i, cross_check)
        else:
            seconds, failures = self._report(i)
        self.tally.add(self.w.ops_per_unit, failures)
        return seconds

    def _campaign(self, i, cross_check):
        w = self.w
        seed = self.seed * 1_000_000 + i * w.samples
        argv = ["--verify", "--n-qubits", str(w.n_qubits), "--samples", str(w.samples),
                "--seed", str(seed), "--measure", ",".join(MEASURES),
                "--alphas", "floor,2,3", "--out", self.out]
        code, _, seconds = self.call(argv)
        where = f"{w.name} --verify --seed {seed}"
        if code != 0:
            return seconds, [(w.ops_per_unit, f"{where}: exit {code}")]
        try:
            rows = read_csv(self.out)
        except OSError as exc:
            return seconds, [(w.ops_per_unit, f"{where}: {exc}")]
        if len(rows) != CAMPAIGN_ROWS:
            return seconds, [(w.ops_per_unit, f"{where}: {len(rows)} rows")]
        try:
            reference = campaign_reference(w, seed) if cross_check else {}
        except Exception as exc:  # the library changed under the cross-check
            return seconds, [(w.ops_per_unit, f"{where}: library cross-check raised {exc!r}")]
        failures = []
        for row in rows:
            try:
                why = campaign_row_problem(w, row, reference)
                self.tally.tested += int(row["tested"])
                self.tally.undetermined += int(row["undetermined"])
            except (KeyError, ValueError) as exc:
                why = f"unreadable row: {exc}"
            if why:
                failures.append((w.samples, f"{where} {row.get('measure')} alpha {row.get('alpha')}: {why}"))
        return seconds, failures

    def report_argv(self, i):
        """--state call of unit i: file i, measure i, each cycled."""
        path = self.files[i % len(self.files)]
        return ["--state", path, "--measure", MEASURES[i % len(MEASURES)], "--out", self.out]

    def _report(self, i):
        argv = self.report_argv(i)
        measure = argv[3]
        code, text, seconds = self.call(argv)
        where = f"{self.w.name} unit {i} --state {os.path.basename(argv[1])} --measure {measure}"
        if code != 0:
            return seconds, [(1, f"{where}: exit {code}")]
        try:
            why = state_call_problem(measure, text, read_csv(self.out), self.golden.get(i))
            undetermined = "Undetermined" in re.search(r"^verdicts: (.*)$", text, re.M).group(1)
            self.tally.tested += 1
            self.tally.undetermined += undetermined and "asserted: no" in text
        except (OSError, KeyError, ValueError, AttributeError) as exc:
            why = f"unreadable output: {exc!r}"
        return seconds, [(1, f"{where}: {why}")] if why else []

    def check_examples(self) -> None:
        """Run every recorded --example scenario once, untimed, and compare
        its CSV with the golden one: the ROADMAP's same-output rule."""
        for k, q in _example_cases():
            argv = ["--example", str(k), "--out", self.out] + (["--q", q] if q else [])
            code, _, _ = self.call(argv)
            where = f"--example {k}" + (f" --q {q}" if q else "")
            if code != 0:
                why = f"exit {code}"
            else:
                try:
                    why = csv_mismatch(read_csv(self.out), self.golden[(k, q)])
                except OSError as exc:
                    why = str(exc)
            self.tally.add(1, [(1, f"{where}: {why}")] if why else [])

    # -- a run ------------------------------------------------------------

    def measure(self, seconds: float) -> tuple[list[float], list[float], list[float]]:
        """Time units 1, 2, ... for ``seconds``, each after a run of the
        reference kernel; the example checks and unit 0 warm up untimed.
        Set-ups are timed in groups between units, their time not counted
        in ``seconds``. Returns the unit, reference and set-up times."""
        self.check_examples()
        self.unit(0, cross_check=True)
        times, refs, setups = [], [], []
        start = time.perf_counter()
        i = 1
        while True:
            elapsed = time.perf_counter() - start
            groups = len(setups) // SETUPS_PER_GROUP
            if groups < SETUP_GROUPS and elapsed >= seconds * groups / SETUP_GROUPS:
                t0 = time.perf_counter()
                setups += [self.time_setup() for _ in range(SETUPS_PER_GROUP)]
                start += time.perf_counter() - t0
            elif times and elapsed >= seconds:
                return times, refs, setups
            else:
                refs.append(reference_kernel())
                times.append(self.unit(i))
                i += 1

    def time_setup(self) -> float:
        """setup_s of a fresh interpreter that sets up this workload and exits."""
        workdir = os.path.join(self.workdir, "setup")
        os.makedirs(workdir, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", self.w.name,
             "--seed", str(self.seed), "--workdir", workdir, "--setup-only"],
            stdout=subprocess.PIPE, text=True, timeout=60, check=True,
        )
        return json.loads(proc.stdout.splitlines()[-1])["setup_s"]

    def heap_peak_mib(self) -> float:
        """Median over units 1..HEAP_UNITS of the most heap the unit
        allocates above the heap at its start, in MiB. tracemalloc sees
        numpy's array buffers, so a projector counts in full; the count is
        exact, not sampled. Unit 0 runs first and is not counted: the first
        traced call allocates more. The median leaves out the units in
        which the garbage collector happened to run."""
        peaks = []
        tracemalloc.start()
        try:
            for i in range(1 + HEAP_UNITS):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                self.unit(i)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        return statistics.median(peaks[1:]) / 2**20

    def trace(self) -> tuple[dict, list[str]]:
        """Run the same fixed units untraced, then traced; returns the
        per-layer metrics and the traced names the package lacks.

        The example checks, the only calls that reach ``alpha_sweep``, run
        under a tracer of their own, so that the unit counts and the
        comparisons are those of the workload's units alone."""
        self.unit(0, cross_check=True)
        with Tracer() as examples:
            self.check_examples()
        units = range(1, 1 + self.w.trace_units)
        plain = sum(self.unit(i) for i in units)
        with Tracer() as tracer:
            traced = sum(self.unit(i) for i in units)
        metrics = layer_metrics(tracer, self.w, traced - plain)
        metrics["bounds.alpha_sweep.self_s"]["value"] = examples.self_s("bounds.alpha_sweep")
        return metrics, tracer.absent


def campaign_reference(w: Workload, seed: int) -> dict:
    """Expected CSV rows of one --verify call, recomputed state by state
    through the library: {(measure, alpha text): (counts, minima, problem)}.
    """
    kinds = (monogamy.CONCURRENCE, monogamy.EOF, monogamy.CREN, monogamy.tsallis_kind(2.0))
    states = [monogamy.haar_random(w.n_qubits, seed + k) for k in range(w.samples)]
    expected = {}
    for kind in kinds:
        for alpha in sorted({kind.alpha_floor, 2.0, 3.0}):
            counts = [0, 0, 0]  # asserted, undetermined, inapplicable
            min_new = min_gap = math.inf
            problem = None
            for psi in states:
                r = monogamy.monogamy_report(psi, 0, kind, alpha)
                values = {f: getattr(r, f) for f in REPORT_VALUES}
                problem = problem or report_problem(kind.name, alpha, r.pair_values, values, r.asserted)
                min_gap = min(min_gap, r.residual_gap)
                if r.asserted:
                    counts[0] += 1
                    min_new = min(min_new, r.residual_new)
                elif any(getattr(v, "value", v) == "Undetermined" for v in r.preconditions.verdicts):
                    counts[1] += 1
                else:
                    counts[2] += 1
            minima = (min_new if counts[0] else math.nan, min_gap)
            expected[(kind.name, f"{alpha:.12g}")] = (counts, minima, problem)
    return expected


def campaign_row_problem(w: Workload, row: dict, reference: dict):
    tested = int(row["tested"])
    counts = [int(row[k]) for k in ("asserted", "undetermined", "inapplicable")]
    min_new, min_gap = float(row["min_residual_new"]), float(row["min_residual_gap"])
    if tested != w.samples or sum(counts) != tested:
        return f"counts {tested}/{counts} for {w.samples} states"
    if not (math.isfinite(min_gap) and min_gap >= -TOL):
        return f"min_residual_gap {min_gap!r}"
    if counts[0] and not (math.isfinite(min_new) and min_new >= -TOL):
        return f"asserted bound violated: min_residual_new {min_new!r}"
    if w.n_qubits == 3 and counts[0] != tested:
        return f"asserted {counts[0]} of {tested}; every 3-qubit comparison is exact"
    if reference:
        key = (row["measure"], row["alpha"])
        if key not in reference:
            return "row the library does not produce"
        want_counts, want_minima, problem = reference[key]
        if problem:
            return f"library report: {problem}"
        if counts != want_counts:
            return f"counts {counts}, library gives {want_counts}"
        if not (close(min_new, want_minima[0]) and close(min_gap, want_minima[1])):
            return f"minima ({min_new!r}, {min_gap!r}), library gives {want_minima}"
    return None


def state_call_problem(measure, stdout, rows, golden):
    """Why the output of one --state call is wrong, or None."""
    if len(rows) != 1:
        return f"{len(rows)} CSV rows"
    row = rows[0]
    if row["measure"] != measure:
        return f"measure {row['measure']!r}"
    values = {f: float(row[f]) for f in REPORT_VALUES}
    pair_values = [float(v) for v in re.search(r"^pair_values: (.*)$", stdout, re.M).group(1).split(",")]
    asserted = re.search(r"asserted: (yes|no)", stdout).group(1) == "yes"
    why = report_problem(measure, float(row["alpha"]), pair_values, values, asserted)
    if why is None and golden is not None:
        why = csv_mismatch(rows, [golden])
    return why


def csv_mismatch(rows, golden):
    """Where CSV rows differ from golden rows, or None."""
    if len(rows) != len(golden):
        return f"{len(rows)} rows, golden has {len(golden)}"
    for n, (row, want) in enumerate(zip(rows, golden)):
        if row.keys() != want.keys():
            return f"columns {list(row)}"
        for key, text in row.items():
            if text == want[key]:
                continue
            try:
                same = close(float(text), float(want[key]))
            except ValueError:
                same = False
            if not same:
                return f"row {n} {key} = {text}, golden {want[key]}"
    return None


# traced label: which of its figures are reported, module by module
LAYER_FIGURES = (
    ("qstate.to_density_matrix", ("calls", "self_s")),
    ("qstate.DensityMatrix.init", ("calls", "self_s")),
    ("qstate.partial_trace", ("calls", "self_s")),
    ("qstate.load_state", ("self_s",)),
    ("measures.concurrence_two_qubit", ("calls", "self_s")),
    ("measures.pure_cut_value", ("calls", "self_s")),
    ("measures.concurrence_pure", ("calls", "self_s")),
    ("measures.pair_value", ("self_s",)),
    ("bounds.monogamy_report", ("calls", "self_s")),
    ("bounds.WeightLadder.weights", ("calls",)),
    ("bounds.alpha_sweep", ("self_s",)),
    ("states.haar_random", ("calls", "self_s")),
    ("cli.run_campaign", ("self_s",)),
    ("cli.main", ("self_s",)),
)


def layer_metrics(tracer: Tracer, w: Workload, overhead_s: float) -> dict:
    """Per-layer metrics of a traced run, with units."""
    m = {}
    for label, figures in LAYER_FIGURES:
        if "calls" in figures:
            m[f"{label}.calls"] = (tracer.calls(label), "count")
        if "self_s" in figures:
            m[f"{label}.self_s"] = (tracer.self_s(label), "s")
    m["qstate.projector_bytes"] = (tracer.projector_bytes, "B-computed")
    # every spin-flip spectrum goes through the public concurrence_two_qubit
    state_pairs = w.trace_units * w.samples * w.pairs
    m["measures.spin_flip.calls_per_pair"] = (
        tracer.calls("measures.concurrence_two_qubit") / state_pairs, "calls/pair")
    m["bounds.comparisons"] = (tracer.comparisons, "count")
    m["bounds.determined_ratio"] = (
        tracer.determined / tracer.comparisons if tracer.comparisons else 0.0, "ratio")
    m["trace.overhead_s"] = (overhead_s, "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


# -- goldens -----------------------------------------------------------------

def _golden_path(name):
    return os.path.join(GOLDEN_DIR, name)


def _example_cases():
    return [(k, None) for k in (1, 2, 3)] + [(4, q) for q in EXAMPLE_Q]


def _example_golden(k, q):
    return f"example{k}.csv" if q is None else f"example{k}-q{q}.csv"


# -- provenance --------------------------------------------------------------

def provenance() -> dict:
    import importlib.util
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(numpy),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def _blas_threads(numpy):
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    runner = Runner(WORKLOADS[args.workload], args.seed, args.workdir)
    result = {"setup_s": time.perf_counter() - _START}
    if not args.setup_only:
        if args.trace:
            result["layers"], result["absent"] = runner.trace()
        else:
            result["unit_s"], result["ref_s"], setups = runner.measure(args.seconds)
            result["setups_s"] = [result["setup_s"], *setups]
            # read before tracemalloc's own bookkeeping adds to the process
            result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["heap_peak_mib"] = runner.heap_peak_mib()
        tally = runner.tally
        result.update(
            attempted=tally.attempted,
            failed=tally.failed,
            messages=tally.messages,
            tested=tally.tested,
            undetermined=tally.undetermined,
            provenance=provenance(),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
