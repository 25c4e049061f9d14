"""Command line front end.

Three modes, selected by exactly one of --example, --verify, --state:

* --example K     emit the CSV curve data for one of four bundled
                  demonstration scenarios (fixed state and measure).
* --verify        run a randomized soundness campaign over seeded
                  Haar-random states and summarize the verdicts.
* --state PATH    evaluate the bound once for a state loaded from a
                  JSON state file.

Exit codes: 0 on success, 1 when an asserted bound is violated beyond
--tolerance, 2 on usage or input errors.  Campaign state k is drawn
with seed --seed + k; no environment variable changes it.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass

from .bounds import BoundReport, ChainAnalysis, alpha_grid, alpha_sweep, monogamy_report, step_factor
from .measures import CONCURRENCE, CREN, EOF, MeasureKind, tsallis_kind
from .qstate import load_state, physical_memory
from .states import SchmidtParams, gsd3, haar_random, w_state

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# the six values of a report: the sweep writes the first four, the state mode all six
_REPORT_COLUMNS = ("lhs", "new_bound", "baseline_weighted", "baseline_sum", "residual_new", "residual_gap")
_SWEEP_COLUMNS = ("alpha",) + _REPORT_COLUMNS[:4]
_STATE_COLUMNS = ("measure", "q", "alpha", "m") + _REPORT_COLUMNS
_VERIFY_COLUMNS = ("measure", "q", "alpha", "tested", "asserted", "undetermined", "inapplicable") + tuple(
    "min_" + c for c in _REPORT_COLUMNS[4:]
)


def _fmt(v: float) -> str:
    return f"{float(v):.12g}"


def _cells(obj, columns, **given) -> dict[str, str]:
    """Column -> rendered cell; a column not in ``given`` is read off ``obj``."""
    cells = {}
    for c in columns:
        v = given[c] if c in given else getattr(obj, c)
        cells[c] = v if isinstance(v, str) else str(v) if isinstance(v, int) else _fmt(v)
    return cells


def _scenario(k: int, q: float):
    """Bundled demonstration scenarios: (ket, measure)."""
    if k == 1:
        lam = (0.5, 0.5, math.sqrt(6) / 6, math.sqrt(6) / 6, math.sqrt(6) / 6)
        return gsd3(SchmidtParams(lam)), CONCURRENCE
    if k == 2:
        return w_state(3), EOF
    if k == 3:
        lam = (math.sqrt(5) / 5,) * 5
        return gsd3(SchmidtParams(lam)), CREN
    if k == 4:
        lam = (math.sqrt(5) / 5,) * 5
        return gsd3(SchmidtParams(lam)), tsallis_kind(q)
    raise ValueError(f"unknown scenario {k}; pick 1, 2, 3 or 4")


def _parse_measure(name: str, q: float) -> MeasureKind:
    name = name.strip().lower()
    if name == "tsallis":
        return tsallis_kind(q)
    return MeasureKind(name)


def _parse_order(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"--order expects comma-separated integers, got {text!r}")


def _parse_m(text: str):
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--m expects an integer or 'auto', got {text!r}")


def _write_lines(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call of main.

    Parsing leaves no state on the parser: each call starts from its defaults.
    """
    p = argparse.ArgumentParser(
        prog="monogamy",
        description="Weighted monogamy bounds for multiqubit entanglement measures.",
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--example", type=int, metavar="K", help="demonstration scenario 1-4")
    mode.add_argument("--verify", action="store_true", help="randomized soundness campaign")
    mode.add_argument("--state", metavar="PATH", help="evaluate a JSON state file")
    p.add_argument(
        "--measure",
        default=None,
        help="concurrence|eof|cren|tsallis (comma-separated list with --verify)",
    )
    p.add_argument("--q", type=float, default=2.0, help="tsallis order, in [2, 3]")
    p.add_argument("--alpha", type=float, default=None, help="exponent for --state mode")
    p.add_argument("--alpha-min", type=float, default=None, help="sweep start (default: measure floor)")
    p.add_argument("--alpha-max", type=float, default=None, help="sweep end (default: 5)")
    p.add_argument("--alpha-step", type=float, default=None, help="sweep step (default: 0.05)")
    p.add_argument(
        "--alphas",
        default="floor,2,3",
        help="--verify exponents; 'floor' resolves per measure",
    )
    p.add_argument("--focus", type=int, default=0, help="focus qubit A")
    p.add_argument("--order", default=None, help="comma-separated pair order of the other qubits")
    p.add_argument("--m", default="auto", help="ladder split position, or 'auto'")
    p.add_argument("--n-qubits", type=int, default=3, help="register size for --verify")
    p.add_argument("--samples", type=int, default=100, help="random states for --verify")
    p.add_argument("--seed", type=int, default=0, help="base seed; --verify draws state k with seed + k")
    p.add_argument("--tolerance", type=float, default=1e-9, help="violation threshold")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    return p


def _sweep_rows(reports: list[BoundReport]) -> list[str]:
    return [",".join(_SWEEP_COLUMNS)] + [",".join(_fmt(getattr(r, c)) for c in _SWEEP_COLUMNS) for r in reports]


def cmd_example(args) -> int:
    psi, measure = _scenario(args.example, args.q)
    lo = args.alpha_min if args.alpha_min is not None else measure.alpha_floor
    hi = args.alpha_max if args.alpha_max is not None else 5.0
    step = args.alpha_step if args.alpha_step is not None else 0.05
    reports = alpha_sweep(psi, args.focus, measure, alpha_grid(lo, hi, step), order=_parse_order(args.order), m=_parse_m(args.m))
    _write_lines(_sweep_rows(reports), args.out)
    return EXIT_OK


def cmd_state(args) -> int:
    if not math.isfinite(args.tolerance):
        raise ValueError(f"tolerance={args.tolerance!r} is not finite")
    psi = load_state(args.state)
    measure = _parse_measure(args.measure or "concurrence", args.q)
    alpha = args.alpha if args.alpha is not None else measure.alpha_floor
    report = monogamy_report(
        psi,
        args.focus,
        measure,
        alpha,
        order=_parse_order(args.order),
        m=_parse_m(args.m),
    )
    cell = _cells(report, _STATE_COLUMNS, measure=measure.name, q=math.nan if measure.q is None else measure.q)
    print(f"state: {args.state}")
    print(f"qubits: {psi.n_qubits}  focus: {report.focus}  pair order: "
          + ",".join(str(b) for b in report.order))
    print(
        f"measure: {cell['measure']}  q: {cell['q']}  alpha: {cell['alpha']}  "
        f"m: {cell['m']}  asserted: {'yes' if report.asserted else 'no'}"
    )
    print("verdicts: " + ",".join(v.value for v in report.preconditions.verdicts))
    print("pair_values: " + ",".join(_fmt(v) for v in report.pair_values))
    print("weights: " + ",".join(_fmt(w) for w in report.weights))
    for c in _REPORT_COLUMNS:
        print(f"{c}: {cell[c]}")
    if args.out is not None:
        _write_lines([",".join(_STATE_COLUMNS), ",".join(cell.values())], args.out)
    if report.asserted and not report.residual_new >= -args.tolerance:  # a NaN residual is a violation
        return EXIT_VIOLATION
    return EXIT_OK


@dataclass(frozen=True)
class CampaignConfig:
    """Randomized soundness campaign settings.

    ``alphas`` entries are floats or the token 'floor', which resolves to
    each measure's own floor exponent; exponents that coincide after
    resolution run once, and so does a measure named twice.  Numeric
    entries must clear the floor of every selected measure.  State k is
    drawn with seed ``seed + k``, so runs are reproducible and
    order-independent.
    """

    n_qubits: int
    samples: int
    seed: int
    measures: tuple[MeasureKind, ...]
    alphas: tuple
    tolerance: float

    def __post_init__(self):
        if self.n_qubits < 3:
            raise ValueError(f"campaign needs at least 3 qubits, got {self.n_qubits}")
        # peak of a draw and its analysis: the ket, Ket.marginal's transposed copy and its conjugate;
        # from physical's bit length on 2^n alone exceeds it, so a huge 2^n is never built
        n, physical = self.n_qubits, physical_memory()
        if n >= physical.bit_length() or 3 * 16 * 2**n > physical:
            # past 2^1000 bytes the GiB figure would overflow a float
            needed = f"{3 * 16 * 2**n / 2**30:.3g} GiB" if n <= 1000 else f"over 2^{n} bytes"
            raise ValueError(
                f"{n} qubits need {needed} of dense memory, "
                f"more than the {physical / 2**30:.3g} GiB of physical memory"
            )
        if self.samples < 1:
            raise ValueError(f"campaign needs at least 1 sample, got {self.samples}")
        if not self.measures:
            raise ValueError("campaign needs at least one measure")
        if not self.alphas:
            raise ValueError("campaign needs at least one exponent")
        if not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance={self.tolerance!r} is not finite")
        for a in self.alphas:
            if a == "floor":
                continue
            for kind in self.measures:
                step_factor(kind, a)  # rejects non-finite or below-floor alphas


@dataclass(frozen=True)
class CampaignRow:
    measure: MeasureKind
    alpha: float
    tested: int
    asserted: int
    inapplicable: int
    min_residual_new: float
    min_residual_gap: float


def _nan_min(a: float, b: float) -> float:
    # min(a, b), but a NaN on either side wins: min() would keep whichever came first
    return b if math.isnan(b) or b < a else a


def run_campaign(config: CampaignConfig) -> tuple[list[CampaignRow], bool]:
    """Run the campaign one state at a time; returns summary rows and a violation flag."""
    keys: list[tuple[MeasureKind, float]] = []  # one (measure, alpha) per row
    for measure in dict.fromkeys(config.measures):
        alphas = (measure.alpha_floor if token == "floor" else float(token) for token in config.alphas)
        keys += [(measure, a) for a in dict.fromkeys(alphas)]  # 'floor' can coincide with an explicit entry
    asserted = [0] * len(keys)
    min_new = [math.inf] * len(keys)  # over the asserted states only; a NaN residual sticks
    min_gap = [math.inf] * len(keys)
    violation = False
    for k in range(config.samples):
        analysis = ChainAnalysis.of(haar_random(config.n_qubits, config.seed + k), 0)
        for i, (measure, alpha) in enumerate(keys):
            report = analysis.report(measure, alpha)
            min_gap[i] = _nan_min(min_gap[i], report.residual_gap)
            if report.asserted:
                asserted[i] += 1
                min_new[i] = _nan_min(min_new[i], report.residual_new)
                if not report.residual_new >= -config.tolerance:  # a NaN residual is a violation
                    violation = True
    rows = [
        CampaignRow(measure, alpha, config.samples, asserted[i], config.samples - asserted[i],
                    min_new[i] if asserted[i] else math.nan, min_gap[i])
        for i, (measure, alpha) in enumerate(keys)
    ]
    return rows, violation


def cmd_verify(args) -> int:
    names = (args.measure or "concurrence,eof,cren,tsallis").split(",")
    kinds = tuple(_parse_measure(nm, args.q) for nm in names)
    tokens = tuple(tok if tok == "floor" else float(tok) for tok in map(str.strip, args.alphas.split(",")))
    config = CampaignConfig(
        n_qubits=args.n_qubits,
        samples=args.samples,
        seed=args.seed,
        measures=kinds,
        alphas=tokens,
        tolerance=args.tolerance,
    )
    rows, violation = run_campaign(config)
    print(
        f"verify: n_qubits={config.n_qubits} samples={config.samples} "
        f"seed={config.seed} tolerance={_fmt(config.tolerance)}"
    )
    csv_lines = [",".join(_VERIFY_COLUMNS)]
    for r in rows:
        # undetermined stays a column of literal 0s: the pair-sum certificate decides every comparison
        cell = _cells(r, _VERIFY_COLUMNS, measure=r.measure.name,
                      q=math.nan if r.measure.q is None else r.measure.q, undetermined=0)
        csv_lines.append(",".join(cell.values()))
        print(f"  {cell['measure']:<12} q={cell['q']:<4} alpha={cell['alpha']:<14} "
              + " ".join(f"{c}={cell[c]}" for c in _VERIFY_COLUMNS[3:]))
    if args.out is not None:
        _write_lines(csv_lines, args.out)
    if violation:
        print("result: VIOLATION (asserted bound broken beyond tolerance)")
        return EXIT_VIOLATION
    print("result: ok")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.example is not None:
            return cmd_example(args)
        if args.verify:
            return cmd_verify(args)
        return cmd_state(args)
    except (ValueError, OSError) as exc:  # StateFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
