"""Command line front end.

Three modes, selected by exactly one of --example, --verify, --state:

* --example K     emit the CSV curve data for one of four bundled
                  demonstration scenarios (fixed state and measure).
* --verify        run a randomized soundness campaign over seeded
                  Haar-random states (see monogamy.campaign) and
                  summarize the verdicts.
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

from .bounds import BoundReport, alpha_grid, alpha_sweep, monogamy_report
from .campaign import CampaignConfig, run_campaign
from .measures import CONCURRENCE, CREN, EOF, MeasureKind, tsallis_kind
from .qstate import load_state
from .states import SchmidtParams, gsd3, w_state

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# the six values of a report: the sweep writes the first four, the state mode all six
_REPORT_COLUMNS = ("lhs", "new_bound", "baseline_weighted", "baseline_sum", "residual_new", "residual_gap")
_SWEEP_COLUMNS = ("alpha",) + _REPORT_COLUMNS[:4]
_STATE_COLUMNS = ("measure", "q", "alpha", "m") + _REPORT_COLUMNS
# options read by --state and --example only; a campaign always takes focus 0 and its auto splits
_PER_STATE_OPTIONS = ("focus", "order", "m", "alpha", "alpha_min", "alpha_max", "alpha_step")
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


def _parse_m(text: str | None):
    if text is None or text == "auto":
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
    p.add_argument("--focus", type=int, default=None, help="focus qubit A (default: 0)")
    p.add_argument("--order", default=None, help="comma-separated pair order of the other qubits")
    p.add_argument("--m", default=None, help="ladder split position, or 'auto' (the default)")
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
    reports = alpha_sweep(psi, args.focus or 0, measure, alpha_grid(lo, hi, step), order=_parse_order(args.order), m=_parse_m(args.m))
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
        args.focus or 0,
        measure,
        alpha,
        order=_parse_order(args.order),
        m=_parse_m(args.m),
    )
    cell = _cells(report, _STATE_COLUMNS, measure=measure.name, q=math.nan if measure.q is None else measure.q)
    lines = [
        f"state: {args.state}",
        f"qubits: {psi.n_qubits}  focus: {report.focus}  pair order: " + ",".join(str(b) for b in report.order),
        f"measure: {cell['measure']}  q: {cell['q']}  alpha: {cell['alpha']}  "
        f"m: {cell['m']}  asserted: {'yes' if report.asserted else 'no'}",
        "verdicts: " + ",".join(v.value for v in report.preconditions.verdicts),
        "pair_values: " + ",".join(_fmt(v) for v in report.pair_values),
        "weights: " + ",".join(_fmt(w) for w in report.weights),
    ]
    lines += [f"{c}: {cell[c]}" for c in _REPORT_COLUMNS]
    _write_lines(lines, None)
    if args.out is not None:
        _write_lines([",".join(_STATE_COLUMNS), ",".join(cell.values())], args.out)
    if report.asserted and not report.residual_new >= -args.tolerance:  # a NaN residual is a violation
        return EXIT_VIOLATION
    return EXIT_OK


def _reject_per_state_options(args) -> None:
    given = [f"--{name.replace('_', '-')}" for name in _PER_STATE_OPTIONS if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{', '.join(given)} {'does' if len(given) == 1 else 'do'} not apply to --verify")


def cmd_verify(args) -> int:
    _reject_per_state_options(args)
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
    lines = [
        f"verify: n_qubits={config.n_qubits} samples={config.samples} "
        f"seed={config.seed} tolerance={_fmt(config.tolerance)}"
    ]
    csv_lines = [",".join(_VERIFY_COLUMNS)]
    for r in rows:
        # undetermined stays a column of literal 0s: the pair-sum certificate decides every comparison
        cell = _cells(r, _VERIFY_COLUMNS, measure=r.measure.name,
                      q=math.nan if r.measure.q is None else r.measure.q, undetermined=0)
        csv_lines.append(",".join(cell.values()))
        lines.append(f"  {cell['measure']:<12} q={cell['q']:<4} alpha={cell['alpha']:<14} "
                     + " ".join(f"{c}={cell[c]}" for c in _VERIFY_COLUMNS[3:]))
    _write_lines(lines, None)
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
