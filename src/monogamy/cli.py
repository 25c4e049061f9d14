"""Command line front end.

Three modes, selected by exactly one of --example, --verify, --state:

* --example K     emit the CSV curve data for one of four bundled
                  demonstration scenarios (fixed state and measure).
* --verify        run a randomized soundness campaign over seeded
                  Haar-random states (see monogamy.campaign) and
                  summarize the verdicts.
* --state PATH    evaluate the bound once for a state loaded from a
                  JSON state file.

Each mode rejects, by name, any option it does not read.  Exit codes: 0
on success, 1 when an asserted bound is violated beyond --tolerance, 2 on
usage or input errors (a rejected option among them).  Campaign state k
is drawn with seed --seed + k; no environment variable changes it.
"""
from __future__ import annotations

import argparse
import functools
import math
import operator
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
_VERIFY_COLUMNS = ("measure", "q", "alpha", "tested", "asserted", "undetermined", "inapplicable") + tuple(
    "min_" + c for c in _REPORT_COLUMNS[4:]
)
# counts are written as integers, every other number to 12 significant digits (as _fmt writes it)
_COUNT_COLUMNS = frozenset({"m", "tested", "asserted", "undetermined", "inapplicable"})
# a --verify row's summary line, filled from its cells in _VERIFY_COLUMNS order
_VERIFY_LINE = "  {:<12} q={:<4} alpha={:<14} " + " ".join(c + "={}" for c in _VERIFY_COLUMNS[3:])
# the options each mode never reads, in the order an error names them; a campaign always
# takes focus 0 and its auto splits, a state file sets the register, an example its measure
_UNREAD_OPTIONS = {
    "example": ("measure", "alpha", "alphas", "n_qubits", "samples", "seed", "tolerance"),
    "verify": ("focus", "order", "m", "alpha", "alpha_min", "alpha_max", "alpha_step"),
    "state": ("alpha_min", "alpha_max", "alpha_step", "alphas", "n_qubits", "samples", "seed"),
}
# what an omitted option resolves to in the mode that reads it; the parser leaves it None, so
# that a mode can tell a given option from an omitted one
_DEFAULTS = {
    "alpha_max": 5.0,
    "alpha_step": 0.05,
    "alphas": "floor,2,3",
    "focus": 0,
    "n_qubits": 3,
    "samples": 100,
    "seed": 0,
    "tolerance": 1e-9,
}


def _fmt(v: float) -> str:
    return f"{float(v):.12g}"


def _measure_cells(measure: MeasureKind) -> str:
    """The measure and q cells that lead a --state or --verify row; q is nan for a measure without one."""
    return f"{measure.name},{_fmt(math.nan if measure.q is None else measure.q)}"


def _csv_renderer(columns):
    """Render a row object's attributes named by ``columns`` as one CSV line, with one str.format."""
    template = ",".join("{}" if c in _COUNT_COLUMNS else "{:.12g}" for c in columns)
    values = operator.attrgetter(*columns)
    return lambda row: template.format(*values(row))


_render_sweep = _csv_renderer(_SWEEP_COLUMNS)
_render_state = _csv_renderer(_STATE_COLUMNS[2:])
_render_verify = _csv_renderer(_VERIFY_COLUMNS[2:])


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


@functools.lru_cache(maxsize=64)
def _parse_measure(name: str, q: float) -> MeasureKind:
    # a MeasureKind is immutable, so repeated calls share one; an unknown name raises again each time
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


def _parse_alphas(text: str) -> tuple:
    try:
        return tuple(tok if tok == "floor" else float(tok) for tok in map(str.strip, text.split(",")))
    except ValueError:
        raise ValueError(f"--alphas expects 'floor' or numbers, comma-separated, got {text!r}")


def _write_lines(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "wb") as fh:  # the text's UTF-8 bytes, no newline translation
            fh.write(text.encode())


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
    p.add_argument("--alpha-max", type=float, default=None, help=f"sweep end (default: {_DEFAULTS['alpha_max']})")
    p.add_argument("--alpha-step", type=float, default=None, help=f"sweep step (default: {_DEFAULTS['alpha_step']})")
    p.add_argument(
        "--alphas",
        default=None,
        help=f"--verify exponents; 'floor' resolves per measure (default: {_DEFAULTS['alphas']})",
    )
    p.add_argument("--focus", type=int, default=None, help=f"focus qubit A (default: {_DEFAULTS['focus']})")
    p.add_argument("--order", default=None, help="comma-separated pair order of the other qubits")
    p.add_argument("--m", default=None, help="ladder split position, or 'auto' (the default)")
    p.add_argument("--n-qubits", type=int, default=None,
                   help=f"register size for --verify (default: {_DEFAULTS['n_qubits']})")
    p.add_argument("--samples", type=int, default=None,
                   help=f"random states for --verify (default: {_DEFAULTS['samples']})")
    p.add_argument("--seed", type=int, default=None,
                   help=f"base seed; --verify draws state k with seed + k (default: {_DEFAULTS['seed']})")
    p.add_argument("--tolerance", type=float, default=None,
                   help=f"violation threshold (default: {_DEFAULTS['tolerance']})")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    return p


def _sweep_rows(reports: list[BoundReport]) -> list[str]:
    return [",".join(_SWEEP_COLUMNS)] + [_render_sweep(r) for r in reports]


def _reject_unread_options(args, mode: str) -> None:
    given = [f"--{name.replace('_', '-')}" for name in _UNREAD_OPTIONS[mode] if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{', '.join(given)} {'does' if len(given) == 1 else 'do'} not apply to --{mode}")


def _option(args, name: str):
    value = getattr(args, name)
    return _DEFAULTS[name] if value is None else value


def _tolerance(args) -> float:
    tolerance = _option(args, "tolerance")
    if not math.isfinite(tolerance):
        raise ValueError(f"tolerance={tolerance!r} is not finite")
    return tolerance


def cmd_example(args) -> int:
    _reject_unread_options(args, "example")
    psi, measure = _scenario(args.example, args.q)
    lo = args.alpha_min if args.alpha_min is not None else measure.alpha_floor
    grid = alpha_grid(lo, _option(args, "alpha_max"), _option(args, "alpha_step"))
    reports = alpha_sweep(psi, _option(args, "focus"), measure, grid, order=_parse_order(args.order), m=_parse_m(args.m))
    _write_lines(_sweep_rows(reports), args.out)
    return EXIT_OK


def cmd_state(args) -> int:
    _reject_unread_options(args, "state")
    tolerance = _tolerance(args)
    psi = load_state(args.state)
    measure = _parse_measure("concurrence" if args.measure is None else args.measure, args.q)
    alpha = args.alpha if args.alpha is not None else measure.alpha_floor
    report = monogamy_report(
        psi,
        _option(args, "focus"),
        measure,
        alpha,
        order=_parse_order(args.order),
        m=_parse_m(args.m),
    )
    row = f"{_measure_cells(measure)},{_render_state(report)}"
    cell = dict(zip(_STATE_COLUMNS, row.split(",")))
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
        _write_lines([",".join(_STATE_COLUMNS), row], args.out)
    if report.asserted and not report.residual_new >= -tolerance:  # a NaN residual is a violation
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify(args) -> int:
    _reject_unread_options(args, "verify")
    names = ("concurrence,eof,cren,tsallis" if args.measure is None else args.measure).split(",")
    kinds = tuple(_parse_measure(nm, args.q) for nm in names)
    config = CampaignConfig(
        n_qubits=_option(args, "n_qubits"),
        samples=_option(args, "samples"),
        seed=_option(args, "seed"),
        measures=kinds,
        alphas=_parse_alphas(_option(args, "alphas")),
        tolerance=_tolerance(args),
    )
    rows, violation = run_campaign(config)
    lines = [
        f"verify: n_qubits={config.n_qubits} samples={config.samples} "
        f"seed={config.seed} tolerance={_fmt(config.tolerance)}"
    ]
    csv_lines = [",".join(_VERIFY_COLUMNS)]
    for r in rows:
        row = f"{_measure_cells(r.measure)},{_render_verify(r)}"
        csv_lines.append(row)
        lines.append(_VERIFY_LINE.format(*row.split(",")))
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
