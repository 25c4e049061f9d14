import math
from collections import Counter

import numpy as np
import pytest

import monogamy
from monogamy import (
    CONCURRENCE, CREN, EOF, ChainAnalysis, WeightLadder, haar_random, monogamy_report, save_state, tsallis_kind,
    w_state,
)
from monogamy.cli import CampaignConfig, main, run_campaign
from monogamy.states import SchmidtParams, gsd3

ALL_KINDS = (CONCURRENCE, EOF, CREN, tsallis_kind(2.0))


def scenario1_state():
    lam = (0.5, 0.5, math.sqrt(6) / 6, math.sqrt(6) / 6, math.sqrt(6) / 6)
    return gsd3(SchmidtParams(lam))


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "scenario1.json"
    save_state(scenario1_state(), path)
    return str(path)


def test_requires_exactly_one_mode(capsys):
    assert main([]) == 2
    assert main(["--example", "1", "--verify"]) == 2
    capsys.readouterr()


def test_usage_errors_exit_2(capsys, state_file):
    assert main(["--example", "5"]) == 2
    assert main(["--example", "4", "--q", "1.5"]) == 2
    assert main(["--state", "/nonexistent/state.json"]) == 2
    assert main(["--state", state_file, "--m", "bogus"]) == 2
    assert main(["--state", state_file, "--measure", "entropy"]) == 2
    assert main(["--state", state_file, "--order", "2,2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--alpha", "nan"],
        ["--alpha", "inf"],
        ["--tolerance", "nan"],
        ["--verify", "--samples", "2", "--alphas", "nan"],
        ["--verify", "--samples", "2", "--alphas", "inf"],
        ["--verify", "--samples", "2", "--tolerance", "nan"],
        ["--example", "1", "--alpha-step", "nan"],
        ["--example", "1", "--alpha-max", "inf"],
    ],
)
def test_non_finite_numbers_exit_2(argv, state_file, capsys):
    if argv[0] not in ("--verify", "--example"):
        argv = ["--state", state_file] + argv
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "not finite" in captured.err
    assert "asserted" not in captured.out and "result: ok" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["--state", "W3", "--alpha", "2100"],  # 2^(alpha/2) overflows a float
        ["--verify", "--samples", "2", "--alphas", "1500"],
        # 2^500 - 1 is finite, but its fourth power, the top weight at n = 6, is not
        ["--verify", "--n-qubits", "6", "--samples", "1", "--measure", "concurrence", "--alphas", "1000"],
    ],
)
def test_oversized_exponents_exit_2(argv, tmp_path, capsys):
    w3 = tmp_path / "w3.json"
    save_state(w_state(3), w3)
    assert main([str(w3) if a == "W3" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert "overflow" in captured.err
    assert "result: ok" not in captured.out and "asserted" not in captured.out


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--verify", "--n-qubits", "1100", "--samples", "1"], "error: 1100 qubits need over 2^1100 bytes"),
        (["--example", "1", "--alpha-step", "1e-12"], "error: alpha grid of 3e+12 points"),
        # 8 B a point would admit this grid, but the sweep it feeds holds about 24 GiB
        (["--example", "1", "--alpha-step", "1e-7"], "error: alpha grid of 3e+07 points"),
        (["--state", "HUGE"], "huge.json: expected 2^20000 amplitude pairs, got 1"),
        # float(10**400) raises OverflowError; it is an input error like any other
        (["--state", "OVERFLOW"], "overflow.json: amplitude 1 is beyond the float range"),
    ],
    ids=["verify-1100-qubits", "example-step-1e-12", "example-step-1e-7", "state-20000-qubits",
         "state-int-amplitude-1e400"],
)
def test_oversized_inputs_exit_2(argv, message, tmp_path, capsys, monkeypatch):
    # each guard decides before allocating; these stand-ins fail the test if one regresses
    def no_draw(out, seed):
        raise AssertionError(f"drew {out.shape[1]} amplitudes")

    def small_arange(count, *args, arange=np.arange, **kwargs):
        assert count <= 10**6, f"asked numpy for {count} grid points"
        return arange(count, *args, **kwargs)

    monkeypatch.setattr(monogamy.campaign, "haar_rows", no_draw)
    monkeypatch.setattr(np, "arange", small_arange)
    huge = tmp_path / "huge.json"
    huge.write_text('{"n_qubits": 20000, "amplitudes": [[1, 0]]}\n')
    overflow = tmp_path / "overflow.json"
    overflow.write_text('{"n_qubits": 1, "amplitudes": [[1, 0], [0, 1' + "0" * 400 + ']]}\n')
    files = {"HUGE": str(huge), "OVERFLOW": str(overflow)}
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and "result: ok" not in captured.out


def test_grid_guard_covers_the_measured_peak_of_a_sweep(capsys):
    # tracemalloc sees the grid, the reports and the CSV text of one --example sweep
    import tracemalloc

    assert main(["--example", "1", "--alpha-step", "0.5"]) == 0  # first calls allocate numpy's caches
    capsys.readouterr()
    argv = ["--example", "1", "--alpha-min", "2", "--alpha-max", "5", "--alpha-step", "1.5e-4"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points = len(capsys.readouterr().out.splitlines()) - 1
    assert points == 20_001
    assert 400 * points < peak < monogamy.bounds._SWEEP_BYTES_PER_POINT * points


def test_malformed_state_file_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n_qubits": 2,\n "amplitudes": [[1, 0],]}\n')
    assert main(["--state", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_example_csv_shape_and_determinism(capsys):
    assert main(["--example", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["--example", "1"]) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "alpha,lhs,new_bound,baseline_weighted,baseline_sum"
    assert len(lines) == 62  # alpha grid 2.0 .. 5.0 step 0.05, plus header


@pytest.mark.parametrize(
    "example,n_rows", [("1", 61), ("2", 72), ("3", 61), ("4", 81)]
)
def test_example_default_grid_lengths(capsys, example, n_rows):
    assert main(["--example", example]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == n_rows + 1


def test_example_rows_match_library(capsys):
    assert main(["--example", "1", "--alpha-min", "2", "--alpha-max", "3",
                 "--alpha-step", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    alpha, lhs, new, bw, bs = (float(v) for v in lines[2].split(","))
    assert alpha == 2.5
    r = monogamy_report(scenario1_state(), 0, CONCURRENCE, 2.5)
    assert abs(lhs - r.lhs) < 1e-12
    assert abs(new - r.new_bound) < 1e-12
    assert abs(bw - r.baseline_weighted) < 1e-12
    assert abs(bs - r.baseline_sum) < 1e-12


def test_example_out_file_matches_stdout(tmp_path, capsys):
    assert main(["--example", "3"]) == 0
    stdout_text = capsys.readouterr().out
    out = tmp_path / "curve.csv"
    assert main(["--example", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == stdout_text


def test_state_mode_text_report(state_file, capsys):
    assert main(["--state", state_file, "--alpha", "3"]) == 0
    out = capsys.readouterr().out
    fields = {}
    for line in out.splitlines():
        key, _, rest = line.partition(": ")
        fields[key] = rest
    assert fields["qubits"].startswith("3")
    assert "asserted: yes" in fields["measure"]
    assert fields["verdicts"] == "Holds"
    assert abs(float(fields["lhs"]) - 0.353553390593274) < 1e-12
    assert abs(float(fields["new_bound"]) - 0.192450089729875) < 1e-12


def test_state_mode_csv_roundtrip(state_file, tmp_path, capsys):
    out = tmp_path / "row.csv"
    assert main(["--state", state_file, "--measure", "eof", "--alpha", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    header, row = out.read_text().splitlines()
    assert header == ("measure,q,alpha,m,lhs,new_bound,baseline_weighted,"
                      "baseline_sum,residual_new,residual_gap")
    cells = row.split(",")
    assert cells[0] == "eof"
    assert cells[1] == "nan"
    vals = [float(v) for v in cells[2:]]
    alpha, m, lhs, new, bw, bs, res_new, res_gap = vals
    assert alpha == 2.0
    assert m == 1.0
    assert abs(res_new - (lhs - new)) < 1e-9
    assert abs(res_gap - (new - max(bw, bs))) < 1e-9
    assert res_new >= 0.0


def test_state_mode_forced_violation_threshold(state_file, capsys):
    # a negative tolerance turns any positive residual into a "violation";
    # this exercises the exit path, it is not a genuine counterexample
    assert main(["--state", state_file, "--tolerance", "-1"]) == 1
    capsys.readouterr()


def test_verify_small_campaign(capsys, tmp_path):
    out = tmp_path / "campaign.csv"
    argv = ["--verify", "--samples", "20", "--seed", "3",
            "--measure", "concurrence,tsallis", "--q", "2.5",
            "--alphas", "floor,2.5", "--out", str(out)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "result: ok" in text
    assert main(argv) == 0
    assert capsys.readouterr().out == text  # seeded, so fully reproducible

    lines = out.read_text().splitlines()
    assert lines[0] == ("measure,q,alpha,tested,asserted,undetermined,"
                        "inapplicable,min_residual_new,min_residual_gap")
    assert len(lines) == 5  # 2 measures x 2 exponents
    for line in lines[1:]:
        cells = line.split(",")
        tested, asserted, undet, inapp = (int(v) for v in cells[3:7])
        assert tested == 20
        assert asserted + undet + inapp == tested
        assert asserted == 20  # three-qubit comparisons are exact
        assert float(cells[7]) > -1e-9


def test_verify_runs_on_twelve_qubits(capsys):
    assert main(["--verify", "--n-qubits", "12", "--samples", "3"]) == 0
    assert "result: ok" in capsys.readouterr().out


def test_verify_rejects_a_register_larger_than_memory(capsys, monkeypatch):
    # the guard runs before any draw, so nothing is allocated even if it regresses
    def no_draw(out, seed):
        raise AssertionError(f"drew {out.shape[1]} amplitudes")

    monkeypatch.setattr(monogamy.campaign, "haar_rows", no_draw)
    assert main(["--verify", "--n-qubits", "40", "--samples", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 40 qubits need") and err.count("\n") == 1


def test_memory_guard_admits_exactly_the_peak_of_a_draw_and_its_analysis(monkeypatch):
    # a host whose physical memory is one byte either side of 48 * 2^n
    n = 30
    for spare, admitted in ((0, True), (-1, False)):
        fake = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 48 * 2**n + spare}
        monkeypatch.setattr(monogamy.qstate.os, "sysconf", fake.__getitem__)
        try:
            CampaignConfig(n_qubits=n, samples=1, seed=0, measures=ALL_KINDS, alphas=("floor",), tolerance=1e-9)
        except ValueError as exc:
            assert not admitted and "48 GiB" in str(exc)
        else:
            assert admitted


def test_memory_guard_covers_the_measured_peak():
    # tracemalloc sees numpy's buffers: the draw and the analysis stay within 48 * 2^n
    import tracemalloc

    ChainAnalysis.of(haar_random(4, 0), 0)  # first calls allocate numpy's caches
    n = 16
    tracemalloc.start()
    try:
        ChainAnalysis.of(haar_random(n, 0), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 40 * 2**n < peak <= 48 * 2**n + 2**n


def test_verify_deduplicates_resolved_floor(capsys, tmp_path):
    # 'floor' resolves to 2 for concurrence, so floor,2,3 runs twice, not thrice
    out = tmp_path / "rows.csv"
    assert main(["--verify", "--samples", "3", "--measure", "concurrence",
                 "--alphas", "floor,2,3", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert [line.split(",")[2] for line in lines[1:]] == ["2", "3"]


def test_verify_deduplicates_measures(capsys, tmp_path):
    # a measure named twice runs once, as a repeated exponent does
    out = tmp_path / "rows.csv"
    argv = ["--verify", "--samples", "3", "--measure", "concurrence,eof,concurrence", "--alphas", "2"]
    assert main(argv + ["--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["measure", "concurrence", "eof"]
    assert printed.count("concurrence ") == 1
    assert main(["--verify", "--samples", "3", "--measure", "concurrence,eof", "--alphas", "2"]) == 0
    assert capsys.readouterr().out == printed


def test_nan_residual_on_an_asserted_row_is_a_violation(capsys, tmp_path, monkeypatch):
    # NaN < -tolerance is False, so a NaN residual must be caught as not >= -tolerance
    monkeypatch.setattr(monogamy.bounds, "cut_values", lambda kind, entries, spectra: np.full(len(entries), math.nan))
    assert main(["--verify", "--samples", "3", "--measure", "concurrence", "--alphas", "2"]) == 1
    out = capsys.readouterr().out
    assert "asserted=3" in out and "min_residual_new=nan" in out
    assert "result: VIOLATION" in out
    w3 = tmp_path / "w3.json"
    save_state(w_state(3), w3)
    assert main(["--state", str(w3)]) == 1
    out = capsys.readouterr().out
    assert "asserted: yes" in out and "residual_new: nan" in out


def test_verify_rejects_alpha_below_floor(capsys):
    assert main(["--verify", "--samples", "2", "--measure", "eof",
                 "--alphas", "1.2"]) == 2
    assert "floor" in capsys.readouterr().err


def test_env_seed_is_ignored(capsys, monkeypatch):
    # --seed is the only seed: an old MONOGAMY_SEED in the environment changes nothing
    argv = ["--verify", "--samples", "5", "--seed", "7",
            "--measure", "concurrence", "--alphas", "2"]
    monkeypatch.delenv("MONOGAMY_SEED", raising=False)
    assert main(argv) == 0
    without_env = capsys.readouterr().out
    assert "seed=7" in without_env

    for value in ("123", "not-a-seed"):
        monkeypatch.setenv("MONOGAMY_SEED", value)
        assert main(argv) == 0
        assert capsys.readouterr().out == without_env


def _campaign(n_qubits, samples):
    config = CampaignConfig(n_qubits=n_qubits, samples=samples, seed=0, measures=ALL_KINDS,
                            alphas=("floor", 2.0, 3.0), tolerance=1e-9)
    return config, run_campaign(config)


def test_campaign_analyses_each_pair_once(monkeypatch):
    # the pair concurrences depend on the state alone, not on the 10 (measure, alpha) rows:
    # each batch stacks the three pairs of each of its states for one spin-flip call
    size = monogamy.campaign.batch_size(4)
    samples = size + 1  # a full batch and a batch of one
    stacks = []
    original = monogamy.bounds.spin_flip_concurrences

    def counted(stack):
        stacks.append(stack.shape)
        return original(stack)

    monkeypatch.setattr(monogamy.bounds, "spin_flip_concurrences", counted)
    # ... and so are the spectra: one per validated stack, the pairs and rho_A of each batch
    spectra = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: spectra.append(m.shape) or eigvalsh(m))
    # ... and the chain verdicts depend on the measure, not the exponent: per batch, one stack holds
    # the given and the ranked order of every state under every measure
    chains = []
    certify = monogamy.bounds._certified_splits
    monkeypatch.setattr(monogamy.bounds, "_certified_splits", lambda p: chains.append(p.shape) or certify(p))
    _, (rows, violation) = _campaign(4, samples)
    assert len(rows) == 10 and not violation
    assert stacks == [(3 * size, 4, 4), (3, 4, 4)]
    assert sum(shape[0] for shape in stacks) == samples * 3  # every (state, pair) exactly once
    assert spectra == [(3 * size, 4, 4), (size, 2, 2), (3, 4, 4), (1, 2, 2)]
    assert sum(shape[0] for shape in spectra if shape[1:] == (2, 2)) == samples
    assert chains == [(2 * len(ALL_KINDS) * size, 3), (2 * len(ALL_KINDS), 3)]


def test_campaign_builds_each_weight_ladder_once(monkeypatch):
    # the ladders depend on (base, pairs, split), never on the state: 50 states x 10 rows,
    # a new and a prior ladder per row, share a handful of vectors
    built = Counter()
    weights = WeightLadder.weights

    def counted(ladder):
        built[ladder.base, ladder.count, ladder.split] += 1
        return weights(ladder)

    monkeypatch.setattr(WeightLadder, "weights", counted)
    _, (rows, violation) = _campaign(3, 50)
    assert len(rows) == 10 and not violation
    assert max(built.values(), default=0) <= 2  # one call per report would be 1000 in all


def test_memoised_ladders_are_read_only_and_errors_are_not_cached():
    w = monogamy.bounds._ladder_weights(2.0, 4, 2)
    assert w is monogamy.bounds._ladder_weights(2.0, 4, 2)
    with pytest.raises(ValueError):
        w[0] = 5.0
    analysis = ChainAnalysis.of(haar_random(6, 1), 0)
    for alpha, message in ((1.5, "below"), (1000.0, "overflow")):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                analysis.report(CONCURRENCE, alpha)


def test_reused_parser_carries_nothing_over(state_file, tmp_path, capsys):
    # main builds its parser once per process; flags and errors of one call must not leak into the next
    out = tmp_path / "out.csv"

    def run(*flags):
        code = main(["--state", state_file, "--out", str(out), *flags])
        return code, capsys.readouterr().out, out.read_text() if code == 0 else None

    monogamy.cli.build_parser.cache_clear()
    first = run()
    assert first[0] == 0
    assert run("--order", "2,1", "--m", "1", "--alpha", "3")[0] == 0
    assert run("--alpha", "three")[0] == 2
    assert run("--verify")[0] == 2
    assert run() == first
    assert monogamy.cli.build_parser.cache_info().misses == 1


def test_state_calls_plan_once_per_register_shape(state_file, tmp_path, capsys):
    chain_plan, marginal_plan = monogamy.bounds._chain_plan, monogamy.qstate._marginal_plan
    chain_plan.cache_clear()
    marginal_plan.cache_clear()
    for measure in ("concurrence", "eof", "cren", "tsallis", "eof"):
        assert main(["--state", state_file, "--measure", measure]) == 0
    # one chain plan, and one marginal plan each for the pair keeps and the focus keep
    assert (chain_plan.cache_info().misses, chain_plan.cache_info().hits) == (1, 4)
    assert (marginal_plan.cache_info().misses, marginal_plan.cache_info().hits) == (2, 8)
    wide = tmp_path / "wide.json"
    save_state(haar_random(5, 3), wide)
    for argv in (["--focus", "1"], ["--focus", "1"], ["--focus", "1", "--order", "4,3,2,0"], []):
        assert main(["--state", str(wide), *argv]) == 0
    # three more shapes: (5, focus 1), (5, focus 1, an order), (5, focus 0)
    assert (chain_plan.cache_info().misses, chain_plan.cache_info().hits) == (4, 5)
    capsys.readouterr()


@pytest.mark.parametrize("option, value", [("--focus", "7"), ("--focus", "0"), ("--order", "9,9"), ("--m", "5"),
                                           ("--m", "auto"), ("--alpha", "0.1"), ("--alpha-min", "2"),
                                           ("--alpha-max", "3"), ("--alpha-step", "0.5")])
def test_verify_rejects_the_per_state_options(option, value, capsys, monkeypatch):
    # a campaign reads none of them; given, each exits 2 by name before any state is drawn
    def no_draw(out, seed):
        raise AssertionError(f"drew {out.shape[1]} amplitudes")

    monkeypatch.setattr(monogamy.campaign, "haar_rows", no_draw)
    assert main(["--verify", "--n-qubits", "3", "--samples", "3", option, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {option} does not apply to --verify\n"


def test_verify_names_every_per_state_option_given(capsys):
    argv = ["--verify", "--n-qubits", "3", "--samples", "3", "--focus", "7", "--order", "9,9", "--m", "5", "--alpha", "0.1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --focus, --order, --m, --alpha do not apply to --verify\n"


def test_campaign_memory_on_a_wide_register():
    # the per-state scratch of a draw is gone before the analysis, whose peak stays within 48 * 2^n
    import tracemalloc

    def campaign(n):
        run_campaign(CampaignConfig(n_qubits=n, samples=1, seed=0, measures=(CONCURRENCE,), alphas=("floor",),
                                    tolerance=1e-9))

    campaign(4)  # first calls allocate numpy's caches
    n = 16
    tracemalloc.start()
    try:
        campaign(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 40 * 2**n < peak <= 48 * 2**n + 2**n


def test_verify_draws_into_the_batch_without_kets(monkeypatch, capsys):
    # one generator per state, and no Ket (nor its norm check and copy) on the way to the analysis
    calls = Counter()
    default_rng, post_init = np.random.default_rng, monogamy.Ket.__post_init__

    def counting_rng(seed):
        calls["rng"] += 1
        return default_rng(seed)

    def counting_ket(self):
        calls["ket"] += 1
        post_init(self)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(monogamy.Ket, "__post_init__", counting_ket)
    assert main(["--verify", "--samples", "7"]) == 0
    assert "result: ok" in capsys.readouterr().out
    assert calls == {"rng": 7}


def test_campaign_memory_does_not_grow_with_samples():
    # one state is held at a time: keeping every analysis would take about 2.3 KB a sample, 2.3 MB here
    import tracemalloc

    def campaign(samples):
        run_campaign(CampaignConfig(n_qubits=3, samples=samples, seed=0, measures=(CONCURRENCE,),
                                    alphas=("floor",), tolerance=1e-9))

    campaign(5)  # first calls allocate numpy's caches
    tracemalloc.start()
    try:
        campaign(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_campaign_rows_match_state_by_state_reports():
    config, (rows, _) = _campaign(4, 40)
    states = [haar_random(4, config.seed + k) for k in range(config.samples)]
    assert sum(r.asserted for r in rows) > 0
    for row in rows:
        reports = [monogamy_report(psi, 0, row.measure, row.alpha) for psi in states]
        asserted = [r for r in reports if r.asserted]
        assert row.asserted == len(asserted)
        assert row.inapplicable == row.tested - len(asserted)
        assert row.min_residual_gap == min(r.residual_gap for r in reports)
        if asserted:
            assert row.min_residual_new == min(r.residual_new for r in asserted)
        else:
            assert math.isnan(row.min_residual_new)
