"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``criterion NN: PASS/FAIL`` line (visible under
``pytest -s``) with its runtime, then asserts.  The randomized criteria
use fixed seeds so the suite is reproducible.
"""
import math
import time

import numpy as np

from monogamy import (
    CONCURRENCE,
    CREN,
    EOF,
    DensityMatrix,
    alpha_grid,
    alpha_sweep,
    concurrence_pure,
    concurrence_two_qubit,
    eof_f,
    monogamy_report,
    pair_value,
    partial_trace,
    power_split_margin,
    pure_cut_value,
    tsallis_g,
    tsallis_kind,
    w_state,
)
from monogamy.cli import CampaignConfig, _scenario, run_campaign
from oracles import min_avg_concurrence, random_mixed

RT2 = math.sqrt(2.0)
ALL_KINDS = (CONCURRENCE, EOF, CREN, tsallis_kind(2.0))
CUT3 = (0,)


def _check(num, ok, detail, started, budget=None):
    elapsed = time.perf_counter() - started
    if budget is not None:
        ok = ok and elapsed < budget
        detail += f"  [{elapsed:.2f}s < {budget:g}s]"
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _sweep_margins(psi, measure, grid):
    reports = alpha_sweep(psi, 0, measure, grid)
    lhs_vs_new = min(r.lhs - r.new_bound for r in reports)
    new_vs_bw = min(r.new_bound - r.baseline_weighted for r in reports)
    new_vs_bs = min(r.new_bound - r.baseline_sum for r in reports)
    return reports, min(lhs_vs_new, new_vs_bw, new_vs_bs)


def test_criterion_01_first_demo_state_and_curve_ordering():
    t0 = time.perf_counter()
    psi, _ = _scenario(1, 2.0)
    proj = psi.to_density_matrix()
    cut = concurrence_pure(psi, CUT3)
    pair_b = concurrence_two_qubit(partial_trace(proj, (0, 1)))
    pair_c = concurrence_two_qubit(partial_trace(proj, (0, 2)))
    ok = abs(cut - RT2 / 2) < 1e-10
    ok &= abs(pair_b - math.sqrt(6) / 6) < 1e-10
    ok &= abs(pair_c - math.sqrt(6) / 6) < 1e-10
    reports, margin = _sweep_margins(psi, CONCURRENCE, alpha_grid(2.0, 5.0, 0.05))
    ok &= margin >= -1e-12
    strict = min(
        r.new_bound - r.baseline_weighted for r in reports if r.alpha > 2.0 + 1e-9
    )
    ok &= strict > 0.0
    _check(1, ok, f"cut={cut:.9f} pair={pair_b:.9f} margin={margin:.2e}", t0, budget=1.0)


def test_criterion_02_w_state_formation_values_and_ordering():
    t0 = time.perf_counter()
    psi = w_state(3)
    cut = pure_cut_value(EOF, psi, CUT3)
    pair = pair_value(EOF, partial_trace(psi.to_density_matrix(), (0, 1)))
    ok = abs(cut - 0.918296) < 1e-5
    ok &= abs(pair - 0.550048) < 1e-5
    _, margin = _sweep_margins(psi, EOF, alpha_grid(RT2, 5.0, 0.05))
    ok &= margin >= -1e-12
    _check(2, ok, f"cut={cut:.8f} pair={pair:.8f} margin={margin:.2e}", t0, budget=1.0)


def test_criterion_03_negativity_demo_state_and_ordering():
    t0 = time.perf_counter()
    psi, _ = _scenario(3, 2.0)
    proj = psi.to_density_matrix()
    cut = pure_cut_value(CREN, psi, CUT3)
    pair_b = pair_value(CREN, partial_trace(proj, (0, 1)))
    pair_c = pair_value(CREN, partial_trace(proj, (0, 2)))
    ok = abs(cut - 2 * math.sqrt(3) / 5) < 1e-10
    ok &= abs(pair_b - 0.4) < 1e-10 and abs(pair_c - 0.4) < 1e-10
    _, margin = _sweep_margins(psi, CREN, alpha_grid(2.0, 5.0, 0.05))
    ok &= margin >= -1e-12
    _check(3, ok, f"cut={cut:.9f} pairs={pair_b:.9f} margin={margin:.2e}", t0, budget=1.0)


def test_criterion_04_tsallis_demo_state_and_sum_dominance():
    t0 = time.perf_counter()
    psi, measure = _scenario(4, 2.0)
    proj = psi.to_density_matrix()
    cut = pure_cut_value(measure, psi, CUT3)
    pair_b = pair_value(measure, partial_trace(proj, (0, 1)))
    pair_c = pair_value(measure, partial_trace(proj, (0, 2)))
    ok = abs(cut - 0.24) < 1e-10
    ok &= abs(pair_b - 0.08) < 1e-10 and abs(pair_c - 0.08) < 1e-10
    reports, margin = _sweep_margins(psi, measure, alpha_grid(1.0, 4.0, 0.05))
    ok &= margin >= -1e-12
    # the doubling weights beat the plain sum strictly past the floor
    strict = min(
        r.new_bound - r.baseline_sum for r in reports if r.alpha > 1.0 + 1e-9
    )
    ok &= strict > 0.0
    _check(4, ok, f"cut={cut:.9f} pairs={pair_b:.9f} margin={margin:.2e}", t0, budget=1.0)


def test_criterion_05_power_split_margin_grid():
    t0 = time.perf_counter()
    ts = np.linspace(0.0, 1.0, 200)
    xs = np.linspace(1.0, 6.0, 200)
    worst = min(power_split_margin(t, x) for t in ts for x in xs)
    edge = max(abs(power_split_margin(t, x)) for t in (0.0, 1.0) for x in xs)
    ok = worst >= -1e-12 and edge <= 1e-12
    _check(5, ok, f"min={worst:.2e} edge={edge:.2e}", t0, budget=1.0)


def test_criterion_06_superadditivity_grids():
    t0 = time.perf_counter()
    xs = np.linspace(0.0, 1.0, 100)
    pairs = [(x, y) for x in xs for y in xs if x * x + y * y <= 1.0]
    worst = math.inf
    for x, y in pairs:
        s = x * x + y * y
        worst = min(
            worst, eof_f(s) ** RT2 - eof_f(x * x) ** RT2 - eof_f(y * y) ** RT2
        )
        for q in (2.0, 2.25, 2.5, 2.75, 3.0):
            worst = min(worst, tsallis_g(q, s) - tsallis_g(q, x * x) - tsallis_g(q, y * y))
    ok = worst >= -1e-10
    _check(6, ok, f"{len(pairs)} grid pairs, min margin={worst:.2e}", t0, budget=5.0)


def test_criterion_07_three_qubit_soundness_campaign():
    t0 = time.perf_counter()
    config = CampaignConfig(
        n_qubits=3,
        samples=1000,
        seed=0,
        measures=ALL_KINDS,
        alphas=("floor", 2.0, 3.0),
        tolerance=1e-9,
    )
    rows, violation = run_campaign(config)
    # 'floor' coincides with 2 for concurrence and cren, so 10 distinct rows
    ok = not violation and len(rows) == 10
    worst = min(r.min_residual_new for r in rows)
    for r in rows:
        ok &= r.asserted == 1000 and r.min_residual_new >= -1e-9
    _check(7, ok, f"{len(rows)} rows x 1000 states, min residual={worst:.3e}", t0, budget=30.0)


def test_criterion_08_larger_register_campaigns():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (4, 5):
        config = CampaignConfig(
            n_qubits=n,
            samples=300,
            seed=0,
            measures=ALL_KINDS,
            alphas=("floor", 2.0, 3.0),
            tolerance=1e-9,
        )
        rows, violation = run_campaign(config)
        ok &= not violation
        for r in rows:
            if r.asserted:
                ok &= r.min_residual_new >= -1e-9
        tested = sum(r.tested for r in rows)
        asserted = sum(r.asserted for r in rows)
        ok &= asserted > 0
        shares = [f"{k} {100 * sum(getattr(r, k) for r in rows) / tested:.1f}%"
                  for k in ("asserted", "inapplicable")]
        details.append(f"n={n} " + " ".join(shares))
    _check(8, ok, "; ".join(details), t0, budget=120.0)


def test_criterion_09_closed_form_matches_decomposition_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst_gap = 0.0
    ok = True
    for k in range(50):
        rho = random_mixed(rng, 4, rank=(2, 3, 4)[k % 3])
        closed = concurrence_two_qubit(DensityMatrix((2, 2), rho))
        sampled = min_avg_concurrence(rho, rng, n_samples=10_000, n_terms=4)
        ok &= closed <= sampled + 1e-6
        gap = abs(closed - sampled)
        worst_gap = max(worst_gap, gap)
        ok &= gap <= 5e-3
    _check(9, ok, f"50 states, worst |closed-sampled|={worst_gap:.2e}", t0, budget=60.0)


def test_criterion_10_structural_identities():
    t0 = time.perf_counter()
    xs = np.linspace(0.0, 1.0, 1000)
    ok = max(abs(tsallis_g(2.0, x) - x / 2.0) for x in xs) <= 1e-12

    rng = np.random.default_rng(77)
    for k in range(20):
        dm = DensityMatrix((2, 2), random_mixed(rng, 4, rank=(2, 3, 4)[k % 3]))
        ok &= pair_value(CREN, dm) == concurrence_two_qubit(dm)

    worst = 0.0
    for k in (1, 2, 3, 4):
        psi, measure = _scenario(k, 2.0)
        r = monogamy_report(psi, 0, measure, measure.alpha_floor)
        worst = max(worst, abs(r.new_bound - r.baseline_sum))
    ok &= worst <= 1e-12
    _check(10, ok, f"floor collapse worst gap={worst:.2e}", t0)
