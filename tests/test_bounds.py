import math
import re

import numpy as np
import pytest

import monogamy
from monogamy import (
    CONCURRENCE,
    CREN,
    EOF,
    Ket,
    Verdict,
    WeightLadder,
    alpha_grid,
    alpha_sweep,
    haar_random,
    load_state,
    monogamy_report,
    power_split_margin,
    prior_factor,
    pure_cut_value,
    save_state,
    step_factor,
    tsallis_kind,
    w_state,
)
from monogamy.bounds import ChainBatch, _ladder_powers
from monogamy.campaign import CampaignConfig, run_campaign
from monogamy.qstate import marginal_stack
from monogamy.states import SchmidtParams, gsd3
from oracles import ghz_amplitudes, ladder_powers, w_class_amplitudes, wootters_concurrence

np_rng = np.random.default_rng(4242)

RT2 = math.sqrt(2.0)
ALL_KINDS = (CONCURRENCE, EOF, CREN, tsallis_kind(2.0))


def scenario1_state():
    lam = (0.5, 0.5, math.sqrt(6) / 6, math.sqrt(6) / 6, math.sqrt(6) / 6)
    return gsd3(SchmidtParams(lam))


def bell_times_product():
    bell = Ket(np.array([1.0, 0.0, 0.0, 1.0]) / RT2)
    zeros = Ket(np.array([1.0, 0.0, 0.0, 0.0]))
    return Ket(np.kron(bell.amplitudes, zeros.amplitudes))


def test_step_factor_values():
    assert step_factor(CONCURRENCE, 2.0) == 1.0
    assert step_factor(CREN, 2.0) == 1.0
    # frozen: 2^sqrt(2) - 1
    assert abs(step_factor(EOF, 2.0) - 1.665144142690225) < 1e-15
    assert step_factor(tsallis_kind(2.0), 1.0) == 1.0
    assert step_factor(tsallis_kind(2.0), 2.0) == 3.0


def test_step_factor_floor_is_exactly_one():
    for kind in ALL_KINDS:
        assert step_factor(kind, kind.alpha_floor) == 1.0
        assert prior_factor(kind, kind.alpha_floor) == 1.0


def test_step_factor_dominates_prior_factor():
    for kind in ALL_KINDS:
        for alpha in np.linspace(kind.alpha_floor, 6.0, 40):
            assert step_factor(kind, alpha) >= prior_factor(kind, alpha) - 1e-12


def test_step_factor_rejects_below_floor():
    with pytest.raises(ValueError):
        step_factor(CONCURRENCE, 1.9)
    with pytest.raises(ValueError):
        step_factor(EOF, 1.0)
    with pytest.raises(ValueError):
        prior_factor(tsallis_kind(2.5), 0.5)


def test_non_finite_exponents_are_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        for kind in ALL_KINDS:
            with pytest.raises(ValueError, match="not finite"):
                step_factor(kind, bad)
            with pytest.raises(ValueError, match="not finite"):
                prior_factor(kind, bad)
        with pytest.raises(ValueError, match="not finite"):
            alpha_grid(bad, 3.0, 0.1)
        with pytest.raises(ValueError, match="not finite"):
            alpha_grid(2.0, bad, 0.1)
        with pytest.raises(ValueError, match="not finite"):
            alpha_grid(2.0, 3.0, bad)


def test_oversized_exponents_are_rejected():
    with pytest.raises(ValueError, match="overflow"):
        step_factor(CONCURRENCE, 2100.0)
    with pytest.raises(ValueError, match="overflow"):
        step_factor(tsallis_kind(2.0), 1100.0)
    assert math.isfinite(step_factor(tsallis_kind(2.0), 1000.0))
    with pytest.raises(ValueError, match="overflow"):
        WeightLadder(1e200, 3, 2).weights()
    with pytest.raises(ValueError, match="overflow"):
        monogamy_report(haar_random(6, 1), 0, CONCURRENCE, 1000.0)


def test_power_split_margin_values():
    assert power_split_margin(0.0, 3.0) == 0.0
    assert power_split_margin(1.0, 3.0) == 0.0
    assert power_split_margin(0.5, 2.0) == 0.5  # 2.25 - 1 - 3/4
    with pytest.raises(ValueError):
        power_split_margin(1.2, 2.0)
    with pytest.raises(ValueError):
        power_split_margin(0.5, 0.5)


def test_ladder_helpers_reject_non_finite_input():
    # a NaN or inf base gave weights [1, nan, nan] or [1, inf, inf]; a NaN or inf x a margin of nan,
    # and an x whose 2^x overflows a bare OverflowError
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"ladder base {bad!r} is not finite"):
            WeightLadder(bad, 3, 1).weights()
        with pytest.raises(ValueError, match=f"x={bad!r} is not finite"):
            power_split_margin(0.5, bad)
    with pytest.raises(ValueError, match=r"x=2000\.0 is too large"):
        power_split_margin(0.5, 2000.0)


def test_power_split_margin_nonnegative_on_grid():
    for t in np.linspace(0.0, 1.0, 41):
        for x in np.linspace(1.0, 6.0, 41):
            assert power_split_margin(t, x) > -1e-12


def test_weight_ladder_patterns():
    assert list(WeightLadder(2.0, 4, 1).weights()) == [1.0, 4.0, 4.0, 2.0]
    assert list(WeightLadder(2.0, 4, 2).weights()) == [1.0, 2.0, 8.0, 4.0]
    assert list(WeightLadder(2.0, 4, 3).weights()) == [1.0, 2.0, 4.0, 8.0]
    assert list(WeightLadder(3.0, 2, 1).weights()) == [1.0, 3.0]
    assert list(WeightLadder(1.0, 5, 1).weights()) == [1.0] * 5


def test_weight_ladder_validation():
    with pytest.raises(ValueError):
        WeightLadder(2.0, 1, 1)
    with pytest.raises(ValueError):
        WeightLadder(2.0, 4, 0)
    with pytest.raises(ValueError):
        WeightLadder(2.0, 4, 4)
    with pytest.raises(ValueError):
        WeightLadder(0.5, 4, 1)


def test_weight_ladder_rejects_non_integral_count_and_split():
    # WeightLadder(1.0, 3.0, 1).weights() used to raise TypeError, and a split of 1.5 got past the range check
    for count, split, what in ((3.0, 1, "ladder count"), (3, 1.5, "ladder split"), (True, 1, "ladder count")):
        with pytest.raises(ValueError, match=f"{what} must be an integer"):
            WeightLadder(1.0, count, split).weights()
    assert WeightLadder(2.0, np.int64(3), np.int64(1)).weights().tolist() == [1.0, 4.0, 2.0]


def test_ladder_powers_match_the_list_construction():
    # the one power table holds, in row s, the list the ladder of split s was once built as
    for count in range(2, 13):
        powers = _ladder_powers(count)
        assert powers.shape == (count, count)
        for split in range(1, count):
            assert powers[split].tolist() == ladder_powers(count, split), (count, split)
            assert WeightLadder(3.0, count, split).weights().tolist() == [3.0**p for p in ladder_powers(count, split)]


def test_an_empty_batch_is_rejected():
    # zero rows used to divide by zero in marginal_stack
    with pytest.raises(ValueError, match="empty batch"):
        ChainBatch.of(np.empty((0, 8), dtype=complex), 0)


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (8,), (1, 2, 4)])
def test_kets_not_in_rows_of_a_power_of_two_width_are_rejected_by_their_shape(shape):
    # the register size is read from the row width, and any other shape is named
    amplitudes = np.zeros(shape, dtype=np.complex128)
    for call in (lambda: marginal_stack(amplitudes, [(0,)]), lambda: ChainBatch.of(amplitudes, 0)):
        with pytest.raises(ValueError, match=re.escape(f"(B, 2^n) array with n >= 1, got shape {shape}")):
            call()


def test_the_row_width_is_the_register_size():
    # a qubit count passed beside the rows once read the 8-wide row of |000> as a two-qubit ket
    kets = np.eye(8, dtype=np.complex128)[:1]
    assert ChainBatch.of(kets, 0).given == (1, 2)
    assert marginal_stack(kets, [(0, 2)]).shape == (1, 1, 4, 4)
    with pytest.raises(ValueError, match=r"keep=\(0, 3\) out of range for 3 factors"):
        marginal_stack(kets, [(0, 3)])


def test_weights_never_below_one():
    for base in (1.0, 1.5, 3.0):
        for count in (2, 3, 5):
            for split in range(1, count):
                assert WeightLadder(base, count, split).weights().min() >= 1.0


def test_precondition_three_qubits_always_exact():
    # one comparison, p_0 against the last pair's own power; every measure
    # is increasing in C, so the concurrences decide it and ranking proves it
    for k in range(20):
        psi = haar_random(3, 100 + k)
        batch = ChainBatch.of(psi.amplitudes[None], 0)
        c0, c1 = batch.concurrence[0].tolist()  # partners 1 and 2, the given order
        for kind in ALL_KINDS:
            r = monogamy_report(psi, 0, kind, kind.alpha_floor)
            assert r.m == 1 and r.order == ((1, 2) if c0 >= c1 else (2, 1))  # split 1 is N-2: the ranked order
            assert r.asserted
            assert r.preconditions.tails == r.preconditions.powers[1:]
            assert r.preconditions.verdicts == (Verdict.HOLDS,)
            # the given order's chain is entry [0, 0, 0] of the table's chain stack
            chains = batch.table([(kind, kind.alpha_floor)]).chains
            assert chains.holds[0, 0, 0].tolist() == [c0 >= c1]


def test_precondition_w4_frozen_verdicts():
    # all pairs sit at C = 1/2, so the first power falls short of the two
    # after it, while the final comparison ties with the last power and holds
    psi = w_state(4)
    for kind in ALL_KINDS:
        r = monogamy_report(psi, 0, kind, kind.alpha_floor, m=1)  # split 1 reads the given order
        pre = r.preconditions
        assert [v.value for v in pre.verdicts] == ["Fails", "Holds"]
        assert pre.certified == (False, False)
        assert not r.asserted
        assert not monogamy_report(psi, 0, kind, kind.alpha_floor, m=2).asserted
    pre = monogamy_report(psi, 0, CONCURRENCE, 2.0, m=1).preconditions
    assert np.allclose(pre.powers, 0.25, rtol=0.0, atol=1e-12)
    assert np.allclose(pre.tails, (0.5, 0.25), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_asserted_is_the_certified_entry_of_the_reports_split(n):
    # a report's verdict is its table row's; it must agree with the comparisons it carries
    states = [haar_random(n, 600 + k) for k in range(4)] + [Ket(w_class_amplitudes(n, k)) for k in range(4)]
    for psi in states:
        for kind in ALL_KINDS:
            for m in (None, *range(1, n - 1)):
                r = monogamy_report(psi, 0, kind, kind.alpha_floor, m=m)
                assert r.asserted == r.preconditions.certified[r.m - 1], (kind.name, m)


def test_precondition_ghz4_holds_with_zero_bound():
    # no GHZ4 pair is entangled: every power and sum is 0, every comparison ties
    r = monogamy_report(Ket(ghz_amplitudes(4)), 0, CONCURRENCE, 2.0)
    assert [v.value for v in r.preconditions.verdicts] == ["Holds", "Holds"]
    assert r.asserted
    assert r.m == 2
    assert r.new_bound == 0.0


def test_certificate_depends_on_the_measure():
    # on this W-class state the first pair outweighs the other two in
    # E^sqrt(2) but not in C^2, so the verdicts differ per measure
    psi = Ket(w_class_amplitudes(4, 51))
    for kind, verdicts in ((CONCURRENCE, ["Fails", "Holds"]), (EOF, ["Holds", "Holds"])):
        for alpha in (kind.alpha_floor, 3.0):  # and not per exponent
            pre = monogamy_report(psi, 0, kind, alpha, m=1).preconditions
            assert [v.value for v in pre.verdicts] == verdicts


def test_an_unasserted_row_can_fail_the_bound():
    # the ordering hypothesis is necessary: on this W-class state the first comparison fails, no split is
    # proven, and the fully ascending ladder the report falls back to overshoots the cut value at alpha = 3
    amplitudes = w_class_amplitudes(4, 129)
    psi = Ket(amplitudes)
    r = monogamy_report(psi, 0, CONCURRENCE, 3.0)
    assert not r.asserted and r.m == 2 and r.order == (3, 1, 2)
    assert r.preconditions.verdicts == (Verdict.FAILS, Verdict.HOLDS)
    assert abs(r.lhs - 0.86658) < 1e-5 and abs(r.new_bound - 1.00497) < 1e-5
    assert r.residual_new < -0.1 and abs(r.residual_new + 0.1384) < 1e-4
    assert [round(c, 4) for c in r.pair_values] == [0.5632, 0.5484, 0.5394]
    for b, c in zip(r.order, r.pair_values):
        # the spin flip of a rank-2 pair reads C low by up to about 3e-8
        assert abs(c - wootters_concurrence(amplitudes, 4, 0, b)) < 3e-8
    assert abs(monogamy_report(psi, 0, EOF, 3.0).residual_new + 0.2043) < 1e-4
    # at the floor CKW is an equality on W-class states: the same ladder meets the cut value, up to that loss
    assert abs(monogamy_report(psi, 0, CONCURRENCE, 2.0).residual_new) < 1e-7


def test_monogamy_report_scenario1_frozen():
    psi = scenario1_state()
    r = monogamy_report(psi, 0, CONCURRENCE, 3.0)
    assert r.m == 1
    assert r.asserted
    assert abs(r.lhs - (math.sqrt(2) / 2) ** 3) < 1e-14
    assert abs(r.new_bound - 0.19245008972987518) < 1e-14
    assert abs(r.baseline_weighted - 0.17010345435994284) < 1e-14
    assert abs(r.baseline_sum - 0.13608276348795428) < 1e-14
    assert r.weights == (1.0, 2.0**1.5 - 1.0)


def test_report_residual_identities():
    psi = scenario1_state()
    for kind, alpha in ((CONCURRENCE, 2.7), (EOF, 1.9), (tsallis_kind(2.2), 1.4)):
        r = monogamy_report(psi, 0, kind, alpha)
        assert abs(r.residual_new - (r.lhs - r.new_bound)) < 1e-15
        recomputed = r.new_bound - max(r.baseline_weighted, r.baseline_sum)
        assert abs(r.residual_gap - recomputed) < 1e-15
        powered = np.array(r.pair_values) ** alpha
        assert abs(r.new_bound - float(np.array(r.weights) @ powered)) < 1e-12


def test_report_sorts_pairs_for_ascending_ladder():
    # lambda2 > lambda3 makes the second partner the stronger pair
    params = SchmidtParams((0.6, 0.2, 0.5, 0.3, math.sqrt(1 - 0.74)))
    psi = gsd3(params)
    r = monogamy_report(psi, 0, CONCURRENCE, 2.5)
    assert r.order == (2, 1)
    assert r.pair_values[0] >= r.pair_values[1]
    # the report must match evaluating the sorted order explicitly
    explicit = monogamy_report(psi, 0, CONCURRENCE, 2.5, order=(2, 1), m=1)
    assert abs(r.new_bound - explicit.new_bound) < 1e-15


def test_report_respects_caller_order_for_split_ladders():
    psi = bell_times_product()
    r = monogamy_report(psi, 0, CONCURRENCE, 2.0, order=(3, 2, 1), m=1)
    assert r.order == (3, 2, 1)
    assert r.m == 1


def test_report_auto_split_on_four_qubits():
    psi = bell_times_product()
    r = monogamy_report(psi, 0, CONCURRENCE, 3.0)
    # pair with B1 carries everything; ascending ladder certifies
    assert r.m == 2
    assert r.order == (1, 2, 3)
    assert r.asserted
    assert abs(r.lhs - 1.0) < 1e-12
    assert abs(r.new_bound - 1.0) < 1e-12
    assert r.residual_new > -1e-12

    w4 = monogamy_report(w_state(4), 0, CONCURRENCE, 2.0)
    assert not w4.asserted  # no split certifies for W4
    assert w4.m == 2  # so the ascending ladder is reported unasserted


def test_report_validation():
    psi = scenario1_state()
    with pytest.raises(ValueError):
        monogamy_report(psi, 0, CONCURRENCE, 1.5)  # below floor
    with pytest.raises(ValueError):
        monogamy_report(psi, 3, CONCURRENCE, 2.0)  # focus out of range
    with pytest.raises(ValueError):
        monogamy_report(psi, 0, CONCURRENCE, 2.0, order=(1, 1))
    with pytest.raises(ValueError):
        monogamy_report(psi, 0, CONCURRENCE, 2.0, order=(0, 2))
    with pytest.raises(ValueError):
        monogamy_report(psi, 0, CONCURRENCE, 2.0, m=2)  # only one comparison
    bell = Ket(np.array([1.0, 0.0, 0.0, 1.0]) / RT2)
    with pytest.raises(ValueError):
        monogamy_report(bell, 0, CONCURRENCE, 2.0)


@pytest.mark.parametrize("focus, order, message", [
    (3, None, "focus 3 out of range for 3 qubits"),
    (-1, None, "focus -1 out of range for 3 qubits"),
    (0, (1, 1), r"order \(1, 1\) is not a permutation of the non-focus qubits \[1, 2\]"),
    (0, (0, 2), r"order \(0, 2\) is not a permutation"),
    (2, (1,), r"order \(1,\) is not a permutation of the non-focus qubits \[0, 1\]"),
    (5, (1, 1), "focus 5 out of range"),  # both bad: the focus is reported
])
def test_a_bad_focus_or_order_raises_the_same_message_every_time(focus, order, message):
    psi = scenario1_state()
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            monogamy_report(psi, focus, CONCURRENCE, 2.0, order=order)
    # a good call in between leaves the error as it was
    monogamy_report(psi, 0, CONCURRENCE, 2.0, order=(2, 1))
    with pytest.raises(ValueError, match=message):
        monogamy_report(psi, focus, CONCURRENCE, 2.0, order=order)


def test_dominance_over_baselines_random_states():
    # ladder weights dominate both baselines pointwise, so the bound does too
    for k in range(40):
        psi = haar_random(3, 7000 + k)
        kind = ALL_KINDS[k % 4]
        alpha = kind.alpha_floor + (k % 7) * 0.5
        r = monogamy_report(psi, 0, kind, alpha)
        assert r.residual_gap > -1e-12
        assert r.new_bound >= r.baseline_sum - 1e-12
        assert r.new_bound >= r.baseline_weighted - 1e-12


def test_asserted_reports_are_sound_across_focus_choices():
    for k in range(25):
        psi = haar_random(3, 11_000 + k)
        for focus in (0, 1, 2):
            r = monogamy_report(psi, focus, CONCURRENCE, 2.0)
            assert r.asserted
            assert r.residual_new > -1e-9


def test_alpha_grid():
    g = alpha_grid(2.0, 5.0, 0.1)
    assert len(g) == 31
    assert abs(g[0] - 2.0) < 1e-15
    assert abs(g[-1] - 5.0) < 1e-12
    assert len(alpha_grid(2.0, 2.0, 0.05)) == 1
    for step in (0.05, 1e-4):  # an end accepted just below the start still holds the start
        assert alpha_grid(2.0, 2.0 - 5e-13, step).tolist() == [2.0]
    with pytest.raises(ValueError):
        alpha_grid(2.0, 5.0, 0.0)
    with pytest.raises(ValueError):
        alpha_grid(5.0, 2.0, 0.1)


def test_alpha_sweep_singleton_matches_single_report():
    psi = scenario1_state()
    single = monogamy_report(psi, 0, CONCURRENCE, 2.5)
    swept = alpha_sweep(psi, 0, CONCURRENCE, [2.5])
    assert len(swept) == 1
    assert swept[0] == single
    # an empty grid gives no reports, and still rejects a bad focus
    assert alpha_sweep(psi, 0, CONCURRENCE, []) == []
    with pytest.raises(ValueError, match="focus 3 out of range"):
        alpha_sweep(psi, 3, CONCURRENCE, [])


def test_a_sweep_is_its_grids_reports_from_one_stack(monkeypatch):
    psi = haar_random(5, 31)
    grid = [2.0, 2.5, 3.0, 4.0]
    expected = [monogamy_report(psi, 0, EOF, a, order=(4, 2, 3, 1)) for a in grid]
    # this state proves split 1 and not 2 or 3 under EOF, so each explicit split has its own verdict
    w_class = Ket(w_class_amplitudes(5, 252))
    at_split = {s: [monogamy_report(w_class, 0, EOF, a, m=s) for a in grid] for s in (1, 2, 3)}
    assert [at_split[s][0].asserted for s in (1, 2, 3)] == [True, False, False]

    calls = []
    original = monogamy.bounds.spin_flip_concurrences
    monkeypatch.setattr(monogamy.bounds, "spin_flip_concurrences",
                        lambda s, spectra: calls.append(s.shape) or original(s, spectra))
    assert alpha_sweep(psi, 0, EOF, grid, order=(4, 2, 3, 1)) == expected
    for s, reports in at_split.items():
        assert alpha_sweep(w_class, 0, EOF, grid, m=s) == reports, s
    assert calls == [(4, 4, 4)] * 4  # one stack of the four pairs a sweep, not one per exponent


def test_analysis_fixes_the_auto_split_for_every_row():
    # the split depends on the measure's verdicts alone, so every auto report
    # of one measure takes the split of its floor report, whatever the exponent
    for n in range(3, 7):
        for psi in (w_state(n), Ket(ghz_amplitudes(n)), haar_random(n, 700 + n)):
            for kind in ALL_KINDS:
                split = monogamy_report(psi, 0, kind, kind.alpha_floor).m
                for alpha in (kind.alpha_floor, 3.0):
                    auto = monogamy_report(psi, 0, kind, alpha)
                    assert auto.m == split
                    assert auto == monogamy_report(psi, 0, kind, alpha, m=split)
    with pytest.raises(ValueError, match="at least three qubits"):
        monogamy_report(Ket(ghz_amplitudes(2)), 0, CONCURRENCE, 2.0)


@pytest.mark.parametrize("index, value", [("order", (1.5, 2, 3, 4)), ("order", (1.0, 2, 3, 4)), ("order", ("1", 2, 3, 4)),
                                          ("focus", 1.0), ("focus", "0"), ("focus", True),
                                          ("m", 1.5), ("m", "2"), ("m", 2.0), ("m", True)])
def test_report_rejects_non_integral_indices(index, value):
    # the integer calls first cache the plans of these shapes; a float used to hit them, or be truncated
    psi = w_state(5)
    monogamy_report(psi, 0, EOF, 2.0, order=(1, 2, 3, 4), m=2)
    monogamy_report(psi, 1, EOF, 2.0)
    indices = {"focus": 0, "order": None, "m": None, index: value}
    with pytest.raises(ValueError, match=f"{index}( entry)? must be an integer, got"):
        monogamy_report(psi, indices["focus"], EOF, 2.0, order=indices["order"], m=indices["m"])


def test_numpy_integers_pass_every_index_check():
    i = np.int64
    psi = w_state(5)
    want = monogamy_report(psi, 1, EOF, 2.0, order=(0, 2, 3, 4), m=2)
    assert monogamy_report(psi, i(1), EOF, 2.0, order=tuple(map(i, (0, 2, 3, 4))), m=i(2)) == want
    assert np.array_equal(marginal_stack(psi.amplitudes[None], [(i(0), i(1))]), marginal_stack(psi.amplitudes[None], [(0, 1)]))
    assert pure_cut_value(EOF, psi, (i(1),)) == pure_cut_value(EOF, psi, (1,))
    config = CampaignConfig(i(3), i(2), i(0), (EOF,), ("floor",), 1e-9)
    assert run_campaign(config) == run_campaign(CampaignConfig(3, 2, 0, (EOF,), ("floor",), 1e-9))


def test_one_qubit_report_is_a_value_error():
    # a register with no pair at all reaches the same check as a two-qubit one
    with pytest.raises(ValueError, match="need at least three qubits, got 1"):
        monogamy_report(Ket([1, 0]), 0, CONCURRENCE, 2.0)


def test_a_sweep_leaves_no_plan_behind():
    # a sweep's plan holds a ladder pair per grid point; it must be freed when the sweep returns
    import tracemalloc

    psi = scenario1_state()
    grid = alpha_grid(2.0, 5.0, 1.5e-4)
    tracemalloc.start()
    try:
        # a first sweep fills numpy's caches and Python's free lists, which keep freed blocks traced
        assert len(alpha_sweep(psi, 0, CONCURRENCE, grid)) == 20_001
        before = tracemalloc.get_traced_memory()[0]
        reports = alpha_sweep(psi, 0, CONCURRENCE, grid + 0.5)  # keys no earlier call has planned
        assert len(reports) == 20_001
        del reports
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


def _heap_peak(call):
    # the most heap a call allocates above the heap at its start, after one untraced call has
    # filled the plans and caches it reads
    import tracemalloc

    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        return tracemalloc.get_traced_memory()[1] - start, out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [6, 7, 8])
def test_a_report_allocates_less_heap_than_decoding_its_file(n, tmp_path):
    # a --state call's heap peak is set by decoding the JSON file; the analysis and its report,
    # marginal gathers and all, must stay below it (below 6 qubits their fixed costs do not)
    path = tmp_path / "wide.json"
    save_state(haar_random(n, 1), path)
    decode, psi = _heap_peak(lambda: load_state(path))
    for kind in (CONCURRENCE, EOF, CREN, tsallis_kind(2.0)):
        report, _ = _heap_peak(lambda: monogamy_report(psi, 0, kind, kind.alpha_floor))
        assert report < decode, kind


def test_ranked_order_keeps_ties_in_given_order():
    # all W-state pairs tie, so ranking keeps the caller's order
    batch = ChainBatch.of(w_state(5).amplitudes[None], 2, order=(4, 0, 3, 1))
    assert batch.given == (4, 0, 3, 1)
    assert batch.chain_index[1, 0].tolist() == [0, 1, 2, 3]  # the ranked chain is the given one
    r = monogamy_report(w_state(5), 2, CONCURRENCE, 2.0, order=(4, 0, 3, 1))
    assert r.m == 3 and r.order == (4, 0, 3, 1)  # no split is proven: the ranked order of split N-2


def test_wide_register_analysis_builds_no_projector(monkeypatch):
    # every bound reads 2x2 and 4x4 marginals taken straight from the ket
    def no_projector(self):
        raise AssertionError(f"built a {2**self.n_qubits}x{2**self.n_qubits} projector")

    psi = haar_random(10, 2024)
    monkeypatch.setattr(Ket, "to_density_matrix", no_projector)
    cut = (0,)
    for kind in ALL_KINDS:
        report = monogamy_report(psi, 0, kind, kind.alpha_floor)
        assert len(report.preconditions.verdicts) == 8
        # the table raises the cut value by numpy's pow against an array of exponents, which a Python
        # float exponent of 2 would replace by a square, and which differs from Python's pow in the last bit
        raised = np.power(np.array([pure_cut_value(kind, psi, cut)]), np.array([kind.alpha_floor]))
        assert report.lhs == float(raised[0])
