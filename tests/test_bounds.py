import math

import numpy as np
import pytest

import monogamy
from monogamy import (
    CONCURRENCE,
    ChainAnalysis,
    CREN,
    EOF,
    Ket,
    Verdict,
    WeightLadder,
    alpha_grid,
    alpha_sweep,
    ghz_state,
    haar_random,
    monogamy_report,
    power_split_margin,
    prior_factor,
    pure_cut_value,
    step_factor,
    tsallis_kind,
    w_state,
)
from monogamy.states import SchmidtParams, gsd3
from oracles import w_class_amplitudes

np_rng = np.random.default_rng(4242)

RT2 = math.sqrt(2.0)
ALL_KINDS = (CONCURRENCE, EOF, CREN, tsallis_kind(2.0))


def scenario1_state():
    lam = (0.5, 0.5, math.sqrt(6) / 6, math.sqrt(6) / 6, math.sqrt(6) / 6)
    return gsd3(SchmidtParams(lam))


def bell_times_product():
    bell = Ket(2, np.array([1.0, 0.0, 0.0, 1.0]) / RT2)
    zeros = Ket(2, np.array([1.0, 0.0, 0.0, 0.0]))
    return Ket(4, np.kron(bell.amplitudes, zeros.amplitudes))


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


def test_weights_never_below_one():
    for base in (1.0, 1.5, 3.0):
        for count in (2, 3, 5):
            for split in range(1, count):
                assert WeightLadder(base, count, split).weights().min() >= 1.0


def test_precondition_three_qubits_always_exact():
    # one comparison, p_0 against the last pair's own power; every measure
    # is increasing in C, so the concurrences decide it and ranking proves it
    for k in range(20):
        analysis = ChainAnalysis.of(haar_random(3, 100 + k), 0)
        c0, c1 = (analysis.concurrence[b] for b in analysis.given)
        for kind in ALL_KINDS:
            cert = analysis.certificate(kind)
            assert cert.given.tails == cert.given.powers[1:]
            assert cert.given.verdicts == ((Verdict.HOLDS if c0 >= c1 else Verdict.FAILS),)
            assert cert.ranked.verdicts == (Verdict.HOLDS,)
            assert cert.split == 1


def test_precondition_w4_frozen_verdicts():
    # all pairs sit at C = 1/2, so the first power falls short of the two
    # after it, while the final comparison ties with the last power and holds
    analysis = ChainAnalysis.of(w_state(4), 0)
    for kind in ALL_KINDS:
        pre = analysis.certificate(kind).given
        assert [v.value for v in pre.verdicts] == ["Fails", "Holds"]
        assert not pre.certifies_split(1)
        assert not pre.certifies_split(2)
    pre = analysis.certificate(CONCURRENCE).given
    assert np.allclose(pre.powers, 0.25, rtol=0.0, atol=1e-12)
    assert np.allclose(pre.tails, (0.5, 0.25), rtol=0.0, atol=1e-12)


def test_precondition_ghz4_holds_with_zero_bound():
    # no GHZ4 pair is entangled: every power and sum is 0, every comparison ties
    r = monogamy_report(ghz_state(4), 0, CONCURRENCE, 2.0)
    assert [v.value for v in r.preconditions.verdicts] == ["Holds", "Holds"]
    assert r.asserted
    assert r.m == 2
    assert r.new_bound == 0.0


def test_certificate_depends_on_the_measure():
    # on this W-class state the first pair outweighs the other two in
    # E^sqrt(2) but not in C^2, so the verdicts are kept per measure
    analysis = ChainAnalysis.of(Ket(4, w_class_amplitudes(4, 51)), 0)
    assert [v.value for v in analysis.certificate(CONCURRENCE).given.verdicts] == ["Fails", "Holds"]
    assert [v.value for v in analysis.certificate(EOF).given.verdicts] == ["Holds", "Holds"]
    assert analysis.certificate(EOF) is analysis.certificate(EOF)


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
    bell = Ket(2, np.array([1.0, 0.0, 0.0, 1.0]) / RT2)
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
    monogamy.bounds._chain_plan.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            monogamy_report(psi, focus, CONCURRENCE, 2.0, order=order)
    assert monogamy.bounds._chain_plan.cache_info().currsize == 0
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


def test_one_analysis_serves_a_sweep_and_every_view(monkeypatch):
    psi = haar_random(5, 31)
    grid = [2.0, 2.5, 3.0, 4.0]
    expected = [monogamy_report(psi, 0, EOF, a, order=(4, 2, 3, 1)) for a in grid]
    analysis = ChainAnalysis.of(psi, 0, order=(4, 2, 3, 1))
    assert analysis == ChainAnalysis.of(psi, 0, order=(4, 2, 3, 1))
    assert [analysis.report(EOF, a) for a in grid] == expected

    calls = []
    original = monogamy.bounds.spin_flip_concurrences
    monkeypatch.setattr(monogamy.bounds, "spin_flip_concurrences", lambda s: calls.append(s.shape) or original(s))
    assert alpha_sweep(psi, 0, EOF, grid, order=(4, 2, 3, 1)) == expected
    assert calls == [(4, 4, 4)]  # one stack of the four pairs, not one per exponent


def test_analysis_fixes_the_auto_split_for_every_row():
    # the split depends on the measure's verdicts alone, so every auto report
    # of one measure takes its certificate's split, whatever the exponent
    for n in range(3, 7):
        for psi in (w_state(n), ghz_state(n), haar_random(n, 700 + n)):
            analysis = ChainAnalysis.of(psi, 0)
            for kind in ALL_KINDS:
                split = analysis.certificate(kind).split
                for alpha in (kind.alpha_floor, 3.0):
                    auto = analysis.report(kind, alpha)
                    assert auto.m == split
                    assert auto == analysis.report(kind, alpha, split)
    assert ChainAnalysis.of(ghz_state(2), 0).certificate(CONCURRENCE).split is None


def test_analyses_compare_by_value():
    # equality reads the state's numbers, not the per-measure certificates kept so far
    first, second = ChainAnalysis.of(w_state(4), 0), ChainAnalysis.of(w_state(4), 0)
    first.certificate(EOF)
    assert first == second
    assert first != ChainAnalysis.of(ghz_state(4), 0)
    assert first != ChainAnalysis.of(haar_random(4, 5), 0)


def test_ranked_order_keeps_ties_in_given_order():
    # all W-state pairs tie, so ranking keeps the caller's order
    analysis = ChainAnalysis.of(w_state(5), 2, order=(4, 0, 3, 1))
    assert analysis.ranked == analysis.given == (4, 0, 3, 1)
    assert monogamy_report(w_state(5), 2, CONCURRENCE, 2.0, order=(4, 0, 3, 1)).order == (4, 0, 3, 1)


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
        assert report.lhs == pure_cut_value(kind, psi, cut) ** kind.alpha_floor
