"""A batch of states gives, bit for bit, what each state gives alone.

The campaign analyses its states in batches (monogamy.campaign.batch_size);
every row of a batch must equal ChainAnalysis.report of its state, and the
campaign's counts and minima must equal a state-by-state fold of those
reports, whether the last batch is full, short, or the only one.
"""
import math

import numpy as np
import pytest

import monogamy
from monogamy import CONCURRENCE, CREN, EOF, ChainAnalysis, Ket, haar_random, tsallis_kind
from monogamy.bounds import (
    PRECONDITION_ATOL, ChainBatch, _certified_splits, _chain_preconditions, _ladder_weights, _table_plan, step_factor,
)
from monogamy.campaign import CampaignConfig, _nan_min, batch_size, run_campaign
from oracles import w_class_amplitudes

KINDS = (CONCURRENCE, EOF, CREN, tsallis_kind(2.0), tsallis_kind(3.0))
EXPONENTS = ("floor", 2.0, 3.0, 4.5)


def _alphas(kind):
    resolved = (kind.alpha_floor if a == "floor" else a for a in EXPONENTS)
    return [a for a in dict.fromkeys(resolved) if a >= kind.alpha_floor]


KEYS = [(kind, alpha) for kind in KINDS for alpha in _alphas(kind)]
FIELDS = ("lhs", "new_bound", "baseline_weighted", "baseline_sum", "residual_new", "residual_gap")


@pytest.mark.parametrize("n", range(3, 9))
def test_batched_rows_equal_one_state_reports(n):
    # one table holds every (measure, alpha) key and one batch of Haar and W-class states
    states = [haar_random(n, 400 + k) for k in range(8)] + [Ket(n, w_class_amplitudes(n, k)) for k in range(8)]
    table = ChainBatch.of(np.array([psi.amplitudes for psi in states]), n, 0).table(KEYS)
    assert all(getattr(table, f).shape == (len(KEYS), len(states)) for f in ("m", "asserted") + FIELDS)
    alone = [ChainAnalysis.of(psi, 0) for psi in states]
    for k, (kind, alpha) in enumerate(KEYS):
        for j, analysis in enumerate(alone):
            r = analysis.report(kind, alpha)
            assert int(table.m[k, j]) == r.m and bool(table.asserted[k, j]) == r.asserted, (kind, alpha, j)
            for field in FIELDS:
                assert float(getattr(table, field)[k, j]).hex() == getattr(r, field).hex(), (kind, alpha, j, field)
    assert table.asserted.all() == (n == 3)  # past three qubits, unproven states ride in the same table
    if n == 6:  # these states take splits 1 and 4 under every measure: ladders differ within the batch
        assert all(sorted(set(row)) == [1, 4] for row in table.m.tolist())


def _report_entries(table, k, j):
    return [table.m[k, j], table.asserted[k, j]] + [float(getattr(table, f)[k, j]).hex() for f in FIELDS]


def test_a_key_tuple_is_planned_once():
    _table_plan.cache_clear()
    batches = [ChainBatch.of(np.array([haar_random(4, seed + k).amplitudes for k in range(3)]), 4, 0)
               for seed in (0, 10)]
    tables = [batch.table(list(KEYS)) for batch in batches + batches]
    assert _table_plan.cache_info()[:2] == (3, 1)  # hits, misses: one plan serves every batch
    assert [_report_entries(t, 3, 1) for t in tables[:2]] == [_report_entries(t, 3, 1) for t in tables[2:]]


# W-class states at n = 5 (four pairs): the auto split of concurrence and of EOF, and
# the exponent at which that measure's ladder overflows at split 3 but not at split 1
SPLIT_1 = w_class_amplitudes(5, 78)  # concurrence 1, EOF 1
SPLIT_3_1 = w_class_amplitudes(5, 252)  # concurrence 3, EOF 1
SPLIT_3 = w_class_amplitudes(5, 0)  # concurrence 3, EOF 3
OVERFLOW_AT_3 = {CONCURRENCE: 800.0, EOF: 600.0}


def test_a_ladder_overflowing_at_an_unused_split_raises_nothing():
    for kind, alpha in OVERFLOW_AT_3.items():
        _ladder_weights(step_factor(kind, alpha), 4, 1)
        with pytest.raises(ValueError, match="ladder weights overflow"):
            _ladder_weights(step_factor(kind, alpha), 4, 3)
    # concurrence at 800 on a state whose split is 1; and EOF at 600 on a state whose split is 1
    # while concurrence (at 600, no overflow) takes split 3 in the same table
    cases = [([SPLIT_1], [(CONCURRENCE, 800.0)], [[1]]),
             ([SPLIT_3_1], [(CONCURRENCE, 600.0), (EOF, 600.0)], [[3], [1]])]
    for states, keys, splits in cases:
        table = ChainBatch.of(np.array(states), 5, 0).table(keys)
        assert table.m.tolist() == splits
        for k, (kind, alpha) in enumerate(keys):
            for j, amplitudes in enumerate(states):
                r = ChainAnalysis.of(Ket(5, amplitudes), 0).report(kind, alpha)
                assert _report_entries(table, k, j) == [r.m, r.asserted] + [getattr(r, f).hex() for f in FIELDS]


def test_a_ladder_overflowing_at_a_used_split_raises_as_a_report_does():
    # the first key in order whose measure takes an overflowing split names the ladder
    for keys in ([(CONCURRENCE, 800.0)], [(CONCURRENCE, 800.0), (EOF, 800.0)], [(EOF, 800.0), (CONCURRENCE, 800.0)]):
        kind, alpha = keys[0]
        with pytest.raises(ValueError, match="ladder weights overflow") as expected:
            ChainAnalysis.of(Ket(5, SPLIT_3), 0).report(kind, alpha)
        with pytest.raises(ValueError) as got:
            ChainBatch.of(np.array([SPLIT_1, SPLIT_3]), 5, 0).table(keys)
        assert str(got.value) == str(expected.value)


def test_certified_splits_match_one_chain_at_a_time():
    # ties within the tolerance count either way, and the tails add from the last power back
    rng = np.random.default_rng(5)
    for count in range(1, 8):
        powers = rng.choice([0.0, 0.25, 0.5, 0.5 + PRECONDITION_ATOL / 2, 1.0], size=(300, count))
        powers[:20] = rng.random((20, count))
        certified = _certified_splits(powers)
        assert certified.shape == (300, count)
        for row, flags in zip(powers.tolist(), certified.tolist()):
            pre = _chain_preconditions(row)
            assert flags == [pre.certifies_split(m) for m in range(1, count + 1)], row


def _fold(config):
    # the campaign's rows as a state-by-state fold of one-state reports
    analyses = [ChainAnalysis.of(haar_random(config.n_qubits, config.seed + k), 0) for k in range(config.samples)]
    out = []
    for kind in KINDS:
        for alpha in _alphas(kind):
            asserted, min_new, min_gap = 0, math.inf, math.inf
            for analysis in analyses:
                r = analysis.report(kind, alpha)
                min_gap = _nan_min(min_gap, r.residual_gap)
                if r.asserted:
                    asserted += 1
                    min_new = _nan_min(min_new, r.residual_new)
            out.append((kind, alpha, asserted, (min_new if asserted else math.nan).hex(), min_gap.hex()))
    return out


@pytest.mark.parametrize("n", [3, 5, 8])
def test_campaign_rows_do_not_depend_on_the_batching(n):
    size = batch_size(n)
    assert size > 1
    for samples in (1, size, size + 1):  # one state, one full batch, a full and a short batch
        config = CampaignConfig(n_qubits=n, samples=samples, seed=17, measures=KINDS, alphas=EXPONENTS,
                                tolerance=1e-9)
        rows, violation = run_campaign(config)
        assert not violation
        got = [(r.measure, r.alpha, r.asserted, r.min_residual_new.hex(), r.min_residual_gap.hex()) for r in rows]
        assert got == _fold(config)
        assert all(r.tested == samples and r.inapplicable == samples - r.asserted for r in rows)


@pytest.mark.parametrize("asserted", [True, False], ids=["asserted", "unasserted"])
def test_nan_residual_folds_as_state_by_state(asserted, monkeypatch):
    # one state of a batch gets a NaN concurrence cut value, so a NaN residual_new in every concurrence row:
    # the table fold must equal a state-by-state _nan_min fold, and only an asserted NaN is a violation
    config = CampaignConfig(n_qubits=4, samples=60, seed=17, measures=KINDS, alphas=EXPONENTS, tolerance=1e-9)
    assert config.samples < batch_size(4)
    analyses = [ChainAnalysis.of(haar_random(4, config.seed + k), 0) for k in range(config.samples)]
    target = next(k for k, a in enumerate(analyses) if k > 0 and a.report(CONCURRENCE, 2.0).asserted == asserted)
    poisoned = analyses[target].batch.focus_entries[0]
    cut_values = monogamy.bounds.cut_values

    def with_nan(kind, entries, spectra):
        out = cut_values(kind, entries, spectra)
        if kind == CONCURRENCE:
            out[(entries == poisoned).all(axis=(1, 2))] = math.nan
        return out

    monkeypatch.setattr(monogamy.bounds, "cut_values", with_nan)
    rows, violation = run_campaign(config)
    got = [(r.measure, r.alpha, r.asserted, r.min_residual_new.hex(), r.min_residual_gap.hex()) for r in rows]
    assert got == _fold(config)
    assert violation == asserted
    assert [math.isnan(r.min_residual_new) for r in rows] == [asserted and r.measure == CONCURRENCE for r in rows]


def test_batch_size_follows_the_byte_budget():
    # 48 bytes of ket, its transposed copy and its conjugate per amplitude, 256 per pair marginal
    assert batch_size(3) == 256 * 1024 // (48 * 8 + 2 * 256)
    assert batch_size(8) == 256 * 1024 // (48 * 256 + 7 * 256)
    assert batch_size(12) == 1  # one state is over the budget: one at a time
    assert batch_size(30) == 1
