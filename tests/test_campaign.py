"""A batch of states gives, bit for bit, what each state gives alone.

The campaign analyses its states in batches (monogamy.campaign.batch_size);
a state's row of a batch's table must not depend on its batch-mates, so it
must equal monogamy_report of the state alone (a table of one), and
the campaign's counts and minima must equal a state-by-state fold of those
reports, whether the last batch is full, short, or the only one.
"""
import dataclasses
import math
import os
import sys

import numpy as np
import pytest

import monogamy
from monogamy import (
    CONCURRENCE, CREN, EOF, Ket, WeightLadder, haar_random, monogamy_report, tsallis_kind, w_state,
)
from monogamy.bounds import PRECONDITION_ATOL, ChainBatch, _certified_splits, _table_plan, step_factor
from monogamy.campaign import CampaignConfig, batch_size, run_campaign
from monogamy.qstate import load_state
from oracles import chain_certificate, w_class_amplitudes

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
    states = [haar_random(n, 400 + k) for k in range(8)] + [Ket(w_class_amplitudes(n, k)) for k in range(8)]
    table = ChainBatch.of(np.array([psi.amplitudes for psi in states]), 0).table(KEYS)
    assert all(getattr(table, f).shape == (len(KEYS), len(states)) for f in ("m", "asserted") + FIELDS)
    for k, (kind, alpha) in enumerate(KEYS):
        for j, psi in enumerate(states):
            r = monogamy_report(psi, 0, kind, alpha)
            assert int(table.m[k, j]) == r.m and bool(table.asserted[k, j]) == r.asserted, (kind, alpha, j)
            for field in FIELDS:
                assert float(getattr(table, field)[k, j]).hex() == getattr(r, field).hex(), (kind, alpha, j, field)
    assert table.asserted.all() == (n == 3)  # past three qubits, unproven states ride in the same table
    if n == 6:  # these states take splits 1 and 4 under every measure: ladders differ within the batch
        assert all(sorted(set(row)) == [1, 4] for row in table.m.tolist())


@pytest.mark.parametrize("n", [4, 5, 6])
def test_explicit_split_rows_equal_one_state_reports(n):
    # every state takes the split m: the ranked chain at m = N-2, the given one below it, and
    # asserted is the reference certifier's verdict on that chain
    states = [haar_random(n, 500 + k) for k in range(4)] + [Ket(w_class_amplitudes(n, k)) for k in range(4)]
    batch = ChainBatch.of(np.array([psi.amplitudes for psi in states]), 0)
    given = tuple(range(1, n))
    # by descending concurrence of the state alone, ties in the given order
    alone = [ChainBatch.of(psi.amplitudes[None], 0).concurrence[0] for psi in states]
    ranked = [tuple(given[i] for i in np.argsort(-c, kind="stable")) for c in alone]
    for m in range(1, n - 1):
        table = batch.table(KEYS, m)
        assert (table.m == m).all()
        for k, (kind, alpha) in enumerate(KEYS):
            for j, psi in enumerate(states):
                r = monogamy_report(psi, 0, kind, alpha, m=m)
                assert r.order == (ranked[j] if m == n - 2 else given)
                _, _, splits = chain_certificate(r.preconditions.powers, PRECONDITION_ATOL)
                assert bool(table.asserted[k, j]) == r.asserted == splits[m - 1], (kind, alpha, j, m)
                for field in FIELDS:
                    assert float(getattr(table, field)[k, j]).hex() == getattr(r, field).hex(), (kind, alpha, j, m)


def _report_entries(table, k, j):
    return [table.m[k, j], table.asserted[k, j]] + [float(getattr(table, f)[k, j]).hex() for f in FIELDS]


def test_a_key_tuple_is_planned_once():
    _table_plan.cache_clear()
    batches = [ChainBatch.of(np.array([haar_random(4, seed + k).amplitudes for k in range(3)]), 0)
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
        WeightLadder(step_factor(kind, alpha), 4, 1).weights()
        with pytest.raises(ValueError, match="ladder weights overflow"):
            WeightLadder(step_factor(kind, alpha), 4, 3).weights()
    # concurrence at 800 on a state whose split is 1; and EOF at 600 on a state whose split is 1
    # while concurrence (at 600, no overflow) takes split 3 in the same table
    cases = [([SPLIT_1], [(CONCURRENCE, 800.0)], [[1]]),
             ([SPLIT_3_1], [(CONCURRENCE, 600.0), (EOF, 600.0)], [[3], [1]])]
    for states, keys, splits in cases:
        table = ChainBatch.of(np.array(states), 0).table(keys)
        assert table.m.tolist() == splits
        for k, (kind, alpha) in enumerate(keys):
            for j, amplitudes in enumerate(states):
                r = monogamy_report(Ket(amplitudes), 0, kind, alpha)
                assert _report_entries(table, k, j) == [r.m, r.asserted] + [getattr(r, f).hex() for f in FIELDS]


def test_a_ladder_overflowing_at_a_used_split_raises_as_a_report_does():
    # the first key in order whose measure takes an overflowing split names the ladder
    for keys in ([(CONCURRENCE, 800.0)], [(CONCURRENCE, 800.0), (EOF, 800.0)], [(EOF, 800.0), (CONCURRENCE, 800.0)]):
        kind, alpha = keys[0]
        with pytest.raises(ValueError, match="ladder weights overflow") as expected:
            WeightLadder(step_factor(kind, alpha), 4, 3).weights()  # SPLIT_3 takes split 3
        with pytest.raises(ValueError) as alone:
            monogamy_report(Ket(SPLIT_3), 0, kind, alpha)
        with pytest.raises(ValueError) as got:
            ChainBatch.of(np.array([SPLIT_1, SPLIT_3]), 0).table(keys)
        assert str(got.value) == str(alone.value) == str(expected.value)


def test_chain_index_holds_each_state_s_given_and_ranked_positions():
    # row 0 of state j is its pairs in the given order, row 1 by descending concurrence with ties in
    # given order (Python's sort is stable), both as positions in concurrence.ravel()
    amplitudes = np.array([w_class_amplitudes(5, 3), haar_random(5, 2).amplitudes, w_state(5).amplitudes,
                           haar_random(5, 4).amplitudes])
    batch = ChainBatch.of(amplitudes, 0, order=(3, 1, 4, 2))
    count, n_pairs = batch.concurrence.shape
    assert batch.chain_index.shape == (2, count, n_pairs)
    for j, row in enumerate(batch.concurrence.tolist()):
        ranked = sorted(range(n_pairs), key=lambda i: -row[i])
        assert batch.chain_index[0, j].tolist() == [j * n_pairs + i for i in range(n_pairs)]
        assert batch.chain_index[1, j].tolist() == [j * n_pairs + i for i in ranked], row


def test_certified_splits_match_one_chain_at_a_time():
    # ties within the tolerance count either way, and the tails add from the last power back
    rng = np.random.default_rng(5)
    for count in range(1, 8):
        powers = rng.choice([0.0, 0.25, 0.5, 0.5 + PRECONDITION_ATOL / 2, 1.0], size=(300, count))
        powers[:20] = rng.random((20, count))
        tails, holds, certified = _certified_splits(powers)
        assert certified.shape == (300, count - 1)  # splits 1 .. N-2
        for j, row in enumerate(powers.tolist()):
            expected = chain_certificate(row, PRECONDITION_ATOL)
            assert [tails[j].tolist(), holds[j].tolist(), certified[j].tolist()] == list(expected), row


def _nan_min(a, b):
    return b if math.isnan(b) or b < a else a  # min(a, b), but a NaN on either side wins, as it would state by state


def _fold(config):
    # the campaign's rows as a state-by-state fold of one-state reports
    states = [haar_random(config.n_qubits, config.seed + k) for k in range(config.samples)]
    out = []
    for kind in config.measures:
        for alpha in _alphas(kind):
            asserted, min_new, min_gap = 0, math.inf, math.inf
            for psi in states:
                r = monogamy_report(psi, 0, kind, alpha)
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
    # one state of a batch gets a NaN cut concurrence, so a NaN residual_new in every row of the two measures
    # whose cut value is C itself (the others' maps reject a NaN): the table fold must equal a state-by-state
    # _nan_min fold, and only an asserted NaN is a violation
    config = CampaignConfig(n_qubits=4, samples=60, seed=17, measures=(CONCURRENCE, CREN), alphas=EXPONENTS,
                            tolerance=1e-9)
    assert config.samples < batch_size(4)
    states = [haar_random(4, config.seed + k) for k in range(config.samples)]
    target = next(k for k, psi in enumerate(states)
                  if k > 0 and monogamy_report(psi, 0, CONCURRENCE, 2.0).asserted == asserted)
    poisoned = states[target].amplitudes
    cut_concurrences = monogamy.bounds._cut_concurrences

    def with_nan(amplitudes, focus):
        out = cut_concurrences(amplitudes, focus)
        out[(amplitudes == poisoned).all(axis=1)] = math.nan
        return out

    monkeypatch.setattr(monogamy.bounds, "_cut_concurrences", with_nan)
    rows, violation = run_campaign(config)
    got = [(r.measure, r.alpha, r.asserted, r.min_residual_new.hex(), r.min_residual_gap.hex()) for r in rows]
    assert got == _fold(config)
    assert violation == asserted
    assert len(rows) == 6 and [math.isnan(r.min_residual_new) for r in rows] == [asserted] * 6


def test_the_verdict_reads_the_least_residual_across_batches():
    # seed 213's least residual_new is its last state's, alone in the second batch: a violation is reported
    # exactly when the tolerance lies below minus that minimum
    size = batch_size(3)
    config = CampaignConfig(n_qubits=3, samples=size + 1, seed=213, measures=KINDS, alphas=EXPONENTS, tolerance=0.0)
    least = min(r.min_residual_new for r in run_campaign(config)[0])
    first_batch = run_campaign(dataclasses.replace(config, samples=size))[0]
    assert least < min(r.min_residual_new for r in first_batch)
    for tolerance, violation in ((-least, False), (-math.nextafter(least, math.inf), True)):
        assert run_campaign(dataclasses.replace(config, tolerance=tolerance))[1] == violation


@pytest.mark.parametrize("field, value", [("n_qubits", 3.0), ("n_qubits", "3"), ("samples", 2.5), ("samples", True),
                                          ("seed", 0.5), ("seed", True), ("seed", "0")])
def test_campaign_config_rejects_non_integral_counts(field, value):
    settings = dict(n_qubits=3, samples=2, seed=0, measures=(EOF,), alphas=("floor",), tolerance=1e-9)
    settings[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        CampaignConfig(**settings)


def test_batch_size_follows_the_byte_budget():
    # 48 bytes of ket, its transposed copy and its conjugate per amplitude, 256 per pair marginal
    assert batch_size(3) == 256 * 1024 // (48 * 8 + 2 * 256)
    assert batch_size(8) == 256 * 1024 // (48 * 256 + 7 * 256)
    assert batch_size(12) == 1  # one state is over the budget: one at a time
    assert batch_size(30) == 1


def _counted_eigvals(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m.shape) or eigvals(m))
    return calls


def test_a_wide_haar_report_takes_no_spin_flip(monkeypatch):
    # every pair of an 8-qubit Haar state is unentangled, and the spectra that validate the pairs prove it
    calls = _counted_eigvals(monkeypatch)
    for seed in range(5):
        for kind in KINDS:
            monogamy_report(haar_random(8, seed), 0, kind, 3.0)
    assert calls == []


def test_a_three_qubit_campaign_takes_no_spin_flip(monkeypatch):
    # a three-qubit pair's C comes in closed form from its 4 x 2 slice of the ket, one call a batch; the
    # cut's C comes from the ket too, so no spectrum is taken
    calls = _counted_eigvals(monkeypatch)
    spectra = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: spectra.append(m.shape) or eigvalsh(m))
    factors = []
    closed_form = monogamy.bounds.rank2_concurrences
    monkeypatch.setattr(monogamy.bounds, "rank2_concurrences", lambda m: factors.append(m.shape) or closed_form(m))
    size = batch_size(3)
    run_campaign(CampaignConfig(3, size + 1, 0, KINDS, ("floor",), 1e-9))
    assert calls == [] and spectra == []
    assert factors == [(size, 2, 4, 2), (1, 2, 4, 2)]


def test_a_four_qubit_campaign_takes_no_spectrum(monkeypatch):
    # at n = 4 the pair stack goes to the spin flip unvalidated: the rows were checked, and the ceiling
    # that would read its spectra is off there
    spectra = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: spectra.append(m.shape) or eigvalsh(m))
    size = batch_size(4)
    rows, violation = run_campaign(CampaignConfig(4, size + 1, 0, KINDS, ("floor",), 1e-9))
    assert spectra == [] and not violation and all(r.tested == size + 1 for r in rows)


# numpy's modules whose functions only forward to a ufunc or a C call (ndarray.sum and the like, count_nonzero,
# full, zeros_like, column_stack, linalg.norm); each costs a Python frame per call
_WRAPPER_MODULES = (os.path.join("_core", "_methods.py"), os.path.join("_core", "numeric.py"), "lib" + os.sep,
                    "linalg" + os.sep)


def _numpy_frames(call) -> set[tuple[str, str]]:
    # (file relative to numpy's package, function) of every Python frame numpy enters during call()
    root = os.path.dirname(np.__file__) + os.sep
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            entered.add((frame.f_code.co_filename[len(root):], frame.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return entered


def test_the_per_call_paths_enter_no_numpy_wrapper(tmp_path):
    # a campaign-3q unit's run_campaign and a report's load_state call the ufuncs and C methods that numpy's
    # Python-level wrappers forward to; a first call, not profiled, builds what is cached per key tuple or keep
    path = tmp_path / "state.json"
    monogamy.save_state(haar_random(8, 0), path)
    config = CampaignConfig(3, 5, 0, (CONCURRENCE, EOF, CREN, tsallis_kind(2.0)), ("floor", 2.0, 3.0), 1e-9)
    for call in (lambda: run_campaign(config), lambda: load_state(path)):
        call()
        entered = _numpy_frames(call)
        assert not {(f, name) for f, name in entered if f.startswith(_WRAPPER_MODULES)}, sorted(entered)
