"""Property tests: bound dominance, the pair-sum certificate, the state file round trip and the row check."""
import itertools
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monogamy import (
    CONCURRENCE, CREN, EOF, DensityMatrix, Ket, Verdict, haar_random, load_state, monogamy_report, save_state, tsallis_kind,
)
from monogamy.bounds import PRECONDITION_ATOL, ChainBatch
from monogamy.qstate import NORM_ATOL, SQUARED_NORM_ATOL, marginal_stack
from oracles import chain_certificate, w_class_amplitudes

states = st.builds(
    lambda n, seed, w_class: Ket(w_class_amplitudes(n, seed)) if w_class else haar_random(n, seed),
    n=st.integers(3, 8),
    seed=st.integers(0, 2**32 - 1),
    w_class=st.booleans(),
)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
    q=st.floats(2.0, 3.0),
    lifts=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=3),
)
def test_new_bound_dominates_both_baselines(n, seed, q, lifts):
    # for alpha at or above the floor the ladder base is at least the prior
    # factor, which is at least 1, so the weighted sums are ordered termwise
    psi = haar_random(n, seed)
    for kind in (CONCURRENCE, EOF, CREN, tsallis_kind(q)):
        for lift in [0.0] + lifts:
            alpha = kind.alpha_floor + lift
            for m in [None] + list(range(1, n - 1)):
                r = monogamy_report(psi, 0, kind, alpha, m=m)
                assert r.new_bound >= r.baseline_weighted - 1e-12
                assert r.baseline_weighted >= r.baseline_sum - 1e-12


@settings(max_examples=30, deadline=None)
@given(psi=states, q=st.floats(2.0, 3.0))
def test_top_step_cut_dominates_the_pair_sum(psi, q):
    # pure-state monogamy of M^gamma, the first link of every ladder
    for kind in (CONCURRENCE, EOF, CREN, tsallis_kind(q)):
        r = monogamy_report(psi, 0, kind, kind.alpha_floor)
        assert r.lhs >= sum(r.preconditions.powers) - 1e-12


@settings(max_examples=30, deadline=None)
@given(psi=states, q=st.floats(2.0, 3.0), lifts=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=3))
def test_asserted_ladder_lies_below_the_pair_sum_reference(psi, q, lifts):
    # an asserted ladder is a chain of steps down from (sum of p_j)^(alpha/gamma)
    for kind in (CONCURRENCE, EOF, CREN, tsallis_kind(q)):
        for lift in [0.0] + lifts:
            alpha = kind.alpha_floor + lift
            for m in [None] + list(range(1, psi.n_qubits - 1)):
                r = monogamy_report(psi, 0, kind, alpha, m=m)
                if r.asserted:
                    reference = sum(r.preconditions.powers) ** (alpha / kind.alpha_floor)
                    assert r.new_bound <= reference + 1e-9
                    assert reference <= r.lhs + 1e-9


@settings(max_examples=30, deadline=None)
@given(psi=states, q=st.floats(2.0, 3.0), factor=st.floats(0.0, 1.0, exclude_min=True))
def test_verdicts_are_invariant_under_a_common_scale(psi, q, factor):
    # p_i >= S_{i+1} is homogeneous, so only ties within the tolerance can flip
    for kind in (CONCURRENCE, EOF, CREN, tsallis_kind(q)):
        for m in (1, psi.n_qubits - 2):  # the given and the ranked order
            pre = monogamy_report(psi, 0, kind, kind.alpha_floor, m=m).preconditions
            powers = [factor * p for p in pre.powers]
            tails, holds, _ = chain_certificate(powers, PRECONDITION_ATOL)
            for before, after, p, s in zip(pre.verdicts, holds, powers, tails):
                assert (before is Verdict.HOLDS) == after or abs(p - s) <= PRECONDITION_ATOL


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 6),
    parts=st.lists(st.floats(-1.0, 1.0), min_size=2 * 64, max_size=2 * 64),
)
def test_state_file_round_trip(n, parts):
    z = np.array(parts[: 2 * 2**n]).view(np.complex128)
    norm = np.linalg.norm(z)
    assume(norm > 1e-3)
    psi = Ket(z / norm)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        save_state(psi, path)
        back = load_state(path)
    assert back.n_qubits == n
    assert np.abs(back.amplitudes - psi.amplitudes).max() <= 1e-15


def _base_row(rng, n, shape, focus, eps):
    # a unit row: Haar; rank-deficient (a few basis states, so every marginal is of low rank); or near a
    # product at the focus, its halves there u and eps v, or u and u + eps v
    dim = 2**n
    if shape == "haar":
        row = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    elif shape == "rank-deficient":
        row = np.zeros(dim, dtype=complex)
        support = rng.choice(dim, size=int(rng.integers(1, 4)), replace=False)
        row[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    else:
        u, v = (rng.standard_normal(dim // 2) + 1j * rng.standard_normal(dim // 2) for _ in range(2))
        halves = np.stack([u, eps * v] if shape == "small half" else [u, u + eps * v])
        row = halves.reshape(2, 2**focus, -1).transpose(1, 0, 2).ravel()  # the focus bit picks the half
    return row / np.linalg.norm(row)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(3, 8),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["haar", "rank-deficient", "small half", "parallel halves"]),
    edge=st.sampled_from(["row check", "Ket"]),
    side=st.sampled_from([-1.0, 1.0]),
    ulps=st.integers(-4, 4),
    log_eps=st.integers(3, 12),
)
def test_the_row_check_accepts_every_ket_and_only_rows_whose_marginals_pass(n, seed, shape, edge, side, ulps,
                                                                           log_eps):
    # ChainBatch.of checks its rows once, where they enter, in place of DensityMatrix on every marginal:
    # a row scaled to the edge of the row check's bound or of Ket's NORM_ATOL, give or take a few ulps,
    # passes it whenever Ket accepts it, and once it passes, its every focus and pair marginal passes
    # DensityMatrix's checks, rounding included
    rng = np.random.default_rng(seed)
    focus = int(rng.integers(n))
    row = _base_row(rng, n, shape, focus, 10.0**-log_eps)
    if edge == "row check":
        row *= math.sqrt((1.0 + side * SQUARED_NORM_ATOL) / float(np.vdot(row, row).real))
    else:
        row *= (1.0 + side * NORM_ATOL) / np.linalg.norm(row)
    row *= 1.0 + ulps * 2.0**-53
    try:
        Ket(row)
        ket_accepts = True
    except ValueError:
        ket_accepts = False
    try:
        ChainBatch.of(row[None], focus)
    except ValueError as exc:
        assert not ket_accepts and "kets must have unit norm" in str(exc)
        return
    keeps = [[(q,) for q in range(n)], list(itertools.combinations(range(n), 2))]
    for keep in keeps:
        for marginal in marginal_stack(row[None], keep)[0]:
            DensityMatrix(marginal)


@pytest.mark.parametrize("bad, message", [(math.nan, "kets must be finite"), (math.inf, "kets must be finite"),
                                          (complex(0, -math.inf), "kets must be finite"),
                                          (None, "kets must have unit norm"), ("empty", "empty batch")])
def test_a_bad_row_raises_a_value_error_with_no_warning(bad, message):
    kets = np.array([haar_random(4, seed).amplitudes for seed in range(3)])
    if bad == "empty":
        kets = kets[:0]
    elif bad is None:
        kets[1] *= 1.0 + 1e-12
    else:
        kets[2, 5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            ChainBatch.of(kets, 0)
