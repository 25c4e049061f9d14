"""Property tests: bound dominance, the pair-sum certificate and the state file round trip."""
import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monogamy import CONCURRENCE, CREN, EOF, ChainAnalysis, Ket, haar_random, load_state, save_state, tsallis_kind
from monogamy.bounds import PRECONDITION_ATOL, _chain_preconditions
from oracles import w_class_amplitudes

states = st.builds(
    lambda n, seed, w_class: Ket(n, w_class_amplitudes(n, seed)) if w_class else haar_random(n, seed),
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
    analysis = ChainAnalysis.of(haar_random(n, seed), 0)
    for kind in (CONCURRENCE, EOF, CREN, tsallis_kind(q)):
        for lift in [0.0] + lifts:
            alpha = kind.alpha_floor + lift
            for m in [None] + list(range(1, n - 1)):
                r = analysis.report(kind, alpha, m)
                assert r.new_bound >= r.baseline_weighted - 1e-12
                assert r.baseline_weighted >= r.baseline_sum - 1e-12


@settings(max_examples=30, deadline=None)
@given(psi=states, q=st.floats(2.0, 3.0))
def test_top_step_cut_dominates_the_pair_sum(psi, q):
    # pure-state monogamy of M^gamma, the first link of every ladder
    analysis = ChainAnalysis.of(psi, 0)
    for kind in (CONCURRENCE, EOF, CREN, tsallis_kind(q)):
        cut_power = analysis.report(kind, kind.alpha_floor).lhs
        assert cut_power >= sum(analysis.certificate(kind).given.powers) - 1e-12


@settings(max_examples=30, deadline=None)
@given(psi=states, q=st.floats(2.0, 3.0), lifts=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=3))
def test_asserted_ladder_lies_below_the_pair_sum_reference(psi, q, lifts):
    # an asserted ladder is a chain of steps down from (sum of p_j)^(alpha/gamma)
    analysis = ChainAnalysis.of(psi, 0)
    for kind in (CONCURRENCE, EOF, CREN, tsallis_kind(q)):
        for lift in [0.0] + lifts:
            alpha = kind.alpha_floor + lift
            for m in [None] + list(range(1, psi.n_qubits - 1)):
                r = analysis.report(kind, alpha, m)
                if r.asserted:
                    reference = sum(r.preconditions.powers) ** (alpha / kind.alpha_floor)
                    assert r.new_bound <= reference + 1e-9
                    assert reference <= r.lhs + 1e-9


@settings(max_examples=30, deadline=None)
@given(psi=states, q=st.floats(2.0, 3.0), factor=st.floats(0.0, 1.0, exclude_min=True))
def test_verdicts_are_invariant_under_a_common_scale(psi, q, factor):
    # p_i >= S_{i+1} is homogeneous, so only ties within the tolerance can flip
    analysis = ChainAnalysis.of(psi, 0)
    for kind in (CONCURRENCE, EOF, CREN, tsallis_kind(q)):
        cert = analysis.certificate(kind)
        for pre in (cert.given, cert.ranked):
            scaled = _chain_preconditions([factor * p for p in pre.powers])
            for before, after, p, s in zip(pre.verdicts, scaled.verdicts, scaled.powers, scaled.tails):
                assert before is after or abs(p - s) <= PRECONDITION_ATOL


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 6),
    parts=st.lists(st.floats(-1.0, 1.0), min_size=2 * 64, max_size=2 * 64),
)
def test_state_file_round_trip(n, parts):
    z = np.array(parts[: 2 * 2**n]).view(np.complex128)
    norm = np.linalg.norm(z)
    assume(norm > 1e-3)
    psi = Ket(n, z / norm)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        save_state(psi, path)
        back = load_state(path)
    assert back.n_qubits == n
    assert np.abs(back.amplitudes - psi.amplitudes).max() <= 1e-15
