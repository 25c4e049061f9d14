"""Property tests: bound dominance and the state file round trip."""
import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monogamy import CONCURRENCE, CREN, EOF, ChainAnalysis, Ket, haar_random, load_state, save_state, tsallis_kind


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
