"""Pair concurrences against a 50-digit reference computed from the ket (oracles.exact_pair_concurrence).

The reference normalizes the float ket in mpmath, sums the pair marginal
rho = M M^dagger entry by entry and reads Wootters' mu_i from mpmath.eig of
rho rho~.  Each bound below is the largest error measured on a fixed set of
states, rounded up by less than 2x, so a change of route or of rounding
shows here first.
"""
import time

import mpmath
import numpy as np

from monogamy import haar_random
from monogamy.bounds import ChainBatch
from oracles import EXACT_DIGITS, exact_pair_concurrence, w_class_amplitudes, wootters_concurrence

# states per family at each n, and per (n, family) the bound on |C - reference| over the (0, b) pairs:
# at n = 3 ChainBatch reads C in closed form from the ket (2.4e-16 Haar, 3.2e-16 W-class measured); from
# n = 4 on the spin flip reads it (7.6e-15 Haar at n = 4, 4.1e-16 at n = 5).  Every Haar pair at n = 6 and 8
# is unentangled and read as exactly 0.  A W-class pair has rank 2, where the spin flip reads C low by
# 4.1e-9, 5.3e-9, 5.9e-9 and 3.9e-9 at n = 4, 5, 6 and 8.
COUNTS = {3: 12, 4: 12, 5: 8, 6: 6, 8: 3}
BOUNDS = {
    (3, "Haar"): 4e-16, (4, "Haar"): 1e-14, (5, "Haar"): 5e-16, (6, "Haar"): 0.0, (8, "Haar"): 0.0,
    (3, "W-class"): 4e-16, (4, "W-class"): 8e-9, (5, "W-class"): 1e-8, (6, "W-class"): 1e-8, (8, "W-class"): 6e-9,
}


def test_pair_concurrences_keep_their_measured_error_against_the_50_digit_reference():
    started = time.perf_counter()
    for n, count in COUNTS.items():
        families = {"Haar": [haar_random(n, seed).amplitudes for seed in range(count)],
                    "W-class": [w_class_amplitudes(n, seed) for seed in range(count)]}
        for family, kets in families.items():
            batch = ChainBatch.of(np.array(kets), 0)
            worst = 0.0
            for amplitudes, concurrences in zip(kets, batch.concurrence.tolist()):
                for b, c in zip(batch.given, concurrences):
                    want = exact_pair_concurrence(amplitudes, 0, b)
                    # the oracles agree with each other far below any bound above
                    assert abs(wootters_concurrence(amplitudes, n, 0, b) - float(want)) <= 1e-15
                    with mpmath.workdps(EXACT_DIGITS):
                        worst = max(worst, float(abs(mpmath.mpf(c) - want)))
            assert worst <= BOUNDS[n, family], (n, family, worst)
    assert time.perf_counter() - started < 10.0  # about 2.5 s on a 2-core host
