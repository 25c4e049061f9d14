import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from monogamy import (
    CONCURRENCE,
    EOF,
    Ket,
    SchmidtParams,
    concurrence_pure,
    concurrence_two_qubit,
    gsd3,
    haar_random,
    monogamy_report,
    partial_trace,
    pure_cut_value,
    w_state,
)
from monogamy import states
from monogamy.campaign import batch_size
from monogamy.qstate import _norm
from monogamy.states import _state_words, haar_rows
from oracles import ghz_amplitudes

np_rng = np.random.default_rng(31337)


def random_schmidt(rng):
    lam = rng.uniform(0.05, 1.0, size=5)
    lam /= np.linalg.norm(lam)
    return SchmidtParams(tuple(lam), phi=float(rng.uniform(0, 2 * math.pi)))


def test_schmidt_params_validation():
    ok = (0.5, 0.5, 0.5, 0.5, 0.0)
    SchmidtParams(ok)
    with pytest.raises(ValueError):
        SchmidtParams((1.0, 0.0, 0.0, 0.0))  # wrong arity
    with pytest.raises(ValueError):
        SchmidtParams((0.5, 0.5, 0.5, -0.5, 0.0))
    with pytest.raises(ValueError):
        SchmidtParams((0.5, 0.5, 0.5, 0.5, 0.1))  # squares exceed 1
    for phi in (math.nan, math.inf, -math.inf):  # gsd3 used to fail on them with a norm of nan
        with pytest.raises(ValueError, match=f"phi={phi!r} is not finite"):
            SchmidtParams((1.0, 0.0, 0.0, 0.0, 0.0), phi)


def test_every_schmidt_form_accepted_builds_a_ket_with_a_report():
    # SchmidtParams holds the squares to SCHMIDT_NORM_ATOL, inside what Ket accepts, so gsd3 never
    # raises on accepted coefficients and their analysis passes its own marginal checks
    base = np.array([0.5, 0.5, math.sqrt(6) / 6, math.sqrt(6) / 6, math.sqrt(6) / 6])
    accepted = 0
    for d in np.linspace(-1e-12, 1e-12, 41).tolist():
        try:
            params = SchmidtParams(tuple((base * math.sqrt(1.0 + d)).tolist()), phi=0.3)
        except ValueError as exc:
            assert "sum to 1" in str(exc)
            continue
        accepted += 1
        monogamy_report(gsd3(params), 0, CONCURRENCE, 2.0)
    assert 0 < accepted < 41


def test_gsd3_amplitude_placement():
    params = SchmidtParams((0.6, 0.8, 0.0, 0.0, 0.0), phi=math.pi / 2)
    amp = gsd3(params).amplitudes
    assert abs(amp[0] - 0.6) < 1e-15
    assert abs(amp[4] - 0.8j) < 1e-15  # |100> carries the phase
    assert np.all(amp[[1, 2, 3, 5, 6, 7]] == 0)


def test_gsd3_closed_form_marginals():
    # C(A|BC) = 2 l0 sqrt(l2^2+l3^2+l4^2); tracing out the last qubit
    # leaves the l3 coherence in the (0,1) marginal and vice versa
    cut = (0,)
    for _ in range(100):
        p = random_schmidt(np_rng)
        l0, _, l2, l3, l4 = p.lambdas
        psi = gsd3(p)
        proj = psi.to_density_matrix()
        assert abs(concurrence_pure(psi, cut) - 2 * l0 * math.hypot(l2, l3, l4)) < 1e-12
        assert abs(concurrence_two_qubit(partial_trace(proj, (0, 1))) - 2 * l0 * l3) < 1e-12
        assert abs(concurrence_two_qubit(partial_trace(proj, (0, 2))) - 2 * l0 * l2) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_w_state_marginals(n):
    psi = w_state(n)
    proj = psi.to_density_matrix()
    rho_a = partial_trace(proj, (0,))
    assert np.allclose(rho_a.entries, np.diag([(n - 1) / n, 1 / n]), atol=1e-14)
    for b in range(1, n):
        c = concurrence_two_qubit(partial_trace(proj, (0, b)))
        assert abs(c - 2.0 / n) < 1e-12


def test_ghz_state_marginals():
    for n in (3, 4):
        psi = Ket(ghz_amplitudes(n))
        proj = psi.to_density_matrix()
        cut = (0,)
        assert abs(concurrence_pure(psi, cut) - 1.0) < 1e-14
        assert abs(pure_cut_value(EOF, psi, cut) - 1.0) < 1e-14
        for b in range(1, n):
            assert concurrence_two_qubit(partial_trace(proj, (0, b))) == 0.0


def test_state_builders_reject_tiny_registers():
    with pytest.raises(ValueError):
        w_state(1)
    with pytest.raises(ValueError):
        haar_random(0, 1)


@pytest.mark.parametrize("build", [
    lambda: haar_random(3, 1.5),  # used to draw seed 1's state
    lambda: haar_random(3, True),  # used to draw seed 1's state
    lambda: haar_random(3.0, 1),  # used to raise TypeError
    lambda: w_state(3.0),  # used to raise TypeError
    lambda: haar_rows(np.empty((2, 8), dtype=np.complex128), 2.0),  # used to draw seeds 2 and 3
], ids=["float-seed", "bool-seed", "float-n", "float-w", "rows-float-seed"])
def test_state_builders_reject_non_integral_sizes_and_seeds(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_haar_random_seed_contract():
    a = haar_random(3, 42)
    b = haar_random(3, 42)
    c = haar_random(3, 43)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12


def _two_draw_haar(n, seed):
    # the draw as two standard_normal calls filling one complex vector, real parts first
    rng = np.random.default_rng(seed)
    amp = np.empty(2**n, dtype=np.complex128)
    amp.real = rng.standard_normal(2**n)
    amp.imag = rng.standard_normal(2**n)
    amp /= np.linalg.norm(amp)
    return amp


def _hex(amplitudes):
    return [float(x).hex() for x in amplitudes.view(np.float64)]


def test_haar_random_keeps_its_stream():
    # one draw of 2 * 2^n normals split in halves gives the bits of two draws of 2^n, real first; the batches
    # from 2^32 - 2 and 2^64 - 2 cross into a seed of two and of three 32-bit entropy words
    for n in range(1, 11):
        for seed in (0, 1, 7, 2**31 + 5, 2**32 - 2, 2**32 + 3, 2**40 + 11, 2**64 - 2):
            assert _hex(haar_random(n, seed).amplitudes) == _hex(_two_draw_haar(n, seed)), (n, seed)
            rows = haar_rows(np.empty((5, 2**n), dtype=np.complex128), seed)  # row j: seed + j
            assert [_hex(row) for row in rows] == [_hex(_two_draw_haar(n, seed + j)) for j in range(5)], (n, seed)


def test_a_campaign_batch_and_ten_thousand_seeds_keep_the_stream():
    # every bit of a full n = 3 campaign batch and of 10 000 three-qubit draws against default_rng, within a
    # budget of 2 s (about 0.6 s here)
    started = time.perf_counter()
    for seed, size in ((11, batch_size(3)), (0, 10_000)):
        rows = haar_rows(np.empty((size, 8), dtype=np.complex128), seed)
        assert [_hex(row) for row in rows] == [_hex(_two_draw_haar(3, seed + j)) for j in range(size)], size
    assert time.perf_counter() - started < 2.0


def test_batched_words_are_the_seed_sequence_state():
    seeds = [0, 1, 11, 2**31, 2**32 - 1, 2**32, 2**40, 2**64 - 1, 2**64, 2**100]
    words = np.empty((len(seeds), 2, 4), dtype="<u4")
    words[:] = np.array([np.random.SeedSequence(seed).pool for seed in seeds])[:, None]  # each pool twice
    expected = np.array([np.random.SeedSequence(seed).generate_state(4, np.uint64) for seed in seeds])
    assert np.array_equal(_state_words(words.reshape(len(seeds), 8)), expected)


def test_concurrent_draws_keep_their_streams():
    # each call holds its own reused generator, so draws in more threads than cores, switching every few
    # microseconds, interleave without mixing; a generator shared between calls fails here
    seeds = range(0, 40 * 292, 292)
    expected = {seed: haar_rows(np.empty((292, 8), dtype=np.complex128), seed) for seed in seeds}
    barrier = threading.Barrier(4, timeout=30)

    def draw(offset):
        barrier.wait()
        return [np.array_equal(haar_rows(np.empty((292, 8), dtype=np.complex128), seed), expected[seed])
                for seed in seeds[offset::4]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            same = list(pool.map(draw, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert same == [[True] * 10] * 4


def test_empty_rows_are_returned_as_given(monkeypatch):
    monkeypatch.setattr(states, "_GENERATORS", [])  # as in a fresh process
    out = np.empty((0, 8), dtype=np.complex128)
    assert haar_rows(out, 0) is out


def test_every_drawn_row_has_unit_norm():
    # the draw divides each row by its norm and does not read it back: the rounding must stay far inside
    # the row check's SQUARED_NORM_ATOL, at every register size and a full batch of seeds near 2^32 and 2^64;
    # the norm Ket and load_state take of such a row is np.linalg.norm's, bit for bit
    start = time.perf_counter()
    for n in range(1, 13):
        out = np.empty((batch_size(n), 2**n), dtype=np.complex128)
        for seed in (0, 2**32 - 3, 2**64 - 5):
            rows = haar_rows(out, seed)
            assert [_norm(row).hex() for row in rows] == [float(np.linalg.norm(row)).hex() for row in rows], (n, seed)
            parts = rows.view(np.float64)
            assert np.abs(np.einsum("ij,ij->i", parts, parts) - 1.0).max() <= 1e-14, (n, seed)
    assert time.perf_counter() - start < 1.0


def test_zero_draw_is_degenerate(monkeypatch):
    class Zeros:  # the generator haar_rows draws every row from, drawing zeros
        def __init__(self, bit_generator):
            self.bit_generator = bit_generator

        def standard_normal(self, out):
            out[:] = 0.0
            return out

    monkeypatch.setattr(states, "_GENERATORS", [])  # no free generator: the next call builds a Zeros
    monkeypatch.setattr(np.random, "Generator", Zeros)
    with pytest.raises(ValueError, match="degenerate zero draw"):
        haar_random(3, 0)
    with pytest.raises(ValueError, match="degenerate zero draw"):
        haar_rows(np.empty((4, 8), dtype=np.complex128), 0)


def test_haar_random_mean_reduced_purity():
    # known moment for a 2x2 bipartition: E[Tr rho_A^2] = (2+2)/(2*2+1) = 4/5,
    # reproduced by an independent Monte-Carlo run before freezing
    total = 0.0
    n_samples = 10_000
    for seed in range(n_samples):
        psi = haar_random(2, seed)
        e = partial_trace(psi.to_density_matrix(), (0,)).entries
        total += np.vdot(e, e).real
    assert abs(total / n_samples - 0.8) < 0.02
