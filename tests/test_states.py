import math

import numpy as np
import pytest

from monogamy import (
    EOF,
    SchmidtParams,
    concurrence_pure,
    concurrence_two_qubit,
    ghz_state,
    gsd3,
    haar_random,
    partial_trace,
    pure_cut_value,
    purity,
    w_state,
)
from monogamy.states import haar_rows

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
        psi = ghz_state(n)
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
        ghz_state(1)
    with pytest.raises(ValueError):
        haar_random(0, 1)


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
    # one draw of 2 * 2^n normals split in halves gives the bits of two draws of 2^n, real first
    for n in range(1, 11):
        for seed in (0, 1, 7, 2**31 + 5, 2**32 + 3, 2**40 + 11):
            assert _hex(haar_random(n, seed).amplitudes) == _hex(_two_draw_haar(n, seed)), (n, seed)
            rows = haar_rows(np.empty((3, 2**n), dtype=np.complex128), seed)  # row j: seed + j
            assert [_hex(row) for row in rows] == [_hex(_two_draw_haar(n, seed + j)) for j in range(3)], (n, seed)


def test_zero_draw_is_degenerate(monkeypatch):
    class Zeros:
        def standard_normal(self, size):
            return np.zeros(size)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Zeros())
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
        total += purity(partial_trace(psi.to_density_matrix(), (0,)))
    assert abs(total / n_samples - 0.8) < 0.02
