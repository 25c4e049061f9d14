import math

import numpy as np
import pytest

from monogamy import (
    CONCURRENCE,
    ChainAnalysis,
    CREN,
    EOF,
    DensityMatrix,
    Ket,
    MeasureKind,
    binary_entropy,
    concurrence_pure,
    concurrence_two_qubit,
    eof_f,
    ghz_state,
    haar_random,
    negativity,
    pair_value,
    partial_trace,
    pure_cut_value,
    tsallis_g,
    tsallis_kind,
    w_state,
)
from monogamy.measures import spin_flip_concurrences, spin_flip_mus
from monogamy.states import SchmidtParams, gsd3
from oracles import min_avg_concurrence, random_ket, random_mixed, wootters_concurrence

np_rng = np.random.default_rng(77)

BELL = Ket(2, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
CUT3 = (0,)


def two_qubit(entries):
    return DensityMatrix((2, 2), entries)


def werner(p):
    psi_minus = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    return two_qubit(p * np.outer(psi_minus, psi_minus) + (1 - p) * np.eye(4) / 4)


def test_measure_kind_validation():
    with pytest.raises(ValueError):
        MeasureKind("entropy")
    with pytest.raises(ValueError):
        MeasureKind("tsallis")  # q missing
    with pytest.raises(ValueError):
        MeasureKind("concurrence", q=2.0)
    with pytest.raises(ValueError):
        tsallis_kind(1.5)
    assert tsallis_kind(2.5).alpha_floor == 1.0
    assert CONCURRENCE.alpha_floor == 2.0
    assert CREN.alpha_floor == 2.0
    assert EOF.alpha_floor == math.sqrt(2.0)


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(-1e-13) == 0.0  # within clamp tolerance
    for x in np.linspace(0.01, 0.99, 23):
        assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) < 1e-14
    with pytest.raises(ValueError):
        binary_entropy(1.1)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def test_eof_f_endpoints_and_monotonicity():
    assert eof_f(0.0) == 0.0
    assert abs(eof_f(1.0) - 1.0) < 1e-15
    # frozen: value the paper quotes as 0.550048
    assert abs(eof_f(4.0 / 9.0) - 0.5500477595827576) < 1e-15
    xs = np.linspace(0.0, 1.0, 101)
    ys = [eof_f(x) for x in xs]
    assert np.all(np.diff(ys) > 0)
    with pytest.raises(ValueError):
        eof_f(1.01)


def test_tsallis_g_closed_forms():
    # q=2 is half the input, q=3 is 3/8 of it; both exact identities
    for x in np.linspace(0.0, 1.0, 57):
        assert abs(tsallis_g(2.0, x) - x / 2.0) < 1e-15
        assert abs(tsallis_g(3.0, x) - 3.0 * x / 8.0) < 1e-15
    with pytest.raises(ValueError):
        tsallis_g(1.9, 0.5)
    with pytest.raises(ValueError):
        tsallis_g(3.1, 0.5)
    with pytest.raises(ValueError):
        tsallis_g(2.5, -0.2)


def test_concurrence_pure_known_states():
    assert abs(concurrence_pure(BELL, (0,)) - 1.0) < 1e-14
    product = Ket(2, np.array([1.0, 0.0, 0.0, 0.0]))
    assert concurrence_pure(product, (0,)) == 0.0
    assert abs(concurrence_pure(ghz_state(3), CUT3) - 1.0) < 1e-14
    # frozen: W3 focus cut gives sqrt(8/9)
    assert abs(concurrence_pure(w_state(3), CUT3) - 0.9428090415820634) < 1e-14


def test_concurrence_pure_side_symmetry():
    psi = Ket(3, random_ket(np_rng, 8))
    a = concurrence_pure(psi, (0,))
    b = concurrence_pure(psi, (1, 2))
    assert abs(a - b) < 1e-13


def test_concurrence_two_qubit_closed_form_cases():
    assert abs(concurrence_two_qubit(BELL.to_density_matrix()) - 1.0) < 1e-14
    sep = two_qubit(np.diag([0.5, 0.0, 0.0, 0.5]))
    assert concurrence_two_qubit(sep) == 0.0
    # Werner states: concurrence is max(0, (3p-1)/2)
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(concurrence_two_qubit(werner(p)) - expected) < 1e-12
    with pytest.raises(ValueError):
        concurrence_two_qubit(DensityMatrix((2, 2, 2), np.eye(8) / 8))


def test_concurrence_two_qubit_swap_invariance():
    # the spin-flip route diagonalizes a non-hermitian product, where
    # clustered eigenvalues are only accurate to ~sqrt(machine eps)
    for _ in range(10):
        rho = two_qubit(random_mixed(np_rng, 4, 3))
        swapped = rho.entries.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        a = concurrence_two_qubit(rho)
        b = concurrence_two_qubit(two_qubit(swapped))
        assert abs(a - b) < 1e-7


def test_w_state_marginal_concurrence_matches_decomposition_oracle():
    rho = partial_trace(w_state(3).to_density_matrix(), (0, 1))
    closed = concurrence_two_qubit(rho)
    assert abs(closed - 2.0 / 3.0) < 1e-12
    # independent route: minimize the decomposition-averaged concurrence
    sampled = min_avg_concurrence(
        np.asarray(rho.entries), np.random.default_rng(5), n_samples=10_000, polish_rounds=250
    )
    assert abs(closed - sampled) < 1e-6


def test_schmidt_state_marginals():
    lam = (0.5, 0.5, math.sqrt(6) / 6, math.sqrt(6) / 6, math.sqrt(6) / 6)
    psi = gsd3(SchmidtParams(lam))
    proj = psi.to_density_matrix()
    assert abs(concurrence_two_qubit(partial_trace(proj, (0, 1))) - math.sqrt(6) / 6) < 1e-12
    assert abs(concurrence_two_qubit(partial_trace(proj, (0, 2))) - math.sqrt(6) / 6) < 1e-12
    assert abs(concurrence_pure(psi, CUT3) - math.sqrt(2) / 2) < 1e-12


def test_cren_is_concurrence_on_two_qubits():
    for _ in range(25):
        rho = two_qubit(random_mixed(np_rng, 4, int(np_rng.integers(1, 5))))
        assert pair_value(CREN, rho) == concurrence_two_qubit(rho)  # bit for bit


def test_eof_pure_and_mixed():
    # frozen: S(rho_A) of the W3 focus cut, paper quotes 0.918296
    assert abs(pure_cut_value(EOF, w_state(3), CUT3) - 0.9182958340544893) < 1e-12
    rho_ab = partial_trace(w_state(3).to_density_matrix(), (0, 1))
    # frozen: eof of the W3 pair marginal, paper quotes 0.550048
    assert abs(pair_value(EOF, rho_ab) - 0.5500477595827576) < 1e-12
    with pytest.raises(ValueError):
        pair_value(EOF, DensityMatrix((2, 2, 2), np.eye(8) / 8))


def test_eof_pure_two_qubit_consistency():
    # on two-qubit pure states the entropy route and eof_f(C^2) agree
    for _ in range(30):
        psi = Ket(2, random_ket(np_rng, 4))
        c = concurrence_pure(psi, (0,))
        assert abs(pure_cut_value(EOF, psi, (0,)) - eof_f(c * c)) < 1e-12


def test_tsallis_pure_and_mixed():
    psi = Ket(3, random_ket(np_rng, 8))
    rho_a = partial_trace(psi.to_density_matrix(), (0,))
    lin = 1.0 - float(np.vdot(rho_a.entries, rho_a.entries).real)
    assert abs(pure_cut_value(tsallis_kind(2.0), psi, CUT3) - lin) < 1e-12
    rho = two_qubit(random_mixed(np_rng, 4, 2))
    c = concurrence_two_qubit(rho)
    for q in (2.0, 2.5, 3.0):
        assert abs(pair_value(tsallis_kind(q), rho) - tsallis_g(q, c * c)) < 1e-14
    with pytest.raises(ValueError):
        pure_cut_value(tsallis_kind(3.5), psi, CUT3)
    with pytest.raises(ValueError):
        pair_value(tsallis_kind(2.0), DensityMatrix((2, 2, 2), np.eye(8) / 8))


def test_tsallis_pure_two_qubit_matches_g_of_squared_concurrence():
    for q in (2.0, 2.3, 2.8, 3.0):
        psi = Ket(2, random_ket(np_rng, 4))
        c = concurrence_pure(psi, (0,))
        assert abs(pure_cut_value(tsallis_kind(q), psi, (0,)) - tsallis_g(q, c * c)) < 1e-12


def test_negativity_known_values():
    assert abs(negativity(BELL.to_density_matrix(), 0) - 1.0) < 1e-12
    sep = two_qubit(np.diag([0.25, 0.25, 0.25, 0.25]))
    assert negativity(sep, 1) == 0.0
    lam = (math.sqrt(5) / 5,) * 5
    psi = gsd3(SchmidtParams(lam))
    assert abs(negativity(psi.to_density_matrix(), 0) - 2.0 * math.sqrt(3) / 5.0) < 1e-12


def test_negativity_separable_mixture_is_zero():
    # convex mixtures of product states stay at zero negativity
    entries = np.zeros((4, 4), dtype=complex)
    for _ in range(6):
        a = random_ket(np_rng, 2)
        b = random_ket(np_rng, 2)
        ab = np.kron(a, b)
        entries += np.outer(ab, ab.conj())
    rho = two_qubit(entries / 6.0)
    assert negativity(rho, 0) == 0.0


def test_pure_cut_value_cren_matches_partial_transpose_route():
    for n, focus in ((3, 0), (3, 2), (4, 1)):
        psi = Ket(n, random_ket(np_rng, 2**n))
        via_schmidt = pure_cut_value(CREN, psi, (focus,))
        via_pt = negativity(psi.to_density_matrix(), focus)
        assert abs(via_schmidt - via_pt) < 1e-10


def test_pure_cut_value_dispatch():
    # each measure's closed form on the spectrum of rho_A, traced from the projector
    psi = Ket(3, random_ket(np_rng, 8))
    rho_a = partial_trace(psi.to_density_matrix(), (0,))
    lam = np.linalg.eigvalsh(rho_a.entries)
    expected = {
        CONCURRENCE: math.sqrt(2.0 * (1.0 - float((lam**2).sum()))),
        EOF: float(-(lam * np.log2(lam)).sum()),
        CREN: float(np.sqrt(lam).sum() ** 2 - 1.0),
        tsallis_kind(2.5): float((1.0 - (lam**2.5).sum()) / 1.5),
    }
    for kind, value in expected.items():
        assert abs(pure_cut_value(kind, psi, CUT3) - value) < 1e-12


def test_pair_value_dispatch():
    rho = two_qubit(random_mixed(np_rng, 4, 4))
    c = concurrence_two_qubit(rho)
    assert pair_value(CONCURRENCE, rho) == c
    assert pair_value(CREN, rho) == c
    assert pair_value(EOF, rho) == eof_f(c * c)
    assert pair_value(tsallis_kind(2.0), rho) == tsallis_g(2.0, c * c)


def test_squared_concurrence_monogamy_on_random_states():
    # C^2 across the focus cut dominates the summed squared pair values
    for k in range(100):
        psi = haar_random(3, 9000 + k)
        proj = psi.to_density_matrix()
        cut_sq = concurrence_pure(psi, CUT3) ** 2
        pair_sq = sum(
            concurrence_two_qubit(partial_trace(proj, (0, b))) ** 2 for b in (1, 2)
        )
        assert cut_sq - pair_sq > -1e-10


def test_superadditivity_spot_checks():
    # the full grids run in the acceptance suite; keep a quick sanity net here
    pts = [(0.3, 0.4), (0.1, 0.9), (0.7, 0.2), (0.5, 0.5)]
    rt2 = math.sqrt(2.0)
    for x, y in pts:
        s = x * x + y * y
        assert eof_f(s) ** rt2 - eof_f(x * x) ** rt2 - eof_f(y * y) ** rt2 > -1e-10
        for q in (2.0, 2.5, 3.0):
            assert tsallis_g(q, s) - tsallis_g(q, x * x) - tsallis_g(q, y * y) > -1e-10


def test_spin_flip_paths_agree():
    # the entrywise sign pattern must match the explicit sigma_y (x) sigma_y product
    rng = np.random.default_rng(31415)
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sigma_y, sigma_y)
    for _ in range(25):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        mus = spin_flip_mus(rho)
        ev = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)
        expected = np.sort(np.sqrt(np.maximum(ev.real, 0.0)))[::-1]
        assert mus.shape == (4,)
        assert np.all(np.diff(mus) <= 1e-15)  # descending
        assert np.abs(mus - expected).max() < 1e-12


def test_pair_stack_matches_one_pair_at_a_time():
    # the stacked pass is bit for bit the per-pair marginal and spin flip, for any focus
    for n in range(3, 9):
        for psi in (haar_random(n, 900 + n), w_state(n)):
            focus = n // 2
            partners = [b for b in range(n) if b != focus][::-1]
            stack = psi.pair_marginals(focus, partners)
            conc = spin_flip_concurrences(stack)
            analysis = ChainAnalysis.of(psi, focus)
            assert stack.shape == (n - 1, 4, 4) and conc.shape == (n - 1,)
            for i, b in enumerate(partners):
                rho = psi.marginal((focus, b))
                assert stack[i].tobytes() == rho.entries.tobytes()
                one = concurrence_two_qubit(rho)
                assert conc[i].hex() == one.hex() == analysis.concurrence[b].hex()


@pytest.mark.parametrize("n", range(4, 9))
def test_spin_flip_concurrences_match_the_wootters_oracle(n):
    # n = 3 is not covered: its pair marginals have rank 2, and the roots of their two
    # zero eigenvalues of rho rho~ (about 1e-17) put about 3e-9 into mu3 and mu4
    for seed in range(20):
        psi = haar_random(n, 3000 + seed)
        for a in (0, n - 1):
            partners = [b for b in range(n) if b != a]
            got = spin_flip_concurrences(psi.pair_marginals(a, partners))
            want = [wootters_concurrence(psi.amplitudes, n, a, b) for b in partners]
            assert np.abs(got - want).max() <= 1e-12, (seed, a)
