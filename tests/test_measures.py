import math
import re

import mpmath
import numpy as np
import pytest

import monogamy.measures
from monogamy import (
    CONCURRENCE,
    CREN,
    EOF,
    DensityMatrix,
    Ket,
    MeasureKind,
    concurrence_pure,
    concurrence_two_qubit,
    eof_f,
    haar_random,
    pair_value,
    partial_trace,
    pure_cut_value,
    tsallis_g,
    tsallis_kind,
    w_state,
)
from monogamy.bounds import ChainBatch, monogamy_report
from monogamy.measures import spin_flip_concurrences, spin_flip_mus, values_of_concurrence
from monogamy.qstate import marginal_stack
from monogamy.states import SchmidtParams, gsd3, haar_rows
from oracles import (
    EXACT_DIGITS,
    exact_cut_value,
    ghz_amplitudes,
    min_avg_concurrence,
    partial_transpose_loops,
    random_ket,
    random_mixed,
    trace_norm,
    w_class_amplitudes,
    wootters_concurrence,
)

np_rng = np.random.default_rng(77)

BELL = Ket(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
CUT3 = (0,)


def werner(p):
    psi_minus = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    return DensityMatrix(p * np.outer(psi_minus, psi_minus) + (1 - p) * np.eye(4) / 4)


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
    product = Ket(np.array([1.0, 0.0, 0.0, 0.0]))
    assert concurrence_pure(product, (0,)) == 0.0
    assert abs(concurrence_pure(Ket(ghz_amplitudes(3)), CUT3) - 1.0) < 1e-14
    # frozen: W3 focus cut gives sqrt(8/9)
    assert abs(concurrence_pure(w_state(3), CUT3) - 0.9428090415820634) < 1e-14


def test_concurrence_pure_side_symmetry():
    psi = Ket(random_ket(np_rng, 8))
    a = concurrence_pure(psi, (0,))
    b = concurrence_pure(psi, (1, 2))
    assert abs(a - b) < 1e-13


def test_concurrence_two_qubit_closed_form_cases():
    assert abs(concurrence_two_qubit(BELL.to_density_matrix()) - 1.0) < 1e-14
    sep = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]))
    assert concurrence_two_qubit(sep) == 0.0
    # Werner states: concurrence is max(0, (3p-1)/2)
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(concurrence_two_qubit(werner(p)) - expected) < 1e-12
    with pytest.raises(ValueError):
        concurrence_two_qubit(DensityMatrix(np.eye(8) / 8))


def test_concurrence_two_qubit_swap_invariance():
    # the spin-flip route diagonalizes a non-hermitian product, where
    # clustered eigenvalues are only accurate to ~sqrt(machine eps)
    for _ in range(10):
        rho = DensityMatrix(random_mixed(np_rng, 4, 3))
        swapped = rho.entries.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        a = concurrence_two_qubit(rho)
        b = concurrence_two_qubit(DensityMatrix(swapped))
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
        rho = DensityMatrix(random_mixed(np_rng, 4, int(np_rng.integers(1, 5))))
        assert pair_value(CREN, rho) == concurrence_two_qubit(rho)  # bit for bit


def test_eof_pure_and_mixed():
    # frozen: S(rho_A) of the W3 focus cut, paper quotes 0.918296
    assert abs(pure_cut_value(EOF, w_state(3), CUT3) - 0.9182958340544893) < 1e-12
    rho_ab = partial_trace(w_state(3).to_density_matrix(), (0, 1))
    # frozen: eof of the W3 pair marginal, paper quotes 0.550048
    assert abs(pair_value(EOF, rho_ab) - 0.5500477595827576) < 1e-12
    with pytest.raises(ValueError):
        pair_value(EOF, DensityMatrix(np.eye(8) / 8))


def test_eof_pure_two_qubit_consistency():
    # on two-qubit pure states the entropy route and eof_f(C^2) agree
    for _ in range(30):
        psi = Ket(random_ket(np_rng, 4))
        c = concurrence_pure(psi, (0,))
        assert abs(pure_cut_value(EOF, psi, (0,)) - eof_f(c * c)) < 1e-12


def test_tsallis_pure_and_mixed():
    psi = Ket(random_ket(np_rng, 8))
    rho_a = partial_trace(psi.to_density_matrix(), (0,))
    lin = 1.0 - float(np.vdot(rho_a.entries, rho_a.entries).real)
    assert abs(pure_cut_value(tsallis_kind(2.0), psi, CUT3) - lin) < 1e-12
    rho = DensityMatrix(random_mixed(np_rng, 4, 2))
    c = concurrence_two_qubit(rho)
    for q in (2.0, 2.5, 3.0):
        assert abs(pair_value(tsallis_kind(q), rho) - tsallis_g(q, c * c)) < 1e-14
    with pytest.raises(ValueError):
        pure_cut_value(tsallis_kind(3.5), psi, CUT3)
    with pytest.raises(ValueError):
        pair_value(tsallis_kind(2.0), DensityMatrix(np.eye(8) / 8))


def test_tsallis_pure_two_qubit_matches_g_of_squared_concurrence():
    for q in (2.0, 2.3, 2.8, 3.0):
        psi = Ket(random_ket(np_rng, 4))
        c = concurrence_pure(psi, (0,))
        assert abs(pure_cut_value(tsallis_kind(q), psi, (0,)) - tsallis_g(q, c * c)) < 1e-12


def test_cren_pure_cut_known_values():
    assert abs(pure_cut_value(CREN, BELL, (0,)) - 1.0) < 1e-12
    lam = (math.sqrt(5) / 5,) * 5
    psi = gsd3(SchmidtParams(lam))
    assert abs(pure_cut_value(CREN, psi, CUT3) - 2.0 * math.sqrt(3) / 5.0) < 1e-12


def test_negativity_separable_mixture_is_zero():
    # convex mixtures of product states have a positive partial transpose, so the
    # oracle route the CREN cross-check uses reads zero negativity on them
    entries = np.zeros((4, 4), dtype=complex)
    for _ in range(6):
        a = random_ket(np_rng, 2)
        b = random_ket(np_rng, 2)
        ab = np.kron(a, b)
        entries += np.outer(ab, ab.conj())
    for sub in (0, 1):
        pt = partial_transpose_loops(entries / 6.0, (2, 2), sub)
        assert np.linalg.eigvalsh(pt).min() > -1e-12
        assert abs(trace_norm(pt) - 1.0) < 1e-12


def test_pure_cut_value_cren_matches_partial_transpose_route():
    # the trace norm of the partially transposed projector, less one, from the loop oracle
    for n, focus in ((3, 0), (3, 2), (4, 1)):
        psi = Ket(random_ket(np_rng, 2**n))
        projector = np.outer(psi.amplitudes, psi.amplitudes.conj())
        via_pt = trace_norm(partial_transpose_loops(projector, (2,) * n, focus)) - 1.0
        assert abs(pure_cut_value(CREN, psi, (focus,)) - via_pt) < 1e-10


def test_pure_cut_value_dispatch():
    # each measure's closed form on the spectrum of rho_A, traced from the projector
    psi = Ket(random_ket(np_rng, 8))
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


def test_pure_cut_value_names_the_fault_of_a_bad_side(monkeypatch):
    # an out-of-range or duplicate index used to be reported as a side A holding every qubit
    psi = w_state(3)
    for side_a, message in (((0, 1, 2, 5), "out of range"), ((0, 1, 1, 2), "duplicate indices"),
                            ((0, 1.0), "must be an integer"), ((0, 1, 2), "side B is empty")):
        with pytest.raises(ValueError, match=message):
            pure_cut_value(CONCURRENCE, psi, side_a)
    # every check runs before the ket is read
    monkeypatch.setattr(monogamy.measures, "_cut_concurrences", lambda *args: pytest.fail("read the ket"))
    with pytest.raises(ValueError, match="side B is empty"):
        pure_cut_value(CONCURRENCE, psi, (2, 0, 1))
    # a side of two qubits of five is no cut of one qubit against the rest
    for side_a in ((0, 1), (3, 1, 4)):
        with pytest.raises(ValueError, match="neither one qubit nor all qubits but one"):
            pure_cut_value(CONCURRENCE, w_state(5), side_a)


def test_pair_value_dispatch():
    rho = DensityMatrix(random_mixed(np_rng, 4, 4))
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
    # the stacked pass is bit for bit the per-pair marginal and spin flip, for any focus; so is the batch
    # from n = 4 on, while at n = 3 it reads each C from the ket in closed form, checked against the oracle
    for n in range(3, 9):
        for psi in (haar_random(n, 900 + n), w_state(n)):
            focus = n // 2
            partners = [b for b in range(n) if b != focus][::-1]
            stack = marginal_stack(psi.amplitudes[None], [(focus, b) for b in partners]).reshape(-1, 4, 4)
            conc = spin_flip_concurrences(stack)
            batch = ChainBatch.of(psi.amplitudes[None], focus)  # its given order: the partners ascending
            alone = dict(zip(batch.given, batch.concurrence[0].tolist()))
            assert stack.shape == (n - 1, 4, 4) and conc.shape == (n - 1,)
            for i, b in enumerate(partners):
                rho = DensityMatrix(marginal_stack(psi.amplitudes[None], [(focus, b)])[0, 0])
                assert stack[i].tobytes() == rho.entries.tobytes()
                one = concurrence_two_qubit(rho)
                assert conc[i].hex() == one.hex()
                if n == 3:
                    assert abs(alone[b] - wootters_concurrence(psi.amplitudes, n, focus, b)) <= 1e-13
                else:
                    assert alone[b].hex() == one.hex()


@pytest.mark.parametrize("n", range(3, 9))
def test_spin_flip_concurrences_match_the_wootters_oracle(n):
    # ChainBatch.of's concurrences of 20 Haar states a batch: at n = 3, where it reads C from the ket in
    # closed form, within 1e-13, on 20 W-class states as well; from n = 4 on, by the spin flip, within 1e-12
    kets = [haar_random(n, 3000 + seed).amplitudes for seed in range(20)]
    if n == 3:
        kets += [w_class_amplitudes(3, seed) for seed in range(20)]
    for a in (0, n - 1):
        batch = ChainBatch.of(np.array(kets), a)
        want = [[wootters_concurrence(k, n, a, b) for b in batch.given] for k in kets]
        assert np.abs(batch.concurrence - want).max() <= (1e-13 if n == 3 else 1e-12), a


def _haar_pairs(n, count, seed):
    # the (0, b) pair marginals of ``count`` Haar states, in state order, and their spectra
    amplitudes = haar_rows(np.empty((count, 2**n), dtype=complex), seed)
    pairs = marginal_stack(amplitudes, [(0, b) for b in range(1, n)]).reshape(-1, 4, 4)
    return amplitudes, pairs, np.linalg.eigvalsh(pairs)[:, ::-1]


def _ceiling_cases():
    # a stack of pair states and how many of them the spectral ceiling skips (None: not pinned)
    ps = 1.0 / 3.0 + np.arange(-20, 21) * 1e-11  # ceiling (3p - 1)/2 from -3e-10 to 3e-10
    werner_stack = np.array([werner(p).entries for p in ps])
    yield pytest.param(werner_stack, int(((3.0 * ps - 1.0) / 2.0 < -1e-10).sum()), id="werner")
    rng = np.random.default_rng(2001)
    for rank in range(1, 5):
        # below full rank lam4 is within rounding of zero, so nothing is skipped
        stack = np.array([random_mixed(rng, 4, rank) for _ in range(300)])
        yield pytest.param(stack, 0 if rank < 4 else None, id=f"mixed-rank-{rank}")
    # (1 - |phi><phi|)/3 has ceiling lam1 - lam3 = 0, but a rounded lam4 of +1e-17 would put its
    # computed ceiling near -3e-9 if the root were read there
    flat = np.array([(np.eye(4) - np.outer(phi, phi.conj())) / 3.0 for phi in (random_ket(rng, 4) for _ in range(100))])
    yield pytest.param(flat, 0, id="rank-3-flat")
    for n in range(4, 9):
        yield pytest.param(_haar_pairs(n, 60, 40 * n)[1], 60 * (n - 1) if n >= 7 else None, id=f"haar-{n}")
    for n in range(3, 9):
        wclass = np.array([w_class_amplitudes(n, k) for k in range(40)])
        stack = marginal_stack(wclass, [(0, b) for b in range(1, n)]).reshape(-1, 4, 4)
        yield pytest.param(stack, 0, id=f"wclass-{n}")


def _spin_flipped(monkeypatch):
    # the bytes of every matrix the kernel takes through the spin flip
    flipped = set()
    original = monogamy.measures.spin_flip_mus

    def spy(rho):
        flipped.update(m.tobytes() for m in rho.reshape(-1, 4, 4))
        return original(rho)

    monkeypatch.setattr(monogamy.measures, "spin_flip_mus", spy)
    return flipped


@pytest.mark.parametrize("stack, skipped", list(_ceiling_cases()))
def test_spectral_ceiling_changes_no_concurrence(stack, skipped, monkeypatch):
    flipped = _spin_flipped(monkeypatch)
    fast = spin_flip_concurrences(stack, np.linalg.eigvalsh(stack)[:, ::-1])
    skips = [m.tobytes() not in flipped for m in stack]
    # one matrix at a time, with the spectrum its DensityMatrix keeps, skips the same ones
    flipped.clear()
    one = [concurrence_two_qubit(DensityMatrix(m)) for m in stack]
    assert [m.tobytes() not in flipped for m in stack] == skips
    flipped.clear()
    full = spin_flip_concurrences(stack)
    assert all(m.tobytes() in flipped for m in stack)  # without spectra, every matrix is flipped
    assert [c.hex() for c in fast.tolist()] == [c.hex() for c in full.tolist()] == [c.hex() for c in one]
    if skipped is not None:
        assert sum(skips) == skipped


@pytest.mark.parametrize("n", range(4, 9))
def test_pairs_the_ceiling_skips_are_unentangled_by_the_oracle(n, monkeypatch):
    amplitudes, pairs, spectra = _haar_pairs(n, 100, 5000 + n)
    flipped = _spin_flipped(monkeypatch)
    spin_flip_concurrences(pairs, spectra)
    skipped = [k for k, m in enumerate(pairs) if m.tobytes() not in flipped]
    assert skipped or n == 4  # at n = 4 about 1 pair in 400 is skipped
    for k in skipped:
        state, b = divmod(k, n - 1)
        assert wootters_concurrence(amplitudes[state], n, 0, b + 1) == 0.0


PAIR_MAP_KINDS = (EOF, tsallis_kind(2.0), tsallis_kind(2.5), tsallis_kind(3.0))


@pytest.mark.parametrize("kind", PAIR_MAP_KINDS, ids=lambda k: f"{k.name}-{k.q}")
def test_pair_maps_lie_within_1e_15_relative_of_the_50_digit_reference(kind):
    # over C in [1e-12, 1), where the maps through (1 +- sqrt(1 - C^2)) / 2 read EOF as 0.0 below C = 1.65e-8
    # and kept no relative accuracy below about 1.5e-5; 4.1e-16 measured here at most (5.0e-16 on 5003 values)
    rng = np.random.default_rng(2024)
    cs = np.concatenate([10.0 ** -rng.uniform(0.0, 12.0, 600), rng.random(200), [1e-12, 1e-8, 0.5, 1.0 - 2.0**-53]])
    got = values_of_concurrence(kind, cs)
    worst = 0.0
    with mpmath.workdps(EXACT_DIGITS):
        for c, value in zip(cs.tolist(), got.tolist()):
            want = exact_cut_value(kind.name, mpmath.mpf(c), kind.q)
            worst = max(worst, float(abs(mpmath.mpf(value) - want) / want))
    assert worst <= 1e-15
    # eof_f and tsallis_g are the same maps on one squared value
    one = eof_f if kind is EOF else (lambda x: tsallis_g(kind.q, x))
    assert [one(c * c).hex() for c in cs[:300].tolist()] == [v.hex() for v in got[:300].tolist()]
    assert values_of_concurrence(kind, np.array([])).shape == (0,)


@pytest.mark.parametrize("kind", PAIR_MAP_KINDS, ids=lambda k: f"{k.name}-{k.q}")
@pytest.mark.parametrize("cs", [[0.5, 1.5, 2.0], [0.2, math.nan, 3.0], [0.5, math.nan], [math.inf],
                                [0.1, 1.0 + 1e-6, math.nan]])
def test_pair_maps_raise_the_scalar_message_for_the_first_value_out_of_domain(kind, cs):
    # the message of the scalar maps: x = c * c of the first value outside [0, 1] by 1e-12, as Python prints it
    x = next(c * c for c in cs if not -1e-12 <= c * c <= 1.0 + 1e-12)
    with pytest.raises(ValueError) as batch:
        values_of_concurrence(kind, np.array(cs))
    assert str(batch.value) == f"x={x!r} outside [0, 1]"


def test_one_value_maps_keep_their_domain_messages():
    for x in (1.01, -0.2, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"x={x!r} outside [0, 1]")):
            eof_f(x)
        with pytest.raises(ValueError, match=re.escape(f"x={x!r} outside [0, 1]")):
            tsallis_g(2.5, x)
    with pytest.raises(ValueError, match=re.escape("q=3.5 outside the supported range [2, 3]")):
        tsallis_g(3.5, 2.0)  # the order is checked before the value
    assert eof_f(-1e-13) == eof_f(0.0) and tsallis_g(2.0, 1.0 + 1e-13) == tsallis_g(2.0, 1.0)


@pytest.mark.parametrize("kind", PAIR_MAP_KINDS, ids=lambda k: f"{k.name}-{k.q}")
def test_a_value_just_past_one_is_clamped_and_its_batch_mates_keep_their_bits(kind):
    # a batch inside [0, 1] skips the clamp; one value past 1 by less than DOMAIN_ATOL clamps the batch
    cs = np.array([0.3, 1.0 + 4e-14, 0.7, 0.0])
    clamped = values_of_concurrence(kind, np.array([0.3, 1.0, 0.7, 0.0]))
    assert [v.hex() for v in values_of_concurrence(kind, cs).tolist()] == [v.hex() for v in clamped.tolist()]
    inside = values_of_concurrence(kind, cs[[0, 2, 3]])
    assert [v.hex() for v in inside.tolist()] == [v.hex() for v in clamped[[0, 2, 3]].tolist()]


@pytest.mark.parametrize("count", [1, 5, 292])
def test_a_batch_s_cut_concurrences_are_each_state_s_own(count):
    # the cut concurrence of a state does not depend on its batch-mates: bit for bit what
    # pure_cut_value reads from the state alone, at a focus whose halves split before it, after it or both
    for n, focus in ((3, 0), (5, 4), (5, 2), (8, 3)):
        amplitudes = haar_rows(np.empty((count, 2**n), dtype=np.complex128), 70 * n + count)
        got = ChainBatch.of(amplitudes, focus).cut
        assert got.shape == (count,)
        assert [v.hex() for v in got.tolist()] == [pure_cut_value(CONCURRENCE, Ket(a), (focus,)).hex()
                                                   for a in amplitudes]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_zero_concurrence_maps_to_positive_zero(n):
    # a basis state: every cut and pair concurrence is 0, and every measure maps it to 0.0, with no minus sign
    # a caller could read (a map that negates, or divides by 1 - q, prints -0 in a report)
    psi = Ket(np.eye(2**n)[5])
    zero = (0.0).hex()
    for kind in (CONCURRENCE, EOF, CREN) + PAIR_MAP_KINDS:
        for alpha in (kind.alpha_floor, 3.0):
            report = monogamy_report(psi, 0, kind, alpha)
            assert [v.hex() for v in report.pair_values + (report.lhs,)] == [zero] * n
        for side in ((0,), tuple(range(1, n))):
            assert pure_cut_value(kind, psi, side).hex() == zero
        assert pair_value(kind, DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))).hex() == zero
    assert eof_f(0.0).hex() == zero and eof_f(-0.0).hex() == zero
    assert all(tsallis_g(kind.q, x).hex() == zero for kind in PAIR_MAP_KINDS[1:] for x in (0.0, -0.0, -1e-13))
