import itertools
import json
import math
import re

import numpy as np
import pytest

from monogamy import (
    CONCURRENCE,
    CREN,
    EOF,
    DensityMatrix,
    Ket,
    StateFileError,
    haar_random,
    load_state,
    monogamy_report,
    partial_trace,
    pure_cut_value,
    save_state,
    tsallis_kind,
    w_state,
)
import monogamy.qstate
from monogamy.qstate import NORM_ATOL, STATE_FILE_NORM_ATOL, _norm, marginal_stack
from monogamy.states import SchmidtParams
from oracles import partial_transpose_loops, ptrace_loops, random_ket, random_mixed, trace_norm, w_class_amplitudes

np_rng = np.random.default_rng(20240817)


def random_dm(rng, n, rank=None):
    return DensityMatrix(random_mixed(rng, 2**n, rank or 2**n))


def test_ket_validation():
    Ket(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Ket(np.array([1.0, 1.0]))  # not normalized


@pytest.mark.parametrize("n, seed", [(3, 0), (5, 3), (8, 1), (10, 2)])
def test_every_ket_accepted_passes_its_own_analysis(n, seed):
    # a Ket's norm may stray from 1 by NORM_ATOL; its marginals' traces are its squared norm, which
    # DensityMatrix holds to TRACE_ATOL, so every ket Ket accepts must give a report of every measure
    base = haar_random(n, seed).amplitudes
    accepted = rejected = 0
    for d in np.linspace(-1e-12, 1e-12, 41).tolist() + [s * monogamy.qstate.NORM_ATOL for s in (-1, 1)]:
        try:
            psi = Ket(base * (1.0 + d))
        except ValueError as exc:
            assert "unit norm" in str(exc)
            rejected += 1
            continue
        accepted += 1
        for kind in (CONCURRENCE, EOF, CREN, tsallis_kind(2.5)):
            monogamy_report(psi, 0, kind, kind.alpha_floor)
        for marginal in marginal_stack(psi.amplitudes[None], [(q,) for q in range(n)])[0]:
            DensityMatrix(marginal)
    assert accepted > 0 and rejected > 0


def test_ket_norm_boundary():
    atol = monogamy.qstate.NORM_ATOL
    assert (2 + atol) * atol < 0.501 * monogamy.qstate.TRACE_ATOL  # ||psi||^2 - 1 leaves half the trace tolerance
    for d, ok in ((atol / 2, True), (-atol / 2, True), (2 * atol, False), (-2 * atol, False)):
        amp = np.array([1.0 + d, 0.0])
        if ok:
            Ket(amp)
        else:
            with pytest.raises(ValueError, match="unit norm"):
                Ket(amp)


def _scaled_to_the_edge(base, atol):
    # base scaled to norms a few ulps either side of 1 - atol and of 1 + atol
    return [base * (1.0 + side * (atol + k * 2.0**-52)) for side in (-1.0, 1.0) for k in range(-6, 7)]


def test_the_norm_is_np_linalg_norm_bit_for_bit(tmp_path):
    # Ket and load_state take np.linalg.norm's arithmetic without its wrapper: the same float, so the same
    # verdict at their bounds and the same renormalized amplitudes (Haar rows: tests/test_states.py)
    for n in range(1, 13):
        for seed in range(3):
            amp = w_class_amplitudes(n, seed)
            for v in (amp, 3.7 * amp, 1e-5 * amp):
                assert _norm(v).hex() == float(np.linalg.norm(v)).hex(), (n, seed)
    verdicts = set()
    for n, seed in ((1, 0), (3, 1), (8, 2)):
        for v in _scaled_to_the_edge(haar_random(n, seed).amplitudes, NORM_ATOL):
            norm = float(np.linalg.norm(v))
            assert _norm(v).hex() == norm.hex()
            strided = np.stack([v, -v], axis=1)[:, 0]  # a view whose norm np.linalg.norm takes of a copy
            if abs(norm - 1.0) <= NORM_ATOL:
                assert Ket(v).amplitudes.tobytes() == Ket(strided).amplitudes.tobytes() == v.tobytes()
                verdicts.add(True)
            else:
                for given in (v, strided):
                    with pytest.raises(ValueError, match=re.escape(f"unit norm, got {norm!r}")):
                        Ket(given)
                verdicts.add(False)
    path = tmp_path / "state.json"
    for n, seed in ((1, 3), (4, 4), (8, 5)):
        for v in _scaled_to_the_edge(haar_random(n, seed).amplitudes, STATE_FILE_NORM_ATOL):
            norm = float(np.linalg.norm(v))
            path.write_text(json.dumps({"n_qubits": n, "amplitudes": v.view(np.float64).reshape(-1, 2).tolist()}))
            if abs(norm - 1.0) <= STATE_FILE_NORM_ATOL:
                assert load_state(path).amplitudes.tobytes() == (v / norm).tobytes()
                verdicts.add("file accepted")
            else:
                with pytest.raises(StateFileError, match=re.escape(f"amplitude norm {norm!r} deviates")):
                    load_state(path)
                verdicts.add("file rejected")
    assert verdicts == {True, False, "file accepted", "file rejected"}


def test_nan_input_is_rejected():
    # every check passes only within tolerance, so NaN, for which each comparison is False, fails it
    nan = math.nan
    with pytest.raises(ValueError, match="unit norm"):
        Ket([nan, 0, 0, 0])
    for bad in (nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            DensityMatrix([[bad, 0], [0, 0]])
    with pytest.raises(ValueError, match="unit norm"):  # not numpy's LinAlgError from the spin flip
        monogamy_report(Ket([nan] + [0] * 7), 0, CONCURRENCE, 2.0)
    with pytest.raises(ValueError, match="sum to 1"):
        SchmidtParams((nan, 1.0, 0.0, 0.0, 0.0))


def test_non_finite_entries_raise_before_any_warning():
    # the finiteness check runs first: the hermitian check would compute inf - inf and warn
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.inf, -math.inf, math.nan, complex(0, math.inf)):
            with pytest.raises(ValueError, match="density matrix must be finite"):
                DensityMatrix([[bad, 0], [0, 0]])
            entries = np.eye(4, dtype=np.complex128) / 4
            entries[1, 3] = bad
            with pytest.raises(ValueError, match="density matrix must be finite"):
                DensityMatrix(entries)


def test_ket_amplitudes_read_only():
    psi = Ket(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.5


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


@pytest.mark.parametrize("shape", [(0,), (1,), (3,), (6,), (4, 4)])
def test_a_ket_needs_a_power_of_two_amplitudes_from_two(shape):
    # the register size is read from the amplitudes, of unit norm here, so only their shape is wrong:
    # a 4 x 4 matrix is no ket, though its 16 entries would make one of 4 qubits
    amp = np.zeros(shape)
    amp.flat[:1] = 1.0
    with pytest.raises(ValueError, match=re.escape(f"expected a (2^n,) array with n >= 1, got shape {shape}")):
        Ket(amp)


@pytest.mark.parametrize("shape", [(3, 3), (1, 1), (4, 2), (4,)])
def test_a_density_matrix_needs_a_square_power_of_two_width_from_two(shape):
    entries = np.zeros(shape)
    entries.flat[0] = 1.0
    with pytest.raises(ValueError, match=re.escape(f"expected a (2^n, 2^n) array with n >= 1, got shape {shape}")):
        DensityMatrix(entries)


def test_pure_cut_value_rejects_bad_sides():
    # a cut is side A against the rest: side A must be distinct in-range qubits, and not all of them
    psi = w_state(3)
    for side_a in ((), (0, 0), (3,), (-1,), (0, 1, 2), (2, 0, 1)):
        with pytest.raises(ValueError):
            pure_cut_value(CONCURRENCE, psi, side_a)
    assert pure_cut_value(CONCURRENCE, psi, (1,)) == pure_cut_value(CONCURRENCE, psi, [1])


def test_ket_equality():
    assert w_state(3) == w_state(3)
    assert w_state(3) != Ket(np.eye(8)[1])
    assert w_state(2) != w_state(3)


def test_big_endian_convention():
    # |100> on three qubits sits at index 4 and puts qubit 0 in |1>
    amp = np.zeros(8)
    amp[4] = 1.0
    rho0 = partial_trace(Ket(amp).to_density_matrix(), (0,))
    assert np.allclose(rho0.entries, np.diag([0.0, 1.0]), atol=1e-14)
    rho12 = partial_trace(Ket(amp).to_density_matrix(), (1, 2))
    assert np.allclose(rho12.entries, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-14)


def test_partial_trace_w_state_marginal():
    # frozen: tracing all but the focus qubit of W3 leaves diag(2/3, 1/3)
    rho = partial_trace(w_state(3).to_density_matrix(), (0,))
    assert np.allclose(rho.entries, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-14)


@pytest.mark.parametrize("keep", [(0,), (1,), (3,), (0, 2), (1, 3), (0, 1, 2), (2, 0)])
def test_partial_trace_matches_loop_oracle(keep):
    rho = random_dm(np_rng, 4)
    expected = ptrace_loops(rho.entries, (2,) * 4, keep)
    got = partial_trace(rho, keep)
    assert got.n_qubits == len(set(keep))
    assert np.abs(got.entries - expected).max() < 1e-13


@pytest.mark.parametrize("n", range(1, 7))
def test_marginal_stack_of_one_ket_matches_loop_oracle(n):
    psi = Ket(random_ket(np_rng, 2**n))
    proj = psi.to_density_matrix().entries
    for k in range(1, n + 1):
        for keep in itertools.combinations(range(n), k):
            got = marginal_stack(psi.amplitudes[None], [keep])[0, 0]
            assert got.shape == (2**k, 2**k)
            assert np.abs(got - ptrace_loops(proj, (2,) * n, keep)).max() < 1e-13


def test_marginal_stack_keeps_register_order_and_rejects_bad_keep():
    kets = random_ket(np_rng, 16)[None]
    assert np.array_equal(marginal_stack(kets, [(3, 0, 2)]), marginal_stack(kets, [(0, 2, 3)]))
    for bad in [(), (1, 1), (4,), (-1,)]:
        with pytest.raises(ValueError):
            marginal_stack(kets, [bad])


def test_partial_trace_keeps_register_order():
    # keep order must not matter: factors stay in original order
    rho = random_dm(np_rng, 3)
    a = partial_trace(rho, (0, 2))
    b = partial_trace(rho, (2, 0))
    assert np.array_equal(a.entries, b.entries)


def test_partial_trace_is_trace_preserving_and_positive():
    for _ in range(20):
        rho = random_dm(np_rng, 3, rank=int(np_rng.integers(1, 9)))
        red = partial_trace(rho, (0, 2))
        # DensityMatrix construction already enforces hermiticity/trace/psd;
        # check the numbers are comfortably inside tolerance, not at its edge
        assert abs(red.entries.trace() - 1.0) < 1e-14
        assert np.linalg.eigvalsh(red.entries)[0] > -1e-13


def test_partial_trace_errors():
    rho = random_dm(np_rng, 2)
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (0, 0))
    with pytest.raises(ValueError):
        partial_trace(rho, (2,))


def test_partial_transpose_bell_spectrum():
    # the loop oracle behind the CREN cross-check, on the one spectrum known by hand
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    pt = partial_transpose_loops(np.outer(bell, bell), (2, 2), 0)
    # frozen: the transposed Bell projector has spectrum {-1/2, 1/2, 1/2, 1/2}
    assert np.allclose(np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_partial_transpose_involution_and_trace():
    rho = random_dm(np_rng, 3)
    for sub in range(3):
        pt = partial_transpose_loops(rho.entries, (2, 2, 2), sub)
        assert abs(np.trace(pt) - 1.0) < 1e-14
        assert np.abs(pt - pt.conj().T).max() < 1e-14
        # applying the same transpose twice restores the original entries
        assert np.array_equal(partial_transpose_loops(pt, (2, 2, 2), sub), rho.entries)


def test_density_matrix_eigenvalues_descending_and_trace():
    # the spectrum the positivity check computes is kept, not recomputed
    psi = Ket(random_ket(np_rng, 16))
    proj = psi.to_density_matrix()
    for rho in (random_dm(np_rng, 3), proj, partial_trace(proj, (0,)), partial_trace(proj, (1, 3))):
        vals = rho.eigenvalues
        assert vals.shape == (rho.entries.shape[0],)
        assert np.all(np.diff(vals) <= 0)
        assert abs(vals.sum() - np.trace(rho.entries).real) < 1e-12
        assert np.array_equal(vals, np.linalg.eigvalsh(rho.entries)[::-1])
        assert not vals.flags.writeable


def test_trace_norm_hermitian_equals_abs_eigenvalue_sum():
    # the oracle's singular-value sum against the eigenvalue route on a Hermitian matrix
    g = np_rng.standard_normal((5, 5)) + 1j * np_rng.standard_normal((5, 5))
    h = g + g.conj().T
    assert abs(trace_norm(h) - np.abs(np.linalg.eigvalsh(h)).sum()) < 1e-10


def test_state_file_round_trip(tmp_path):
    path = tmp_path / "state.json"
    psi = Ket(random_ket(np_rng, 4))
    save_state(psi, path)
    back = load_state(path)
    assert back.n_qubits == 2
    assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-15


def test_state_file_normalizes_small_deviation(tmp_path):
    path = tmp_path / "state.json"
    amp = [[1.0 + 5e-7, 0.0], [0.0, 0.0]]
    path.write_text(json.dumps({"n_qubits": 1, "amplitudes": amp}))
    psi = load_state(path)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-15


def test_state_file_rejects_large_deviation(tmp_path):
    path = tmp_path / "state.json"
    amp = [[1.001, 0.0], [0.0, 0.0]]
    path.write_text(json.dumps({"n_qubits": 1, "amplitudes": amp}))
    with pytest.raises(StateFileError):
        load_state(path)


def test_state_file_diagnostics(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n_qubits": 1,\n  "amplitudes": [[1.0, 0.0],\n')
    with pytest.raises(StateFileError, match=r"line \d+"):
        load_state(path)
    path.write_text(json.dumps({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
    with pytest.raises(StateFileError, match="n_qubits"):
        load_state(path)
    path.write_text(json.dumps({"n_qubits": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
    with pytest.raises(StateFileError, match="expected 4"):
        load_state(path)
    path.write_text(json.dumps({"n_qubits": 1, "amplitudes": [[1.0, 0.0], "x"]}))
    with pytest.raises(StateFileError, match="amplitude 1"):
        load_state(path)


@pytest.mark.parametrize("n_qubits", [3.9, True, "3"])
def test_state_file_requires_integer_qubit_count(tmp_path, n_qubits):
    path = tmp_path / "state.json"
    amp = [[1.0, 0.0]] + [[0.0, 0.0]] * 7
    path.write_text(json.dumps({"n_qubits": n_qubits, "amplitudes": amp}))
    with pytest.raises(StateFileError, match="n_qubits must be an integer"):
        load_state(path)


@pytest.mark.parametrize("text", [
    '{"n_qubits": 1' + "0" * 5000 + ', "amplitudes": []}',
    '{"n_qubits": 1, "amplitudes": [[1' + "0" * 5000 + ", 0], [0, 0]]}",
    b'{"n_qubits": 1, "amplitudes": [[1, 0], [0, 0]]}\xff',
], ids=["long-count", "long-amplitude", "not-utf-8"])
def test_a_state_file_the_decoder_rejects_is_named(tmp_path, text):
    # an integer literal past int()'s 4300-digit limit, or bytes that are no UTF-8, used to raise
    # the decoder's ValueError, which named no file
    path = tmp_path / "state.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(StateFileError, match=f"^{re.escape(str(path))}: ") as raised:
        load_state(path)
    assert "\n" not in str(raised.value) and len(str(raised.value)) - len(str(path)) < 300


def test_state_file_rejects_boolean_amplitudes(tmp_path):
    # JSON true is a Python int subclass, but it is no amplitude
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n_qubits": 1, "amplitudes": [[True, 0], [0, 0]]}))
    with pytest.raises(StateFileError, match="amplitude 0"):
        load_state(path)


@pytest.mark.parametrize(
    "bad,message",
    [
        (np.diag([0.5, 0.5, 0.0, 0.0]) + np.triu(np.full((4, 4), 1e-6), 1), "hermitian"),
        (np.diag([0.5, 0.5, 0.5, 0.0]), r"unit trace, got 1\.5$"),
        # the trace is printed as a plain float, not as the repr of a numpy complex
        (np.diag([0.5, 0.5 - 2e-12, 0.0, 0.0]), r"unit trace, got 0\.999999999998$"),
        (np.diag([0.75, 0.5, 0.0, -0.25]), "negative eigenvalue"),
    ],
    ids=["non-hermitian", "non-unit-trace", "trace-just-below-one", "non-psd"],
)
def test_density_matrix_messages(bad, message):
    with pytest.raises(ValueError, match=message):
        DensityMatrix(bad)


def _decode_pair_by_pair(path, raw):
    # the decoder load_state replaced: one type check and one complex() per amplitude
    amp = np.empty(len(raw), dtype=np.complex128)
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise StateFileError(f"{path}: amplitude {i} must be a [re, im] pair, got {pair!r}")
        amp[i] = complex(pair[0], pair[1])
    return amp


def test_state_file_decodes_as_the_pair_by_pair_loop(tmp_path):
    # ints, signed zeros and subnormals decode bit for bit as complex(re, im) did
    path = tmp_path / "state.json"
    handmade = [
        [[0.6, -0.0], [-0.0, 0], [0, 0.8], [-0.0, -0.0]],
        [[1, 0], [0, -0.0], [-0.0, 0], [0, 0]],
        [[0, -1], [0, 0], [0, 0], [0, 0]],
        [[0.5, 0], [-0.5, 0], [0, 0.5], [0, -0.5]],
        [[0.7071067811865476, 1e-300], [0, 0], [-0.7071067811865475, 0], [5e-324, 0]],
    ]
    for raw in handmade + [None]:
        if raw is None:
            save_state(haar_random(6, 17), path)
        else:
            path.write_text(json.dumps({"n_qubits": 2, "amplitudes": raw}))
        amp = _decode_pair_by_pair(path, json.loads(path.read_text())["amplitudes"])
        assert load_state(path).amplitudes.tobytes() == (amp / float(np.linalg.norm(amp))).tobytes()


@pytest.mark.parametrize(
    "entry",
    [[True, 0], [0, False], ["0.5", 0], [None, 0], [0.5, 0.5, 0], [0.5], [], 0.5, "x", None, {"re": 1}],
    ids=["bool-re", "bool-im", "string", "null", "three-element", "one-element", "empty", "number",
         "string-entry", "null-entry", "object-entry"],
)
def test_state_file_rejects_a_bad_entry_as_the_pair_by_pair_loop(tmp_path, entry):
    path = tmp_path / "state.json"
    for index in (0, 2, 3):
        raw = [[0.5, 0.0]] * 4
        raw[index] = entry
        if index == 3:
            raw[1] = [1, 2, 3]  # the first bad entry is the one named
        path.write_text(json.dumps({"n_qubits": 2, "amplitudes": raw}))
        raw = json.loads(path.read_text())["amplitudes"]
        with pytest.raises(StateFileError) as old:
            _decode_pair_by_pair(path, raw)
        with pytest.raises(StateFileError) as new:
            load_state(path)
        assert str(new.value) == str(old.value)
        assert f"amplitude {1 if index == 3 else index} " in str(new.value)


def _hexes(a):
    return [x.hex() for x in np.asarray(a).view(np.float64).ravel().tolist()]


def _marginal_by_transpose(kets, n, keep):
    # one keep at a time, no plan: the kets' kept-first transpose as (B, d, 2^(n-k)) times its conjugate transpose
    kept = sorted(keep)
    traced = [q for q in range(n) if q not in kept]
    m = np.ascontiguousarray(kets.reshape((-1,) + (2,) * n).transpose([0] + [1 + q for q in kept + traced]))
    m = m.reshape(len(kets), 2 ** len(kept), -1)
    return np.matmul(m, m.conj().swapaxes(1, 2))


@pytest.mark.parametrize("n", range(3, 13))
def test_marginal_stack_matches_a_per_keep_transpose_oracle(n):
    # B = 292 is a 3-qubit campaign batch; larger registers take it up to n = 8 only, to keep the test small
    for count in (1, 5, 292) if n <= 8 else (1, 5):
        kets = np.array([random_ket(np_rng, 2**n) for _ in range(count)])
        for keeps in ([(n - 1,), (0,), (n // 2,)],
                      [(0, b) for b in range(1, n)],
                      [(n - 1, 0), (2, 1), (1, n - 1)],  # unsorted
                      [(2, 0, 1), (n - 1, 1, 0)]):
            got = monogamy.qstate.marginal_stack(kets, keeps)
            assert got.shape == (count, len(keeps)) + (2 ** len(keeps[0]),) * 2
            for i, keep in enumerate(keeps):
                assert _hexes(got[:, i]) == _hexes(_marginal_by_transpose(kets, n, keep)), (count, keep)


def test_marginal_plan_is_made_once_per_register_shape():
    plan = monogamy.qstate._marginal_plan
    plan.cache_clear()
    kets = np.array([random_ket(np_rng, 32)])
    for keeps in ([(0, 1), (0, 4)], [[0, 1], [0, 4]], ((0, 1), (0, 4))):
        monogamy.qstate.marginal_stack(kets, keeps)
    assert (plan.cache_info().misses, plan.cache_info().hits) == (1, 2)
    monogamy.qstate.marginal_stack(kets, [(4, 0), (0, 1)])  # another keep order is another plan
    assert plan.cache_info().misses == 2


def test_marginal_plan_gathers_while_its_index_is_small():
    # one intp per amplitude and keep: the pair keeps of 11 qubits fit 2^15 entries, those of 12 do not
    plan = monogamy.qstate._marginal_plan
    try:
        for n, keeps, gathers in ((11, tuple((0, b) for b in range(1, 11)), True),
                                  (12, tuple((0, b) for b in range(1, 12)), False),
                                  (15, ((3,),), True), (16, ((3,),), False)):
            perms, index = plan(n, keeps)
            assert len(perms) == len(keeps)
            assert (index is not None) == gathers, n
            if gathers:
                assert index.shape == (len(keeps), 2 ** len(keeps[0]), 2 ** (n - len(keeps[0])))
                assert not index.flags.writeable
    finally:
        plan.cache_clear()


def test_gathered_and_copied_marginals_agree(monkeypatch):
    # the gather of many keeps per take and the per-keep copy of a register too wide for an index
    # give the same stack to the bit, in chunks of one keep or of several
    kets = np.array([random_ket(np_rng, 2**8) for _ in range(3)])
    keeps = [(0, b) for b in range(1, 8)] + [(5, 2)]
    stacks = []
    for entries, budget in ((2**15, 3), (2**15, 1), (2**15, 100), (0, 3)):
        monkeypatch.setattr(monogamy.qstate, "_GATHER_ENTRIES", entries)
        monkeypatch.setattr(monogamy.qstate, "_GATHER_KETS", budget)
        monogamy.qstate._marginal_plan.cache_clear()
        stacks += [_hexes(monogamy.qstate.marginal_stack(kets[:1], keeps)),
                   _hexes(monogamy.qstate.marginal_stack(kets, keeps))]
    monogamy.qstate._marginal_plan.cache_clear()
    assert all(got == stacks[0] for got in stacks[::2]) and all(got == stacks[1] for got in stacks[1::2])


@pytest.mark.parametrize("keep, message", [((), "must keep at least one factor"), ((1, 1), "duplicate indices"),
                                           ((0, 5), r"keep=\(0, 5\) out of range for 5 factors"),
                                           ((-1,), "out of range")])
def test_a_bad_keep_raises_the_same_message_every_time(keep, message):
    kets = np.array([random_ket(np_rng, 32)])
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            monogamy.qstate.marginal_stack(kets, [(0, 1), keep])


@pytest.mark.parametrize("n, keeps", [(3, [(0,), (0, 1)]), (3, [(0, 1), (0,)]), (12, [(0,)] * 9 + [(0, 1)])])
def test_keeps_of_mixed_sizes_are_rejected(n, keeps):
    # they used to return a stack of the first keep's size, whose other entries were not their marginals;
    # at n = 12 the keeps are too many for a gather index, so the copy path is asked
    kets = np.array([random_ket(np_rng, 2**n)])
    for _ in range(2):
        with pytest.raises(ValueError, match=r"keeps must all have one size, got sizes \[1, 2\]"):
            monogamy.qstate.marginal_stack(kets, keeps)


@pytest.mark.parametrize("keep", [(0, 1.5), (0, 1.0), (0, "1"), (0, True)])
def test_marginal_stack_rejects_non_integral_keep_entries(keep):
    kets = np.array([random_ket(np_rng, 8)])
    monogamy.qstate.marginal_stack(kets, [(0, 1)])  # an integer keep first, so its plan is cached
    with pytest.raises(ValueError, match="keep entry must be an integer"):
        monogamy.qstate.marginal_stack(kets, [keep])


def test_marginal_stack_rejects_an_empty_batch():
    # zero rows used to raise ZeroDivisionError; a register too wide for a gather index takes the other path
    for n in (3, 16):
        with pytest.raises(ValueError, match="empty batch"):
            monogamy.qstate.marginal_stack(np.empty((0, 2**n), dtype=np.complex128), [(0, 1)])


def test_the_qubit_count_is_an_int_and_round_trips(tmp_path):
    # n_qubits is read from the amplitudes as an int, which save_state writes and load_state reads back
    psi = Ket(np.eye(8)[5])
    assert type(psi.n_qubits) is int
    save_state(psi, tmp_path / "state.json")
    assert load_state(tmp_path / "state.json") == psi


def _save_with_a_dump_loop(ket, path):
    # the writer save_state replaced: a list of [float(re), float(im)] per amplitude, json.dump, a newline
    data = {"n_qubits": ket.n_qubits, "amplitudes": [[float(a.real), float(a.imag)] for a in ket.amplitudes]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")


def test_state_file_bytes_match_the_dump_loop(tmp_path):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    handmade = [
        Ket(np.array([complex(0.6, -0.0), complex(-0.0, 0.0), 0.8j, complex(-0.0, -0.0)])),
        Ket(np.array([complex(0.7071067811865476, 1e-300), 0, -0.7071067811865475, complex(5e-324, -5e-324)])),
        Ket(np.array([complex(-1.0, -0.0), complex(2.2250738585072014e-308, -1e-310)])),
        Ket(np.array([1.0, 0.0])),
    ]
    kets = handmade + [haar_random(n, 40 + n) for n in range(1, 11)]
    for psi in kets:
        save_state(psi, new)
        _save_with_a_dump_loop(psi, old)
        assert new.read_bytes() == old.read_bytes(), psi.n_qubits
