import itertools
import json
import math

import numpy as np
import pytest

from monogamy import (
    CONCURRENCE,
    ChainAnalysis,
    DensityMatrix,
    Ket,
    StateFileError,
    haar_random,
    load_state,
    partial_trace,
    partial_transpose,
    pure_cut_value,
    purity,
    save_state,
    trace_norm,
    w_state,
)
import monogamy.qstate
from monogamy.qstate import density_spectra
from monogamy.states import SchmidtParams
from oracles import ptrace_loops, random_ket, random_mixed

np_rng = np.random.default_rng(20240817)


def random_dm(rng, dims, rank=None):
    dim = int(np.prod(dims))
    rank = rank or dim
    return DensityMatrix(dims, random_mixed(rng, dim, rank))


def test_ket_validation():
    Ket(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Ket(1, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        Ket(2, np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(ValueError):
        Ket(0, np.array([1.0]))


def test_nan_input_is_rejected():
    # every check passes only within tolerance, so NaN, for which each comparison is False, fails it
    nan = math.nan
    with pytest.raises(ValueError, match="unit norm"):
        Ket(2, [nan, 0, 0, 0])
    for bad in (nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            DensityMatrix((2,), [[bad, 0], [0, 0]])
    with pytest.raises(ValueError, match="unit norm"):  # not numpy's LinAlgError from the spin flip
        ChainAnalysis.of(Ket(3, [nan] + [0] * 7), 0)
    with pytest.raises(ValueError, match="sum to 1"):
        SchmidtParams((nan, 1.0, 0.0, 0.0, 0.0))


def test_non_finite_entries_raise_before_any_warning():
    # the finiteness check runs first: the hermitian check would compute inf - inf and warn
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.inf, -math.inf, math.nan, complex(0, math.inf)):
            with pytest.raises(ValueError, match="density matrix must be finite"):
                DensityMatrix((2,), [[bad, 0], [0, 0]])
            stack = np.array([np.eye(4) / 4] * 3, dtype=np.complex128)
            stack[2, 1, 3] = bad
            with pytest.raises(ValueError, match="density matrix must be finite"):
                density_spectra(stack)


def test_ket_amplitudes_read_only():
    psi = Ket(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.5


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix((2, 2), np.eye(2) / 2)  # dims do not match shape


def test_pure_cut_value_rejects_bad_sides():
    # a cut is side A against the rest: side A must be distinct in-range qubits, and not all of them
    psi = w_state(3)
    for side_a in ((), (0, 0), (3,), (-1,), (0, 1, 2), (2, 0, 1)):
        with pytest.raises(ValueError):
            pure_cut_value(CONCURRENCE, psi, side_a)
    assert pure_cut_value(CONCURRENCE, psi, (1,)) == pure_cut_value(CONCURRENCE, psi, [1])


def test_ket_equality():
    assert w_state(3) == w_state(3)
    assert w_state(3) != Ket(3, np.eye(8)[1])
    assert w_state(2) != w_state(3)


def test_big_endian_convention():
    # |100> on three qubits sits at index 4 and puts qubit 0 in |1>
    amp = np.zeros(8)
    amp[4] = 1.0
    rho0 = partial_trace(Ket(3, amp).to_density_matrix(), (0,))
    assert np.allclose(rho0.entries, np.diag([0.0, 1.0]), atol=1e-14)
    rho12 = partial_trace(Ket(3, amp).to_density_matrix(), (1, 2))
    assert np.allclose(rho12.entries, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-14)


def test_partial_trace_w_state_marginal():
    # frozen: tracing all but the focus qubit of W3 leaves diag(2/3, 1/3)
    rho = partial_trace(w_state(3).to_density_matrix(), (0,))
    assert np.allclose(rho.entries, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-14)


@pytest.mark.parametrize("keep", [(0,), (1,), (3,), (0, 2), (1, 3), (0, 1, 2), (2, 0)])
def test_partial_trace_matches_loop_oracle(keep):
    rho = random_dm(np_rng, (2, 2, 2, 2))
    expected = ptrace_loops(rho.entries, rho.dims, keep)
    got = partial_trace(rho, keep)
    assert got.dims == tuple(2 for _ in set(keep))
    assert np.abs(got.entries - expected).max() < 1e-13


@pytest.mark.parametrize("n", range(1, 7))
def test_ket_marginal_matches_loop_oracle(n):
    psi = Ket(n, random_ket(np_rng, 2**n))
    proj = psi.to_density_matrix().entries
    for k in range(1, n + 1):
        for keep in itertools.combinations(range(n), k):
            got = psi.marginal(keep)
            assert got.dims == (2,) * k
            assert np.abs(got.entries - ptrace_loops(proj, (2,) * n, keep)).max() < 1e-13


def test_ket_marginal_keeps_register_order_and_rejects_bad_keep():
    psi = Ket(4, random_ket(np_rng, 16))
    assert np.array_equal(psi.marginal((3, 0, 2)).entries, psi.marginal((0, 2, 3)).entries)
    for bad in [(), (1, 1), (4,), (-1,)]:
        with pytest.raises(ValueError):
            psi.marginal(bad)


def test_partial_trace_keeps_register_order():
    # keep order must not matter: factors stay in original order
    rho = random_dm(np_rng, (2, 2, 2))
    a = partial_trace(rho, (0, 2))
    b = partial_trace(rho, (2, 0))
    assert np.array_equal(a.entries, b.entries)


def test_partial_trace_is_trace_preserving_and_positive():
    for _ in range(20):
        rho = random_dm(np_rng, (2, 2, 2), rank=int(np_rng.integers(1, 9)))
        red = partial_trace(rho, (0, 2))
        # DensityMatrix construction already enforces hermiticity/trace/psd;
        # check the numbers are comfortably inside tolerance, not at its edge
        assert abs(red.entries.trace() - 1.0) < 1e-14
        assert np.linalg.eigvalsh(red.entries)[0] > -1e-13


def test_partial_trace_errors():
    rho = random_dm(np_rng, (2, 2))
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (0, 0))
    with pytest.raises(ValueError):
        partial_trace(rho, (2,))


def test_partial_transpose_bell_spectrum():
    bell = Ket(2, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
    pt = partial_transpose(bell.to_density_matrix(), 0)
    # frozen: the transposed Bell projector has spectrum {-1/2, 1/2, 1/2, 1/2}
    assert np.allclose(np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_partial_transpose_involution_and_trace():
    rho = random_dm(np_rng, (2, 2, 2))
    for sub in range(3):
        pt = partial_transpose(rho, sub)
        assert abs(np.trace(pt) - 1.0) < 1e-14
        assert np.abs(pt - pt.conj().T).max() < 1e-14
        # applying the same transpose twice restores the original entries
        again = pt.reshape(rho.dims + rho.dims).swapaxes(sub, 3 + sub).reshape(8, 8)
        assert np.array_equal(again, rho.entries)
    with pytest.raises(ValueError):
        partial_transpose(rho, 3)


def test_density_matrix_eigenvalues_descending_and_trace():
    # the spectrum the positivity check computes is kept, not recomputed
    psi = Ket(4, random_ket(np_rng, 16))
    for rho in (random_dm(np_rng, (2, 4)), psi.to_density_matrix(), psi.marginal((0,)), psi.marginal((1, 3))):
        vals = rho.eigenvalues
        assert vals.shape == (rho.order,)
        assert np.all(np.diff(vals) <= 0)
        assert abs(vals.sum() - np.trace(rho.entries).real) < 1e-12
        assert np.array_equal(vals, np.linalg.eigvalsh(rho.entries)[::-1])
        assert not vals.flags.writeable


def test_trace_norm_hermitian_equals_abs_eigenvalue_sum():
    g = np_rng.standard_normal((5, 5)) + 1j * np_rng.standard_normal((5, 5))
    h = g + g.conj().T
    assert abs(trace_norm(h) - np.abs(np.linalg.eigvalsh(h)).sum()) < 1e-10


def test_purity_range():
    psi = Ket(2, random_ket(np_rng, 4))
    assert abs(purity(psi.to_density_matrix()) - 1.0) < 1e-12
    mixed = DensityMatrix((2, 2), np.eye(4) / 4)
    assert abs(purity(mixed) - 0.25) < 1e-15
    # purity is multiplicative on product states
    a, b = random_dm(np_rng, (2,)), random_dm(np_rng, (2, 2))
    assert abs(purity(DensityMatrix((2, 2, 2), np.kron(a.entries, b.entries))) - purity(a) * purity(b)) < 1e-13


def test_state_file_round_trip(tmp_path):
    path = tmp_path / "state.json"
    psi = Ket(2, random_ket(np_rng, 4))
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
        (np.diag([0.5, 0.5, 0.5, 0.0]), "unit trace"),
        (np.diag([0.75, 0.5, 0.0, -0.25]), "negative eigenvalue"),
    ],
    ids=["non-hermitian", "non-unit-trace", "non-psd"],
)
def test_density_stack_raises_the_density_matrix_messages(bad, message):
    # one bad matrix among valid ones fails the whole stack with the message DensityMatrix gives it
    with pytest.raises(ValueError, match=message) as single:
        DensityMatrix((2, 2), bad)
    good = [random_mixed(np_rng, 4, 4) for _ in range(2)]
    stack = np.array([good[0], bad, good[1]], dtype=np.complex128)
    with pytest.raises(ValueError) as stacked:
        density_spectra(stack)
    assert str(stacked.value) == str(single.value)


def test_density_stack_spectra_match_one_matrix_at_a_time():
    stack = np.array([random_mixed(np_rng, 4, r) for r in (1, 2, 4)])
    spectra = density_spectra(stack)
    for entries, spectrum in zip(stack, spectra):
        assert spectrum.tobytes() == DensityMatrix((2, 2), entries).eigenvalues.tobytes()
    assert density_spectra(np.empty((0, 4, 4), dtype=np.complex128)).shape == (0, 4)


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
            got = monogamy.qstate.marginal_stack(kets, n, keeps)
            assert got.shape == (count, len(keeps)) + (2 ** len(keeps[0]),) * 2
            for i, keep in enumerate(keeps):
                assert _hexes(got[:, i]) == _hexes(_marginal_by_transpose(kets, n, keep)), (count, keep)


def test_marginal_plan_is_made_once_per_register_shape():
    plan = monogamy.qstate._marginal_plan
    plan.cache_clear()
    kets = np.array([random_ket(np_rng, 32)])
    for keeps in ([(0, 1), (0, 4)], [[0, 1], [0, 4]], ((0, 1), (0, 4))):
        monogamy.qstate.marginal_stack(kets, 5, keeps)
    assert (plan.cache_info().misses, plan.cache_info().hits) == (1, 2)
    monogamy.qstate.marginal_stack(kets, 5, [(4, 0), (0, 1)])  # another keep order is another plan
    assert plan.cache_info().misses == 2


@pytest.mark.parametrize("keep, message", [((), "must keep at least one factor"), ((1, 1), "duplicate indices"),
                                           ((0, 5), r"keep=\(0, 5\) out of range for 5 factors"),
                                           ((-1,), "out of range")])
def test_a_bad_keep_raises_the_same_message_every_time(keep, message):
    kets = np.array([random_ket(np_rng, 32)])
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            monogamy.qstate.marginal_stack(kets, 5, [(0, 1), keep])
        with pytest.raises(ValueError, match=message):
            Ket(5, kets[0]).marginal(keep)


def _save_with_a_dump_loop(ket, path):
    # the writer save_state replaced: a list of [float(re), float(im)] per amplitude, json.dump, a newline
    data = {"n_qubits": ket.n_qubits, "amplitudes": [[float(a.real), float(a.imag)] for a in ket.amplitudes]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")


def test_state_file_bytes_match_the_dump_loop(tmp_path):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    handmade = [
        Ket(2, np.array([complex(0.6, -0.0), complex(-0.0, 0.0), 0.8j, complex(-0.0, -0.0)])),
        Ket(2, np.array([complex(0.7071067811865476, 1e-300), 0, -0.7071067811865475, complex(5e-324, -5e-324)])),
        Ket(1, np.array([complex(-1.0, -0.0), complex(2.2250738585072014e-308, -1e-310)])),
        Ket(1, np.array([1.0, 0.0])),
    ]
    kets = handmade + [haar_random(n, 40 + n) for n in range(1, 11)]
    for psi in kets:
        save_state(psi, new)
        _save_with_a_dump_loop(psi, old)
        assert new.read_bytes() == old.read_bytes(), psi.n_qubits
