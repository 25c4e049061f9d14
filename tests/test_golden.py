"""The command line's bytes, pinned: stdout and the --out CSV of each case
must match a recorded file byte for byte.

The --example curves are the benchmark's own goldens, read here and never
written; the --verify and --state outputs live in tests/golden/, one
--verify case spanning several campaign batches.  The n = 5 and n = 6
campaigns and the 5- and 8-qubit Haar states hold pair marginals whose
concurrence is 0; the W-class state's are all nonzero.
"""
import os

import pytest

from monogamy import Ket, haar_random, save_state, w_state
from monogamy.cli import main
from oracles import w_class_amplitudes

HERE = os.path.dirname(os.path.abspath(__file__))
EXAMPLE_GOLDEN = os.path.join(os.path.dirname(HERE), "perfbench", "golden")
GOLDEN = os.path.join(HERE, "golden")


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["--example", "1"], "example1.csv"),
        (["--example", "2"], "example2.csv"),
        (["--example", "3"], "example3.csv"),
        (["--example", "4", "--q", "2"], "example4-q2.csv"),
        (["--example", "4", "--q", "2.5"], "example4-q2.5.csv"),
        (["--example", "4", "--q", "3"], "example4-q3.csv"),
    ],
)
def test_example_matches_golden(argv, golden, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == _read(os.path.join(EXAMPLE_GOLDEN, golden))


@pytest.mark.parametrize(
    "flags,golden",
    [
        (["--n-qubits", "3", "--samples", "40"], "verify-n3"),
        (["--n-qubits", "4", "--samples", "40"], "verify-n4"),
        # batches of 170, 170 and 60 states: the counts and minima carry across batches
        (["--n-qubits", "4", "--samples", "400", "--q", "3"], "verify-n4-batches"),
        # batches of 102 and 98 states, at the register size where the purity screen keeps the most pairs
        # that the spectral ceiling it replaced would have skipped
        (["--n-qubits", "5", "--samples", "200"], "verify-n5"),
        # batches of 60, 60, 60 and 20 states; one of their 1000 pairs is entangled
        (["--n-qubits", "6", "--samples", "200"], "verify-n6"),
    ],
    ids=["3", "4", "4-batches", "5", "6"],
)
def test_verify_matches_golden(flags, golden, tmp_path, capsys):
    out = tmp_path / "campaign.csv"
    assert main(["--verify", *flags, "--seed", "7", "--alphas", "floor,2,3,4.5", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == _read(os.path.join(GOLDEN, f"{golden}.txt"))
    assert _read(out) == _read(os.path.join(GOLDEN, f"{golden}.csv"))


def _check_state(psi, name, measure, tmp_path, capsys, flags=(), golden=None):
    path = tmp_path / f"{name}.json"
    save_state(psi, path)
    out = tmp_path / "row.csv"
    assert main(["--state", str(path), "--measure", measure, "--alpha", "3", *flags, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    first, rest = captured.out.split("\n", 1)
    assert first == f"state: {path}"  # the one line that names the temporary file
    golden = golden or f"state-{name}-{measure}"
    assert rest == _read(os.path.join(GOLDEN, f"{golden}.txt"))
    assert _read(out) == _read(os.path.join(GOLDEN, f"{golden}.csv"))


@pytest.mark.parametrize("measure", ["concurrence", "eof", "cren", "tsallis"])
def test_state_matches_golden(measure, tmp_path, capsys):
    _check_state(w_state(4), "w4", measure, tmp_path, capsys)


@pytest.mark.parametrize("measure", ["concurrence", "eof", "cren", "tsallis"])
def test_wide_haar_state_matches_golden(measure, tmp_path, capsys):
    # every pair of this 8-qubit state is unentangled, so each pair value is 0
    _check_state(haar_random(8, 3), "haar8", measure, tmp_path, capsys)


@pytest.mark.parametrize("measure", ["concurrence", "eof", "cren", "tsallis"])
def test_five_qubit_haar_state_matches_golden(measure, tmp_path, capsys):
    # one pair is entangled; of the other three, one has purity 0.322 and lies in the separable ball,
    # and one has purity 0.334, just outside it, where the spectral ceiling would have skipped it
    _check_state(haar_random(5, 4), "haar5", measure, tmp_path, capsys)


@pytest.mark.parametrize("m", ["1", "2", "3"])
@pytest.mark.parametrize("measure", ["eof", "concurrence"])
def test_explicit_split_matches_golden(measure, m, tmp_path, capsys):
    # under eof split 1 is asserted and splits 2 and 3 are not; under concurrence none is;
    # split 3 (m = N-2) takes the ranked order, splits 1 and 2 the given one
    psi = Ket(w_class_amplitudes(5, 252))
    _check_state(psi, "w5", measure, tmp_path, capsys, ["--m", m], f"state-w5-{measure}-m{m}")


@pytest.mark.parametrize("measure", ["concurrence", "eof", "cren", "tsallis"])
def test_given_order_matches_golden(measure, tmp_path, capsys):
    _check_state(haar_random(6, 1), "haar6", measure, tmp_path, capsys, ["--order", "5,4,3,2,1"],
                 f"state-haar6-order-{measure}")
