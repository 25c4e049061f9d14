"""The command line's bytes, pinned: stdout and the --out CSV of each case
must match a recorded file byte for byte.

The --example curves are the benchmark's own goldens, read here and never
written; the --verify and --state outputs live in tests/golden/, one
--verify case spanning several campaign batches.
"""
import os

import pytest

from monogamy import save_state, w_state
from monogamy.cli import main

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
    ],
    ids=["3", "4", "4-batches"],
)
def test_verify_matches_golden(flags, golden, tmp_path, capsys):
    out = tmp_path / "campaign.csv"
    assert main(["--verify", *flags, "--seed", "7", "--alphas", "floor,2,3,4.5", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == _read(os.path.join(GOLDEN, f"{golden}.txt"))
    assert _read(out) == _read(os.path.join(GOLDEN, f"{golden}.csv"))


@pytest.mark.parametrize("measure", ["concurrence", "eof", "cren", "tsallis"])
def test_state_matches_golden(measure, tmp_path, capsys):
    path = tmp_path / "w4.json"
    save_state(w_state(4), path)
    out = tmp_path / "row.csv"
    assert main(["--state", str(path), "--measure", measure, "--alpha", "3", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    first, rest = captured.out.split("\n", 1)
    assert first == f"state: {path}"  # the one line that names the temporary file
    assert rest == _read(os.path.join(GOLDEN, f"state-w4-{measure}.txt"))
    assert _read(out) == _read(os.path.join(GOLDEN, f"state-w4-{measure}.csv"))
