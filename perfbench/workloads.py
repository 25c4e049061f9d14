"""The benchmark's workloads: which CLI calls make up one timed unit.

Every workload drives the public ``monogamy.cli.main`` entry point. A unit
is the smallest timed piece: one ``--verify`` call of ``samples`` states,
or one ``--state`` call.
Unit ``i`` is a pure function of the workload, the seed and ``i``.
"""
from __future__ import annotations

from dataclasses import dataclass

MEASURES = ("concurrence", "eof", "cren", "tsallis")
# rows of a campaign over MEASURES at exponents floor,2,3: concurrence and
# cren have floor 2, so their 'floor' and '2' rows merge (2 + 3 + 2 + 3)
CAMPAIGN_ROWS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "campaign" or "report"
    why: str
    n_qubits: int = 3
    samples: int = 1  # states per unit
    files: int = 0  # state files written during set-up
    trace_units: int = 1  # fixed work of a traced run, so counts repeat exactly

    @property
    def ops_per_unit(self) -> int:
        """Operations per unit: (state, measure, alpha) evaluations for a
        campaign, calls otherwise."""
        if self.kind == "campaign":
            return self.samples * CAMPAIGN_ROWS
        return self.samples

    @property
    def pairs(self) -> int:
        """Focus-partner pairs of each state a unit analyses."""
        return self.n_qubits - 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "campaign-3q",
            "campaign",
            "many tiny 3-qubit states, each analysed again for 10 (measure, alpha) rows; "
            "reuse across rows shows here, and every chain comparison is exact",
            n_qubits=3,
            samples=5,  # short units let the fast tail resolve brief quiet spells
            trace_units=64,
        ),
        Workload(
            "report-wide",
            "report",
            "one --state call per 8-qubit state file, cycling the four measures; one row "
            "per state leaves nothing to reuse, and the 256x256 projector path dominates",
            n_qubits=8,
            files=24,
            trace_units=48,
        ),
    )
}
