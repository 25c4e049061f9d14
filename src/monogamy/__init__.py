"""Entanglement measures and tightened monogamy bounds for multiqubit states."""

from .bounds import (
    BoundReport,
    ChainAnalysis,
    PreconditionVerdict,
    Verdict,
    WeightLadder,
    alpha_grid,
    alpha_sweep,
    monogamy_report,
    power_split_margin,
    prior_factor,
    step_factor,
)
from .measures import (
    CONCURRENCE,
    CREN,
    EOF,
    MeasureKind,
    concurrence_pure,
    concurrence_two_qubit,
    eof_f,
    pair_value,
    pure_cut_value,
    tsallis_g,
    tsallis_kind,
)
from .qstate import (
    DensityMatrix,
    Ket,
    StateFileError,
    load_state,
    partial_trace,
    save_state,
)
from .states import SchmidtParams, gsd3, haar_random, w_state

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ChainAnalysis",
    "PreconditionVerdict",
    "Verdict",
    "WeightLadder",
    "alpha_grid",
    "alpha_sweep",
    "monogamy_report",
    "power_split_margin",
    "prior_factor",
    "step_factor",
    "CONCURRENCE",
    "CREN",
    "EOF",
    "MeasureKind",
    "concurrence_pure",
    "concurrence_two_qubit",
    "eof_f",
    "pair_value",
    "pure_cut_value",
    "tsallis_g",
    "tsallis_kind",
    "DensityMatrix",
    "Ket",
    "StateFileError",
    "load_state",
    "partial_trace",
    "save_state",
    "SchmidtParams",
    "gsd3",
    "haar_random",
    "w_state",
]
