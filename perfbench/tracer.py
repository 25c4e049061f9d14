"""Per-layer tracing of the monogamy package from outside it.

The tracer wraps public functions and methods of the package's modules for
the length of a ``with`` block. A module-level function is replaced in every
``monogamy`` module namespace that holds it, because modules import each
other's functions by name (``bounds`` calls its own binding of
``partial_trace``); patching only the defining module would miss those
calls. Methods are replaced on their class. Everything is restored on exit.

No private name is imported, so the tracer keeps working while the package
is refactored; a target that does not exist at some commit is listed in
``absent`` and reads as zero calls.

For each target the tracer keeps the call count and the self time: a
call's duration minus the time covered by traced calls made inside it.
"""
from __future__ import annotations

import functools
import sys
import time

PACKAGE = "monogamy"

# (module, attribute path, label); a label names the layer and the operation
TARGETS = (
    ("qstate", "Ket.to_density_matrix", "qstate.to_density_matrix"),
    ("qstate", "DensityMatrix.__init__", "qstate.DensityMatrix.init"),
    ("qstate", "partial_trace", "qstate.partial_trace"),
    ("qstate", "load_state", "qstate.load_state"),
    ("measures", "concurrence_two_qubit", "measures.concurrence_two_qubit"),
    ("measures", "pure_cut_value", "measures.pure_cut_value"),
    ("measures", "concurrence_pure", "measures.concurrence_pure"),
    ("measures", "pair_value", "measures.pair_value"),
    ("bounds", "monogamy_report", "bounds.monogamy_report"),
    ("bounds", "WeightLadder.weights", "bounds.WeightLadder.weights"),
    ("bounds", "alpha_sweep", "bounds.alpha_sweep"),
    ("states", "haar_random", "states.haar_random"),
    ("cli", "run_campaign", "cli.run_campaign"),
    ("cli", "main", "cli.main"),
)

_DETERMINED = ("Holds", "Fails")


class Tracer:
    """Context manager that times the package's layers while active."""

    def __init__(self):
        self.stats = {label: [0, 0.0] for _, _, label in TARGETS}  # [calls, self time]
        self.absent: list[str] = []
        self.projector_bytes = 0  # computed as 16 * 4**n per projector built
        self.comparisons = 0  # chain comparisons in the returned reports
        self.determined = 0  # ... of which Holds or Fails
        self._stack: list[list] = []  # [time spent in traced children] per open call
        self._undo: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module_name, path, label in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
            else:
                self._patch_everywhere(original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, wrapper) -> None:
        prefix = PACKAGE + "."
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    # -- timing -----------------------------------------------------------

    def _wrap(self, label, fn):
        stats = self.stats[label]
        stack = self._stack
        after = {
            "qstate.to_density_matrix": self._after_projector,
            "bounds.monogamy_report": self._after_report,
        }.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_projector(self, args, result) -> None:
        n = getattr(args[0], "n_qubits", None)
        if isinstance(n, int):
            self.projector_bytes += 16 * 4**n

    def _after_report(self, args, report) -> None:
        verdicts = getattr(getattr(report, "preconditions", None), "verdicts", ())
        for v in verdicts:
            self.comparisons += 1
            if getattr(v, "value", v) in _DETERMINED:
                self.determined += 1

    # -- results ----------------------------------------------------------

    def calls(self, label: str) -> int:
        return self.stats[label][0]

    def self_s(self, label: str) -> float:
        return self.stats[label][1]
