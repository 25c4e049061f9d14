"""Randomized soundness campaign: seeded Haar-random states against every (measure, alpha) row.

State k is the Haar random state of seed ``seed + k`` (states.haar_rows;
haar_random(n, seed + k) is the same state as a Ket).  The states are
drawn and analysed in batches of up to B (see batch_size): each batch is
drawn straight into one (B, 2^n) array and analysed as one ChainBatch,
which checks the rows once and reads their cut concurrences in one call.
At n = 3 one closed-form call reads every pair concurrence from the
kets, with no marginal and no spin flip; from n = 4 on the pair
marginals form one stack for one spin-flip call, which spares every pair
whose purity puts it in the separable ball (nearly all of them from n = 7
on), with no eigendecomposition.  Its reports for all K rows come as one
(K, B) table (ChainBatch.table) in which the chains of every measure are
certified once.  Each batch's table is folded, with the minima so far
leading, into each row's count and minima in state order (first NaN,
else first least), and the verdict is read off the minima at the end,
so the rows equal those of a campaign that analyses one state at a time,
bit for bit, and memory does not grow with the number of samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import ChainBatch, step_factor
from .measures import MeasureKind
from .qstate import checked_int, physical_memory
from .states import haar_rows

# bytes of per-state working set a batch may hold; a full batch's analysis and table peak at 0.59 MB at n = 3
_BATCH_BYTES = 256 * 1024


def batch_size(n_qubits: int) -> int:
    """States per batch: as many as fit _BATCH_BYTES, at least one.

    A state's working set is counted as its ket, a pair-first copy of it
    and that copy's conjugate (48 * 2^n bytes) and its N-1 pair marginals
    (256 bytes each), the pair stage's from n = 4 on; at n = 3, with no
    marginal, ChainBatch.of of a full batch peaks at 0.30 MB (0.46 MB with).
    """
    return max(1, _BATCH_BYTES // (3 * 16 * 2**n_qubits + (n_qubits - 1) * 256))


@dataclass(frozen=True)
class CampaignConfig:
    """Randomized soundness campaign settings.

    ``alphas`` entries are floats or the token 'floor', which resolves to
    each measure's own floor exponent; exponents that coincide after
    resolution run once, and so does a measure named twice.  Numeric
    entries must clear the floor of every selected measure.  State k is
    drawn with seed ``seed + k``, so runs are reproducible and
    order-independent; ``seed`` must be non-negative.
    """

    n_qubits: int
    samples: int
    seed: int
    measures: tuple[MeasureKind, ...]
    alphas: tuple
    tolerance: float

    def __post_init__(self):
        for name in ("n_qubits", "samples", "seed"):
            checked_int(getattr(self, name), name)
        if self.n_qubits < 3:
            raise ValueError(f"campaign needs at least 3 qubits, got {self.n_qubits}")
        # peak of a draw and its analysis: the ket, the marginals' transposed copy and its conjugate;
        # a register this wide has a batch of one (see batch_size), and from physical's bit length
        # on 2^n alone exceeds it, so a huge 2^n is never built
        n, physical = self.n_qubits, physical_memory()
        if n >= physical.bit_length() or 3 * 16 * 2**n > physical:
            # past 2^1000 bytes the GiB figure would overflow a float
            needed = f"{3 * 16 * 2**n / 2**30:.3g} GiB" if n <= 1000 else f"over 2^{n} bytes"
            raise ValueError(
                f"{n} qubits need {needed} of dense memory, "
                f"more than the {physical / 2**30:.3g} GiB of physical memory"
            )
        if self.samples < 1:
            raise ValueError(f"campaign needs at least 1 sample, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.measures:
            raise ValueError("campaign needs at least one measure")
        if not self.alphas:
            raise ValueError("campaign needs at least one exponent")
        if not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance={self.tolerance!r} is not finite")
        for a in self.alphas:
            if a == "floor":
                continue
            for kind in self.measures:
                step_factor(kind, a)  # rejects non-finite or below-floor alphas


class CampaignRow(NamedTuple):
    measure: MeasureKind
    alpha: float
    tested: int
    asserted: int
    inapplicable: int
    min_residual_new: float
    min_residual_gap: float

    @property
    def undetermined(self) -> int:
        """States whose comparison was left undecided: none, since the pair-sum certificate decides every one."""
        return 0


def _first_mins(values: np.ndarray) -> np.ndarray:
    # each row's first NaN, else its first least value: what a state-by-state fold in which a NaN sticks keeps
    return values[np.arange(len(values)), values.argmin(axis=1)]


def run_campaign(config: CampaignConfig) -> tuple[list[CampaignRow], bool]:
    """Run the campaign in batches of batch_size(n) states; returns summary rows and whether any row is violated.

    Each batch draws its states into one (B, 2^n) array (haar_rows) and
    analyses them as one ChainBatch; the last batch may be shorter.  Only
    one batch is held at a time.
    """
    keys: list[tuple[MeasureKind, float]] = []  # one (measure, alpha) per row
    for measure in dict.fromkeys(config.measures):
        alphas = (measure.alpha_floor if token == "floor" else float(token) for token in config.alphas)
        keys += [(measure, a) for a in dict.fromkeys(alphas)]  # 'floor' can coincide with an explicit entry
    n_keys = len(keys)
    asserted = np.zeros(n_keys, dtype=np.int64)
    least = np.empty(2 * n_keys)  # each row's least residual_new over its asserted states, then residual_gap
    least.fill(math.inf)
    n = config.n_qubits
    size = min(batch_size(n), config.samples)
    buffer = np.empty((size, 2**n), dtype=np.complex128)
    for start in range(0, config.samples, size):
        amplitudes = haar_rows(buffer[: min(size, config.samples - start)], config.seed + start)
        table = ChainBatch.of(amplitudes, 0).table(keys)
        asserted += np.add.reduce(table.asserted, axis=1)
        # an unasserted state enters as inf, which moves no minimum and passes the tolerance
        columns = np.concatenate((np.where(table.asserted, table.residual_new, math.inf), table.residual_gap))
        del table  # before the fold, which would otherwise peak with it
        # the running minima lead, so a tie keeps them
        least = _first_mins(np.concatenate((least[:, None], columns), axis=1))
    min_new, min_gap = least[:n_keys], least[n_keys:]
    rows = [
        CampaignRow(measure, alpha, config.samples, count, config.samples - count, new if count else math.nan, gap)
        for (measure, alpha), count, new, gap in zip(keys, asserted.tolist(), min_new.tolist(), min_gap.tolist())
    ]
    return rows, not np.logical_and.reduce(min_new >= -config.tolerance, axis=None)  # a NaN residual is a violation
