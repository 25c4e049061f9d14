"""Weighted monogamy lower bounds for a focus qubit against its partners.

For a pure state on qubits {A, B_1, ..., B_{N-1}} and a measure M with
exponent alpha, the cut value M(A | B_1...B_{N-1})^alpha is bounded from
below by a weighted sum over the two-qubit pair values M(A, B_i)^alpha.
The weights form a geometric ladder in the per-step factor h = 2^x - 1,
x = alpha/gamma, where gamma is the measure's floor exponent: 2 for
concurrence and its negativity twin, sqrt(2) for entanglement of
formation, 1 for tsallis.  The ladder's shape is set by a split position
m: the first m weights ascend h^0..h^{m-1}, the trailing pairs take
h^{m+1} except the very last, which takes h^m.  m = N-2 is the fully
ascending ladder h^0..h^{N-2}.

Why the ladder holds.  Number the pairs 0..N-2 in chain order, let
p_i = M(A, B_i)^gamma and S_i = p_i + ... + p_{N-2}.

* Top step: every N-qubit pure state has M(A | rest)^gamma >= S_0, so
  the cut value M^alpha is at least S_0^x.  For C this is the CKW
  inequality (Osborne and Verstraete, PRL 96, 220503 (2006)), and CREN
  equals C on a qubit focus; for EOF it is the monogamy of E^sqrt(2)
  (Bai, Xu and Wang, PRL 113, 100503 (2014)); for T_q with 2 <= q <= 3
  it is Kim, PRA 81, 062328 (2010).
* Head step: when p_i >= S_{i+1}, S_i^x = p_i^x (1 + S_{i+1}/p_i)^x is
  at least p_i^x + h S_{i+1}^x, the inequality power_split_margin
  encodes.
* Tail step: when p_i <= S_{i+1}, the same inequality gives
  S_i^x >= S_{i+1}^x + h p_i^x.

Head steps for i < m and tail steps for m <= i <= N-3 chain from S_0^x
down to S_{N-2}^x = p_{N-2}^x, and their factors of h add up to exactly
the powers of WeightLadder.  So split m is proven when p_i >= S_{i+1}
for every i < m and p_i <= S_{i+1} for every m <= i <= N-3.  Both are
comparisons between numbers the analysis already holds, one per chain
position, with ties within PRECONDITION_ATOL counted either way; they
depend on the measure but not on alpha.

One evaluator reads every analysis.  ChainBatch analyses B states at
once, and its table evaluates them for K (measure, alpha) keys, at their
auto splits or at one given split: one certification stack for the
chains of every measure, one pow per distinct alpha and one stacked
matmul for every ladder, giving (K, B) arrays; what depends on the keys
alone is planned once per key tuple.  A soundness campaign reads the
table of each batch; a report is one key of the table of a batch of one
state, and an exponent sweep is one such table over the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .measures import MeasureKind, _values_of_concurrence, rank2_concurrences, spin_flip_concurrences
from .qstate import (Ket, _cut_concurrences, _marginal_factors, _register_size, checked_int, marginal_stack,
                     physical_memory)

ALPHA_ATOL = 1e-12
PRECONDITION_ATOL = 1e-12
# ChainBatch.of sorts 0 * C for the given order and -C for the ranked one
_CHAIN_KEYS = np.array([0.0, -1.0]).reshape(2, 1, 1)


def _checked_alpha(kind: MeasureKind, alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha={alpha!r} is not finite")
    if alpha < kind.alpha_floor - ALPHA_ATOL:
        raise ValueError(
            f"alpha={alpha!r} below the {kind.name} floor {kind.alpha_floor!r}"
        )
    return alpha


def step_factor(kind: MeasureKind, alpha: float) -> float:
    """Per-step ladder factor 2^(alpha/gamma) - 1, gamma the floor exponent.

    Equals 1 at the measure's floor exponent and grows from there; it
    always dominates the prior linear factor returned by prior_factor.
    """
    alpha = _checked_alpha(kind, alpha)
    try:
        return 2.0 ** (alpha / kind.alpha_floor) - 1.0
    except OverflowError:
        raise ValueError(f"alpha={alpha!r} is too large: 2^(alpha/gamma) overflows") from None


def prior_factor(kind: MeasureKind, alpha: float) -> float:
    """Earlier linear per-step factor: alpha/2, alpha/sqrt(2), or 1."""
    alpha = _checked_alpha(kind, alpha)
    if kind.name == "tsallis":
        return 1.0
    return alpha / kind.alpha_floor


def power_split_margin(t: float, x: float) -> float:
    """Margin of (1 + t)^x >= 1 + (2^x - 1) t^x for t in [0, 1], x >= 1.

    This inequality justifies the ladder factor: splitting a power of a
    two-term sum loses at most nothing against the weighted pieces.  The
    margin vanishes exactly at t = 0 and t = 1.
    """
    t = float(t)
    x = float(x)
    if not (-ALPHA_ATOL <= t <= 1.0 + ALPHA_ATOL):
        raise ValueError(f"t={t!r} outside [0, 1]")
    if not math.isfinite(x):
        raise ValueError(f"x={x!r} is not finite")
    if x < 1.0 - ALPHA_ATOL:
        raise ValueError(f"x={x!r} below 1")
    t = min(max(t, 0.0), 1.0)
    try:
        return (1.0 + t) ** x - 1.0 - (2.0**x - 1.0) * t**x
    except OverflowError:
        raise ValueError(f"x={x!r} is too large: 2^x overflows") from None


def _ladder_powers(count: int) -> np.ndarray:
    """Row s of this (count, count) array holds the powers of the ladder split at s (row 0 holds none):
    p = [0, 1, ..., s-1] + [s+1] * (count-1-s) + [s], the one place that spells the pattern out."""
    s, i = np.ogrid[:count, :count]
    return np.where(i < s, i, s + (i < count - 1))


@dataclass(frozen=True)
class WeightLadder:
    """Geometric weight ladder with a split position.

    weights()[i] = base^p_i with the powers of row ``split`` of
    _ladder_powers; split = count - 1 yields the fully ascending ladder
    0..count-1.
    """

    base: float
    count: int
    split: int

    def __post_init__(self):
        if checked_int(self.count, "ladder count") < 2:
            raise ValueError(f"need at least two pair terms, got {self.count}")
        if not (1 <= checked_int(self.split, "ladder split") <= self.count - 1):
            raise ValueError(
                f"split {self.split} outside [1, {self.count - 1}] for {self.count} terms"
            )
        if not math.isfinite(self.base):
            raise ValueError(f"ladder base {self.base!r} is not finite")
        if self.base < 1.0 - ALPHA_ATOL:
            raise ValueError(f"ladder base must be >= 1, got {self.base!r}")

    def weights(self) -> np.ndarray:
        """The weights, or a ValueError where one overflows: the one overflow check of every ladder."""
        p = _ladder_powers(self.count)[self.split]
        try:
            float(self.base) ** max(p.tolist())  # raises where numpy would return inf
        except OverflowError:
            raise ValueError(f"ladder weights overflow: base {self.base!r}, {self.count} terms") from None
        return np.asarray(self.base, dtype=np.float64) ** p


class Verdict(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"


@dataclass(frozen=True)
class PreconditionVerdict:
    """The chain comparisons behind a report's verdict: its chain's row of the table's ChainStack.

    ``powers[i]`` is p_i, the i-th pair value raised to the measure's
    floor exponent, for every pair in the report's order.  Comparison i
    (one per pair except the last) weighs p_i against ``tails[i]`` =
    S_{i+1}, the sum of the later powers; ``verdicts[i]`` is Holds when
    p_i >= S_{i+1} - PRECONDITION_ATOL and Fails otherwise.
    ``certified[m - 1]`` says whether split m of this order is proven,
    1 <= m <= N-2 (_certified_splits); the report's ``asserted`` is the
    entry of its own split.
    """

    powers: tuple[float, ...]
    tails: tuple[float, ...]
    verdicts: tuple[Verdict, ...]
    certified: tuple[bool, ...]


def _certified_splits(powers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chain comparisons of many chains at once, one chain of powers along the last axis.

    Returns the tails S_{i+1}, running sums from the last power back; the
    head comparisons ``holds``, p_i >= S_{i+1} - PRECONDITION_ATOL; and
    the proven splits: entry [..., m - 1] says whether split m of the chain
    is proven, 1 <= m <= N-2 for N-1 powers a chain.  Split m needs the
    head steps before m, a prefix of ``holds``, and the tail steps from m
    on, a suffix of p_i <= S_{i+1} + PRECONDITION_ATOL: one running
    logical_and each way.
    """
    backward = powers[..., ::-1]  # p_{N-2} ... p_0
    sums = np.add.accumulate(backward[..., :-1], axis=-1)  # S_{N-2} ... S_1
    tails = sums[..., ::-1]
    holds = powers[..., :-1] >= tails - PRECONDITION_ATOL
    certified = np.logical_and.accumulate(holds, axis=-1)  # [m - 1]: every head step i < m holds
    # [m - 1] for m <= N-3: every tail step m <= i <= N-3 holds too, read from the back; split N-2 has none
    under = backward[..., 1:-1] <= sums[..., :-1] + PRECONDITION_ATOL  # p_i <= S_{i+1} for i = N-3 ... 1
    certified[..., :-1] &= np.logical_and.accumulate(under, axis=-1)[..., ::-1]
    return tails, holds, certified


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the weighted bound against its baselines: one key's row of a BatchTable.

    ``lhs`` is the cut value raised to alpha; ``new_bound``,
    ``baseline_weighted`` and ``baseline_sum`` are weighted sums of the
    pair values raised to alpha (ladder, prior linear-factor ladder, and
    unweighted).  ``order`` is the pair order actually used, which for
    the fully ascending ladder is sorted by descending pair concurrence.
    ``asserted`` is the table's verdict on the ordering hypothesis for
    ``m``: whether residual_new >= 0 is guaranteed.  ``preconditions``
    holds the comparisons of the chain the report reads.
    """

    measure: MeasureKind
    alpha: float
    m: int
    asserted: bool
    focus: int
    order: tuple[int, ...]
    lhs: float
    pair_values: tuple[float, ...]
    weights: tuple[float, ...]
    new_bound: float
    baseline_weighted: float
    baseline_sum: float
    residual_new: float
    residual_gap: float
    preconditions: PreconditionVerdict


class ChainStack(NamedTuple):
    """The chains of M measures and B states.

    Entry [i, 0, j] holds state j's pairs under the i-th distinct measure
    of the keys in the given order, [i, 1, j] in the ranked order: their
    pair ``values``, the ``powers`` p_i and, from _certified_splits, the
    ``tails``, the head comparisons ``holds`` and the ``certified`` splits.
    """

    values: np.ndarray
    powers: np.ndarray
    tails: np.ndarray
    holds: np.ndarray
    certified: np.ndarray


class BatchTable(NamedTuple):
    """The reports of B states for K (measure, alpha) keys: one (K, B) array
    per BoundReport number, key k in row k.  ``weights[k, j]`` is the
    ladder that report applies; it reads the ranked chain of ``chains``
    where ``m`` is N-2, else the given one."""

    m: np.ndarray
    asserted: np.ndarray
    lhs: np.ndarray
    new_bound: np.ndarray
    baseline_weighted: np.ndarray
    baseline_sum: np.ndarray
    residual_new: np.ndarray
    residual_gap: np.ndarray
    weights: np.ndarray
    chains: ChainStack


@dataclass(frozen=True, eq=False)
class ChainBatch:
    """The state-only work behind the reports of B states, computed once, as arrays.

    All B states share the focus and the given pair order.  ``cut[j]`` is
    C(focus | rest) of state j, which every measure's cut value maps; it
    comes from _cut_concurrences, which checks the kets once for every step.
    ``concurrence[j, i]`` is the concurrence of state j's pair
    (focus, given[i]).  At n = 3 one rank2_concurrences call reads every C
    in closed form from the 4 x 2 slices M of the kets (each pair is
    M M^dagger) that marginal_stack's gather index takes, and no marginal
    is built.  From n = 4 on, the B*(N-1) pair marginals form one stack
    for one spin_flip_concurrences call; from n = 5 on, one eigvalsh call
    takes their spectra, and the spin flip only the pairs whose spectral
    ceiling stays open (at n = 4 it would skip about 1 pair in 400, and
    the spectra cost more than the skips save); the row check covers the
    marginals.  ``chain_index[0, j]`` holds the positions of state j's
    pairs in ``concurrence.ravel()`` in the given order, and
    ``chain_index[1, j]`` in the ranked order, by descending concurrence
    (a stable sort, so ties keep their given position); one sort yields
    both, and a table gathers every chain with one take by it.
    """

    focus: int
    given: tuple[int, ...]
    concurrence: np.ndarray
    chain_index: np.ndarray
    cut: np.ndarray

    @classmethod
    def of(cls, amplitudes: np.ndarray, focus: int, order: Sequence[int] | None = None) -> "ChainBatch":
        """Analyse the kets in the rows of ``amplitudes``, a (B, 2^n) array, n its row width's; an empty
        batch, a non-finite row or one whose ||row||^2 strays from 1 by over 6e-13 raises ValueError."""
        n_qubits = _register_size(amplitudes, "(B, 2^n)")
        focus = checked_int(focus, "focus")
        order = None if order is None else tuple(checked_int(i, "order entry") for i in order)
        if not (0 <= focus < n_qubits):
            raise ValueError(f"focus {focus} out of range for {n_qubits} qubits")
        rest = [i for i in range(n_qubits) if i != focus]
        given = tuple(rest) if order is None else order
        if sorted(given) != rest:
            raise ValueError(f"order {given} is not a permutation of the non-focus qubits {rest}")
        cut = _cut_concurrences(amplitudes, focus)  # checks the rows
        count = len(amplitudes)
        keeps = [(focus, b) for b in given]
        if n_qubits == 3:
            # one traced qubit: each pair is M M^dagger with M the 4 x 2 slice of its ket that the gather takes
            concurrence = rank2_concurrences(_marginal_factors(amplitudes, keeps))
        else:
            pairs = marginal_stack(amplitudes, keeps).reshape(-1, 4, 4)
            concurrence = spin_flip_concurrences(pairs, None if n_qubits == 4 else np.linalg.eigvalsh(pairs)[:, ::-1])
            concurrence = concurrence.reshape(count, len(given))
        # sorting 0 * C keeps the given order, sorting -C ranks it; the offsets make the positions flat
        chain_index = (_CHAIN_KEYS * concurrence).argsort(axis=2, kind="stable")
        chain_index += len(given) * np.arange(count)[:, None]
        return cls(focus, given, concurrence, chain_index, cut)

    def table(self, keys: Sequence[tuple[MeasureKind, float]], m: int | None = None) -> BatchTable:
        """The report of every state for each (measure, alpha) key, as arrays; see monogamy_report.

        ``m`` is the split of every report; None takes each state's auto
        split per measure: the fully ascending ladder (m = N-2) if proven,
        else the largest proven split of the given order, else N-2
        unproven.  Split N-2 reads the ranked order, every other split the
        given one.  Each step runs once at the level it depends on.  What
        depends on the keys and the pair count alone (factors, groupings,
        ladders) is planned once per key tuple (_table_plan).  One array
        pass maps the B*(N-1) pair and the B cut concurrences to every
        measure, taking lambda- once.  One take by ``chain_index`` gathers
        the given and the ranked chains of all M measures and B states, one
        numpy pow against the plan's floor column gives their powers, and
        they are certified as one stack of 2*M*B chains.  Per distinct
        alpha, the pair values of the keys that take it are raised by one
        numpy pow; the cut values by one pow against the plan's alpha
        column.  One stacked matmul applies the new and the prior ladder of
        every key, a dot product per state.
        """
        return self._table(tuple(keys), m, _table_plan)

    def _table(self, keys, m, plan_of) -> BatchTable:
        # table of a tuple of keys with the plan from plan_of: _table_plan, or the uncached _plan of a sweep
        count, n_pairs = self.concurrence.shape
        if n_pairs < 2:
            raise ValueError(f"need at least three qubits, got {n_pairs + 1}")
        plan = plan_of(keys, n_pairs)  # also rejects a non-finite or below-floor alpha
        top = n_pairs - 1
        if m is not None:
            m = checked_int(m, "m")
            if not 1 <= m <= top:
                raise ValueError(f"m={m} outside [1, {top}] for {n_pairs} pairs")
        # [measure, concurrence]: the B*(N-1) pair concurrences, then the B cut ones
        values = _values_of_concurrence(plan.measures, np.concatenate((self.concurrence.ravel(), self.cut)))
        chain_values = values[:, :-count].take(self.chain_index, axis=1)  # [measure, given or ranked, state, pair]
        chain_powers = chain_values ** plan.floors
        tails, holds, certified = _certified_splits(chain_powers)
        if m is None:
            # split s reads the ranked order at s = N-2 and the given one below; candidates from the
            # top down, the first proven one is the split, and none leaves N-2 (ranked) unproven
            proven = np.where(plan.ranked_split, certified[:, 1], certified[:, 0])[:, :, ::-1]
            m, asserted = top - proven.argmax(axis=2), np.logical_or.reduce(proven, axis=2)
        else:
            asserted = certified[:, int(m == top), :, m - 1]
            m = np.full((len(plan.measures), count), m)
        m, asserted = m.take(plan.which, axis=0), asserted.take(plan.which, axis=0)  # one row per key
        ranked = m == top  # which chain each report reads
        pair_values = chain_values.take(plan.which, axis=0)
        pair_values = np.where(ranked[:, :, None], pair_values[:, 1], pair_values[:, 0])
        # each report's ladders, by its row among the plan's (key, split) rows: [new or prior, key, state]
        ladders = plan.ladders.reshape(2, -1, n_pairs).take(plan.offsets + m, axis=1)
        if plan.overflows:
            # raise as a key-by-key build of the ladders at the splits its states take would: WeightLadder
            # names the first key in order whose ladder holds an inf, new ladder before prior
            taken = np.isinf(ladders).any(axis=3)
            for k, side, j in np.argwhere(taken.swapaxes(0, 1))[:1].tolist():  # the first [key, new or prior, state]
                WeightLadder((step_factor, prior_factor)[side](*keys[k]), n_pairs, int(m[k, j])).weights()  # raises
        powered = np.empty((len(plan.alphas), count, n_pairs))
        for alpha, group in plan.alpha_rows:
            powered[group] = pair_values[group] ** alpha
        lhs = values[:, -count:].take(plan.which, axis=0) ** plan.alphas
        new_bound, baseline_weighted = np.matmul(powered[:, :, None], ladders[..., None]).reshape(2, -1, count)
        baseline_sum = np.add.reduce(powered, axis=2)
        return BatchTable(m, asserted, lhs, new_bound, baseline_weighted, baseline_sum, lhs - new_bound,
                          new_bound - np.maximum(baseline_weighted, baseline_sum), ladders[0],
                          ChainStack(chain_values, chain_powers, tails, holds, certified))


class _TablePlan(NamedTuple):
    """What ChainBatch.table reads from its K (measure, alpha) keys and the pair count alone.

    ``measures`` are the distinct measures in key order, ``floors`` their
    floor exponents as an (M, 1, 1, 1) column; key k takes measure
    ``which[k]`` and exponent ``alphas[k, 0]``.  ``alpha_rows`` holds, per
    distinct alpha, the keys that take it.  ``ladders[0, k]`` and
    ``ladders[1, k]`` are key k's step and prior factors raised to
    _ladder_powers(N-1), so row s is its ladder at split s, with an inf
    where a weight overflows; ``overflows`` says whether any does, and
    WeightLadder alone then decides which ladder a table rejects.
    ``offsets[k]`` is k (N-1), where key k's ladders start when the
    (key, split) axes are read as one.  ``ranked_split[s - 1]`` says
    whether split s reads the ranked order: s = N-2 alone.
    """

    measures: tuple[MeasureKind, ...]
    floors: np.ndarray
    which: np.ndarray
    alphas: np.ndarray
    alpha_rows: tuple[tuple[float, slice | np.ndarray], ...]
    ladders: np.ndarray
    overflows: bool
    offsets: np.ndarray
    ranked_split: np.ndarray


def _plan(keys: tuple[tuple[MeasureKind, float], ...], n_pairs: int) -> _TablePlan:
    # a ValueError (a non-finite or below-floor alpha) raises before anything is built
    bases = tuple(step_factor(k, a) for k, a in keys), tuple(prior_factor(k, a) for k, a in keys)
    measures = tuple(dict.fromkeys(kind for kind, _ in keys))
    index = {kind: i for i, kind in enumerate(measures)}
    which = np.array([index[kind] for kind, _ in keys], dtype=np.intp)
    alphas = tuple(float(alpha) for _, alpha in keys)
    groups: dict[float, list[int]] = {}
    for k, alpha in enumerate(alphas):
        groups.setdefault(alpha, []).append(k)
    # a run of consecutive keys is read as a slice, any other group as an index array
    rows = [slice(g[0], g[-1] + 1) if g[-1] - g[0] == len(g) - 1 else np.array(g, dtype=np.intp)
            for g in groups.values()]
    with np.errstate(over="ignore"):  # an overflow is an inf, raised where a state takes that ladder
        ladders = np.array(bases).reshape(2, -1, 1, 1) ** _ladder_powers(n_pairs)
    ladders.flags.writeable = False
    floors = np.array([kind.alpha_floor for kind in measures]).reshape(-1, 1, 1, 1)
    return _TablePlan(measures, floors, which, np.array(alphas).reshape(-1, 1), tuple(zip(groups, rows)), ladders,
                      bool(np.isinf(ladders).any()), n_pairs * np.arange(len(keys))[:, None],
                      np.arange(1, n_pairs) == n_pairs - 1)


# a campaign's batches and a --state call share the plan of their key tuple; a sweep's plan is its own
_table_plan = lru_cache(maxsize=64)(_plan)


def _reports(psi: Ket, focus: int, order: Sequence[int] | None, measure: MeasureKind, alphas: Sequence[float],
             m: int | None, plan_of) -> list[BoundReport]:
    # one table of the state alone over the keys (measure, alpha): every key takes the same split and chain
    batch = ChainBatch.of(psi.amplitudes[None], focus, order)
    if not alphas:  # an empty sweep still checks its focus and order
        return []
    t = batch._table(tuple((measure, a) for a in alphas), m, plan_of)
    m = int(t.m[0, 0])
    ranked = m == len(batch.given) - 1
    # state 0's positions in the flat concurrences are its pairs' positions in the given order
    order = tuple(batch.given[i] for i in batch.chain_index[1, 0].tolist()) if ranked else batch.given
    chain = (0, int(ranked), 0)
    pair_values, powers, tails, holds, certified = (tuple(a[chain].tolist()) for a in t.chains)
    pre = PreconditionVerdict(powers, tails, tuple(Verdict.HOLDS if h else Verdict.FAILS for h in holds), certified)
    columns = t.lhs, t.new_bound, t.baseline_weighted, t.baseline_sum, t.residual_new, t.residual_gap
    numbers = np.concatenate(columns, axis=1).tolist()  # one row of six per key
    return [
        BoundReport(measure, float(alpha), m, asserted, batch.focus, order, lhs, pair_values, tuple(weights), new,
                    weighted, plain, residual, gap, pre)
        for alpha, asserted, weights, (lhs, new, weighted, plain, residual, gap) in zip(
            alphas, t.asserted[:, 0].tolist(), t.weights[:, 0].tolist(), numbers)
    ]


def monogamy_report(
    psi: Ket,
    focus: int,
    measure: MeasureKind,
    alpha: float,
    order: Sequence[int] | None = None,
    m: int | None = None,
) -> BoundReport:
    """Evaluate the weighted bound for one pure state, measure and exponent.

    ``m`` selects the ladder split; ``None`` takes the largest certified
    split, preferring the fully ascending ladder (m = N-2).
    When the ascending ladder is used the pairs are reordered by
    descending pair concurrence (ties keep their original position); the
    split ladders use the caller's order as given.  If no split is
    certified, the report falls back to the ascending ladder with the
    verdicts attached and ``asserted`` False.
    """
    return _reports(psi, focus, order, measure, (alpha,), m, _table_plan)[0]


# an --example sweep through the CLI peaks at 779 B per grid point (tracemalloc at 20 001 and
# 200 001 points: the grid, the sweep's table, and a BoundReport and a CSV line each), rounded up to 1 KiB
_SWEEP_BYTES_PER_POINT = 1024


def alpha_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive grid lo, lo+step, ... capped at hi (within rounding)."""
    lo, hi, step = float(lo), float(hi), float(step)
    for name, v in (("start", lo), ("end", hi), ("step", step)):
        if not math.isfinite(v):
            raise ValueError(f"alpha grid {name}={v!r} is not finite")
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if hi < lo - ALPHA_ATOL:
        raise ValueError(f"empty range [{lo}, {hi}]")
    span = max(0.0, (hi - lo) / step + 1e-9)  # hi may lie up to ALPHA_ATOL below lo: the grid is then lo alone
    if _SWEEP_BYTES_PER_POINT * (span + 1) > physical_memory():  # also catches a step so small that span is inf
        raise ValueError(f"alpha grid of {span + 1:.3g} points needs more than physical memory")
    count = int(math.floor(span)) + 1
    return lo + step * np.arange(count)


def alpha_sweep(
    psi: Ket,
    focus: int,
    measure: MeasureKind,
    alphas: Sequence[float],
    order: Sequence[int] | None = None,
    m: int | None = None,
) -> list[BoundReport]:
    """monogamy_report across an exponent grid: one analysis of the state, one table over the grid."""
    return _reports(psi, focus, order, measure, [float(a) for a in alphas], m, _plan)
