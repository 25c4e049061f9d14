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

Two evaluators read the same analysis.  ChainAnalysis reports on one
state, in scalar arithmetic, for any split.  ChainBatch analyses B states
at once (ChainAnalysis.of is its batch of one) and, for the soundness
campaign, evaluates them at their auto splits as one table over K
(measure, alpha) keys: one certification stack for the chains of every
measure, one pow per distinct alpha and one stacked matmul for every
ladder, giving (K, B) arrays; what depends on the keys alone is planned
once per key tuple.  Its entries equal ChainAnalysis.report bit for
bit, which tests/test_campaign.py checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .measures import MeasureKind, cut_values, spin_flip_concurrences, values_of_concurrence
from .qstate import Ket, density_spectra, marginal_stack, physical_memory

ALPHA_ATOL = 1e-12
PRECONDITION_ATOL = 1e-12


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
    if x < 1.0 - ALPHA_ATOL:
        raise ValueError(f"x={x!r} below 1")
    t = min(max(t, 0.0), 1.0)
    return (1.0 + t) ** x - 1.0 - (2.0**x - 1.0) * t**x


@dataclass(frozen=True)
class WeightLadder:
    """Geometric weight ladder with a split position.

    weights()[i] = base^p_i with powers
    p = [0, 1, ..., split-1] + [split+1] * (count-1-split) + [split];
    split = count - 1 yields the fully ascending ladder 0..count-1.
    """

    base: float
    count: int
    split: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"need at least two pair terms, got {self.count}")
        if not (1 <= self.split <= self.count - 1):
            raise ValueError(
                f"split {self.split} outside [1, {self.count - 1}] for {self.count} terms"
            )
        if self.base < 1.0 - ALPHA_ATOL:
            raise ValueError(f"ladder base must be >= 1, got {self.base!r}")

    def powers(self) -> np.ndarray:
        p = list(range(self.split))
        p += [self.split + 1] * (self.count - 1 - self.split)
        p.append(self.split)
        return np.array(p, dtype=np.int64)

    def weights(self) -> np.ndarray:
        p = self.powers()
        try:
            float(self.base) ** max(p.tolist())  # raises where numpy would return inf
        except OverflowError:
            raise ValueError(f"ladder weights overflow: base {self.base!r}, {self.count} terms") from None
        return np.asarray(self.base, dtype=np.float64) ** p


@lru_cache(maxsize=256)
def _ladder_weights(base: float, count: int, split: int) -> np.ndarray:
    # the ladder depends on (base, count, split) alone, never on the state, so every report
    # with the same measure, exponent, pair count and split shares one read-only vector;
    # a ladder that raises is not cached and raises again on the next call
    weights = WeightLadder(base, count, split).weights()
    weights.flags.writeable = False
    return weights


class Verdict(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"


@dataclass(frozen=True)
class PreconditionVerdict:
    """Chain comparisons of one pair order under one measure.

    ``powers[i]`` is p_i, the i-th pair value raised to the measure's
    floor exponent, for every pair in chain order.  Comparison i (one per
    pair except the last) weighs p_i against ``tails[i]`` = S_{i+1}, the
    sum of the later powers; ``verdicts[i]`` is Holds when
    p_i >= S_{i+1} - PRECONDITION_ATOL and Fails otherwise.
    """

    powers: tuple[float, ...]
    tails: tuple[float, ...]
    verdicts: tuple[Verdict, ...]

    def certifies_split(self, m: int) -> bool:
        """Whether the ordering hypothesis for split position m is proven.

        Pairs before position m must dominate the sum of the later powers,
        and the later ones (but the last) be dominated by it; ties count.
        """
        n_cmp = len(self.verdicts)
        if not (1 <= m <= n_cmp + 1):
            raise ValueError(f"split {m} outside [1, {n_cmp + 1}]")
        head = all(v is Verdict.HOLDS for v in self.verdicts[:m])
        tail = all(p <= s + PRECONDITION_ATOL for p, s in zip(self.powers[m:], self.tails[m:]))
        return head and tail


def _chain_preconditions(powers: Sequence[float]) -> PreconditionVerdict:
    tails = tuple(accumulate(reversed(powers[1:])))[::-1]
    verdicts = tuple(Verdict.HOLDS if p >= s - PRECONDITION_ATOL else Verdict.FAILS for p, s in zip(powers, tails))
    return PreconditionVerdict(tuple(powers), tails, verdicts)


def _certified_splits(powers: np.ndarray) -> np.ndarray:
    """PreconditionVerdict.certifies_split of many chains at once.

    ``powers`` holds one chain per row; entry [j, m - 1] of the result is
    certifies_split(m) of chain j, 1 <= m <= N-1.  The tails are running
    sums from the last power back, added in the order itertools.accumulate
    adds them, so every comparison is the one-chain comparison.
    """
    tails = powers[:, :0:-1].cumsum(axis=1)[:, ::-1]
    holds = powers[:, :-1] >= tails - PRECONDITION_ATOL
    under = powers[:, :-1] <= tails + PRECONDITION_ATOL
    done = np.ones((len(powers), 1), dtype=bool)
    # split m needs holds at every i < m (all of them for m = N-1) and under at every m <= i <= N-3
    heads = np.logical_and.accumulate(np.concatenate((holds, done), axis=1), axis=1)
    rests = np.logical_and.accumulate(np.concatenate((under, done, done), axis=1)[:, :0:-1], axis=1)[:, ::-1]
    return heads & rests


class Certificate(NamedTuple):
    """What one measure reads from an analysis; see ChainAnalysis.certificate."""

    cut_value: float
    pair_values: dict[int, float]
    given: PreconditionVerdict
    ranked: PreconditionVerdict
    split: int | None


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the weighted bound against its baselines.

    ``lhs`` is the cut value raised to alpha; ``new_bound``,
    ``baseline_weighted`` and ``baseline_sum`` are weighted sums of the
    pair values raised to alpha (ladder, prior linear-factor ladder, and
    unweighted).  ``order`` is the pair order actually used, which for
    the fully ascending ladder is sorted by descending pair concurrence.
    ``asserted`` reports whether the ordering hypothesis for ``m`` was
    certified, i.e. whether residual_new >= 0 is guaranteed.
    """

    measure: MeasureKind
    alpha: float
    m: int
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

    @property
    def asserted(self) -> bool:
        return self.preconditions.certifies_split(self.m)


class BatchTable(NamedTuple):
    """The reports of B states at their auto splits for K (measure, alpha)
    keys: one (K, B) array per BoundReport field, key k in row k."""

    m: np.ndarray
    asserted: np.ndarray
    lhs: np.ndarray
    new_bound: np.ndarray
    baseline_weighted: np.ndarray
    baseline_sum: np.ndarray
    residual_new: np.ndarray
    residual_gap: np.ndarray


@dataclass(frozen=True, eq=False)
class ChainBatch:
    """The state-only work behind the reports of B states, computed once, as arrays.

    All B states share the focus and the given pair order.
    ``concurrence[j, i]`` is the concurrence of state j's pair
    (focus, given[i]): the B*(N-1) pair marginals form one stack, checked
    by one density_spectra call whose spectra go to one
    spin_flip_concurrences call, which spin-flips only the pairs their
    spectral ceiling leaves open (none are skipped at n = 3, where every
    pair marginal has rank 2).  ``ranked[j]`` lists the positions in
    ``given`` by descending concurrence (a stable sort, so ties keep their
    given position).  ``focus_entries`` and ``focus_spectra`` are each
    state's rho_A and its descending spectrum, checked as one (B, 2, 2)
    stack.  The checked given order and its pair keeps are planned once
    per (register size, focus, order) (_chain_plan).  Equality reads
    these numbers only.
    """

    focus: int
    given: tuple[int, ...]
    concurrence: np.ndarray
    ranked: np.ndarray
    focus_entries: np.ndarray
    focus_spectra: np.ndarray

    @classmethod
    def of(cls, amplitudes: np.ndarray, n_qubits: int, focus: int, order: Sequence[int] | None = None) -> "ChainBatch":
        """Analyse the kets in the rows of ``amplitudes``, a (B, 2^n) array of unit vectors."""
        given, pair_keeps = _chain_plan(n_qubits, focus, None if order is None else tuple(order))
        count = len(amplitudes)
        pairs = marginal_stack(amplitudes, n_qubits, pair_keeps).reshape(-1, 4, 4)
        pair_spectra = density_spectra(pairs)
        # a pair marginal has rank at most 2^(n-2): at n = 3 its ceiling is lam1 > 0, so it would skip none
        concurrence = spin_flip_concurrences(pairs, None if n_qubits == 3 else pair_spectra).reshape(count, len(given))
        rho_a = marginal_stack(amplitudes, n_qubits, [(focus,)])[:, 0]
        spectra = density_spectra(rho_a)
        return cls(focus, given, concurrence, np.argsort(-concurrence, axis=1, kind="stable"), rho_a, spectra)

    def __eq__(self, other):
        if not isinstance(other, ChainBatch):
            return NotImplemented
        return (self.focus, self.given) == (other.focus, other.given) and all(
            np.array_equal(a, b) for a, b in ((self.concurrence, other.concurrence),
                                              (self.focus_entries, other.focus_entries)))

    def table(self, keys: Sequence[tuple[MeasureKind, float]]) -> BatchTable:
        """ChainAnalysis.report of every state at its auto split, for each (measure, alpha) key, as arrays.

        Each step runs once at the level it depends on.  What depends on the
        keys and the pair count alone (factors, groupings, ladders) is
        planned once per key tuple (_table_plan).  Per measure, the pair
        values come from one values_of_concurrence pass over all B*(N-1)
        concurrences, the list map that one state's certificate uses, and
        the given and the ranked chains of all M measures and B states are
        certified as one stack of 2*M*B rows.  Per distinct alpha, the
        pair values of the measures that take it are raised by one numpy
        pow; the cut values are raised by Python's pow, as one state's
        report raises them.  One stacked matmul applies the new and the
        prior ladder of every key, a dot product per state.
        """
        count, n_pairs = self.concurrence.shape
        if n_pairs < 2:
            raise ValueError(f"need at least three qubits, got {n_pairs + 1}")
        plan = _table_plan(tuple(keys), n_pairs)  # also rejects a non-finite or below-floor alpha
        concurrence = self.concurrence.ravel().tolist()
        values = [values_of_concurrence(kind, concurrence) for kind in plan.measures]
        powers = [row if floor == 1.0 else [v**floor for v in row] for floor, row in zip(plan.floors, values)]
        chains = np.array([values, powers]).reshape(2, len(plan.measures), count, n_pairs)
        del values, powers  # their Python floats outweigh the arrays
        # row j of a measure: state j's pairs in the given order; row B + j: in the ranked order
        chains = np.concatenate((chains, chains[:, :, np.arange(count)[:, None], self.ranked]), axis=2)
        certified = _certified_splits(chains[1].reshape(-1, n_pairs)).reshape(len(plan.measures), 2 * count, n_pairs)
        top = n_pairs - 1
        # candidates from the top down: the ranked order's N-2, then the given order's N-3 ... 1;
        # the first proven one is the split, and none leaves N-2 (ranked) unproven
        proven = np.concatenate((certified[:, count:, top - 1:top], certified[:, :count, :top - 1][:, :, ::-1]), axis=2)
        first = proven.argmax(axis=2)
        m = top - first
        pair_values = chains[0][np.arange(len(plan.measures))[:, None], np.arange(count) + count * (first == 0)]

        powered = np.empty((len(plan.alphas), count, n_pairs))
        for alpha, rows, owners in plan.alpha_rows:
            powered[rows] = pair_values[owners] ** alpha
        cuts = [cut_values(kind, self.focus_entries, self.focus_spectra).tolist() for kind in plan.measures]
        lhs = np.array([[c**alpha for c in cuts[i]] for i, alpha in zip(plan.which.tolist(), plan.alphas)])

        if plan.overflows:
            # raise as a key-by-key build of the ladders at the splits each measure takes would:
            # the first key in order, new ladder before prior, splits ascending
            splits = [sorted(set(row)) for row in m.tolist()]
            for k, i in enumerate(plan.which.tolist()):
                for bases in plan.bases:
                    for s in splits[i]:
                        _ladder_weights(bases[k], n_pairs, s)
        m = m[plan.which]  # from one row per measure to one per key
        ladders = plan.ladders[:, np.arange(len(plan.alphas))[:, None], m]  # [new or prior, key, state]
        new_bound, baseline_weighted = np.matmul(powered[:, :, None], ladders[..., None]).reshape(2, -1, count)
        baseline_sum = powered.sum(axis=2)
        return BatchTable(m, proven.any(axis=2)[plan.which], lhs, new_bound, baseline_weighted, baseline_sum,
                          lhs - new_bound, new_bound - np.maximum(baseline_weighted, baseline_sum))


@lru_cache(maxsize=64)
def _chain_plan(n_qubits: int, focus: int, order: tuple[int, ...] | None) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The checked given order of a register shape, and the (focus, partner) keep of each pair in it."""
    # a ValueError (a bad focus, checked first, or a bad order) is not cached and raises again on the next call
    if not (0 <= focus < n_qubits):
        raise ValueError(f"focus {focus} out of range for {n_qubits} qubits")
    rest = [i for i in range(n_qubits) if i != focus]
    given = tuple(rest) if order is None else tuple(int(i) for i in order)
    if sorted(given) != rest:
        raise ValueError(f"order {given} is not a permutation of the non-focus qubits {rest}")
    return given, tuple((focus, b) for b in given)


class _TablePlan(NamedTuple):
    """What ChainBatch.table reads from its K (measure, alpha) keys and the pair count alone.

    ``measures`` are the distinct measures in key order, with their
    ``floors``; key k takes measure ``which[k]`` and exponent ``alphas[k]``.
    ``alpha_rows`` holds, per distinct alpha, the keys that take it and
    their measures.  ``bases`` are the step (row 0) and prior (row 1)
    factors of every key, and ``ladders[side, k, s]`` is the ladder of base
    ``bases[side][k]`` at split s, or NaN where that ladder overflows
    (``overflows`` says whether any does).
    """

    measures: tuple[MeasureKind, ...]
    floors: tuple[float, ...]
    which: np.ndarray
    alphas: tuple[float, ...]
    alpha_rows: tuple[tuple[float, np.ndarray, np.ndarray], ...]
    bases: tuple[tuple[float, ...], tuple[float, ...]]
    ladders: np.ndarray
    overflows: bool


@lru_cache(maxsize=64)
def _table_plan(keys: tuple[tuple[MeasureKind, float], ...], n_pairs: int) -> _TablePlan:
    # a ValueError (a non-finite or below-floor alpha) is not cached and raises again on the next call
    bases = tuple(step_factor(k, a) for k, a in keys), tuple(prior_factor(k, a) for k, a in keys)
    measures = tuple(dict.fromkeys(kind for kind, _ in keys))
    which = np.array([measures.index(kind) for kind, _ in keys], dtype=np.intp)
    alphas = tuple(float(alpha) for _, alpha in keys)
    alpha_rows = []
    for alpha in dict.fromkeys(alphas):
        rows = np.array([k for k, a in enumerate(alphas) if a == alpha], dtype=np.intp)
        alpha_rows.append((alpha, rows, which[rows]))
    ladders = np.full((2, len(keys), n_pairs, n_pairs), math.nan)  # split 0 is never taken
    overflows = False
    for side, row in enumerate(bases):
        for k, base in enumerate(row):
            for s in range(1, n_pairs):
                try:
                    ladders[side, k, s] = _ladder_weights(base, n_pairs, s)
                except ValueError:  # an overflow; ChainBatch.table raises it where a state takes split s
                    overflows = True
    ladders.flags.writeable = False
    return _TablePlan(measures, tuple(kind.alpha_floor for kind in measures), which, alphas,
                      tuple(alpha_rows), bases, ladders, overflows)


@dataclass(frozen=True, eq=False)
class ChainAnalysis:
    """Everything the bounds read from one state, computed once: a ChainBatch of one.

    The pair concurrences keyed by partner qubit (all N-1 from one stack of
    pair marginals, see ChainBatch), the focus marginal rho_A and its
    spectrum, and the pair order as given and as ranked by descending
    concurrence (ties keep their given position).  One analysis serves
    every report; the cut and pair values and the chain verdicts, which
    depend on the measure alone, are kept per measure (see certificate).
    Two analyses are equal when their states' numbers are.
    """

    focus: int
    given: tuple[int, ...]
    ranked: tuple[int, ...]
    concurrence: dict[int, float]
    batch: ChainBatch = field(repr=False)
    _certificates: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of(cls, psi: Ket, focus: int, order: Sequence[int] | None = None) -> "ChainAnalysis":
        batch = ChainBatch.of(psi.amplitudes[None], psi.n_qubits, focus, order)
        given = batch.given
        ranked = tuple(given[i] for i in batch.ranked[0].tolist())
        return cls(batch.focus, given, ranked, dict(zip(given, batch.concurrence[0].tolist())), batch)

    def __eq__(self, other):
        if not isinstance(other, ChainAnalysis):
            return NotImplemented
        return self.batch == other.batch

    def certificate(self, measure: MeasureKind) -> Certificate:
        """The cut value, the pair values keyed by partner and the chain
        verdicts of the given and the ranked order under ``measure``, and the
        auto split: the fully ascending ladder (m = N-2, ranked order) if
        proven, else the largest proven split of the given order, else N-2
        unproven (None below three qubits).  Computed once per measure.
        """
        cert = self._certificates.get(measure)
        if cert is None:
            values = dict(zip(self.concurrence, values_of_concurrence(measure, list(self.concurrence.values()))))
            given_pre, ranked_pre = [
                _chain_preconditions([values[b] ** measure.alpha_floor for b in o]) for o in (self.given, self.ranked)
            ]
            top = len(self.given) - 1
            candidates = [(top, ranked_pre)] + [(c, given_pre) for c in range(top - 1, 0, -1)]
            split = next((c for c, pre in candidates if pre.certifies_split(c)), top) if top >= 1 else None
            cut = float(cut_values(measure, self.batch.focus_entries, self.batch.focus_spectra)[0])
            cert = self._certificates[measure] = Certificate(cut, values, given_pre, ranked_pre, split)
        return cert

    def report(self, measure: MeasureKind, alpha: float, m: int | None = None) -> BoundReport:
        """The weighted bound for one measure and exponent; see monogamy_report."""
        n_pairs = len(self.given)
        if n_pairs < 2:
            raise ValueError(f"need at least three qubits, got {n_pairs + 1}")
        h = step_factor(measure, alpha)  # also rejects a non-finite or below-floor alpha
        cert = self.certificate(measure)
        top = n_pairs - 1
        if m is None:
            m = cert.split
        elif not (1 <= int(m) <= top):
            raise ValueError(f"m={m} outside [1, {top}] for {n_pairs} pairs")
        m = int(m)
        order, pre = (self.ranked, cert.ranked) if m == top else (self.given, cert.given)

        lhs = cert.cut_value**alpha
        pvals = np.array([cert.pair_values[b] for b in order])
        powered = pvals**alpha

        weights = _ladder_weights(h, n_pairs, m)
        prior = _ladder_weights(prior_factor(measure, alpha), n_pairs, m)
        new_bound = float(weights @ powered)
        baseline_weighted = float(prior @ powered)
        baseline_sum = float(powered.sum())

        return BoundReport(
            measure=measure,
            alpha=float(alpha),
            m=m,
            focus=self.focus,
            order=order,
            lhs=lhs,
            pair_values=tuple(pvals.tolist()),
            weights=tuple(weights.tolist()),
            new_bound=new_bound,
            baseline_weighted=baseline_weighted,
            baseline_sum=baseline_sum,
            residual_new=lhs - new_bound,
            residual_gap=new_bound - max(baseline_weighted, baseline_sum),
            preconditions=pre,
        )


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
    return ChainAnalysis.of(psi, focus, order).report(measure, alpha, m)


# an --example sweep through the CLI peaks at 848 B per grid point (tracemalloc at 20 001 and
# 200 001 points: the grid, a BoundReport and a CSV line each), rounded up to 1 KiB
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
    span = (hi - lo) / step + 1e-9
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
    """monogamy_report across an exponent grid, from one analysis of the state."""
    analysis = ChainAnalysis.of(psi, focus, order)
    return [analysis.report(measure, a, m) for a in alphas]
