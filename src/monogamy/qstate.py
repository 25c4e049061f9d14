"""Multiqubit kets, density operators and register plumbing.

Conventions
-----------
Qubits are indexed big-endian: qubit 0 is the most significant bit of the
computational basis index, so for three qubits the basis state |100> sits
at index 4.  Register factors keep their original order through partial
operations; tracing qubit 1 out of (0, 1, 2) leaves the register (0, 2).

All operators are dense complex128 numpy arrays.  Partial traces are
computed by reshaping: a ket's marginal reshapes the amplitudes to one
axis per qubit, moves the kept axes to the front and takes M M^dagger of
the resulting 2^k x 2^(n-k) matrix, so no 2^n x 2^n projector is built;
a density matrix is reshaped to one row and one column axis per factor
and its traced factors are contracted with einsum.  The two-qubit
marginals of a focus qubit come as one (k, 4, 4) stack, validated by
the same density_spectra that checks a single DensityMatrix.

What a marginal needs from the register alone, each keep's validated
kept-first axis permutation, is planned once per (register size, keeps)
and cached (_marginal_plan), so repeated reports on registers of one
shape only copy, conjugate and multiply.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

NORM_ATOL = 1e-12
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10
STATE_FILE_NORM_ATOL = 1e-6


class StateFileError(ValueError):
    """Raised when a state file cannot be parsed into a valid ket."""


@dataclass(frozen=True, eq=False)
class Ket:
    """Pure state of an ``n_qubits`` register with unit-norm amplitudes, compared by value."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {self.n_qubits}")
        amp = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amp.size != 2**self.n_qubits:
            raise ValueError(
                f"amplitude vector has length {amp.size}, expected {2**self.n_qubits}"
            )
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= NORM_ATOL:  # written so that a NaN norm fails
            raise ValueError(f"amplitudes must have unit norm, got {norm!r}")
        amp = amp.copy()
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    def __eq__(self, other):
        if not isinstance(other, Ket):
            return NotImplemented
        return self.n_qubits == other.n_qubits and np.array_equal(self.amplitudes, other.amplitudes)

    def to_density_matrix(self) -> "DensityMatrix":
        """Rank-one projector onto this ket, one factor per qubit."""
        entries = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix((2,) * self.n_qubits, entries)

    def marginal(self, keep: Sequence[int]) -> "DensityMatrix":
        """Reduced state of the qubits in ``keep``, in register order.

        Built from the amplitudes alone: with M the 2^k x 2^(n-k) matrix
        whose rows are the kept qubits' basis states, the marginal is
        M M^dagger.  Costs O(4^k 2^(n-k)) rather than the O(4^n) of
        tracing the projector.  This is marginal_stack on one ket.
        """
        entries = marginal_stack(self.amplitudes[None], self.n_qubits, [keep])[0, 0]
        return DensityMatrix((2,) * len(keep), entries)  # the plan rejected a duplicate, so k = len(keep)

    def pair_marginals(self, focus: int, partners: Sequence[int]) -> np.ndarray:
        """The (len(partners), 4, 4) stack of the marginals of (focus, b), b in ``partners``.

        Entry i is bit for bit ``marginal((focus, partners[i])).entries``,
        and the whole stack is validated once by density_spectra.  This is
        marginal_stack on one ket.
        """
        stack = marginal_stack(self.amplitudes[None], self.n_qubits, [(focus, b) for b in partners]).reshape(-1, 4, 4)
        density_spectra(stack)
        return stack


def marginal_stack(amplitudes: np.ndarray, n_qubits: int, keeps: Sequence[Sequence[int]]) -> np.ndarray:
    """The (B, len(keeps), d, d) marginals of each of the B kets in ``amplitudes``, a (B, 2^n) array.

    Every entry of ``keeps`` names k qubits (d = 2^k, the same k for all);
    entry [j, i] is the reduced state of ket j on ``keeps[i]``, kept
    qubits in register order.  It is M M^dagger with M the kept-first
    transpose of the ket as a d x 2^(n-k) matrix; the transposes come
    from _marginal_plan.  M and its conjugate are written into the same
    two (B, d, 2^(n-k)) buffers for every keep, so besides the kets the
    peak is two copies of them.  The stack is not validated;
    density_spectra checks it.
    """
    keeps = tuple(map(tuple, keeps))
    perms = _marginal_plan(n_qubits, keeps)  # also rejects an empty, duplicate or out-of-range keep
    d = 2 ** len(keeps[0]) if keeps else 1
    count = amplitudes.shape[0]
    stack = np.empty((count, len(keeps), d, d), dtype=np.complex128)
    m = np.empty((count, d, amplitudes.shape[1] // d), dtype=np.complex128)
    m_conj = np.empty_like(m)
    kets = amplitudes.reshape((count,) + (2,) * n_qubits)
    m_axes = m.reshape(kets.shape)
    for i, perm in enumerate(perms):
        np.copyto(m_axes, kets.transpose(perm))
        np.conjugate(m, out=m_conj)
        np.matmul(m, m_conj.swapaxes(1, 2), out=stack[:, i])
    return stack


@lru_cache(maxsize=64)
def _marginal_plan(n_qubits: int, keeps: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Per keep, the permutation of the axes of a (B, 2, ..., 2) ket array that puts the
    kept qubits first and then the traced ones, each in register order."""
    # a ValueError (a bad keep) is not cached and raises again on the next call
    perms = []
    for keep in keeps:
        kept = _sorted_keep(keep, n_qubits)
        traced = [q for q in range(n_qubits) if q not in kept]
        perms.append((0,) + tuple(1 + q for q in kept + traced))
    return tuple(perms)


def density_spectra(stack: np.ndarray) -> np.ndarray:
    """Validate a (k, d, d) stack of density matrices; return their spectra, each descending.

    Every matrix must be finite, hermitian (entrywise, 1e-12), of unit
    trace (1e-12) and positive (smallest eigenvalue >= -1e-10).  The
    checks run in that order over the whole stack, and the first that
    fails raises.  Finiteness comes first, so a NaN or infinite entry is
    rejected before any arithmetic on it (inf - inf would warn).
    """
    if not np.isfinite(stack).all():
        raise ValueError("density matrix must be finite")
    # |conj(rho_ij) - rho_ji| is |rho_ij - conj(rho_ji)|; taken in place, it holds one copy of the stack
    deviation = stack.conj()
    deviation -= stack.swapaxes(1, 2)
    if not np.abs(deviation).max(initial=0.0) <= HERMITICITY_ATOL:
        raise ValueError("density matrix must be hermitian")
    tr = np.trace(stack, axis1=1, axis2=2)
    unit = np.abs(tr - 1.0) <= TRACE_ATOL
    if not unit.all():
        raise ValueError(f"density matrix must have unit trace, got {tr[unit.argmin()]!r}")
    spectra = np.linalg.eigvalsh(stack)[:, ::-1]
    smallest = float(spectra[:, -1].min(initial=np.inf))
    if not smallest >= -PSD_ATOL:
        raise ValueError(f"density matrix has negative eigenvalue {smallest!r}")
    return spectra


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Density operator on a register with factor dimensions ``dims``.

    Construction validates the matrix as a stack of one with
    density_spectra: hermiticity (entrywise, 1e-12), unit trace (1e-12)
    and positivity (smallest eigenvalue >= -1e-10).  The spectrum that
    the positivity check computes is kept as ``eigenvalues``, read-only
    and descending.  Two density matrices are equal when their
    dims and entries are.
    """

    dims: tuple[int, ...]
    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid factor dimensions {dims}")
        entries = np.asarray(self.entries, dtype=np.complex128)
        order = int(np.prod(dims))
        if entries.shape != (order, order):
            raise ValueError(
                f"entries have shape {entries.shape}, expected {(order, order)}"
            )
        eigenvalues = density_spectra(entries[None])[0]
        entries = np.ascontiguousarray(entries)
        entries.flags.writeable = False
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    def __eq__(self, other):
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.entries, other.entries)

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    @property
    def order(self) -> int:
        return self.entries.shape[0]


def _sorted_keep(keep: Sequence[int], n_factors: int) -> list[int]:
    kept = sorted(int(i) for i in keep)
    if not kept:
        raise ValueError("must keep at least one factor")
    if len(set(kept)) != len(kept):
        raise ValueError(f"duplicate indices in keep={tuple(keep)}")
    if kept[0] < 0 or kept[-1] >= n_factors:
        raise ValueError(f"keep={tuple(keep)} out of range for {n_factors} factors")
    return kept


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every factor not listed in ``keep``.

    Kept factors stay in their original register order regardless of the
    order they are listed in.  The matrix is reshaped to one row and one
    column axis per factor, and each traced factor's row axis is
    contracted with its column axis.
    """
    kept = _sorted_keep(keep, rho.n_factors)
    k = rho.n_factors
    rows = list(range(k))
    # a traced factor shares its row label, so einsum sums its diagonal
    cols = [k + i if i in kept else i for i in range(k)]
    out = kept + [k + i for i in kept]
    t = rho.entries.reshape(rho.dims + rho.dims)
    dk = int(np.prod([rho.dims[i] for i in kept]))
    reduced = np.einsum(t, rows + cols, out).reshape(dk, dk)
    return DensityMatrix(tuple(rho.dims[i] for i in kept), reduced)


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose one factor in place; returns a raw matrix.

    The result is generally not positive semidefinite, so no
    DensityMatrix is constructed.
    """
    if subsystem < 0 or subsystem >= rho.n_factors:
        raise ValueError(f"subsystem {subsystem} out of range for dims {rho.dims}")
    k = rho.n_factors
    t = rho.entries.reshape(rho.dims + rho.dims)
    t = t.swapaxes(subsystem, k + subsystem)
    return np.ascontiguousarray(t.reshape(rho.order, rho.order))


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(m), compute_uv=False).sum())


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), clamped to [0, 1]."""
    p = float(np.vdot(rho.entries, rho.entries).real)
    return min(max(p, 0.0), 1.0)


def physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# the least int that float() rounds past the largest float, and so rejects
_INT_OVERFLOW = 2**1024 - 2**970


def _is_pair(pair) -> bool:
    # JSON true/false parse as bool, an int subclass, but they are no amplitude
    return type(pair) is list and len(pair) == 2 and type(pair[0]) in (int, float) and type(pair[1]) in (int, float)


def load_state(path) -> Ket:
    """Read a ket from a JSON state file.

    Expected schema: ``{"n_qubits": n, "amplitudes": [[re, im], ...]}``
    with 2**n amplitude pairs.  A norm deviating from 1 by at most 1e-6
    is renormalized; larger deviations are rejected.  Three passes over
    the types and lengths check that every entry is a pair of numbers,
    and one np.fromiter over the flattened pairs converts them all; the
    first malformed or overflowing pair is named by index.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    del text  # not read again; freed here, it stays out of the heap peak of the conversion below
    if not isinstance(data, dict):
        raise StateFileError(f"{path}: top level must be an object")
    try:
        n = data["n_qubits"]
        raw = data["amplitudes"]
    except KeyError as exc:
        raise StateFileError(f"{path}: missing key {exc.args[0]!r}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise StateFileError(f"{path}: n_qubits must be an integer, got {n!r}")
    if n < 1:
        raise StateFileError(f"{path}: n_qubits must be positive, got {n}")
    found = len(raw) if isinstance(raw, list) else type(raw).__name__
    # a list holds fewer than 2^63 items, so 2**n is built and printed only below that
    if not isinstance(raw, list) or n >= 63 or len(raw) != 2**n:
        expected = 2**n if n < 63 else f"2^{n}"
        raise StateFileError(f"{path}: expected {expected} amplitude pairs, got {found}")
    # three C-level passes: every entry a list, each of length two, every number an int or a float
    if not (set(map(type, raw)) == {list} and set(map(len, raw)) == {2}
            and set(map(type, chain.from_iterable(raw))) <= {int, float}):
        i = next(i for i, pair in enumerate(raw) if not _is_pair(pair))
        raise StateFileError(f"{path}: amplitude {i} must be a [re, im] pair, got {raw[i]!r}")
    try:
        # the (re, im) pairs in float64 are the complex128 amplitudes; ints round as float() rounds them
        amp = np.fromiter(chain.from_iterable(raw), np.float64, 2 * len(raw)).view(np.complex128)
    except OverflowError:  # only an int overflows: a JSON float that large parses as inf
        i = next(i for i, pair in enumerate(raw) if any(type(v) is int and abs(v) >= _INT_OVERFLOW for v in pair))
        raise StateFileError(f"{path}: amplitude {i} is beyond the float range") from None
    norm = float(np.linalg.norm(amp))
    if abs(norm - 1.0) > STATE_FILE_NORM_ATOL:
        raise StateFileError(
            f"{path}: amplitude norm {norm!r} deviates from 1 by more than "
            f"{STATE_FILE_NORM_ATOL}"
        )
    if norm == 0.0 or not math.isfinite(norm):
        raise StateFileError(f"{path}: amplitude norm {norm!r} is not usable")
    return Ket(n, amp / norm)


def save_state(ket: Ket, path) -> None:
    """Write a ket to the JSON state file format accepted by load_state.

    The file is ``{"n_qubits": n, "amplitudes": [[re, im], ...]}`` on one
    line, each number written as Python's repr of the float, and a newline.
    """
    pairs = ket.amplitudes.view(np.float64).reshape(-1, 2).tolist()
    text = json.dumps({"n_qubits": ket.n_qubits, "amplitudes": pairs}) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
