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
a density matrix is reshaped to one row and one column axis per qubit
and its traced qubits are contracted with einsum.  The two-qubit
marginals of a focus qubit come as one (k, 4, 4) stack.  A register's size
is read from its array: 2^n amplitudes, rows 2^n wide or a 2^n x 2^n matrix
(_register_size).  A qubit's cut
needs no marginal: _cut_concurrences reads C(A | rest) from the Gram
matrix of the ket's halves at the focus, and checks the kets once.

What a marginal needs from the register alone, each keep's validated
kept-first axis permutation and, while the keeps hold at most 2^15
amplitudes (the pair keeps of up to 11 qubits), the gather index that
applies all of them with one take, is planned once per (register size,
keeps) and cached (_marginal_plan), so repeated reports on registers of
one shape only gather, conjugate and multiply.  _marginal_factors takes
the same gather for the kept-first matrices M themselves.
"""
from __future__ import annotations

import json
import math
import os
import reprlib
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

# a ket within NORM_ATOL of unit norm has ||psi||^2 within 5e-13 of 1, and so leaves half of
# TRACE_ATOL to the rounding of a marginal's trace: every marginal of a Ket passes DensityMatrix's checks
NORM_ATOL = 2.5e-13
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
# the row check of _cut_concurrences: a row within NORM_ATOL of unit norm (Ket's bound) has ||row||^2
# within 2 NORM_ATOL + NORM_ATOL^2, just over 5e-13, of 1; 1e-13 more covers rounding, and the 4e-13 left below
# TRACE_ATOL covers a marginal's trace, the same sum in another order, so its marginals pass DensityMatrix's checks
SQUARED_NORM_ATOL = 6e-13
PSD_ATOL = 1e-10
STATE_FILE_NORM_ATOL = 1e-6


class StateFileError(ValueError):
    """Raised when a state file cannot be parsed into a valid ket."""


def checked_int(value, what: str) -> int:
    """``value`` as an int: an int or a numpy integer passes; anything else, a bool or a float or
    string of integral value among them, raises ValueError naming ``what`` and the value."""
    if type(value) is int or isinstance(value, np.integer):  # type(True) is bool
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class Ket:
    """Pure state of ``n_qubits`` qubits with unit-norm amplitudes, compared by value.

    n is read from the amplitudes, a 1-D array of 2^n with n >= 1.
    The norm must lie within NORM_ATOL (2.5e-13) of 1, tighter than the
    TRACE_ATOL (1e-12) that DensityMatrix asks of a marginal's trace, so
    that the analysis of every ket accepted here passes its own checks.
    """

    amplitudes: np.ndarray
    n_qubits: int = field(init=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        n_qubits = _register_size(amp, "(2^n,)")
        norm = _norm(amp)
        if not abs(norm - 1.0) <= NORM_ATOL:  # written so that a NaN norm fails
            raise ValueError(f"amplitudes must have unit norm, got {norm!r}")
        amp = amp.copy()
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "n_qubits", n_qubits)

    def __eq__(self, other):
        if not isinstance(other, Ket):
            return NotImplemented
        return np.array_equal(self.amplitudes, other.amplitudes)

    def to_density_matrix(self) -> "DensityMatrix":
        """Rank-one projector onto this ket."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


def _norm(amplitudes: np.ndarray) -> float:
    """np.linalg.norm of a 1-D complex128 array, bit for bit, without its Python-level wrapper: the same ravel
    (a copy only of a strided array), two strided dots of the real and imaginary parts and root.  The views
    die with the call."""
    flat = amplitudes.ravel(order="K")
    real, imag = flat.real, flat.imag
    return math.sqrt(real.dot(real) + imag.dot(imag))


def _register_size(array: np.ndarray, form: str) -> int:
    """The n of a register, read from the width 2^n of the last axis of ``array``, whose shape ``form`` names:
    "(2^n,)" for a ket, "(B, 2^n)" for B kets in rows, "(2^n, 2^n)" for a density matrix.  Any other shape,
    or n = 0, raises ValueError naming the shape."""
    width = array.shape[-1] if array.ndim else 0
    leading = {"(2^n,)": (), "(B, 2^n)": array.shape[:1], "(2^n, 2^n)": (width,)}[form]
    if array.shape != leading + (width,) or width < 2 or width & (width - 1):
        raise ValueError(f"expected a {form} array with n >= 1, got shape {array.shape}")
    return width.bit_length() - 1


def marginal_stack(amplitudes: np.ndarray, keeps: Sequence[Sequence[int]]) -> np.ndarray:
    """The (B, len(keeps), d, d) marginals of each of the B kets in ``amplitudes``, a (B, 2^n) array, B >= 1.

    Every entry of ``keeps`` names k of the n qubits the row width gives
    (d = 2^k, the same k for all); entry [j, i] is the reduced state of
    ket j on ``keeps[i]``, kept qubits in register order.  It is M M^dagger
    with M the kept-first transpose of the ket as a d x 2^(n-k) matrix.
    Where _marginal_plan holds a gather index, one take copies the M of
    _GATHER_KETS // B keeps, at least one, and one matmul multiplies them
    by their conjugates.  On a register too wide for an index, each M is
    copied from the transposed kets into the same two (B, d, 2^(n-k))
    buffers.  Besides the kets, the peak is two copies of them for a batch
    of three or more, and at most 2 * _GATHER_KETS kets' worth otherwise.
    The stack is not validated; the row check of _cut_concurrences covers it.
    """
    n_qubits = _register_size(amplitudes, "(B, 2^n)")
    keeps = tuple(map(tuple, keeps))
    for q in chain.from_iterable(keeps):  # before the plan lookup: 1.0 would find the plan of 1
        checked_int(q, "keep entry")
    perms, index = _marginal_plan(n_qubits, keeps)  # also rejects an empty, duplicate or out-of-range keep
    d = 2 ** len(keeps[0]) if keeps else 1
    count = amplitudes.shape[0]
    if count == 0:
        raise ValueError("empty batch: need at least one ket")
    stack = np.empty((count, len(keeps), d, d), dtype=np.complex128)
    if index is not None:
        step = max(1, _GATHER_KETS // count)  # keeps per take: one keep's M is as large as the B kets
        for start in range(0, len(keeps), step):
            m = amplitudes.take(index[start:start + step], axis=1)  # (B, keeps, d, 2^(n-k))
            np.matmul(m, np.conjugate(m).swapaxes(2, 3), out=stack[:, start:start + step])
        return stack
    m = np.empty((count, d, amplitudes.shape[1] // d), dtype=np.complex128)
    m_conj = np.empty_like(m)
    kets = amplitudes.reshape((count,) + (2,) * n_qubits)
    m_axes = m.reshape(kets.shape)
    for i, perm in enumerate(perms):
        np.copyto(m_axes, kets.transpose(perm))
        np.conjugate(m, out=m_conj)
        np.matmul(m, m_conj.swapaxes(1, 2), out=stack[:, i])
    return stack


# a gather index holds one intp per amplitude and keep; a register whose keeps need more (pair keeps
# from 12 qubits on) copies each M instead, where the copy's call costs little beside its arithmetic
_GATHER_ENTRIES = 2**15
# kets' worth of M (and as many of its conjugate) that one take of marginal_stack may gather: a
# report's six stay below the heap of decoding its state file, about ten kets of Python floats
_GATHER_KETS = 3


@lru_cache(maxsize=64)
def _marginal_plan(n_qubits: int, keeps: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple[int, ...], ...], np.ndarray | None]:
    """Per keep, the permutation of the axes of a (B, 2, ..., 2) ket array that puts the
    kept qubits first and then the traced ones, each in register order; and, where the keeps
    hold at most _GATHER_ENTRIES amplitudes, the read-only (K, d, 2^n / d) gather index whose
    entry [i, r, c] is the position in a ket of keep i's M[r, c]."""
    # a ValueError (a bad keep) is not cached and raises again on the next call
    orders = []
    for keep in keeps:
        kept = _sorted_keep(keep, n_qubits)
        orders.append(kept + [q for q in range(n_qubits) if q not in kept])
    sizes = sorted({len(keep) for keep in keeps})
    if len(sizes) > 1:  # one stack has one marginal size
        raise ValueError(f"keeps must all have one size, got sizes {sizes}")
    perms = tuple((0,) + tuple(1 + q for q in order) for order in orders)
    if not keeps or len(keeps) << n_qubits > _GATHER_ENTRIES:
        return perms, None
    positions = np.arange(2**n_qubits).reshape((2,) * n_qubits)
    index = np.array([positions.transpose(order) for order in orders]).reshape(len(keeps), 2 ** len(keeps[0]), -1)
    index.flags.writeable = False
    return perms, index


def _marginal_factors(amplitudes: np.ndarray, keeps: Sequence[Sequence[int]]) -> np.ndarray:
    """The (B, K, d, 2^(n-k)) kept-first matrices M of marginal_stack(amplitudes, keeps), each marginal
    M M^dagger, by one take of the same cached gather index.  Unchecked kets, and int keep entries (1.0
    would find the plan of 1), of a register narrow enough to have the index; the plan rejects a bad keep."""
    return amplitudes.take(_marginal_plan(_register_size(amplitudes, "(B, 2^n)"), tuple(map(tuple, keeps)))[1], axis=1)


def _cut_concurrences(amplitudes: np.ndarray, focus: int) -> np.ndarray:
    """The (B,) cut concurrences C(focus | rest) of the kets in the rows of ``amplitudes``, a (B, 2^n) array.

    First the rows are checked, once: at least one, every amplitude finite
    (before any arithmetic, which would warn on inf - inf), and ||row||^2
    within SQUARED_NORM_ATOL of 1.  That is all DensityMatrix would check of
    their marginals: M M^dagger is hermitian and positive by construction.
    With psi0, psi1 the halves of a ket on which the focus reads 0 and 1,
    C = 2 sqrt(det rho_A) = 2 sqrt(max(0, ||psi0||^2 ||psi1||^2 - |<psi0, psi1>|^2)),
    all four products from one vecdot over views of the rows, with no copy.
    C keeps its relative accuracy where a half is small, near a product
    focus; where the halves are nearly parallel, the rounding of the two
    products (about 1e-16) enters under the root: C is good to about 2e-8.
    """
    count = len(amplitudes)
    if count == 0:
        raise ValueError("empty batch: need at least one ket")
    if not np.logical_and.reduce(np.isfinite(amplitudes), axis=None):
        raise ValueError("kets must be finite")
    halves = amplitudes.reshape(count, 2**focus, 2, -1)  # [ket, qubits before the focus, focus, qubits after]
    if halves.shape[1] > halves.shape[3]:
        halves = halves.transpose(0, 3, 2, 1)  # vecdot runs along the longer axis, the sum takes the other
    gram = np.add.reduce(np.vecdot(halves[:, :, :, None], halves[:, :, None]), axis=1)  # [j, a, b] = <psi_a, psi_b>
    norm0, norm1, overlap = gram[:, 0, 0].real, gram[:, 1, 1].real, gram[:, 0, 1]
    squared = norm0 + norm1
    unit = np.abs(squared - 1.0) <= SQUARED_NORM_ATOL
    if not np.logical_and.reduce(unit, axis=None):
        raise ValueError(f"kets must have unit norm, got a squared norm of {float(squared[unit.argmin()])!r}")
    det = norm0 * norm1 - (overlap.real**2 + overlap.imag**2)
    return 2.0 * np.sqrt(np.maximum(det, 0.0))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Density operator on ``n_qubits`` qubits, a (2^n, 2^n) matrix with n >= 1, compared by value.

    Construction checks that the matrix is finite, hermitian (entrywise,
    1e-12), of unit trace (1e-12) and positive (smallest eigenvalue >=
    -1e-10), in that order, and the first check that fails raises.
    Finiteness comes first, so a NaN or infinite entry is rejected before
    any arithmetic on it (inf - inf would warn).  The spectrum that the
    positivity check computes is kept as ``eigenvalues``, read-only and
    descending.
    """

    entries: np.ndarray
    n_qubits: int = field(init=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.complex128)
        n_qubits = _register_size(entries, "(2^n, 2^n)")
        if not np.logical_and.reduce(np.isfinite(entries), axis=None):
            raise ValueError("density matrix must be finite")
        # |conj(rho_ij) - rho_ji| is |rho_ij - conj(rho_ji)|; taken in place, it holds one copy of the matrix
        deviation = np.conjugate(entries)
        deviation -= entries.T
        if not np.maximum.reduce(np.abs(deviation), axis=None) <= HERMITICITY_ATOL:
            raise ValueError("density matrix must be hermitian")
        del deviation
        trace = np.add.reduce(entries.diagonal())
        if not abs(trace - 1.0) <= TRACE_ATOL:
            raise ValueError(f"density matrix must have unit trace, got {float(trace.real)!r}")
        eigenvalues = np.linalg.eigvalsh(entries)[::-1]
        if not eigenvalues[-1] >= -PSD_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {float(eigenvalues[-1])!r}")
        entries = np.ascontiguousarray(entries)
        entries.flags.writeable = False
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    def __eq__(self, other):
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)


def _sorted_keep(keep: Sequence[int], n_factors: int) -> list[int]:
    kept = sorted(checked_int(i, "keep entry") for i in keep)
    if not kept:
        raise ValueError("must keep at least one factor")
    if len(set(kept)) != len(kept):
        raise ValueError(f"duplicate indices in keep={tuple(keep)}")
    if kept[0] < 0 or kept[-1] >= n_factors:
        raise ValueError(f"keep={tuple(keep)} out of range for {n_factors} factors")
    return kept


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every qubit not listed in ``keep``.

    Kept qubits stay in their original register order regardless of the
    order they are listed in.  The matrix is reshaped to one row and one
    column axis per qubit, and each traced qubit's row axis is contracted
    with its column axis.
    """
    k = rho.n_qubits
    kept = _sorted_keep(keep, k)
    rows = list(range(k))
    # a traced qubit shares its row label, so einsum sums its diagonal
    cols = [k + i if i in kept else i for i in range(k)]
    out = kept + [k + i for i in kept]
    reduced = np.einsum(rho.entries.reshape((2,) * 2 * k), rows + cols, out)
    return DensityMatrix(reduced.reshape(2 ** len(kept), -1))


def physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# the least int that float() rounds past the largest float, and so rejects
_INT_OVERFLOW = 2**1024 - 2**970


# a bad value of a state file is quoted as reprlib abbreviates it, which bounds a long string, int or
# list and a deep nesting, and cut to this many characters, which bounds many short items nested a few deep
_QUOTE_CHARS = 50


def _quoted(value) -> str:
    text = reprlib.repr(value)
    return text if len(text) <= _QUOTE_CHARS else text[:_QUOTE_CHARS - 3] + "..."


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text)  # with the file closed, its read buffer stays out of the heap peak
    except json.JSONDecodeError as exc:
        raise StateFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:  # json's decoder recurses once per nested array or object
        raise StateFileError(f"{path}: JSON nested too deeply to decode") from None
    except ValueError as exc:  # bytes that are no UTF-8, or an integer literal past int()'s digit limit
        raise StateFileError(f"{path}: {exc}") from None
    del text  # not read again; freed here, it stays out of the heap peak of the conversion below
    if not isinstance(data, dict):
        raise StateFileError(f"{path}: top level must be an object")
    try:
        n = data["n_qubits"]
        raw = data["amplitudes"]
    except KeyError as exc:
        raise StateFileError(f"{path}: missing key {exc.args[0]!r}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise StateFileError(f"{path}: n_qubits must be an integer, got {_quoted(n)}")
    if n < 1:
        raise StateFileError(f"{path}: n_qubits must be positive, got {_quoted(n)}")
    found = len(raw) if isinstance(raw, list) else type(raw).__name__
    # a list holds fewer than 2^63 items, so 2**n is built and printed only below that
    if not isinstance(raw, list) or n >= 63 or len(raw) != 2**n:
        expected = 2**n if n < 63 else f"2^{n}"
        raise StateFileError(f"{path}: expected {expected} amplitude pairs, got {found}")
    # three C-level passes: every entry a list, each of length two, every number an int or a float
    if not (set(map(type, raw)) == {list} and set(map(len, raw)) == {2}
            and set(map(type, chain.from_iterable(raw))) <= {int, float}):
        i = next(i for i, pair in enumerate(raw) if not _is_pair(pair))
        raise StateFileError(f"{path}: amplitude {i} must be a [re, im] pair, got {_quoted(raw[i])}")
    try:
        # the (re, im) pairs in float64 are the complex128 amplitudes; ints round as float() rounds them
        amp = np.fromiter(chain.from_iterable(raw), np.float64, 2 * len(raw)).view(np.complex128)
    except OverflowError:  # only an int overflows: a JSON float that large parses as inf
        i = next(i for i, pair in enumerate(raw) if any(type(v) is int and abs(v) >= _INT_OVERFLOW for v in pair))
        raise StateFileError(f"{path}: amplitude {i} is beyond the float range") from None
    norm = _norm(amp)
    if abs(norm - 1.0) > STATE_FILE_NORM_ATOL:
        raise StateFileError(
            f"{path}: amplitude norm {norm!r} deviates from 1 by more than "
            f"{STATE_FILE_NORM_ATOL}"
        )
    if norm == 0.0 or not math.isfinite(norm):
        raise StateFileError(f"{path}: amplitude norm {norm!r} is not usable")
    return Ket(amp / norm)


def save_state(ket: Ket, path) -> None:
    """Write a ket to the JSON state file format accepted by load_state.

    The file is ``{"n_qubits": n, "amplitudes": [[re, im], ...]}`` on one
    line, each number written as Python's repr of the float, and a newline.
    """
    pairs = ket.amplitudes.view(np.float64).reshape(-1, 2).tolist()
    text = json.dumps({"n_qubits": ket.n_qubits, "amplitudes": pairs}) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
