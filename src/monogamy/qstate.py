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
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
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
        tracing the projector.
        """
        kept = _sorted_keep(keep, self.n_qubits)
        m = self._kept_first(kept).reshape(2 ** len(kept), -1)
        return DensityMatrix((2,) * len(kept), m @ m.conj().T)

    def pair_marginals(self, focus: int, partners: Sequence[int]) -> np.ndarray:
        """The (len(partners), 4, 4) stack of the marginals of (focus, b), b in ``partners``.

        Entry i is bit for bit ``marginal((focus, partners[i])).entries``,
        and the whole stack is validated once by density_spectra.  M and
        its conjugate are written into the same two buffers for every
        pair, so the peak stays at one marginal's.
        """
        stack = np.empty((len(partners), 4, 4), dtype=np.complex128)
        m = np.empty((4, self.amplitudes.size // 4), dtype=np.complex128)
        m_conj = np.empty_like(m)
        for i, b in enumerate(partners):
            view = self._kept_first(_sorted_keep((focus, b), self.n_qubits))
            np.copyto(m.reshape(view.shape), view)
            np.conjugate(m, out=m_conj)
            np.matmul(m, m_conj.T, out=stack[i])
        density_spectra(stack)
        return stack

    def _kept_first(self, kept: list[int]) -> np.ndarray:
        # one axis per qubit, the kept ones first, then the traced ones in register order
        traced = [i for i in range(self.n_qubits) if i not in kept]
        return self.amplitudes.reshape((2,) * self.n_qubits).transpose(kept + traced)


def density_spectra(stack: np.ndarray) -> np.ndarray:
    """Validate a (k, d, d) stack of density matrices; return their spectra, each descending.

    Every matrix must be hermitian (entrywise, 1e-12), of unit trace
    (1e-12) and positive (smallest eigenvalue >= -1e-10).  The checks run
    in that order over the whole stack, and the first that fails raises.
    Each check passes only when its deviation is within tolerance, so a
    NaN entry fails.
    """
    if not np.abs(stack - stack.conj().swapaxes(1, 2)).max(initial=0.0) <= HERMITICITY_ATOL:
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
    is renormalized; larger deviations are rejected.  One scan checks
    that every entry is a pair of numbers, and one numpy call decodes
    them all; the first malformed or overflowing pair is named by index.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
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
    if not all(map(_is_pair, raw)):
        i = next(i for i, pair in enumerate(raw) if not _is_pair(pair))
        raise StateFileError(f"{path}: amplitude {i} must be a [re, im] pair, got {raw[i]!r}")
    try:
        # the (re, im) rows in float64 are the complex128 amplitudes; ints round as float() rounds them
        amp = np.array(raw, dtype=np.float64).view(np.complex128).reshape(-1)
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
    """Write a ket to the JSON state file format accepted by load_state."""
    data = {
        "n_qubits": ket.n_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in ket.amplitudes],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")
