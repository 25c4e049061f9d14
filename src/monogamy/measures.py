"""Entanglement measures for pure multiqubit cuts and two-qubit mixed states.

Each measure is two maps: a pure-state cut value read from the side-A reduced
state, ``cut_value_of_marginal(kind, rho_a)`` or ``pure_cut_value(kind, psi,
side_a)`` with the cut named by its side-A qubits; and a two-qubit closed form
in the pair concurrence C, ``value_of_concurrence(kind, c)`` or ``pair_value(kind, rho)``.

The pair concurrence has one spin-flip kernel, spin_flip_concurrences, which
takes a (k, 4, 4) stack of two-qubit states and returns their k concurrences
from one eigvals call; concurrence_two_qubit is the same kernel on one matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qstate import (
    DensityMatrix,
    Ket,
    partial_transpose,
    trace_norm,
)

DOMAIN_ATOL = 1e-12
EIG_CLIP_ATOL = 1e-10

# exponent floors: smallest power for which the weighted bounds apply; each
# is also the gamma of the ladder's per-step factor 2^(alpha/gamma) - 1
_ALPHA_FLOORS = {
    "concurrence": 2.0,
    "eof": math.sqrt(2.0),
    "cren": 2.0,
    "tsallis": 1.0,
}

# sign pattern s_i s_j of the two-qubit spin flip, s = (-1, 1, 1, -1) the antidiagonal of sigma_y (x) sigma_y
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])


@dataclass(frozen=True)
class MeasureKind:
    """Tag selecting one of the supported measures.

    ``q`` is the entropic order and is meaningful (and required) only for
    the tsallis measure, where the two-qubit closed form is valid for
    q in [2, 3].
    """

    name: str
    q: float | None = None

    def __post_init__(self):
        if self.name not in _ALPHA_FLOORS:
            raise ValueError(f"unknown measure {self.name!r}, expected one of {tuple(_ALPHA_FLOORS)}")
        if self.name == "tsallis":
            if self.q is None:
                raise ValueError("tsallis measure requires q")
            if not (2.0 - DOMAIN_ATOL <= self.q <= 3.0 + DOMAIN_ATOL):
                raise ValueError(f"q={self.q!r} outside the supported range [2, 3]")
        elif self.q is not None:
            raise ValueError(f"q is only meaningful for tsallis, not {self.name}")

    @property
    def alpha_floor(self) -> float:
        return _ALPHA_FLOORS[self.name]


CONCURRENCE = MeasureKind("concurrence")
EOF = MeasureKind("eof")
CREN = MeasureKind("cren")


def tsallis_kind(q: float) -> MeasureKind:
    return MeasureKind("tsallis", float(q))


def _unit_interval(x: float, what: str) -> float:
    if not (-DOMAIN_ATOL <= x <= 1.0 + DOMAIN_ATOL):
        raise ValueError(f"{what}={x!r} outside [0, 1]")
    return min(max(x, 0.0), 1.0)


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1 - x) log2 (1 - x), with 0 log 0 = 0."""
    x = _unit_interval(float(x), "x")
    h = 0.0
    if x > 0.0:
        h -= x * math.log2(x)
    if x < 1.0:
        h -= (1.0 - x) * math.log2(1.0 - x)
    return h


def eof_f(x: float) -> float:
    """f(x) = H((1 + sqrt(1 - x)) / 2) on [0, 1].

    Feeding x = C^2 turns a two-qubit concurrence into the matching
    entanglement of formation.
    """
    x = _unit_interval(float(x), "x")
    return binary_entropy((1.0 + math.sqrt(1.0 - x)) / 2.0)


def tsallis_g(q: float, x: float) -> float:
    """g_q(x) = [1 - ((1+s)/2)^q - ((1-s)/2)^q] / (q - 1) with s = sqrt(1 - x).

    Valid for q in [2, 3]; feeding x = C^2 turns a two-qubit concurrence
    into the matching tsallis-q entanglement.
    """
    q = float(q)
    if not (2.0 - DOMAIN_ATOL <= q <= 3.0 + DOMAIN_ATOL):
        raise ValueError(f"q={q!r} outside the supported range [2, 3]")
    x = _unit_interval(float(x), "x")
    s = math.sqrt(1.0 - x)
    hi = (1.0 + s) / 2.0
    lo = (1.0 - s) / 2.0
    return (1.0 - hi**q - lo**q) / (q - 1.0)


def concurrence_pure(psi: Ket, side_a: Sequence[int]) -> float:
    """sqrt(2 (1 - Tr rho_A^2)) across the cut of ``side_a`` against the rest."""
    return pure_cut_value(CONCURRENCE, psi, side_a)


def spin_flip_mus(rho: np.ndarray) -> np.ndarray:
    """Descending square roots of the spin-flip product spectrum, per 4x4 matrix.

    ``rho`` is one matrix or a (..., 4, 4) stack, all spectra taken by one
    eigvals call.  The flipped matrix is S rho* S with S = sigma_y (x)
    sigma_y, written entrywise as s_i s_j conj(rho)[3-i, 3-j].  Eigenvalues
    of rho @ flipped are real and nonnegative up to rounding; tiny negative
    parts (within 1e-10 of zero for valid density input) are clipped
    before the root.
    """
    flipped = np.conjugate(rho[..., ::-1, ::-1])
    flipped *= _FLIP_SIGNS
    product = rho @ flipped
    del flipped  # a stack fewer while the spectra are taken
    ev = np.linalg.eigvals(product)
    mus = np.sqrt(np.maximum(ev.real, 0.0))
    mus.sort()
    return mus[..., ::-1]


def spin_flip_concurrences(rho: np.ndarray) -> np.ndarray:
    """Spin-flip concurrence max(0, mu1 - mu2 - mu3 - mu4) of each matrix in a (..., 4, 4) stack."""
    mus = spin_flip_mus(rho)
    c = mus[..., 0] - mus[..., 1] - mus[..., 2] - mus[..., 3]
    return np.where(c > 0.0, c, 0.0)  # as max(0.0, c): a NaN or a -0.0 reads 0.0


def concurrence_two_qubit(rho: DensityMatrix) -> float:
    """Spin-flip concurrence max(0, mu1 - mu2 - mu3 - mu4).

    The mu_i are the descending square roots of the eigenvalues of
    rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y); this is
    spin_flip_concurrences on one matrix.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"two-qubit closed form needs dims (2, 2), got {rho.dims}")
    return float(spin_flip_concurrences(rho.entries))


def negativity(rho: DensityMatrix, subsystem: int) -> float:
    """||rho^(T_subsystem)||_1 - 1 across subsystem vs the rest.

    Normalized so a maximally entangled two-qubit pair gives 1.
    """
    val = trace_norm(partial_transpose(rho, subsystem)) - 1.0
    if val < -EIG_CLIP_ATOL:
        raise ValueError(f"trace norm below 1 ({1.0 + val!r}); input is not a state")
    return max(val, 0.0)


def cut_values(kind: MeasureKind, entries: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Value of ``kind`` on each of B pure states, read from their side-A reduced states.

    ``entries`` is the (B, d, d) stack of side-A reduced states and
    ``spectra`` their (B, d) descending spectra.  Concurrence is
    sqrt(2 (1 - Tr rho_A^2)); the others read the reduced spectrum: the
    base-2 von Neumann entropy for EOF, (1 - Tr rho_A^q) / (q - 1) for
    tsallis, and (Tr sqrt(rho_A))^2 - 1 for the convex-roof extended
    negativity.  Each value is bit for bit the one-state formula.
    """
    if kind.name == "concurrence":
        return np.array([math.sqrt(max(2.0 * (1.0 - _purity(e)), 0.0)) for e in entries])
    # eigenvalues within rounding of zero enter entropies and roots as 0
    lam = np.where(spectra < 0.0, 0.0, spectra)
    if kind.name == "eof":
        # 0 log 0 = 0: each spectrum sums its p positive terms, which lead it, as one length-p sum
        positive = lam > 0.0
        terms = lam * np.log2(np.where(positive, lam, 1.0))
        positive = positive.sum(axis=1)
        out = -terms.sum(axis=1)  # the sum of the states whose every eigenvalue is positive
        for p in set(positive.tolist()) - {lam.shape[1]}:
            rows = positive == p
            out[rows] = -terms[rows, :p].sum(axis=1)
        return out
    if kind.name == "tsallis":
        q = float(kind.q)
        return (1.0 - (lam**q).sum(axis=1)) / (q - 1.0)
    return np.maximum(np.sqrt(lam).sum(axis=1) ** 2 - 1.0, 0.0)


def _purity(entries: np.ndarray) -> float:
    # qstate.purity on a matrix of entries
    return min(max(float(np.vdot(entries, entries).real), 0.0), 1.0)


def cut_value_of_marginal(kind: MeasureKind, rho_a: DensityMatrix) -> float:
    """Value of ``kind`` on a pure state whose side-A reduced state is ``rho_a``: cut_values on one state."""
    return float(cut_values(kind, rho_a.entries[None], rho_a.eigenvalues[None])[0])


def pure_cut_value(kind: MeasureKind, psi: Ket, side_a: Sequence[int]) -> float:
    """Value of ``kind`` on a pure state across the cut of ``side_a`` against the rest."""
    if set(side_a) >= set(range(psi.n_qubits)):
        raise ValueError(f"side A {tuple(side_a)} holds every qubit, so side B is empty")
    return cut_value_of_marginal(kind, psi.marginal(side_a))


def value_of_concurrence(kind: MeasureKind, c: float) -> float:
    """Two-qubit value of ``kind`` from the pair concurrence ``c``.

    Concurrence and CREN take C itself, EOF takes eof_f(C^2) and tsallis
    takes g_q(C^2).
    """
    if kind.name == "eof":
        return eof_f(c * c)
    if kind.name == "tsallis":
        return tsallis_g(kind.q, c * c)
    return c


def values_of_concurrence(kind: MeasureKind, cs: list[float]) -> list[float]:
    """value_of_concurrence of each of ``cs``; concurrence and CREN take C itself, so ``cs`` is returned."""
    if kind.name in ("eof", "tsallis"):
        return [value_of_concurrence(kind, c) for c in cs]
    return cs


def pair_value(kind: MeasureKind, rho: DensityMatrix) -> float:
    """Value of ``kind`` on a two-qubit mixed state via its closed form."""
    return value_of_concurrence(kind, concurrence_two_qubit(rho))
