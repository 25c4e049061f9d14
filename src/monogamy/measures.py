"""Entanglement measures for pure multiqubit cuts and two-qubit mixed states.

Each measure is two maps: a pure-state cut value read from the side-A reduced
state, ``cut_values(kind, entries, spectra)`` on a batch of reduced states or
``pure_cut_value(kind, psi, side_a)`` on one ket with the cut named by its
side-A qubits; and a two-qubit closed form in the pair concurrence C,
``values_of_concurrence(kind, cs)`` on a list of concurrences or
``pair_value(kind, rho)``.  The negativity is the paper's N_c, the convex-roof
extended negativity (CREN), which cut_values reads from a pure cut's reduced
spectrum.

The closed forms f(C^2) of EOF and g_q(C^2) of tsallis have one
implementation: the list maps behind values_of_concurrence, one list
comprehension over a whole batch in scalar math arithmetic.  eof_f and
tsallis_g are those maps on one value.

The pair concurrence has one kernel, spin_flip_concurrences, which takes a
(k, 4, 4) stack of two-qubit states with their spectra and returns their k
concurrences.  The spectra bound each concurrence from above; a matrix whose
bound proves C = 0 skips the spin flip, and the others share one eigvals
call.  concurrence_two_qubit is the same kernel on one matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qstate import DensityMatrix, Ket

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


def _unit_interval(x: float) -> float:
    if not (-DOMAIN_ATOL <= x <= 1.0 + DOMAIN_ATOL):
        raise ValueError(f"x={x!r} outside [0, 1]")
    return min(max(x, 0.0), 1.0)


def _unit_values(xs: list[float]) -> list[float]:
    """_unit_interval of each of ``xs``: the first one outside [0, 1] raises, the others are clamped."""
    if min(xs, default=0.0) >= 0.0 and max(xs, default=0.0) <= 1.0 and not math.isnan(sum(xs)):
        return xs  # none outside [0, 1], so clamping would change none
    return [_unit_interval(x) for x in xs]


def _eof_values(xs: list[float]) -> list[float]:
    # f(x) = H(p), p = (1 + sqrt(1 - x)) / 2 in [1/2, 1], summed as -p log2 p - (1-p) log2 (1-p); H(1) = 0.0
    return [0.0 - p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p) if (p := (1.0 + math.sqrt(1.0 - x)) / 2.0) < 1.0
            else 0.0 for x in _unit_values(xs)]


def _tsallis_values(q: float, xs: list[float]) -> list[float]:
    # g_q(x) with s = sqrt(1 - x): [1 - ((1+s)/2)^q - ((1-s)/2)^q] / (q - 1), by Python's pow
    q_minus_1 = q - 1.0
    return [(1.0 - ((1.0 + (s := math.sqrt(1.0 - x))) / 2.0) ** q - ((1.0 - s) / 2.0) ** q) / q_minus_1
            for x in _unit_values(xs)]


def eof_f(x: float) -> float:
    """f(x) = H((1 + sqrt(1 - x)) / 2) on [0, 1].

    Feeding x = C^2 turns a two-qubit concurrence into the matching
    entanglement of formation.  This is the batch map of
    values_of_concurrence on one value.
    """
    return _eof_values([float(x)])[0]


def tsallis_g(q: float, x: float) -> float:
    """g_q(x) = [1 - ((1+s)/2)^q - ((1-s)/2)^q] / (q - 1) with s = sqrt(1 - x).

    Valid for q in [2, 3]; feeding x = C^2 turns a two-qubit concurrence
    into the matching tsallis-q entanglement.  This is the batch map of
    values_of_concurrence on one value.
    """
    q = tsallis_kind(q).q  # MeasureKind holds the one check of the supported range
    return _tsallis_values(q, [float(x)])[0]


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


def spin_flip_concurrences(rho: np.ndarray, spectra: np.ndarray | None = None) -> np.ndarray:
    """Spin-flip concurrence max(0, mu1 - mu2 - mu3 - mu4) of each matrix in a (..., 4, 4) stack.

    ``spectra``, if given, holds the descending spectrum lam1..lam4 of each
    matrix of a (k, 4, 4) stack or of one matrix, as density_spectra
    returns it.  A two-qubit state has
    mu1 - mu2 - mu3 - mu4 <= lam1 - lam3 - 2 sqrt(lam2 lam4), the spectral
    ceiling (Verstraete, Audenaert and De Moor, PRA 64, 012316 (2001)).  A
    matrix whose ceiling lies below -EIG_CLIP_ATOL and whose lam4 exceeds
    EIG_CLIP_ATOL gets C = 0.0 without a spin flip; the others go through
    spin_flip_mus as one stack.

    Why the skip changes no bit.  lam4 > EIG_CLIP_ATOL keeps the root well
    conditioned: rounding the spectrum by about 1e-16 moves the ceiling by
    about 1e-11 at most.  A skipped matrix therefore has an exact ceiling,
    and so an exact mu1 - mu2 - mu3 - mu4, below -8e-11, and its exact C is
    0.  The spin flip computes mu1 - mu2 - mu3 - mu4 of such a full-rank
    matrix far more finely than that, so it too ends below zero and returns
    0.0; the tests hold the two routes to float.hex equality on Werner
    states at the ceiling's edge, random mixed states of every rank and
    Haar and W-class states.  Where lam4 is within rounding of zero, the
    root would amplify that rounding to about 1e-8, so such a matrix
    always takes the spin flip (a rank-3 ceiling lam1 - lam3 is never
    negative anyway).  Without ``spectra`` every matrix takes the spin
    flip.
    """
    if spectra is not None:
        lam1, lam2, lam3, lam4 = spectra.T
        ceiling = lam1 - lam3 - 2.0 * np.sqrt(lam2 * np.maximum(lam4, 0.0))
        live = (ceiling >= -EIG_CLIP_ATOL) | (lam4 <= EIG_CLIP_ATOL)
        open_count = np.count_nonzero(live)
        if open_count < live.size:
            out = np.zeros(live.shape)
            if open_count:
                out[live] = spin_flip_concurrences(rho[live])
            return out
    mus = spin_flip_mus(rho)
    c = mus[..., 0] - mus[..., 1] - mus[..., 2] - mus[..., 3]
    return np.where(c > 0.0, c, 0.0)  # as max(0.0, c): a NaN or a -0.0 reads 0.0


def concurrence_two_qubit(rho: DensityMatrix) -> float:
    """Spin-flip concurrence max(0, mu1 - mu2 - mu3 - mu4).

    The mu_i are the descending square roots of the eigenvalues of
    rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y); this is
    spin_flip_concurrences on one matrix and its spectrum.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"two-qubit closed form needs dims (2, 2), got {rho.dims}")
    return float(spin_flip_concurrences(rho.entries, rho.eigenvalues))


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
        # Tr rho_A^2 of every state from one conjugated product, bit for bit np.vdot(e, e).real of each,
        # clamped to [0, 1] against rounding
        flat = entries.reshape(len(entries), -1)
        purity = np.minimum(np.maximum(np.vecdot(flat, flat).real, 0.0), 1.0)
        return np.sqrt(2.0 * (1.0 - purity))
    # eigenvalues within rounding of zero enter entropies and roots as 0
    lam = np.where(spectra < 0.0, 0.0, spectra)
    if kind.name == "eof":
        # 0 log 0 = 0: each spectrum sums its p positive terms, which lead it, as one length-p sum
        positive = lam > 0.0
        terms = lam * np.log2(np.where(positive, lam, 1.0))
        out = -np.add.reduce(terms, axis=1)  # the sum of the states whose every eigenvalue is positive
        if np.count_nonzero(positive) < positive.size:
            positive = np.add.reduce(positive, axis=1)
            for p in set(positive.tolist()) - {lam.shape[1]}:
                rows = positive == p
                out[rows] = -terms[rows, :p].sum(axis=1)
        return out
    if kind.name == "tsallis":
        q = float(kind.q)
        return (1.0 - (lam**q).sum(axis=1)) / (q - 1.0)
    return np.maximum(np.sqrt(lam).sum(axis=1) ** 2 - 1.0, 0.0)


def pure_cut_value(kind: MeasureKind, psi: Ket, side_a: Sequence[int]) -> float:
    """Value of ``kind`` on a pure state across the cut of ``side_a`` against the rest."""
    if set(side_a) >= set(range(psi.n_qubits)):
        raise ValueError(f"side A {tuple(side_a)} holds every qubit, so side B is empty")
    rho_a = psi.marginal(side_a)
    return float(cut_values(kind, rho_a.entries[None], rho_a.eigenvalues[None])[0])


def values_of_concurrence(kind: MeasureKind, cs: list[float]) -> list[float]:
    """Two-qubit value of ``kind`` from each pair concurrence in ``cs``.

    Concurrence and CREN take C itself, so ``cs`` is returned; EOF takes
    f(C^2) and tsallis g_q(C^2), each as one list comprehension over all of
    ``cs`` in math.sqrt, math.log2 and Python's pow (eof_f and tsallis_g
    are the same maps on one value).  A C^2 outside [0, 1] raises for the
    first such value.
    """
    if kind.name == "eof":
        return _eof_values([c * c for c in cs])
    if kind.name == "tsallis":
        return _tsallis_values(float(kind.q), [c * c for c in cs])
    return cs


def pair_value(kind: MeasureKind, rho: DensityMatrix) -> float:
    """Value of ``kind`` on a two-qubit mixed state via its closed form."""
    return values_of_concurrence(kind, [concurrence_two_qubit(rho)])[0]
