"""Entanglement measures for pure multiqubit cuts and two-qubit mixed states.

Each measure is one map of a concurrence C, ``values_of_concurrence(kind,
cs)``: C itself for concurrence and the paper's N_c, the convex-roof
extended negativity (CREN); f(C^2) for EOF and g_q(C^2) for tsallis.  A
qubit A's cut against the rest of a pure state has rho_A of spectrum
(1 +- sqrt(1 - C^2)) / 2, C = 2 sqrt(det rho_A), whose entropies are those
maps and whose (Tr sqrt(rho_A))^2 - 1 is C: ``pure_cut_value(kind, psi,
side_a)`` maps that C; ``pair_value(kind, rho)`` maps a pair concurrence.

The closed forms f(C^2) of EOF and g_q(C^2) of tsallis have one
implementation, the array maps behind values_of_concurrence, which read
lambda- = C^2 / (2 (1 + sqrt(1 - C^2))) with log1p and expm1: they keep
their relative accuracy down to C = 0.  eof_f and tsallis_g map one value.

The pair concurrence has two kernels, both Wootters' formula.
spin_flip_concurrences takes a (k, 4, 4) stack of two-qubit states with
their spectra and returns their k concurrences.  The spectra bound each
concurrence from above; a matrix whose bound proves C = 0 skips the spin
flip, and the others share one eigvals call.  concurrence_two_qubit is that
kernel on one matrix.  rank2_concurrences takes the 4 x 2 factors M of
rank-2 states rho = M M^dagger, as a 3-qubit ket holds them for each of its
pairs, and reads C in closed form from M, with no eigenvalue call; it is
exact to rounding where the spin flip loses up to about 3e-8 to the two
zero eigenvalues of a rank-2 rho rho~.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qstate import DensityMatrix, Ket, _cut_concurrences, _sorted_keep

DOMAIN_ATOL = 1e-12
EIG_CLIP_ATOL = 1e-10
_LN2 = math.log(2.0)
_SMALLEST = np.finfo(np.float64).smallest_subnormal  # every lambda- > 0 is at least this

# exponent floors: smallest power for which the weighted bounds apply; each
# is also the gamma of the ladder's per-step factor 2^(alpha/gamma) - 1
_ALPHA_FLOORS = {
    "concurrence": 2.0,
    "eof": math.sqrt(2.0),
    "cren": 2.0,
    "tsallis": 1.0,
}

# s = (-1, 1, 1, -1), the antidiagonal of S = sigma_y (x) sigma_y: the spin flip S rho* S has the sign
# pattern s_i s_j, and S M is M with its rows reversed and the row signs s
_ANTIDIAGONAL = np.array([-1.0, 1.0, 1.0, -1.0])
_FLIP_SIGNS = np.outer(_ANTIDIAGONAL, _ANTIDIAGONAL)


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


def _small_eigenvalues(xs: np.ndarray) -> np.ndarray:
    """lambda- = x / (2 (1 + sqrt(1 - x))) of each x = C^2, the smaller eigenvalue (1 - sqrt(1 - x)) / 2 of
    a qubit's rho_A written with no difference of nearly equal numbers; the first x outside [0, 1] raises."""
    if not (np.minimum.reduce(xs, axis=None, initial=1.0) >= 0.0
            and np.maximum.reduce(xs, axis=None, initial=0.0) <= 1.0):  # a NaN fails; [0, 1] needs no clamp
        inside = (xs >= -DOMAIN_ATOL) & (xs <= 1.0 + DOMAIN_ATOL)  # a NaN is outside
        if not np.logical_and.reduce(inside, axis=None):
            raise ValueError(f"x={float(xs[inside.argmin()])!r} outside [0, 1]")
        xs = np.minimum(np.maximum(xs, 0.0), 1.0)
    return xs / (2.0 + 2.0 * np.sqrt(1.0 - xs))


def _eof_values(lam: np.ndarray, log_plus: np.ndarray) -> np.ndarray:
    # f = H(lambda-) = -lambda- ln lambda- - lambda+ ln lambda+, over ln 2: two terms of one sign, with
    # log_plus = ln lambda+ = log1p(-lambda-); lambda- = 0 gives 0 * log(5e-324), a 0, and 0.0 - h is +0.0
    h = lam * np.log(np.maximum(lam, _SMALLEST)) + (1.0 - lam) * log_plus
    return (0.0 - h) / _LN2


def _tsallis_values(q: float, lam: np.ndarray, log_plus: np.ndarray) -> np.ndarray:
    # g_q = [1 - lambda+^q - lambda-^q] / (q - 1), with 1 - lambda+^q = -expm1(q log_plus), log_plus = log1p(-lambda-)
    h = np.expm1(q * log_plus) + lam**q
    return (0.0 - h) / (q - 1.0)


def _values_of_concurrence(kinds: Sequence[MeasureKind], cs: np.ndarray) -> np.ndarray:
    """Row i holds values_of_concurrence(kinds[i], cs): lambda- and log1p(-lambda-) are taken once for every
    measure that needs them."""
    lam = log_plus = None
    if any(kind.name in ("eof", "tsallis") for kind in kinds):
        lam = _small_eigenvalues(cs * cs)
        log_plus = np.log1p(-lam)
    return np.array([_eof_values(lam, log_plus) if kind.name == "eof" else _tsallis_values(kind.q, lam, log_plus)
                     if kind.name == "tsallis" else cs for kind in kinds])


def eof_f(x: float) -> float:
    """f(x) = H((1 + sqrt(1 - x)) / 2) on [0, 1].

    Feeding x = C^2 turns a two-qubit concurrence into the matching
    entanglement of formation.  This is the array map of
    values_of_concurrence on one value.
    """
    lam = _small_eigenvalues(np.array([float(x)]))
    return float(_eof_values(lam, np.log1p(-lam))[0])


def tsallis_g(q: float, x: float) -> float:
    """g_q(x) = [1 - ((1+s)/2)^q - ((1-s)/2)^q] / (q - 1) with s = sqrt(1 - x).

    Valid for q in [2, 3]; feeding x = C^2 turns a two-qubit concurrence
    into the matching tsallis-q entanglement.  This is the array map of
    values_of_concurrence on one value.
    """
    q = tsallis_kind(q).q  # MeasureKind holds the one check of the supported range
    lam = _small_eigenvalues(np.array([float(x)]))
    return float(_tsallis_values(q, lam, np.log1p(-lam))[0])


def concurrence_pure(psi: Ket, side_a: Sequence[int]) -> float:
    """2 sqrt(det rho_A) across the cut of ``side_a``, one qubit or all but one, against the rest."""
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
    matrix of a (k, 4, 4) stack or of one matrix, as DensityMatrix keeps
    it in ``eigenvalues``.  A two-qubit state has
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

    On a matrix of rank 2 or less, two eigenvalues of rho rho~ are zero up
    to rounding (about 1e-17), and their roots put about 3e-9 each into
    mu3 and mu4, so C comes out low by up to about 3e-8.
    rank2_concurrences reads such a matrix's C from its factor instead,
    exact to rounding; ChainBatch takes that route at n = 3, where every
    pair marginal has rank 2.
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


def rank2_concurrences(factors: np.ndarray) -> np.ndarray:
    """Concurrence of each two-qubit state rho = M M^dagger of a (..., 4, 2) stack of factors M.

    Wootters' mu_i are the singular values of tau = M^T S M, S = sigma_y
    (x) sigma_y (Uhlmann, PRA 62, 032307 (2000)).  Here tau is a complex
    symmetric [[a, b], [b, c]], so mu3 = mu4 = 0 and C = mu1 - mu2, with
    mu1^2 + mu2^2 = |a|^2 + 2|b|^2 + |c|^2 and mu1 mu2 = |ac - b^2|.  C is
    read as (mu1^2 - mu2^2) / (mu1 + mu2): the numerator is the eigenvalue
    gap of tau tau^dagger, sqrt((|a|^2 - |c|^2)^2 + 4 |conj(a) b + conj(b) c|^2),
    and the denominator sqrt(|a|^2 + 2|b|^2 + |c|^2 + 2|ac - b^2|).
    Neither subtracts the nearly equal mu1 and mu2, so C is exact to a few
    ulps (the root of the difference of their squares would lose half the
    digits near mu1 = mu2).  C = 0 where tau = 0.  The factors are not
    validated: a caller checks M M^dagger first.
    """
    tau = factors.swapaxes(-1, -2) @ (factors[..., ::-1, :] * _ANTIDIAGONAL[:, None])
    a, b, c = tau[..., 0, 0], tau[..., 0, 1], tau[..., 1, 1]
    squares = tau.real**2
    squares += tau.imag**2  # |a|^2, |b|^2, |b|^2, |c|^2
    off = np.conjugate(a) * b
    off += np.conjugate(b) * c
    gap = np.hypot(squares[..., 0, 0] - squares[..., 1, 1], 2.0 * np.abs(off))
    total = np.sqrt(np.add.reduce(squares, axis=(-2, -1)) + 2.0 * np.abs(a * c - b * b))
    return np.divide(gap, total, out=np.zeros(gap.shape), where=total > 0.0)


def concurrence_two_qubit(rho: DensityMatrix) -> float:
    """Spin-flip concurrence max(0, mu1 - mu2 - mu3 - mu4).

    The mu_i are the descending square roots of the eigenvalues of
    rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y); this is
    spin_flip_concurrences on one matrix and its spectrum.
    """
    if rho.n_qubits != 2:
        raise ValueError(f"two-qubit closed form needs 2 qubits, got {rho.n_qubits}")
    return float(spin_flip_concurrences(rho.entries, rho.eigenvalues))


def pure_cut_value(kind: MeasureKind, psi: Ket, side_a: Sequence[int]) -> float:
    """Value of ``kind`` across the cut of one qubit A of a pure state against the rest.

    ``side_a`` is A, or every qubit but A (the same cut); any other side raises ValueError.  The value maps
    C(A | rest) through values_of_concurrence, as the left-hand side of a report does.
    """
    # the keep checks run first, so a bad index is named before the side's size
    n = psi.n_qubits
    side = _sorted_keep(side_a, n)
    if len(side) == n:
        raise ValueError(f"side A {tuple(side_a)} holds every qubit, so side B is empty")
    if len(side) not in (1, n - 1):
        raise ValueError(f"side A {tuple(side_a)} is neither one qubit nor all qubits but one")
    focus = side[0] if len(side) == 1 else next(q for q in range(n) if q not in side)
    return float(values_of_concurrence(kind, _cut_concurrences(psi.amplitudes[None], focus))[0])


def values_of_concurrence(kind: MeasureKind, cs: np.ndarray) -> np.ndarray:
    """Two-qubit value of ``kind`` from each pair concurrence in the array ``cs``, as an array.

    Concurrence and CREN take C itself, so the values are ``cs``; EOF takes
    f(C^2) and tsallis g_q(C^2), each read off lambda- = C^2 / (2 (1 +
    sqrt(1 - C^2))) with log1p and expm1, so that both keep their relative
    accuracy down to C = 0 (eof_f and tsallis_g are the same maps on one
    value).  A C^2 outside [0, 1] raises for the first such value.
    """
    return _values_of_concurrence((kind,), cs)[0]


def pair_value(kind: MeasureKind, rho: DensityMatrix) -> float:
    """Value of ``kind`` on a two-qubit mixed state via its closed form."""
    return float(values_of_concurrence(kind, np.array([concurrence_two_qubit(rho)]))[0])
