"""Reference state families and seeded random state generation."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import NORM_ATOL, Ket

SCHMIDT_NORM_ATOL = 1e-12


@dataclass(frozen=True)
class SchmidtParams:
    """Coefficients (lambda_0..lambda_4, phi) of the generalized
    three-qubit Schmidt form.

    The lambdas are nonnegative and their squares sum to 1 (within
    1e-12); phi is the relative phase on the second coefficient.
    """

    lambdas: tuple[float, float, float, float, float]
    phi: float = 0.0

    def __post_init__(self):
        lam = tuple(float(v) for v in self.lambdas)
        if len(lam) != 5:
            raise ValueError(f"need exactly 5 coefficients, got {len(lam)}")
        if any(v < 0.0 for v in lam):
            raise ValueError(f"coefficients must be nonnegative, got {lam}")
        total = sum(v * v for v in lam)
        if not abs(total - 1.0) <= SCHMIDT_NORM_ATOL:  # a NaN coefficient fails
            raise ValueError(f"squared coefficients must sum to 1, got {total!r}")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "phi", float(self.phi))


def gsd3(params: SchmidtParams) -> Ket:
    """Three-qubit state in generalized Schmidt form.

    lambda_0 |000> + lambda_1 e^{i phi} |100> + lambda_2 |101>
    + lambda_3 |110> + lambda_4 |111>
    """
    l0, l1, l2, l3, l4 = params.lambdas
    amp = np.zeros(8, dtype=np.complex128)
    amp[0b000] = l0
    amp[0b100] = l1 * np.exp(1j * params.phi)
    amp[0b101] = l2
    amp[0b110] = l3
    amp[0b111] = l4
    return Ket(3, amp)


def w_state(n: int) -> Ket:
    """Equal superposition of the n one-excitation basis states."""
    if n < 2:
        raise ValueError(f"need at least two qubits, got {n}")
    amp = np.zeros(2**n, dtype=np.complex128)
    for k in range(n):
        amp[1 << (n - 1 - k)] = 1.0 / math.sqrt(n)
    return Ket(n, amp)


def ghz_state(n: int) -> Ket:
    """(|0...0> + |1...1>) / sqrt(2)."""
    if n < 2:
        raise ValueError(f"need at least two qubits, got {n}")
    amp = np.zeros(2**n, dtype=np.complex128)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return Ket(n, amp)


def haar_rows(out: np.ndarray, seed: int) -> np.ndarray:
    """Fill row j of ``out``, a (B, 2^n) complex array, with the Haar random state of seed ``seed + j``.

    Stream contract: each row is drawn from a PCG64 generator created via
    ``numpy.random.default_rng(seed + j)`` as one ``standard_normal(2 *
    2**n)`` call whose first half holds the real parts and whose second
    half the imaginary parts, the same numbers as two draws of 2**n, real
    first.  The row is then divided by its norm.  Identical seeds
    therefore yield identical states on every platform numpy supports.
    Each draw passes through a scratch of 2 * 2**n floats that is freed
    before the next; the rows are checked for unit norm together.
    Returns ``out``.
    """
    count, dim = out.shape
    pairs = out.view(np.float64).reshape(count, dim, 2)  # (real, imaginary) of each amplitude
    norms = np.empty(count)
    for j in range(count):
        pairs[j] = np.random.default_rng(int(seed) + j).standard_normal(2 * dim).reshape(2, dim).T
        norms[j] = np.linalg.norm(out[j])
    if not norms.all():
        raise ValueError("degenerate zero draw")
    out /= norms[:, None]
    deviation = np.abs(np.sqrt(np.einsum("ijk,ijk->i", pairs, pairs)) - 1.0)  # no copy of the rows
    if not (deviation <= NORM_ATOL).all():  # as Ket checks each ket
        raise ValueError(f"amplitudes must have unit norm, got a deviation of {deviation.max()!r}")
    return out


def haar_random(n: int, seed: int) -> Ket:
    """Haar-distributed random pure state on ``n`` qubits: the one row of haar_rows from ``seed``, as a Ket.

    It is the state that haar_rows draws for ``seed`` in any row of any batch.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    return Ket(n, haar_rows(np.empty((1, 2**n), dtype=np.complex128), seed)[0])
