"""Reference state families and seeded random state generation."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import NORM_ATOL, Ket, checked_int

# squares summing to within NORM_ATOL of 1 make a norm within about NORM_ATOL / 2 of 1, which Ket accepts
SCHMIDT_NORM_ATOL = NORM_ATOL


@dataclass(frozen=True)
class SchmidtParams:
    """Coefficients (lambda_0..lambda_4, phi) of the generalized
    three-qubit Schmidt form.

    The lambdas are nonnegative and their squares sum to 1 (within
    SCHMIDT_NORM_ATOL, 2.5e-13, so that gsd3's ket has a norm Ket
    accepts); phi is the relative phase on the second coefficient.
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
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValueError(f"phi={phi!r} is not finite")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "phi", phi)


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
    return Ket(amp)


def w_state(n: int) -> Ket:
    """Equal superposition of the n one-excitation basis states."""
    if checked_int(n, "n") < 2:
        raise ValueError(f"need at least two qubits, got {n}")
    amp = np.zeros(2**n, dtype=np.complex128)
    for k in range(n):
        amp[1 << (n - 1 - k)] = 1.0 / math.sqrt(n)
    return Ket(amp)


# SeedSequence.generate_state(4, np.uint64) hashes pool word i % 4 into 32-bit output word i (of 8): xor with
# H[i], multiply by H[i + 1], xor with itself shifted right by 16, where H[i] = INIT_B * MULT_B**i mod 2**32
_HASH = np.array([0x8B51F9DD * 0x58F38DED**i % 2**32 for i in range(9)], dtype=np.uint32)
_HASH_XOR, _HASH_MULT = _HASH[:-1], _HASH[1:]
# PCG64 seeds from words (s0, s1, q0, q1) as pcg64_srandom_r: inc = 2 (q0 q1) + 1, and two LCG steps from 0
# that add s0 s1 between them give the state ((inc + s0 s1) * M + inc) mod 2**128
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = 2**128 - 1
# PCG64 Generators free for reuse. A row sets the whole state of the bit generator, so a reused one carries
# nothing over from its last call; a call takes one off the list and hands it back, and list.pop and
# list.append are atomic, so concurrent calls never share one.
_GENERATORS: list = []


def _state_words(words: np.ndarray) -> np.ndarray:
    """Hash a (B, 8) little-endian uint32 array in place, whose row j is the pool of a SeedSequence twice over,
    and view it as (B, 4) little-endian uint64: row j becomes that sequence's generate_state(4, np.uint64)."""
    words ^= _HASH_XOR
    words *= _HASH_MULT
    words ^= words >> 16
    return words.view("<u8")


def haar_rows(out: np.ndarray, seed: int) -> np.ndarray:
    """Fill row j of ``out``, a (B, 2^n) complex array, with the Haar random state of seed ``seed + j``.

    Stream contract: each row is drawn from a PCG64 generator created via
    ``numpy.random.default_rng(seed + j)`` as one ``standard_normal(2 *
    2**n)`` call whose first half holds the real parts and whose second
    half the imaginary parts, the same numbers as two draws of 2**n, real
    first.  The row is then divided by its norm, taken with the arithmetic
    of numpy.linalg.norm.  Identical seeds therefore yield identical states
    on every platform numpy supports.
    No generator is built per row: each seed's SeedSequence pool is
    hashed into its four seed words as SeedSequence.generate_state does,
    for all rows at once, and one reused PCG64 is set to each row's state
    in turn, the state PCG64 seeds from those words.  Every row is drawn
    into one scratch of 2 * 2**n floats, freed on return.  The rows are
    not read back: ChainBatch.of checks a batch's rows, and Ket one state.
    Returns ``out``.
    """
    seed = checked_int(seed, "seed")
    count, dim = out.shape
    if not count:
        return out
    pairs = out.view(np.float64).reshape(count, dim, 2)  # (real, imaginary) of each amplitude
    norms = np.empty(count)
    real, imag = out.real, out.imag
    random = np.random  # numpy loads numpy.random on first use, so importing the package does not pay for it
    pools = np.empty((count, 2, 4), dtype="<u4")  # the words generate_state hashes: each pool twice
    for j in range(count):
        sequence = random.SeedSequence(seed + j)
        pools[j] = sequence.pool
    try:
        generator = _GENERATORS.pop()
    except IndexError:  # none free: build one, seeded from any sequence, since every row sets its own state
        generator = random.Generator(random.PCG64(sequence))
    bit_generator = generator.bit_generator
    scratch = np.empty(2 * dim)
    for j, (s0, s1, q0, q1) in enumerate(_state_words(pools.reshape(count, 8)).tolist()):
        inc = ((q0 << 65) | (q1 << 1) | 1) & _MASK_128
        bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": ((((s0 << 64) | s1) + inc) * _PCG64_MULTIPLIER + inc) & _MASK_128, "inc": inc}}
        generator.standard_normal(out=scratch)
        pairs[j] = scratch.reshape(2, dim).T
        re, im = real[j], imag[j]
        norms[j] = math.sqrt(re.dot(re) + im.dot(im))  # np.linalg.norm(out[j]), its two strided dots and root
    _GENERATORS.append(generator)
    if not np.logical_and.reduce(norms, axis=None):
        raise ValueError("degenerate zero draw")
    out /= norms[:, None]
    return out


def haar_random(n: int, seed: int) -> Ket:
    """Haar-distributed random pure state on ``n`` qubits: the one row of haar_rows from ``seed``, as a Ket.

    It is the state that haar_rows draws for ``seed`` in any row of any batch.
    """
    if checked_int(n, "n") < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    return Ket(haar_rows(np.empty((1, 2**n), dtype=np.complex128), seed)[0])
