"""Independent reference implementations used only by the tests.

Everything here is deliberately written against raw numpy arrays with
its own arithmetic (no imports from the package), so the package code
is checked against a second, structurally different route.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np

# digits of the mpmath references: far past float64's 16, so their own rounding is never what a test sees
EXACT_DIGITS = 50


def ptrace_loops(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by explicit multi-index loops (slow, obvious)."""
    dims = tuple(dims)
    keep = tuple(sorted(keep))
    traced = tuple(i for i in range(len(dims)) if i not in keep)
    kdims = tuple(dims[i] for i in keep)
    tdims = tuple(dims[i] for i in traced)
    dk = int(np.prod(kdims)) if kdims else 1
    out = np.zeros((dk, dk), dtype=complex)

    def linear(kidx, tidx):
        full = [0] * len(dims)
        for pos, i in enumerate(keep):
            full[i] = kidx[pos]
        for pos, i in enumerate(traced):
            full[i] = tidx[pos]
        lin = 0
        for i, d in enumerate(dims):
            lin = lin * d + full[i]
        return lin

    for a, kidx_a in enumerate(np.ndindex(*kdims) if kdims else [()]):
        for b, kidx_b in enumerate(np.ndindex(*kdims) if kdims else [()]):
            acc = 0.0 + 0.0j
            for tidx in np.ndindex(*tdims) if tdims else [()]:
                acc += mat[linear(kidx_a, tidx), linear(kidx_b, tidx)]
            out[a, b] = acc
    return out


def partial_transpose_loops(mat: np.ndarray, dims, subsystem: int) -> np.ndarray:
    """Transpose one factor by explicit multi-index loops: entry (i, j) moves to the
    pair whose ``subsystem`` digits are swapped (slow, obvious)."""
    dims = tuple(dims)
    out = np.zeros_like(mat, dtype=complex)
    for i, row in enumerate(np.ndindex(*dims)):
        for j, col in enumerate(np.ndindex(*dims)):
            row_t, col_t = list(row), list(col)
            row_t[subsystem], col_t[subsystem] = col[subsystem], row[subsystem]
            out[np.ravel_multi_index(row_t, dims), np.ravel_multi_index(col_t, dims)] = mat[i, j]
    return out


def trace_norm(mat: np.ndarray) -> float:
    """Sum of the singular values."""
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def sub_normalized_states(rho: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rows are sub-normalized kets whose projector sum rebuilds rho."""
    w, v = np.linalg.eigh(rho)
    keep = w > tol
    return (v[:, keep] * np.sqrt(w[keep])).T


def _avg_pair_concurrence(z: np.ndarray) -> np.ndarray:
    # z: (..., k, 4); per-decomposition sum of 2|z0 z3 - z1 z2|
    return (2.0 * np.abs(z[..., 0] * z[..., 3] - z[..., 1] * z[..., 2])).sum(axis=-1)


def _avg_cut_concurrence(z: np.ndarray, d: int) -> np.ndarray:
    # z: (..., k, 2*d) pure states on a 2 x d register; the per-term
    # concurrence is 2 sqrt(det(M M^dagger)) for M the 2 x d reshape
    m = z.reshape(z.shape[:-1] + (2, d))
    g = m @ np.conj(np.swapaxes(m, -1, -2))
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    return (2.0 * np.sqrt(np.maximum(det.real, 0.0))).sum(axis=-1)


def min_avg_concurrence(
    rho: np.ndarray,
    rng: np.random.Generator,
    n_samples: int = 10_000,
    n_terms: int = 4,
    polish_rounds: int = 120,
    polish_width: int = 256,
    cut_dim: int | None = None,
) -> float:
    """Minimize the decomposition-averaged concurrence of ``rho``.

    Samples ``n_samples`` random ``n_terms``-term decompositions (random
    isometries applied to the eigen-decomposition), then locally polishes
    the best one with shrinking random perturbations.  The result is an
    upper bound on the convex-roof concurrence that in practice lands on
    it.  ``cut_dim`` switches the per-term concurrence from the two-qubit
    form to the 2 x cut_dim pure-cut form.
    """
    w = sub_normalized_states(rho)
    r = w.shape[0]
    if cut_dim is None:
        objective = _avg_pair_concurrence
    else:
        objective = lambda z: _avg_cut_concurrence(z, cut_dim)

    best = np.inf
    best_a = None
    done = 0
    while done < n_samples:
        s = min(4000, n_samples - done)
        g = rng.standard_normal((s, n_terms, r)) + 1j * rng.standard_normal((s, n_terms, r))
        q, _ = np.linalg.qr(g)
        vals = objective(q @ w)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, best_a = float(vals[i]), q[i]
        done += s

    sigma = 0.3
    for _ in range(polish_rounds):
        g = rng.standard_normal((polish_width, n_terms, r)) + 1j * rng.standard_normal(
            (polish_width, n_terms, r)
        )
        q, _ = np.linalg.qr(best_a[None] + sigma * g)
        vals = objective(q @ w)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, best_a = float(vals[i]), q[i]
        else:
            sigma *= 0.7
            if sigma < 1e-10:
                break
    return best


def random_mixed(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Random mixed state of the given rank (Wishart construction)."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def ladder_powers(count: int, split: int) -> list[int]:
    """The powers of the weight ladder of ``count`` terms split at ``split``, built as a list:
    0 .. split-1 ascending, then split + 1 for each later term but the last, which takes split."""
    p = list(range(split))
    p += [split + 1] * (count - 1 - split)
    p.append(split)
    return p


def w_class_amplitudes(n: int, seed: int) -> np.ndarray:
    """A W-class ket: normalized complex Gaussians from default_rng(seed) on
    |0...0> and the n single-excitation basis states, zero elsewhere."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = z[0]
    for k in range(n):
        amp[1 << (n - 1 - k)] = z[k + 1]
    return amp / np.linalg.norm(amp)


def ghz_amplitudes(n: int) -> np.ndarray:
    """(|0...0> + |1...1>) / sqrt(2) on n qubits."""
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return amp


def wootters_concurrence(amplitudes: np.ndarray, n: int, a: int, b: int) -> float:
    """Concurrence of the (a, b) marginal of an n-qubit pure state, from the
    singular values of tau = M^T (sigma_y x sigma_y) M.

    The columns of M (4 x 2^(n-2)) are the subnormalized pair states that the
    rest of the register leaves behind, rho_AB = M M^dagger; the singular
    values of tau are the square roots of the eigenvalues of rho rho~
    (Wootters, PRL 80, 2245 (1998)), here taken without forming rho rho~.
    """
    rest = [q for q in range(n) if q not in (a, b)]
    m = np.transpose(amplitudes.reshape((2,) * n), [a, b] + rest).reshape(4, -1)
    yy = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
    s = np.linalg.svd(m.T @ yy @ m, compute_uv=False)
    s = np.concatenate((s, np.zeros(4)))[:4]  # a 2 x 2 tau (n = 3) has two
    return max(0.0, s[0] - s[1] - s[2] - s[3])


def chain_certificate(powers, atol: float):
    """The ordering hypothesis of one chain, straight from its definition.

    ``powers`` are p_0 .. p_{N-2} in chain order.  Returns the tails
    S_{i+1} = p_{i+1} + ... + p_{N-2} (added from the last power back),
    the head comparisons p_i >= S_{i+1} - atol, one per pair but the last,
    and for each ladder split m = 1 .. N-2 whether it is proven:
    p_i >= S_{i+1} - atol for every i < m and p_i <= S_{i+1} + atol for
    every m <= i <= N-3.
    """
    powers = [float(p) for p in powers]
    tails = []
    total = 0.0
    for p in reversed(powers[1:]):
        total += p
        tails.insert(0, total)
    holds = [p >= s - atol for p, s in zip(powers, tails)]
    splits = []
    for m in range(1, len(powers)):
        head = all(holds[:m])
        rest = all(powers[i] <= tails[i] + atol for i in range(m, len(powers) - 1))
        splits.append(head and rest)
    return tails, holds, splits


def exact_cut_concurrence(amplitudes: np.ndarray, focus: int):
    """C(focus | rest) of a ket, as a 50-digit mpmath number.

    The float amplitudes are taken exactly and the ket is normalized in
    mpmath.  rho_A = [[a, b], [conj(b), d]] is summed entry by entry over
    the basis indices, split by the focus bit (qubit 0 is the top bit), and
    C = 2 sqrt(lam+ lam-) from its eigenvalues
    lam+- = (1 +- sqrt((a - d)^2 + 4 |b|^2)) / 2.
    """
    amplitudes = np.asarray(amplitudes).ravel().tolist()
    n = len(amplitudes).bit_length() - 1
    bit = 1 << (n - 1 - focus)
    with mpmath.workdps(EXACT_DIGITS):
        z = [mpmath.mpc(v.real, v.imag) for v in amplitudes]
        norm = mpmath.fsum(v.real**2 + v.imag**2 for v in z)
        low = [i for i in range(len(z)) if not i & bit]
        a = mpmath.fsum(z[i].real**2 + z[i].imag**2 for i in low) / norm
        d = mpmath.fsum(z[i | bit].real**2 + z[i | bit].imag**2 for i in low) / norm
        b = mpmath.fsum(mpmath.conj(z[i]) * z[i | bit] for i in low) / norm
        gap = mpmath.sqrt((a - d) ** 2 + 4 * abs(b) ** 2)
        return 2 * mpmath.sqrt(max((1 + gap) / 2 * (1 - gap) / 2, 0))


def exact_pair_concurrence(amplitudes: np.ndarray, a: int, b: int):
    """C of the (a, b) marginal of a ket, as a 50-digit mpmath number.

    The float amplitudes are taken exactly and the ket is normalized in
    mpmath.  Row r of M holds the amplitudes whose bits at qubits a and b
    (qubit 0 is the top bit) spell r, and rho = M M^dagger is summed entry
    by entry.  Wootters' mu_i are the roots of the eigenvalues of rho rho~,
    rho~ = S conj(rho) S with S = sigma_y (x) sigma_y, from mpmath.eig: in
    exact arithmetic they are real and nonnegative, so the rounding left in
    their imaginary parts is dropped and a negative real part clipped to 0.
    C = max(0, mu1 - mu2 - mu3 - mu4), the mu_i descending.
    """
    amplitudes = np.asarray(amplitudes).ravel().tolist()
    n = len(amplitudes).bit_length() - 1
    bit_a, bit_b = 1 << (n - 1 - a), 1 << (n - 1 - b)
    rest = [i for i in range(len(amplitudes)) if not i & (bit_a | bit_b)]
    signs = (-1, 1, 1, -1)  # S is antidiagonal: S[r, 3 - r] = signs[r]
    with mpmath.workdps(EXACT_DIGITS):
        z = [mpmath.mpc(v.real, v.imag) for v in amplitudes]
        norm = mpmath.fsum(v.real**2 + v.imag**2 for v in z)
        m = [[z[i | (bit_a if r & 2 else 0) | (bit_b if r & 1 else 0)] for i in rest] for r in range(4)]
        rho = mpmath.matrix(4, 4)
        for r in range(4):
            for c in range(4):
                rho[r, c] = mpmath.fsum(x * mpmath.conj(y) for x, y in zip(m[r], m[c])) / norm
        flipped = mpmath.matrix(4, 4)
        for r in range(4):
            for c in range(4):
                flipped[r, c] = signs[r] * signs[c] * mpmath.conj(rho[3 - r, 3 - c])
        eigenvalues, _ = mpmath.eig(rho * flipped)
        mus = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in eigenvalues), reverse=True)
        return max(mus[0] - mus[1] - mus[2] - mus[3], 0)


def exact_cut_value(measure: str, c, q=None):
    """A pure state's cut value of ``measure`` from its cut concurrence ``c`` (an mpmath number), at 50 digits.

    Read from the spectrum lam+- = (1 +- sqrt(1 - c^2)) / 2 of the side:
    the base-2 von Neumann entropy for 'eof', (1 - sum lam^q) / (q - 1)
    for 'tsallis', (sum sqrt(lam))^2 - 1 for 'cren', and c for
    'concurrence'.
    """
    with mpmath.workdps(EXACT_DIGITS):
        root = mpmath.sqrt(max(1 - c * c, 0))
        lam = [(1 + root) / 2, (1 - root) / 2]
        if measure == "eof":
            return -mpmath.fsum(x * mpmath.log(x, 2) for x in lam if x > 0)
        if measure == "tsallis":
            q = mpmath.mpf(q)
            return (1 - mpmath.fsum(x**q for x in lam)) / (q - 1)
        if measure == "cren":
            return mpmath.fsum(mpmath.sqrt(x) for x in lam) ** 2 - 1
        return +c
