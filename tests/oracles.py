"""Independent reference implementations used only by the tests.

Everything here is deliberately written against raw numpy arrays with
its own arithmetic (no imports from the package), so the package code
is checked against a second, structurally different route.
"""
from __future__ import annotations

import numpy as np


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
