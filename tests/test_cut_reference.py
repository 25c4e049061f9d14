"""Cut values against a 50-digit reference computed from the ket (oracles.exact_cut_concurrence).

The reference normalizes the float ket in mpmath, sums rho_A entry by entry
and reads C from its eigenvalues; each measure's value is then read from the
spectrum (1 +- sqrt(1 - C^2)) / 2 at 50 digits (oracles.exact_cut_value).
"""
import time

import mpmath
import numpy as np
import pytest

from monogamy import CONCURRENCE, CREN, EOF, Ket, haar_random, pure_cut_value, tsallis_kind
from oracles import EXACT_DIGITS, exact_cut_concurrence, exact_cut_value, w_class_amplitudes

KINDS = (CONCURRENCE, EOF, CREN, tsallis_kind(2.0), tsallis_kind(2.5), tsallis_kind(3.0))


def _error(got: float, want, relative: bool = False) -> float:
    with mpmath.workdps(EXACT_DIGITS):
        error = abs(mpmath.mpf(got) - want)
        return float(error / abs(want) if relative else error)


def test_cut_values_lie_within_1e_15_of_the_50_digit_reference():
    # 15 Haar and n - 1 W-class states at each n = 3..8, at focus 0 and 1; the largest error measured is
    # 7.7e-16 (EOF, Haar n = 5), against 5.3e-15 (concurrence, W-class n = 8) through 2 (1 - Tr rho_A^2)
    started = time.perf_counter()
    worst = 0.0
    for n in range(3, 9):
        kets = [haar_random(n, seed).amplitudes for seed in range(15)] + [w_class_amplitudes(n, k) for k in range(n - 1)]
        for amplitudes in kets:
            psi = Ket(amplitudes)
            for focus in (0, 1):
                c = exact_cut_concurrence(amplitudes, focus)
                for kind in KINDS:
                    want = exact_cut_value(kind.name, c, kind.q)
                    worst = max(worst, _error(pure_cut_value(kind, psi, (focus,)), want))
    assert worst <= 1e-15
    assert time.perf_counter() - started < 10.0  # about 0.6 s on a 2-core host


def _near_product_row(family: str, n: int, eps: float) -> np.ndarray:
    # halves u and eps v at the focus (qubit 0), or u and u + eps v: C is about eps either way
    rng = np.random.default_rng(11 + n)
    u, v = (rng.standard_normal(2 ** (n - 1)) + 1j * rng.standard_normal(2 ** (n - 1)) for _ in range(2))
    row = np.concatenate([u, eps * v] if family == "small half" else [u, u + eps * v])
    return row / np.linalg.norm(row)


@pytest.mark.parametrize("n", [3, 6])
def test_near_a_product_focus_the_cut_concurrence_keeps_its_measured_error(n):
    # a small half keeps C's relative accuracy (2.7e-16 measured at most, where sqrt(2 (1 - Tr rho_A^2))
    # was off by 100 %), and every measure's map keeps it too (7.3e-16 at most, for EOF, which read 0.0
    # below C = 1.65e-8 through (1 +- sqrt(1 - C^2)) / 2); nearly parallel halves leave det rho_A the
    # rounding of its two products, about 1e-16, so C is good to about 2 sqrt(1e-16) = 2e-8 absolute
    # (1.0e-8 measured here, 2.0e-8 on other draws of u and v; the purity form was off by up to 3.3e-8)
    for eps in 10.0 ** -np.arange(3, 11):
        row = _near_product_row("small half", n, eps)
        c = exact_cut_concurrence(row, 0)
        for kind in KINDS:
            got = pure_cut_value(kind, Ket(row), (0,))
            assert _error(got, exact_cut_value(kind.name, c, kind.q), relative=True) <= 1e-15, (kind, eps)
        row = _near_product_row("parallel halves", n, eps)
        got = pure_cut_value(CONCURRENCE, Ket(row), (0,))
        assert _error(got, exact_cut_concurrence(row, 0)) <= 3e-8, eps
