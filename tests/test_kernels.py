import numpy as np

from monogamy.measures import spin_flip_mus

np_rng = np.random.default_rng(31415)

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def test_spin_flip_paths_agree():
    # the entrywise sign pattern must match the explicit sigma_y (x) sigma_y product
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    for _ in range(25):
        z = np_rng.normal(size=(4, 4)) + 1j * np_rng.normal(size=(4, 4))
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        mus = spin_flip_mus(rho)
        ev = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)
        expected = np.sort(np.sqrt(np.maximum(ev.real, 0.0)))[::-1]
        assert mus.shape == (4,)
        assert np.all(np.diff(mus) <= 1e-15)  # descending
        assert np.abs(mus - expected).max() < 1e-12
