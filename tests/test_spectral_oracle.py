"""An exact spectral oracle for Tikhonov on the periodic 2D blur with L = I.

The periodic blur G is diagonal under the 2D FFT with eigenvalues ghat =
fft2(G e_0), so the regularized solution is x(eta) = ifft2(conj(ghat) dhat
/ (|ghat|^2 + eta)) and the GCV quotient is V(eta) = N ||(I - A) d||^2 /
(N - sum phi)^2 with the filters phi = |ghat|^2 / (|ghat|^2 + eta) and
(I - A) d = ifft2((1 - phi) dhat) (Hansen, Nagy & O'Leary, *Deblurring
Images*, SIAM 2006). 1 - phi = eta / (|ghat|^2 + eta) is formed with no
cancellation.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from lpvarpro.gcv import ETA_GRID, _GcvQuotient, select_eta, thin_gsvd
from lpvarpro.problems import make_blind_deconv_problem

N_SIDE = 16


def spectral_oracle(prob):
    """(x(eta), V(eta), d log V / d log eta) of the periodic problem."""
    e0 = np.zeros(N_SIDE**2)
    e0[0] = 1.0
    ghat = np.fft.fft2(prob.operator(prob.y_true).apply(e0)
                       .reshape(N_SIDE, N_SIDE))
    dhat = np.fft.fft2(prob.d.reshape(N_SIDE, N_SIDE))
    g2, d2, n = np.abs(ghat)**2, np.abs(dhat)**2, ghat.size

    def x_of(eta):
        return np.fft.ifft2(np.conj(ghat) * dhat / (g2 + eta)).real.ravel()

    def v_of(eta):
        # Parseval: ||(I - A) d||^2 = sum |(1 - phi) dhat|^2 / N
        psi = eta / (g2 + eta)
        return np.sum(psi**2 * d2) / (n - np.sum(1.0 - psi))**2

    def slope_of(log_eta):
        # d psi / d log eta = psi phi
        psi = np.exp(log_eta) / (g2 + np.exp(log_eta))
        phi = 1.0 - psi
        return 2.0 * (np.sum(psi**2 * phi * d2) / np.sum(psi**2 * d2)
                      - np.sum(psi * phi) / (n - np.sum(phi)))

    return x_of, v_of, slope_of


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_thin_gsvd_and_gcv_match_the_spectral_oracle(seed):
    # the blur of the 2D workloads; with a narrow blur (sigma 1) the
    # cancellation of 1 - f in V (ROADMAP item 1) reaches 5e-10 at the grid
    # floor
    prob = make_blind_deconv_problem("satellite", (4.0, 3.0, 1.5), 0.01,
                                     seed, psf_size=15, size=N_SIDE)
    x_of, v_of, slope_of = spectral_oracle(prob)
    gsvd = thin_gsvd(prob.operator(prob.y_true).dense(), np.eye(prob.d.size))
    for eta in (1e-6, 1e-3, 1.0):
        x = gsvd.solve(eta, prob.d)
        assert (np.linalg.norm(x - x_of(eta))
                <= 1e-10 * np.linalg.norm(x_of(eta)))
    vals, _ = _GcvQuotient(gsvd, prob.d).curve(ETA_GRID)
    oracle = np.array([v_of(eta) for eta in ETA_GRID])
    np.testing.assert_allclose(vals, oracle, rtol=1e-10, atol=0)
    i = int(np.argmin(oracle))
    root = brentq(slope_of, np.log(ETA_GRID[i - 1]), np.log(ETA_GRID[i + 1]),
                  xtol=1e-12)
    assert abs(np.log(select_eta(gsvd, prob.d).eta) - root) <= 1e-4
