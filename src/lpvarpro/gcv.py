"""Regularization-parameter selection by weighted GCV on projected problems.

The projected factors are small upper-triangular pairs (R_G, R_L); their GSVD
turns the GCV quotient into scalar arithmetic on the generalized spectra. The
GSVD itself is built from a QR of the stacked pair followed by a CS
decomposition, which keeps both orthogonal factors accurate even when some
generalized values are tiny.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cossin


class RankDeficiencyError(ValueError):
    """Stacked pair [R_G; R_L] is numerically rank deficient.

    This violates the null-space condition N(G^T G) inter N(L^T L) = {0}
    required for the regularized problem to have a unique solution.
    """


@dataclass
class GsvdPair:
    """GSVD factors of a square pair: R_G = X_G diag(sg) Y^T, R_L = X_L diag(sl) Y^T."""

    x_g: np.ndarray
    x_l: np.ndarray
    y: np.ndarray
    sigma_g: np.ndarray
    sigma_l: np.ndarray

    @property
    def k(self) -> int:
        return self.sigma_g.size


def gsvd_pair(r_g, r_l, rank_tol=None) -> GsvdPair:
    """GSVD of a square matrix pair sharing the right factor Y.

    Both inputs must be k x k (upper triangular in the intended use, though
    this is not required). Raises :class:`RankDeficiencyError` when the
    stacked pair loses full column rank.
    """
    r_g = np.asarray(r_g, dtype=float)
    r_l = np.asarray(r_l, dtype=float)
    k = r_g.shape[0]
    if r_g.shape != (k, k) or r_l.shape[1] != k or r_l.shape[0] > k:
        raise ValueError("gsvd_pair expects a square R_G and an R_L with "
                         "matching columns and at most as many rows")
    if r_l.shape[0] < k:
        # a short regularizer factor acts like one padded with zero rows
        r_l = np.vstack([r_l, np.zeros((k - r_l.shape[0], k))])
    stack = np.vstack([r_g, r_l])
    if rank_tol is None:
        rank_tol = 2 * k * np.finfo(float).eps
    svals = np.linalg.svd(stack, compute_uv=False)
    if svals[-1] <= rank_tol * svals[0]:
        raise RankDeficiencyError(
            "stacked pair [R_G; R_L] is rank deficient; the null-space "
            "condition of the regularized normal equations is violated")
    q, r = np.linalg.qr(stack)
    q_full, _ = np.linalg.qr(q, mode="complete")
    q_square = np.hstack([q, q_full[:, k:]])
    (u1, u2), theta, (v1h, _) = cossin(q_square, p=k, q=k, separate=True)
    c = np.cos(theta)
    s = np.sin(theta)
    # LAPACK convention gives Q[:k] = u1 diag(c) v1h, Q[k:] = +/- u2 diag(s) v1h
    if (np.abs(q[k:] - (u2 * s) @ v1h).max()
            > np.abs(q[k:] + (u2 * s) @ v1h).max()):
        u2 = -u2
    y = r.T @ v1h.T
    return GsvdPair(x_g=u1, x_l=u2, y=y, sigma_g=c, sigma_l=s)


@dataclass
class GcvConfig:
    """Search settings for the GCV minimization over eta."""

    omega: float = 1.0
    grid_min: float = 1e-12
    grid_max: float = 1e4
    grid_points: int = 200
    refine_tol: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("omega must lie in (0, 1]")
        if not 0.0 < self.grid_min < self.grid_max:
            raise ValueError("invalid eta search bounds")

    def grid(self):
        """The logarithmic eta grid that the search scans before refining."""
        return np.logspace(np.log10(self.grid_min), np.log10(self.grid_max),
                           self.grid_points)


def _gcv_terms(gsvd: GsvdPair, dhat):
    dtil = gsvd.x_g.T @ np.asarray(dhat, dtype=float)
    return dtil, gsvd.sigma_g**2, gsvd.sigma_l**2


def gcv_value(gsvd: GsvdPair, dhat, eta, omega=1.0):
    """Weighted GCV quotient at eta for the projected pair.

    Numerator: k * sum_i (1 - f_i)^2 (X_G^T dhat)_i^2 with Tikhonov filters
    f_i = sg_i^2 / (sg_i^2 + eta sl_i^2); denominator: (k - omega sum_i f_i)^2.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    dtil, c2, s2 = _gcv_terms(gsvd, dhat)
    f = c2 / (c2 + eta * s2)
    k = gsvd.k
    denom = (k - omega * f.sum()) ** 2
    if denom == 0.0:
        raise ZeroDivisionError("GCV denominator vanished")
    num = k * float(((1.0 - f) ** 2 * dtil**2).sum())
    return num / denom


def _gcv_curve(gsvd: GsvdPair, dhat, etas, omega):
    """Vectorized gcv_value over an array of eta values."""
    dtil, c2, s2 = _gcv_terms(gsvd, dhat)
    etas = np.asarray(etas, dtype=float)
    f = c2[None, :] / (c2[None, :] + etas[:, None] * s2[None, :])
    k = gsvd.k
    num = k * ((1.0 - f) ** 2 @ dtil**2)
    denom = (k - omega * f.sum(axis=1)) ** 2
    return num / denom


@dataclass
class EtaSelection:
    eta: float
    value: float
    degenerate: bool = False


def select_eta(r_g, r_l, dhat, config: GcvConfig | None = None) -> EtaSelection:
    """Minimize the GCV quotient over eta: log grid scan plus golden refinement.

    Returns the selected eta; a flat curve (all grid values equal to within
    1e-15 relative) is reported with ``degenerate=True`` and the grid
    midpoint.
    """
    cfg = config or GcvConfig()
    pair = gsvd_pair(r_g, r_l)
    grid = cfg.grid()
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = _gcv_curve(pair, dhat, grid, cfg.omega)
    finite = np.isfinite(vals)
    if not finite.any():
        raise ZeroDivisionError("GCV denominator vanished on the whole grid")
    vals = np.where(finite, vals, np.inf)
    vmax = np.abs(vals[finite]).max()
    if vmax == 0.0 or (vals[finite].max() - vals[finite].min()) <= 1e-15 * vmax:
        mid = float(np.sqrt(cfg.grid_min * cfg.grid_max))
        return EtaSelection(eta=mid, value=float(vals[0]), degenerate=True)
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    eta, val = _golden_min(lambda e: gcv_value(pair, dhat, e, cfg.omega),
                           np.log(lo), np.log(hi), cfg.refine_tol)
    return EtaSelection(eta=eta, value=val)


def _golden_min(fn, log_lo, log_hi, rel_tol):
    """Golden-section search on log(eta); tolerance is relative in eta."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = log_lo, log_hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(np.exp(c)), fn(np.exp(d))
    while (b - a) > rel_tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(np.exp(d))
    log_eta = c if fc < fd else d
    return float(np.exp(log_eta)), float(min(fc, fd))
