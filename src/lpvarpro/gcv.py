"""Thin GSVD of a stacked pair and GCV selection of the Tikhonov weight.

``thin_gsvd`` factors a pair {G, L} once: a QR of the stack [G; L] = Q R,
a rank test on R, and an SVD Q_G = U diag(c) W^T of the top block of Q
give G = U diag(c) W^T R and L = (Q_L W)(W^T R), with Q_L the rows of Q
under Q_G. Q is not formed: ``_r_factor``, the one QR kernel of the package,
factors the stack in place, one dtrmm forms Q_G = G R^-1 from the rank
test's R^-1, and Q_L y is L (R^-1 y). The dense pair and the MMGKS projected
pair take this one path. A failed LAPACK call raises ``LinAlgError``. Every
Tikhonov quantity then reads the generalized spectra c and s2 = 1 - c^2
without dividing by a small generalized value: ``_GcvQuotient.curve``, the
one evaluator of the GCV quotient, gives V and its slope by O(k) arithmetic
per eta on c, s2 and U^T d, and ``StackGsvd.solve`` is one triangular solve.

``select_eta`` scans a fixed log grid of eta once and refines the grid
minimum by a bracketed root of the analytic slope d log V / d log eta. The
dense route of the outer step factors the full pair {G, L} once per outer
step and hands it to ``select_eta``, ``StackGsvd.solve`` and the full or
half Jacobian, then drops it when the step returns; the MMGKS solver factors
its projected pair (R_G, R_L) once per inner iteration for the first two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dgeqrt, dgesdd, dtrtri, dtrtrs


class RankDeficiencyError(np.linalg.LinAlgError):
    """Stacked pair [G; L] is numerically rank deficient.

    This violates the null-space condition N(G^T G) inter N(L^T L) = {0}
    required for the regularized problem to have a unique solution.
    """


@dataclass
class StackGsvd:
    """Thin GSVD of a stacked pair {G, L}.

    G = U diag(c) Z^T and L = (Q_L W) Z^T with Z^T = W^T R, where ``u`` has
    orthonormal columns, ``c`` and ``s2 = 1 - c^2`` hold the generalized
    spectra, and ``l_mat`` is the L the pair was given, not a copy. Q_L =
    L R^-1 is never formed; ``apply_q_l`` applies it to a vector. A G with
    m < n rows gives an m x m ``u`` and an n x m ``w``: the other n - m
    directions have c = 0 and enter no regularized solution. ``solve``
    holds for any m, as MMGKS needs when R_G has no row left; ``solve_z``
    needs m >= n.
    """

    u: np.ndarray
    l_mat: np.ndarray
    w: np.ndarray
    r: np.ndarray
    c: np.ndarray
    s2: np.ndarray

    def filter(self, eta):
        """Tikhonov filter c / (c^2 + eta s2); eta s2 is 0 where s2 = 0,
        also at eta = inf, whose filter then keeps the null space of L."""
        weighted = np.multiply(eta, self.s2, out=np.zeros_like(self.s2),
                               where=self.s2 > 0)
        return self.c / (self.c**2 + weighted)

    def solve(self, eta, rhs):
        """Minimizer R^-1 W (filter * U^T rhs) of ||G x - rhs||^2 + eta ||L x||^2."""
        return self._r_solve(self.w @ (self.filter(eta) * (self.u.T @ rhs)), 1)

    def solve_z(self, vec):
        """Apply Z^{-1} = W^T R^{-T} to a vector."""
        return self.w.T @ self._r_solve(vec, 0)

    def apply_q_l(self, vec):
        """Q_L vec = L (R^-1 vec); rows padding a short stack are left out."""
        return self.l_mat @ self._r_solve(vec, 1)

    def _r_solve(self, rhs, trans):
        # R x = rhs (trans 1) or R^T x = rhs (0), with R row-major read as R^T
        x, info = dtrtrs(self.r.T, rhs, lower=1, trans=trans)
        _check_info("dtrtrs", info)
        return x


def _check_info(name, info):
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} failed with info {info}")


def _r_factor(a):
    """Triangular factor R (min(q, k) x k) of the column-major float64 a.

    One blocked Householder QR (LAPACK dgeqrt) overwrites ``a`` in place and
    keeps no Q. The block is 4 up to 64 columns and 32 above: on a 2-core
    host with 1 BLAS thread, block 4 was the fastest on the 4032 x 10..40
    MMGKS factors, and the 1023 x 512 dense stack took 13.2 ms with block
    32, 33 ms with block 4 and 15.9 ms by LAPACK's other Householder QR
    driver. A factor with no rows skips LAPACK, which rejects lda = 0.
    """
    qr, info = a, 0
    if a.shape[0]:
        block = 4 if a.shape[1] <= 64 else 32
        qr, _, info = dgeqrt(min(block, *a.shape), a, overwrite_a=1)
    _check_info("dgeqrt", info)
    return np.triu(qr[:min(a.shape)])


def _r_inverse(r):
    """R^-1 of the square triangular R of the stack, after a rank test.

    Raises :class:`RankDeficiencyError` if R has a zero pivot or sigma_min(R)
    <= tol sigma_max(R), tol = 2 n eps. A bound 2 tol ||R||_F ||R^-1||_F
    below 1 passes R (the 2 covers the roundoff of R^-1); one that is not
    finite or too large leaves it to the singular values.
    """
    tol = 2 * r.shape[0] * np.finfo(float).eps
    r_inv, info = dtrtri(r)
    if info == 0:
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.linalg.norm(r) * np.linalg.norm(r_inv)
        if 2 * tol * bound < 1 or np.linalg.cond(r) < 1 / tol:
            return r_inv
    raise RankDeficiencyError(
        "stacked pair [G; L] is rank deficient: G and L share a null "
        "space, so the regularized solution is not unique")


def thin_gsvd(g_dense, l_dense) -> StackGsvd:
    """Thin GSVD of {G, L} via Q_G = G R^-1; raises RankDeficiencyError.

    A short stack gets zero rows of L, so that R is square and the rank test
    sees every column. The stack and R^-1 are freed before the SVD
    allocates its workspace.
    """
    g_dense = np.asarray(g_dense, dtype=float)
    l_dense = np.asarray(l_dense, dtype=float)
    m, n = g_dense.shape
    rows = m + l_dense.shape[0]
    stack = np.empty((max(rows, n), n), order="F")
    stack[:m] = g_dense
    stack[m:rows] = l_dense
    stack[rows:] = 0.0
    r = _r_factor(stack)
    del stack
    top = dtrmm(1.0, _r_inverse(r), g_dense, side=1)
    u, c, wt, info = dgesdd(top, full_matrices=0, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    _check_info("dgesdd", info)
    c = np.clip(c, 0.0, 1.0)
    return StackGsvd(u=u, l_mat=l_dense, w=wt.T, r=r, c=c,
                     s2=np.maximum(0.0, 1.0 - c**2))


@dataclass
class GcvConfig:
    """Constants of the GCV search over ``ETA_GRID``; no settable field."""

    grid_min: ClassVar[float] = 1e-12
    grid_max: ClassVar[float] = 1e4
    grid_points: ClassVar[int] = 200
    refine_tol: ClassVar[float] = 1e-4


ETA_GRID = np.logspace(np.log10(GcvConfig.grid_min),
                       np.log10(GcvConfig.grid_max), GcvConfig.grid_points)
ETA_GRID.flags.writeable = False


class _GcvQuotient:
    """GCV quotient V of a factored Tikhonov problem, a function of eta.

    V = k (o + sum_i g_i^2 dtil_i^2) / (k - sum_i f_i)^2 with k the length of
    dhat, dtil = U^T dhat, filters f_i = c_i^2 / (c_i^2 + eta s2_i), g_i =
    1 - f_i and o = ||dhat - U dtil||^2, formed once and only for a tall U:
    a square U spans R^k, where o is zero up to roundoff.
    """

    def __init__(self, gsvd: StackGsvd, dhat):
        dhat = np.asarray(dhat, dtype=float)
        dtil = gsvd.u.T @ dhat
        self.c2 = gsvd.c**2
        self.s2 = gsvd.s2
        self.dtil2 = dtil**2
        self.k, width = gsvd.u.shape
        outside = dhat - gsvd.u @ dtil if self.k > width else np.zeros(0)
        self.outside = float(outside @ outside)

    def curve(self, eta):
        """V and its slope d log V / d log eta at each eta of an array.

        As df_i / d log eta = -f_i g_i, the slope is 2 [sum_i f_i g_i^2
        dtil_i^2 / (o + sum_i g_i^2 dtil_i^2) - sum_i f_i g_i / (k - sum f)].
        Where a denominator of the slope is 0 it is NaN or inf, with no
        warning; V is then 0 or not finite, as is its 0/0. The argument is
        eta, not log eta, so that the grid scan reads ``ETA_GRID`` itself.
        """
        f = np.multiply.outer(eta, self.s2)
        f = np.divide(self.c2, np.add(f, self.c2, out=f), out=f)
        free = self.k - f.sum(axis=-1)
        g = np.subtract(1.0, f)
        fg = np.multiply(f, g, out=f).sum(axis=-1)     # f is now f g
        fgg = np.multiply(f, g, out=f) @ self.dtil2    # and then f g^2
        resid = self.outside + np.square(g, out=g) @ self.dtil2
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.k * resid / (free * free),
                    2.0 * (fgg / resid - fg / free))


@dataclass
class EtaSelection:
    eta: float
    value: float
    degenerate: bool = False


def select_eta(gsvd: StackGsvd, dhat) -> EtaSelection:
    """Minimize the GCV quotient V over eta: grid scan, then a slope root.

    ``gsvd`` is the thin GSVD of the pair. One ``curve`` call gives V and
    the slope of log V in log eta on the grid. Finite slopes of opposite
    sign at the grid minimizer and the neighbour the slope points to bracket
    a root, which false position (Illinois, Anderson-Bjorck scaling) narrows
    to ``GcvConfig.refine_tol`` in log eta; the root is taken if its V is no
    larger than the grid minimum, else the grid point. A flat curve (finite
    grid values equal to within 1e-15 relative) or one with no finite grid
    value, which means s2 = 0 up to roundoff and a solution that does not
    depend on eta, is flagged ``degenerate`` and gets the grid midpoint.
    """
    quotient = _GcvQuotient(gsvd, dhat)
    vals, slopes = quotient.curve(ETA_GRID)
    finite = np.isfinite(vals)
    vals = np.where(finite, vals, np.inf)
    if not finite.any() or (np.ptp(vals[finite])
                            <= 1e-15 * np.abs(vals[finite]).max()):
        mid = float(np.sqrt(GcvConfig.grid_min * GcvConfig.grid_max))
        return EtaSelection(eta=mid, value=float(vals[0]), degenerate=True)
    i = int(np.argmin(vals))
    grid_best = EtaSelection(eta=float(ETA_GRID[i]), value=float(vals[i]))
    j = i + 1 if slopes[i] < 0 else i - 1
    if not (math.isfinite(slopes[i]) and 0 <= j < ETA_GRID.size):
        return grid_best
    (a, b), (slope_a, slope_b) = np.log(ETA_GRID[[i, j]]), slopes[[i, j]]
    if not (math.isfinite(slope_b) and slope_a * slope_b < 0):
        return grid_best
    for _ in range(10):
        t = b - slope_b * (b - a) / (slope_b - slope_a)
        val, slope_t = quotient.curve(math.exp(t))
        if not math.isfinite(slope_t):   # no root here, even where V is 0
            return grid_best
        if slope_t == 0.0:
            break
        if slope_t * slope_b < 0:
            a, slope_a = b, slope_b
        else:                           # a stays an end: scale its slope
            m = 1.0 - slope_t / slope_b
            slope_a *= m if m > 0 else 0.5
        b, slope_b = t, slope_t
        if abs(b - a) <= GcvConfig.refine_tol:
            break
    return (EtaSelection(eta=math.exp(t), value=float(val))
            if val <= grid_best.value else grid_best)
