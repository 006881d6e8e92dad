"""Thin GSVD of a stacked pair and GCV selection of the Tikhonov weight.

``thin_gsvd`` factors a pair {G, L} once: a QR of the stack [G; L] = Q R, a
rank test on R, and an SVD Q_G = U diag(c) W^T of the top block of Q give
G = U diag(c) W^T R and L = T W^T R with T = Q_L W. LAPACK runs in place on
column-major factors: dgeqrf and dorgqr (``_thin_qr``, which the MMGKS
factors share) overwrite the stack with Q, and dgesdd a copy of its top
block; dgesdd's info > 0 raises ``LinAlgError``, as numpy does. The rank
test rejects sigma_min(R) <= 2 n eps sigma_max(R). It bounds the condition
number of R from above by ||R||_F ||R^-1||_F, with R^-1 from one triangular
inversion, and computes the singular values of R only when that bound does
not clear the threshold, so a well-conditioned stack costs no SVD of R. Every
Tikhonov quantity then reads the generalized spectra c and s2 = 1 - c^2
without dividing by a small generalized value: the GCV quotient is
scalar arithmetic on c, s2 and U^T d, and the regularized solution
``StackGsvd.solve`` is one triangular solve.

The dense Tikhonov route of the outer solvers and the inner MMGKS solver run
the same computation at two sizes: the dense route factors the full pair
{G, L} once per outer step, the MMGKS solver its small projected pair
(R_G, R_L) once per inner iteration, and each hands its factorization to
``select_eta`` and to ``StackGsvd.solve`` (the dense route also to the outer
Jacobians).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import (dgeqrf, dgeqrf_lwork, dgesdd, dorgqr,
                                  dtrtri)


class RankDeficiencyError(np.linalg.LinAlgError):
    """Stacked pair [G; L] is numerically rank deficient.

    This violates the null-space condition N(G^T G) inter N(L^T L) = {0}
    required for the regularized problem to have a unique solution.
    """


@dataclass
class StackGsvd:
    """Thin GSVD of a stacked pair {G, L}.

    G = U diag(c) Z^T and L = T Z^T with Z^T = W^T R, where ``u`` has
    orthonormal columns, ``c`` and ``s2 = 1 - c^2`` hold the generalized
    spectra, and ``t`` equals X_L diag(s), so no division by small
    generalized values ever occurs. A G with m < n rows gives an m x m ``u``
    and an n x m ``w``: the other n - m directions have c = 0 and enter no
    regularized solution, but ``solve`` and ``solve_z`` need m >= n.
    """

    u: np.ndarray
    t: np.ndarray
    w: np.ndarray
    r: np.ndarray
    c: np.ndarray
    s2: np.ndarray

    def filter(self, eta):
        """Tikhonov filter c / (c^2 + eta s2) of the weight eta."""
        return self.c / (self.c**2 + eta * self.s2)

    def solve(self, eta, rhs):
        """Minimizer R^-1 W (filter * U^T rhs) of ||G x - rhs||^2 + eta ||L x||^2."""
        return solve_triangular(self.r, self.w @ (self.filter(eta)
                                                  * (self.u.T @ rhs)))

    def solve_z(self, vec):
        """Apply Z^{-1} = W^T R^{-T} to a vector."""
        return self.w.T @ solve_triangular(self.r.T, vec, lower=True)


def _check_info(name, info):
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} failed with info {info}")


def _thin_qr(a):
    """Thin QR factors (Q, R) of the column-major float64 a, overwriting a.

    LAPACK dgeqrf factors ``a`` in place and dorgqr forms the min(m, n)
    leading columns of Q in the same storage, so Q (m x min(m, n)) is a
    column-major view of ``a`` and R (min(m, n) x n) is upper triangular,
    as ``np.linalg.qr`` returns them. A matrix with no rows or columns skips
    LAPACK, which rejects a zero leading dimension.
    """
    m, n = a.shape
    k = min(m, n)
    if a.size == 0:
        return np.zeros((m, k), order="F"), np.zeros((k, n))
    lwork, info = dgeqrf_lwork(m, n)
    _check_info("dgeqrf_lwork", info)
    qr, tau, _, info = dgeqrf(a, lwork=int(lwork), overwrite_a=1)
    _check_info("dgeqrf", info)
    r = np.triu(qr[:k])
    _, work, info = dorgqr(qr[:, :k], tau, lwork=-1)
    _check_info("dorgqr workspace query", info)
    q, _, info = dorgqr(qr[:, :k], tau, lwork=int(work[0]), overwrite_a=1)
    _check_info("dorgqr", info)
    return q, r


def _rank_deficient(r) -> bool:
    """Whether sigma_min(R) <= tol sigma_max(R), tol = 2 n eps, for square R.

    A bound 2 tol ||R||_F ||R^-1||_F below 1 says no; the factor 2 covers the
    roundoff of the computed inverse near the threshold. A zero pivot or a
    bound that is not finite or too large leaves it to the singular values.
    """
    tol = 2 * r.shape[0] * np.finfo(float).eps
    r_inv, info = dtrtri(r)
    if info == 0:
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.linalg.norm(r) * np.linalg.norm(r_inv)
        if 2 * tol * bound < 1:
            return False
    svals = np.linalg.svd(r, compute_uv=False)
    return bool(svals[-1] <= tol * svals[0])


def thin_gsvd(g_dense, l_dense) -> StackGsvd:
    """Thin GSVD of the pair {G, L} via QR of the stack and an SVD of the top.

    Raises :class:`RankDeficiencyError` when the stack loses full column
    rank, that is when sigma_min(R) <= 2 n eps sigma_max(R) for the
    triangular factor R of the stack. R is accepted without an SVD when
    ||R||_F ||R^-1||_F, an upper bound on its condition number, clears the
    threshold by a factor 2; otherwise its singular values decide. A stack
    with fewer rows than columns is padded with zero rows of L, so that R is
    square and the rank test sees every column.

    G and L are copied into one column-major stack, which dgeqrf/dorgqr
    overwrite with Q; dgesdd overwrites a copy of the top block of Q and
    raises ``LinAlgError`` when it does not converge (info > 0).
    """
    g_dense = np.asarray(g_dense, dtype=float)
    l_dense = np.asarray(l_dense, dtype=float)
    m, n = g_dense.shape
    rows = m + l_dense.shape[0]
    stack = np.empty((max(rows, n), n), order="F")
    stack[:m] = g_dense
    stack[m:rows] = l_dense
    stack[rows:] = 0.0
    q, r = _thin_qr(stack)
    if _rank_deficient(r):
        raise RankDeficiencyError(
            "stacked pair [G; L] is rank deficient: G and L share a null "
            "space, so the regularized solution is not unique")
    u, c, wt, info = dgesdd(np.asfortranarray(q[:m]), full_matrices=0,
                            overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    _check_info("dgesdd", info)
    c = np.clip(c, 0.0, 1.0)
    w = wt.T
    t = q[m:] @ w
    return StackGsvd(u=u, t=t, w=w, r=r, c=c, s2=np.maximum(0.0, 1.0 - c**2))


@dataclass
class GcvConfig:
    """The GCV minimization over eta, which has no settable field.

    The eta grid and the refinement tolerance are fixed class constants.
    """

    grid_min: ClassVar[float] = 1e-12
    grid_max: ClassVar[float] = 1e4
    grid_points: ClassVar[int] = 200
    refine_tol: ClassVar[float] = 1e-4

    @classmethod
    def grid(cls):
        """The logarithmic eta grid that the search scans before refining."""
        return np.logspace(np.log10(cls.grid_min), np.log10(cls.grid_max),
                           cls.grid_points)


class _GcvQuotient:
    """GCV quotient of a factored Tikhonov problem, a function of eta.

    Numerator: k * (||dhat - U U^T dhat||^2 + sum_i (1 - f_i)^2 (U^T dhat)_i^2)
    with influence factors f_i = c_i^2 / (c_i^2 + eta s2_i); denominator:
    (k - sum_i f_i)^2, where k is the length of dhat. The part of dhat
    outside range(U) is formed only for a tall U: a square U spans R^k, where
    that part is zero and would be computed from roundoff alone. The terms
    that do not depend on eta are formed once.
    """

    def __init__(self, gsvd: StackGsvd, dhat):
        dhat = np.asarray(dhat, dtype=float)
        dtil = gsvd.u.T @ dhat
        self.c2 = gsvd.c**2
        self.s2 = gsvd.s2
        self.dtil2 = dtil**2
        self.k, width = gsvd.u.shape
        self.outside = 0.0
        if self.k > width:
            outside = dhat - gsvd.u @ dtil
            self.outside = float(outside @ outside)

    def parts(self, eta):
        """Numerator and denominator at eta, a scalar or an array."""
        f = self.c2 / (self.c2 + np.multiply.outer(eta, self.s2))
        return (self.k * (self.outside + (1.0 - f) ** 2 @ self.dtil2),
                (self.k - f.sum(axis=-1)) ** 2)

    def __call__(self, eta):
        """The quotient at a scalar eta; +inf where the denominator vanishes."""
        num, denom = self.parts(eta)
        return float(num / denom) if denom != 0.0 else np.inf


@dataclass
class EtaSelection:
    eta: float
    value: float
    degenerate: bool = False


def select_eta(gsvd: StackGsvd, dhat) -> EtaSelection:
    """Minimize the GCV quotient over eta: log grid scan plus golden refinement.

    ``gsvd`` is the thin GSVD of the pair. Returns the selected eta; a flat
    curve (all finite grid values equal to within 1e-15 relative) or one with
    no finite grid value is reported with ``degenerate=True`` and the grid
    midpoint. No value is finite only when every filter is 1 at every grid
    eta (s2 = 0 up to roundoff), and then the regularized solution does not
    depend on eta.
    """
    quotient = _GcvQuotient(gsvd, dhat)
    grid = GcvConfig.grid()
    num, denom = quotient.parts(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = num / denom
    finite = np.isfinite(vals)
    vals = np.where(finite, vals, np.inf)
    if not finite.any() or (np.ptp(vals[finite])
                            <= 1e-15 * np.abs(vals[finite]).max()):
        mid = float(np.sqrt(GcvConfig.grid_min * GcvConfig.grid_max))
        return EtaSelection(eta=mid, value=float(vals[0]), degenerate=True)
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    eta, val = _golden_min(quotient, np.log(lo), np.log(hi),
                           GcvConfig.refine_tol)
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
