"""Majorize-minimize solver on a growing generalized Krylov subspace.

Solves min_x ||G x - d||_2^2 + lambda ||L x||_p^p (smoothed for small p) by
repeatedly replacing the lp term with a weighted l2 term from a quadratic
tangent majorant, solving the weighted problem projected on a small subspace,
and enlarging the subspace with the normalized gradient of the majorant. The
subspace is seeded by Golub-Kahan bidiagonalization.

The tall-skinny kernels of an inner iteration are kept few: a new column
of V or of Q_G R_G is orthogonalized by one classical Gram-Schmidt pass,
and by a second only when the first removed more than 1 - 1/sqrt(2) of its
norm ("twice is enough"); R_L, with no Q, is the blocked Householder QR of
LAPACK dgeqrt, and at unit weights (p = 2) grows from the cached L V by one
product per column; Q_G^T d grows with Q_G; x = V z is formed once, after
the loop. The thin QR of the bidiagonal B that seeds Q_G is the in-place
dgeqrf/dorgqr helper ``gcv._thin_qr`` that the stacked-pair GSVD runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg.lapack import dgeqrt, dtrtrs

from .gcv import (GcvConfig, StackGsvd, _check_info, _thin_qr, select_eta,
                  thin_gsvd)
from .operators import MatrixOperator, ParamOperator
from .regularizers import Regularizer, as_regularizer


def _as_operator(G) -> ParamOperator:
    if isinstance(G, ParamOperator):
        return G
    return MatrixOperator(np.asarray(G, dtype=float))


def majorant_weights(u, p, epsilon):
    """Elementwise weights (u_i^2 + eps^2)^(p/2 - 1) of the quadratic majorant."""
    if p <= 1 and epsilon <= 0:
        raise ValueError("epsilon > 0 is required for p <= 1")
    u = np.asarray(u, dtype=float)
    if p == 2:
        return np.ones_like(u)
    return (u**2 + epsilon**2) ** (p / 2.0 - 1.0)


def objective_value(res, u, lam, p, epsilon):
    """Smoothed objective ||res||^2 + lam * sum_j (u_j^2 + eps^2)^(p/2).

    ``res`` is the data misfit G x - d and ``u`` is L x, both as arrays.
    """
    if p <= 1 and epsilon <= 0:
        raise ValueError("epsilon > 0 is required for p <= 1")
    if epsilon == 0.0:
        phi = np.abs(u) ** p
    else:
        phi = (u**2 + epsilon**2) ** (p / 2.0)
    return float(res @ res + lam * phi.sum())


def mm_lambda(eta, p):
    """lp weight of the objective whose tangent majorant carries eta.

    The majorant of sum phi_{p,eps}((Lx)_j) at the current iterate contributes
    the quadratic term (lam*p/2) ||P L x||^2, so a normal-equations weight eta
    corresponds to lam = 2*eta/p.
    """
    return 2.0 * eta / p


def golub_kahan(G: ParamOperator, d, ell):
    """ell steps of Golub-Kahan bidiagonalization of G with starting vector d.

    Both Lanczos vectors are reorthogonalized against all earlier ones, which
    column-major buffers keep contiguous.

    Returns (U, B, V, breakdown) with U (m x (k+1)), B ((k+1) x k) lower
    bidiagonal, V (n x k) orthonormal and G V = U B. On breakdown (a zero
    vector encountered) k < ell and breakdown is True. The thin QR Q_B R_B of
    B gives the thin QR (U Q_B) R_B of G V; a zero last column of U, left by
    a breakdown, meets the zero last row of Q_B.
    """
    d = np.asarray(d, dtype=float)
    m, n = G.m, G.n
    if not 1 <= ell <= min(m, n):
        raise ValueError("subspace dimension must satisfy 1 <= ell <= min(m, n)")
    us = np.zeros((m, ell + 1), order="F")
    vs = np.zeros((n, ell), order="F")
    alphas = np.zeros(ell)
    betas = np.zeros(ell + 1)
    tiny = np.finfo(float).eps * max(np.linalg.norm(d), 1.0)

    beta = np.linalg.norm(d)
    if beta <= tiny:
        return us[:, :1] * 0.0, np.zeros((1, 0)), vs[:, :0], True
    us[:, 0] = d / beta
    betas[0] = beta
    k = 0
    breakdown = False
    for i in range(ell):
        v = G.adjoint_apply(us[:, i])
        if i > 0:
            v -= betas[i] * vs[:, i - 1]
            v -= vs[:, :i] @ (vs[:, :i].T @ v)
        alpha = np.linalg.norm(v)
        if alpha <= tiny:
            breakdown = True
            break
        vs[:, i] = v / alpha
        alphas[i] = alpha
        k = i + 1

        u = G.apply(vs[:, i]) - alpha * us[:, i]
        u -= us[:, :i + 1] @ (us[:, :i + 1].T @ u)
        beta = np.linalg.norm(u)
        if beta <= tiny:
            breakdown = True
            break
        us[:, i + 1] = u / beta
        betas[i + 1] = beta

    B = np.eye(k + 1, k) * alphas[:k] + np.eye(k + 1, k, -1) * betas[1:k + 1]
    return us[:, :k + 1], B, vs[:, :k], breakdown


def _column_buffer(a, capacity):
    """Column-major (rows x capacity) buffer whose leading columns hold a."""
    buf = np.zeros((a.shape[0], capacity), order="F")
    buf[:, :a.shape[1]] = a
    return buf


# block size of the compact-WY QR; 4 is fastest on 4032 x 10..40 factors
_QR_BLOCK = 4


def _r_factor(a):
    """Triangular factor R (min(q, k) x k) of the column-major float64 a.

    One blocked Householder QR (LAPACK dgeqrt) overwrites ``a`` in place;
    at the widths of the subspace (k < 128) it runs level-3 BLAS where
    dgeqrf would take its unblocked level-2 path. A factor with no rows skips
    LAPACK, which rejects lda = 0.
    """
    qr, info = a, 0
    if a.shape[0]:
        qr, _, info = dgeqrt(min(_QR_BLOCK, *a.shape), a, overwrite_a=1)
    _check_info("dgeqrt", info)
    return np.triu(qr[:min(a.shape)])


def _project_out(q, col, col_norm):
    """Split col = q s + resid for orthonormal columns q.

    Returns (resid, s, ||resid||). One classical Gram-Schmidt pass runs, and
    a second only when the first removed more than 1 - 1/sqrt(2) of
    ``col_norm`` = ||col||, which keeps resid orthogonal to q near machine
    precision ("twice is enough").
    """
    s = q.T @ col
    resid = col - q @ s
    rho = np.linalg.norm(resid)
    if rho < col_norm / np.sqrt(2.0):
        s2 = q.T @ resid
        resid -= q @ s2
        s += s2
        rho = np.linalg.norm(resid)
    return resid, s, rho


class _GrowingQr:
    """Thin QR factors Q (m x rank) and R (rank x k) of G V as it grows.

    Starts from the thin QR factors ``q`` and ``r`` of the first k columns.
    The factors live in preallocated buffers and are read through the views
    ``q`` and ``r``; rank < k only once Q spans all of R^m.
    """

    def __init__(self, q, r, capacity):
        self._q = _column_buffer(q, capacity)
        self.rank, self.k = r.shape
        self._r = np.zeros((capacity, capacity), order="F")
        self._r[:self.rank, :self.k] = r

    @property
    def q(self):
        return self._q[:, :self.rank]

    @property
    def r(self):
        return self._r[:self.rank, :self.k]

    def append(self, col):
        """Extend the factors by one column; the buffers must have room.

        The column is projected out of Q once, or twice when the first pass
        cancels much of it (``_project_out``).
        """
        col_norm = np.linalg.norm(col)
        resid, s, rho = _project_out(self.q, col, col_norm)
        self._r[:self.rank, self.k] = s
        if self.rank < resid.shape[0] and rho > 1e-15 * max(col_norm, 1.0):
            self._q[:, self.rank] = resid / rho
            self._r[self.rank, self.k] = rho
            self.rank += 1
        # otherwise Q already spans the column space and the new column only
        # extends the triangular factor
        self.k += 1


class GksState:
    """Growing orthonormal basis V with the cached product L V.

    Also holds the thin QR factors Q_G R_G of G V, through which G V is read,
    and R_L of the weighted W^(1/2) L V, with no Q: the projected problem
    reads R_L only. V, L V and Q_G R_G live in column-major buffers sized
    once for ``capacity`` columns, the most the basis will hold; ``v``,
    ``lv`` and the factors are views of the filled part. ``gv_qr`` is the
    pair (Q_G, R_G) of the first k columns.

    ``set_weights`` factors W^(1/2) L V by the blocked Householder QR of
    ``_r_factor``. Unit weights (p = 2) never change, so while R_L is the
    factor of L V, ``set_weights`` keeps it and ``append_direction`` grows
    it by one product b = (L V)^T lv_new: the column [s; rho], s = R_L^-T b,
    rho^2 = ||lv_new||^2 - ||s||^2, keeps R_L^T R_L = (L V)^T L V. If L V
    has no row for rho, R_L is singular or rho^2 <= ||lv_new||^2 / 16 (rho
    mostly roundoff), R_L goes stale; the next ``set_weights`` refactors it.
    """

    def __init__(self, v, gv_qr, lv, capacity):
        self._k = v.shape[1]
        self._v = _column_buffer(v, capacity)
        self._lv = _column_buffer(lv, capacity)
        self._qr_g = _GrowingQr(*gv_qr, capacity)
        self._r_l, self._grows = None, False  # grows: R_L factors L V now

    @property
    def k(self) -> int:
        return self._k

    @property
    def capacity(self) -> int:
        return self._v.shape[1]

    @property
    def v(self):
        return self._v[:, :self._k]

    @property
    def lv(self):
        return self._lv[:, :self._k]

    @property
    def q_g(self):
        return self._qr_g.q

    @property
    def r_g(self):
        return self._qr_g.r

    @property
    def r_l(self):
        return self._r_l

    def set_weights(self, w):
        """Set R_L, the factor of diag(sqrt(w)) L V, for the weights w."""
        unit = bool(np.all(np.asarray(w) == 1.0))
        if not (unit and self._grows):
            # a fresh column-major product, which the factor overwrites
            self._r_l = _r_factor(np.multiply(np.sqrt(w)[:, None], self.lv,
                                              order="F"))
        self._grows = unit

    def append_direction(self, v_new, gv_new, lv_new):
        """Add one basis column; raises IndexError when the buffers are full.

        ``gv_new`` = G ``v_new`` extends Q_G R_G and is not kept.
        """
        k = self._k
        self._v[:, k] = v_new
        self._lv[:, k] = lv_new
        self._k = k + 1
        self._qr_g.append(gv_new)
        self._grows &= self._lv.shape[0] > k
        if self._grows:
            # info > 0: R_L is singular, and the refactor takes the column
            s, info = dtrtrs(self._r_l, self._lv[:, :k].T @ lv_new, trans=1)
            norm2 = lv_new @ lv_new
            rho2 = norm2 - s @ s
            self._grows = info == 0 and rho2 > norm2 / 16.0
            if self._grows:
                self._r_l = np.block([[self._r_l, s[:, None]],
                                      [np.zeros((1, k)), np.sqrt(rho2)]])


def init_gks(G: ParamOperator, d, ell, L: Regularizer, capacity) -> GksState:
    """Seed the solution subspace with ell Golub-Kahan steps on (G, d).

    G V = U B holds for the bidiagonalization, so the thin QR of G V is
    seeded as Q_G = U Q_B, R_G = R_B from the QR of the small (k+1) x k
    matrix B, without applying G again or forming the tall G V. The state
    has room for ``capacity`` basis columns.
    """
    u, b, v, _ = golub_kahan(G, d, ell)
    if v.shape[1] == 0:
        raise ValueError("bidiagonalization broke down immediately (zero data?)")
    lv = np.column_stack([L.apply(v[:, j]) for j in range(v.shape[1])])
    q_b, r_b = _thin_qr(np.array(b, order="F"))
    return GksState(v, (u @ q_b, r_b), lv, capacity)


def project_and_solve(gsvd: StackGsvd, eta, dhat):
    """Solve min_z ||R_G z - dhat||^2 + eta ||R_L z||^2 on the projected pair.

    ``gsvd`` is the thin GSVD of (R_G, R_L): with R_G = U diag(c) W^T R and
    R_L = T W^T R, the solution ``gsvd.solve(eta, dhat)`` is one triangular
    solve.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    return gsvd.solve(eta, dhat)


def expand_subspace(state: GksState, eta, weights, G: ParamOperator,
                    L: Regularizer, d, grad_scale, gvz, lvz):
    """Enlarge the basis with the normalized majorant gradient at x = V z.

    The expansion vector is r = G^T (G V z - d) + eta L^T (w * (L V z)),
    with the products ``gvz`` = G V z and ``lvz`` = L V z, projected out of
    V (once, or twice on cancellation) and normalized. Returns False without
    expanding when r is negligible, at most 1e-14 max(``grad_scale``, 1)
    with ``grad_scale`` = ||G^T d|| (stationarity on the current weights).
    """
    r = G.adjoint_apply(gvz - d) + eta * L.adjoint_apply(weights * lvz)
    floor = 1e-14 * max(grad_scale, 1.0)
    nr = np.linalg.norm(r)
    if nr <= floor:
        return False
    r, _, nr = _project_out(state.v, r, nr)
    if nr <= floor:
        return False
    v_new = r / nr
    state.append_direction(v_new, G.apply(v_new), L.apply(v_new))
    return True


@dataclass
class MmgksConfig:
    """Settings for the majorize-minimize subspace solver."""

    p: float = 2.0
    epsilon: float = 1e-2
    subspace_dim: int = 10
    max_iters: int = 100
    tol: float = 1e-6
    eta: float | None = None          # fixed eta; None selects by GCV
    # the fixed GCV search grid of every solve; not a setting
    gcv: ClassVar[GcvConfig] = GcvConfig()

    def __post_init__(self):
        if not 0.0 < self.p <= 2.0:
            raise ValueError("p must lie in (0, 2]")
        if self.p <= 1 and self.epsilon <= 0:
            raise ValueError("epsilon > 0 is required for p <= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.subspace_dim < 1 or self.max_iters < 1:
            raise ValueError("subspace_dim and max_iters must be at least 1")


@dataclass
class MmgksResult:
    x: np.ndarray
    objectives: list
    etas: list
    iterations: int
    converged: bool
    subspace_dim: int


def mmgks_solve(G, L, d, config: MmgksConfig | None = None):
    """Run the majorize-minimize subspace iteration.

    Per iteration: weights from the current iterate, QR of the weighted
    L V, one thin GSVD of the projected pair (R_G, R_L) that both the GCV
    choice of eta (unless eta is fixed) and the projected Tikhonov solve
    read, then subspace expansion with the majorant gradient, except after
    the last iteration, whose new column nothing would read. When expansion
    stalls the reweighting continues on the fixed subspace. Stops on
    ``max_iters`` or a relative change ||z - [z_prev; 0]|| <= tol ||z_prev||
    of the coefficients, which is the change of x = V z since V is
    orthonormal; x itself is formed once, from the last z.

    The recorded objective uses the lp weight coupled to eta through the
    tangent-majorant construction, so it is non-increasing for fixed eta.
    """
    cfg = config or MmgksConfig()
    G = _as_operator(G)
    L = as_regularizer(L, G.n)
    d = np.asarray(d, dtype=float)
    eps = 0.0 if cfg.p == 2 else cfg.epsilon

    if np.linalg.norm(d) == 0.0:
        x = np.zeros(G.n)
        return MmgksResult(x=x, objectives=[], etas=[], iterations=0,
                           converged=True, subspace_dim=0)

    ell = min(cfg.subspace_dim, min(G.m, G.n))
    # the last of max_iters iterations does not expand
    state = init_gks(G, d, ell, L, capacity=ell + cfg.max_iters - 1)
    dhat = state.q_g.T @ d             # Q_G^T d, extended as Q_G grows
    # G^T d lies in span(V), so ||G^T d|| = ||(G V)^T d|| = ||R_G^T dhat||
    grad_scale = np.linalg.norm(state.r_g.T @ dhat)
    z = np.zeros(0)
    u = np.zeros(L.q)                  # L x at x = 0
    objectives = []
    etas = []
    converged = False
    iterations = 0

    for it in range(cfg.max_iters):
        w = majorant_weights(u, cfg.p, eps)
        state.set_weights(w)
        dhat = np.append(dhat, state.q_g[:, dhat.size:].T @ d)
        gsvd = thin_gsvd(state.r_g, state.r_l)
        if cfg.eta is not None:
            eta = float(cfg.eta)
        else:
            eta = select_eta(gsvd, dhat).eta
        z_prev, z = z, project_and_solve(gsvd, eta, dhat)
        # x = V z, so G x and L x come from the factor and the product
        gvz = state.q_g @ (state.r_g @ z)
        lvz = state.lv @ z
        iterations = it + 1
        etas.append(eta)
        objectives.append(objective_value(gvz - d, lvz, mm_lambda(eta, cfg.p),
                                          cfg.p, eps))
        # V is orthonormal and only grows, so ||x - x_prev|| and ||x_prev||
        # are read on the coefficients
        n = z_prev.size
        dz = np.hypot(np.linalg.norm(z[:n] - z_prev), np.linalg.norm(z[n:]))
        ref = np.linalg.norm(z_prev)
        u = lvz
        if ref > 0 and dz <= cfg.tol * ref:
            converged = True
            break
        if iterations < cfg.max_iters:
            expand_subspace(state, eta, w, G, L, d, grad_scale, gvz, lvz)
    x = state.v[:, :z.size] @ z
    return MmgksResult(x=x, objectives=objectives, etas=etas,
                       iterations=iterations, converged=converged,
                       subspace_dim=state.k)
