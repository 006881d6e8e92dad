"""Majorize-minimize solver on a growing generalized Krylov subspace.

Solves min_x ||G x - d||_2^2 + lambda ||L x||_p^p (smoothed for small p) by
repeatedly replacing the lp term with a weighted l2 term from a quadratic
tangent majorant, solving the weighted problem projected on a small subspace,
and enlarging the subspace with the normalized gradient of the majorant. The
subspace is seeded by Golub-Kahan bidiagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gcv import GcvConfig, StackGsvd, select_eta, thin_gsvd
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


def objective_value(x, G, d, L, lam, p, epsilon):
    """Smoothed objective ||Gx - d||^2 + lam * sum_j (((Lx)_j)^2 + eps^2)^(p/2)."""
    if p <= 1 and epsilon <= 0:
        raise ValueError("epsilon > 0 is required for p <= 1")
    G = _as_operator(G)
    L = as_regularizer(L, G.n)
    x = np.asarray(x, dtype=float)
    res = G.apply(x) - np.asarray(d, dtype=float)
    u = L.apply(x)
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


def golub_kahan(G, d, ell):
    """ell steps of Golub-Kahan bidiagonalization of G with starting vector d.

    Both Lanczos vectors are reorthogonalized against all earlier ones.

    Returns (U, B, V, breakdown) with U (m x (k+1)), B ((k+1) x k) lower
    bidiagonal, V (n x k) orthonormal and G V = U B. On breakdown (a zero
    vector encountered) k < ell and breakdown is True.
    """
    G = _as_operator(G)
    d = np.asarray(d, dtype=float)
    m, n = G.m, G.n
    if not 1 <= ell <= min(m, n):
        raise ValueError("subspace dimension must satisfy 1 <= ell <= min(m, n)")
    us = np.zeros((m, ell + 1))
    vs = np.zeros((n, ell))
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

    B = np.zeros((k + 1, k))
    for i in range(k):
        B[i, i] = alphas[i]
        B[i + 1, i] = betas[i + 1]
    return us[:, :k + 1], B, vs[:, :k], breakdown


def _column_buffer(a, capacity):
    """Column-major (rows x capacity) buffer whose leading columns hold a."""
    buf = np.zeros((a.shape[0], capacity), order="F")
    buf[:, :a.shape[1]] = a
    return buf


class _GrowingQr:
    """Thin QR factors Q (m x rank) and R (rank x k) of a growing column set.

    The factors live in preallocated buffers and are read through the views
    ``q`` and ``r``; rank < k only once Q spans all of R^m. An R-only
    factorization (``with_q=False``) has ``q`` None and takes no new columns.
    """

    def __init__(self, a, capacity, with_q=True):
        if with_q:
            q, r = np.linalg.qr(a)
            self._q = _column_buffer(q, capacity)
        else:
            r = np.linalg.qr(a, mode="r")
            self._q = None
        self.rank, self.k = r.shape
        self._r = np.zeros((capacity, capacity), order="F")
        self._r[:self.rank, :self.k] = r

    @property
    def q(self):
        return None if self._q is None else self._q[:, :self.rank]

    @property
    def r(self):
        return self._r[:self.rank, :self.k]

    def reserve(self, capacity):
        """Move the factors into buffers with room for ``capacity`` columns."""
        r = self.r
        self._r = np.zeros((capacity, capacity), order="F")
        self._r[:self.rank, :self.k] = r
        if self._q is not None:
            self._q = _column_buffer(self.q, capacity)

    def append(self, col):
        """Extend the factors by one column; the buffers must have room."""
        q = self.q
        s = q.T @ col
        resid = col - q @ s
        # one reorthogonalization pass keeps the factors near machine precision
        s2 = q.T @ resid
        resid -= q @ s2
        s += s2
        rho = np.linalg.norm(resid)
        self._r[:self.rank, self.k] = s
        if self.rank < q.shape[0] and rho > 1e-15 * max(np.linalg.norm(col), 1.0):
            self._q[:, self.rank] = resid / rho
            self._r[self.rank, self.k] = rho
            self.rank += 1
        # otherwise Q already spans the column space and the new column only
        # extends the triangular factor
        self.k += 1


class GksState:
    """Growing orthonormal basis V with cached products G V and L V.

    Also holds thin QR factors of G V and of the currently weighted P L V.
    All of them live in column-major buffers with room for ``capacity``
    columns, which double when a column arrives at a full buffer; ``v``,
    ``gv``, ``lv`` and the factors are views of the filled part.

    The weighted factor is rebuilt when the weights change, as R only, since
    the projected problem reads R alone. Q_L is formed the first time the
    same weights come back, and from then on new columns are appended
    incrementally.
    """

    def __init__(self, v, gv, lv, capacity=None):
        self._k = v.shape[1]
        capacity = max(capacity or 0, self._k, 1)
        self._v = _column_buffer(v, capacity)
        self._gv = _column_buffer(gv, capacity)
        self._lv = None if lv is None else _column_buffer(lv, capacity)
        self._qr_g = _GrowingQr(gv, capacity)
        self._qr_l = None
        self.weights = None

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
    def gv(self):
        return self._gv[:, :self._k]

    @property
    def lv(self):
        return None if self._lv is None else self._lv[:, :self._k]

    @property
    def q_g(self):
        return self._qr_g.q

    @property
    def r_g(self):
        return self._qr_g.r

    @property
    def q_l(self):
        return None if self._qr_l is None else self._qr_l.q

    @property
    def r_l(self):
        return None if self._qr_l is None else self._qr_l.r

    def set_weights(self, w):
        """Refresh the QR of diag(sqrt(w)) L V for the given majorant weights."""
        w = np.asarray(w, dtype=float)
        if (self.weights is not None and self.weights.shape == w.shape
                and np.array_equal(self.weights, w)):
            # a factor with Q_L is kept in step by append_direction; an
            # R-only one that missed columns is refactored once with Q_L so
            # that later columns are appended incrementally
            if self._qr_l.k == self.k:
                return
            with_q = True
        else:
            # new weights discard the old factor; the projected problem
            # reads R_L alone
            with_q = False
            self.weights = w.copy()
        self._qr_l = _GrowingQr(np.sqrt(w)[:, None] * self.lv, self.capacity,
                                with_q)

    def append_direction(self, v_new, gv_new, lv_new):
        if self._k == self.capacity:
            self._reserve(2 * self.capacity)
        k = self._k
        self._v[:, k] = v_new
        self._gv[:, k] = gv_new
        self._lv[:, k] = lv_new
        self._k = k + 1
        self._qr_g.append(gv_new)
        # an R-only weighted factor is rebuilt by the next set_weights, so
        # only a factor with Q_L is extended
        if self._qr_l is not None and self._qr_l.q is not None:
            self._qr_l.append(np.sqrt(self.weights) * lv_new)

    def _reserve(self, capacity):
        self._v = _column_buffer(self.v, capacity)
        self._gv = _column_buffer(self.gv, capacity)
        self._lv = _column_buffer(self.lv, capacity)
        self._qr_g.reserve(capacity)
        if self._qr_l is not None:
            self._qr_l.reserve(capacity)


def init_gks(G, d, ell, L=None, capacity=None) -> GksState:
    """Seed the solution subspace with ell Golub-Kahan steps on (G, d).

    ``capacity`` preallocates room for that many basis columns.
    """
    G = _as_operator(G)
    _, _, v, _ = golub_kahan(G, d, ell)
    if v.shape[1] == 0:
        raise ValueError("bidiagonalization broke down immediately (zero data?)")
    gv = np.column_stack([G.apply(v[:, j]) for j in range(v.shape[1])])
    lv = None
    if L is not None:
        L = as_regularizer(L, G.n)
        lv = np.column_stack([L.apply(v[:, j]) for j in range(v.shape[1])])
    return GksState(v, gv, lv, capacity)


def project_and_solve(gsvd: StackGsvd, eta, dhat):
    """Solve min_z ||R_G z - dhat||^2 + eta ||R_L z||^2 on the projected pair.

    ``gsvd`` is the thin GSVD of (R_G, R_L): with R_G = U diag(c) W^T R and
    R_L = T W^T R, the solution ``gsvd.solve(eta, dhat)`` is one triangular
    solve.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    return gsvd.solve(eta, dhat)


def expand_subspace(state: GksState, z, eta, weights, G, L, d,
                    grad_scale=None, gvz=None, lvz=None):
    """Enlarge the basis with the normalized majorant gradient at x = V z.

    The expansion vector is r = G^T (G V z - d) + eta L^T (w * (L V z)),
    reorthogonalized against V and normalized. ``gvz`` and ``lvz`` are
    G V z and L V z when the caller already holds them. Returns False without
    expanding when the gradient is negligible (stationarity on the current
    weights).
    """
    G = _as_operator(G)
    L = as_regularizer(L, G.n)
    if gvz is None:
        gvz = state.gv @ z
    if lvz is None:
        lvz = state.lv @ z
    r = G.adjoint_apply(gvz - d) + eta * L.adjoint_apply(weights * lvz)
    if grad_scale is None:
        grad_scale = np.linalg.norm(G.adjoint_apply(d))
    floor = 1e-14 * max(grad_scale, 1.0)
    if np.linalg.norm(r) <= floor:
        return False
    v = state.v
    norm_before = np.linalg.norm(r)
    r = r - v @ (v.T @ r)
    # repeat the pass when cancellation ate more than 1/sqrt(2) of the norm
    if np.linalg.norm(r) < norm_before / np.sqrt(2.0):
        r = r - v @ (v.T @ r)
    nr = np.linalg.norm(r)
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
    gcv: GcvConfig = field(default_factory=GcvConfig)

    def __post_init__(self):
        if not 0.0 < self.p <= 2.0:
            raise ValueError("p must lie in (0, 2]")
        if self.p <= 1 and self.epsilon <= 0:
            raise ValueError("epsilon > 0 is required for p <= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


@dataclass
class MmgksResult:
    x: np.ndarray
    objectives: list
    etas: list
    iterations: int
    converged: bool
    subspace_dim: int


def mmgks_solve(G, L, d, config: MmgksConfig | None = None, x0=None):
    """Run the majorize-minimize subspace iteration.

    Per iteration: weights from the current iterate, QR of the weighted
    L V, one thin GSVD of the projected pair (R_G, R_L) that both the GCV
    choice of eta (unless eta is fixed) and the projected Tikhonov solve
    read, then subspace expansion with the majorant gradient. When expansion
    stalls the reweighting continues on the fixed subspace. Stops on
    ``max_iters`` or a relative change below ``tol``.

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
    state = init_gks(G, d, ell, L, capacity=ell + cfg.max_iters)
    grad_scale = np.linalg.norm(G.adjoint_apply(d))

    x = np.zeros(G.n) if x0 is None else np.asarray(x0, dtype=float).copy()
    u = L.apply(x)
    objectives = []
    etas = []
    converged = False
    iterations = 0

    for it in range(cfg.max_iters):
        w = majorant_weights(u, cfg.p, eps)
        state.set_weights(w)
        dhat = state.q_g.T @ d
        gsvd = thin_gsvd(state.r_g, state.r_l)
        if cfg.eta is not None:
            eta = float(cfg.eta)
        else:
            eta = select_eta(gsvd, dhat, cfg.gcv).eta
        z = project_and_solve(gsvd, eta, dhat)
        x_new = state.v @ z
        # x_new = V z, so G x_new and L x_new come from the cached products;
        # the objective reads them as the one-column operators [G V z] and
        # [L V z] applied to the coefficient 1
        gvz = state.gv @ z
        lvz = state.lv @ z
        iterations = it + 1
        etas.append(eta)
        objectives.append(objective_value(np.ones(1), gvz[:, None], d,
                                          lvz[:, None], mm_lambda(eta, cfg.p),
                                          cfg.p, eps))
        dx = np.linalg.norm(x_new - x)
        ref = np.linalg.norm(x)
        x = x_new
        u = lvz
        if ref > 0 and dx <= cfg.tol * ref:
            converged = True
            break
        expand_subspace(state, z, eta, w, G, L, d, grad_scale,
                        gvz=gvz, lvz=lvz)
    return MmgksResult(x=x, objectives=objectives, etas=etas,
                       iterations=iterations, converged=converged,
                       subspace_dim=state.k)
