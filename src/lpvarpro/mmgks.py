"""Majorize-minimize solver on a growing generalized Krylov subspace.

Solves min_x ||G x - d||_2^2 + lambda ||L x||_p^p (smoothed for small p) by
repeatedly replacing the lp term with a weighted l2 term from a quadratic
tangent majorant, solving the weighted problem projected on a small subspace,
and enlarging the subspace with the normalized gradient of the majorant. The
subspace is seeded by Golub-Kahan bidiagonalization.

The tall-skinny kernels of an inner iteration are kept few. Golub-Kahan
and the state work in the range coordinates of G (``ParamOperator.
range_rep``), where the periodic blur applies G and G^T by one FFT each.
The state caches G V, seeded as U B with no operator call and grown by one
``apply_rep`` per column, and no Q_G. The data gradient G^T (G V z - d)
takes one ``adjoint_apply`` and does not cancel near convergence, as
G^T G V z - G^T d would. A new column of V is
orthogonalized by one classical Gram-Schmidt pass, and by a second only
when the first removed more than 1 - 1/sqrt(2) of its norm ("twice is
enough"). R_G, with R_G^T R_G = (G V)^T G V, and R_L at unit weights
(p = 2, passed as None) grow by one product per column (``_grow_factor``);
other weights refactor R_L by LAPACK dgeqrt. The projected pair is factored
by ``gcv.thin_gsvd``. x = V z is formed once, after the loop. One set of
``gks_buffers`` serves all inner solves of an outer one.
"""

from __future__ import annotations

import mmap
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg.lapack import dgeqrt, dtrtrs

from .gcv import GcvConfig, StackGsvd, _check_info, select_eta, thin_gsvd
from .operators import MatrixOperator, ParamOperator
from .regularizers import Regularizer, as_regularizer


def _as_operator(G) -> ParamOperator:
    if isinstance(G, ParamOperator):
        return G
    return MatrixOperator(np.asarray(G, dtype=float))


def _finite_data(d, rows=None):
    """d as a float array; raises ValueError if an entry is NaN or inf, or
    if d is not a vector of ``rows`` entries, the rows of G, when given."""
    d = np.asarray(d, dtype=float)
    if rows is not None and d.shape != (rows,):
        raise ValueError(f"the data d must have length {rows}, the rows of "
                         f"G; got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("the data d must be finite (it holds NaN or inf)")
    return d


def _is_count(value):
    """Whether ``value`` is an integer, not a float, of at least 1."""
    try:
        return operator.index(value) >= 1
    except TypeError:
        return False


def majorant_weights(u, p, epsilon):
    """Elementwise weights (u_i^2 + eps^2)^(p/2 - 1) of the quadratic majorant."""
    if p < 2 and epsilon <= 0:
        raise ValueError("epsilon > 0 is required for p < 2")
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


def golub_kahan(G: ParamOperator, d, ell, out=None):
    """ell steps of Golub-Kahan bidiagonalization of G with starting vector d.

    ``d`` and U are in the range coordinates of G (``G.range_rep``), which
    ``G.apply_rep`` maps into and ``G.adjoint_apply`` reads. Both Lanczos
    vectors are reorthogonalized against all earlier ones, which the
    column-major buffers ``out`` = (U, V), or new ones, keep contiguous.

    Returns (U, B, V), U (``G.rep_size`` x (k+1)) and V (n x k,
    orthonormal) views of the buffers and B ((k+1) x k) lower bidiagonal,
    with G V = U B.
    On breakdown (an alpha or beta at most eps times the largest so far, a
    scale of G, not of d) k < ell, and k = 0 when d = 0 or G^T d = 0; a
    zero last column of U, left by a breakdown, meets the zero last row of B.
    """
    d = np.asarray(d, dtype=float)
    if not 1 <= ell <= min(G.m, G.n):
        raise ValueError("subspace dimension must satisfy 1 <= ell <= min(m, n)")
    us, vs = out or (np.empty((G.rep_size, ell + 1), order="F"),
                     np.empty((G.n, ell), order="F"))
    alphas = np.zeros(ell)
    betas = np.zeros(ell + 1)
    eps, scale = np.finfo(float).eps, 0.0

    beta = np.linalg.norm(d)
    if beta == 0.0:
        return np.zeros((G.rep_size, 1)), np.zeros((1, 0)), vs[:, :0]
    us[:, 0] = d / beta
    betas[0] = beta
    k = 0
    for i in range(ell):
        v = G.adjoint_apply(us[:, i])
        if i > 0:
            v -= betas[i] * vs[:, i - 1]
            v -= vs[:, :i] @ (vs[:, :i].T @ v)
        alpha = np.linalg.norm(v)
        scale = max(scale, alpha)
        if alpha <= eps * scale:
            break
        vs[:, i] = v / alpha
        alphas[i] = alpha
        k = i + 1

        u = G.apply_rep(vs[:, i]) - alpha * us[:, i]
        u -= us[:, :i + 1] @ (us[:, :i + 1].T @ u)
        beta = np.linalg.norm(u)
        scale = max(scale, beta)
        if beta <= eps * scale:
            us[:, i + 1] = 0.0
            break
        us[:, i + 1] = u / beta
        betas[i + 1] = beta

    B = np.eye(k + 1, k) * alphas[:k] + np.eye(k + 1, k, -1) * betas[1:k + 1]
    return us[:, :k + 1], B, vs[:, :k]


def gks_buffers(G: ParamOperator, L: Regularizer, cfg: MmgksConfig):
    """Empty column-major (U, V, G V, L V) of ``mmgks_solve(G, L, d, cfg)``.

    U and G V have ``G.rep_size`` rows, the length of range coordinates.
    """
    ell = min(cfg.subspace_dim, G.m, G.n)
    cap = ell + cfg.max_iters - 1       # the last iteration does not expand
    shapes = (G.rep_size, ell + 1), (G.n, cap), (G.rep_size, cap), (L.q, cap)
    # views of one anonymous mapping, which the system takes back when they
    # die; in malloc's heap they would stay resident and fragment it
    ends = np.cumsum([r * c for r, c in shapes])
    parts = np.split(np.frombuffer(mmap.mmap(-1, 8 * ends[-1])), ends[:-1])
    return tuple(p.reshape(c, r).T for p, (r, c) in zip(parts, shapes))


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


def _factor_with_data(a):
    """(R_A, dhat, o) of the column-major [A, d], which is overwritten.

    One ``_r_factor`` of [A, d] = Q [[R_A, dhat], [0, rho]] gives R_A, dhat =
    Q_A^T d and o = rho^2 = ||d - Q_A dhat||^2 (0 when A leaves no row).
    """
    k = a.shape[1] - 1
    r = _r_factor(a)
    return r[:k, :k], r[:k, k], r[k, k]**2 if r.shape[0] > k else 0.0


def _grow_factor(r, rows, b, norm2):
    """Extend the triangular factor r of A^T A by one column a of A.

    ``r`` (k x k) has r^T r = A^T A for an A with ``rows`` rows, ``b`` =
    A^T a and ``norm2`` = ||a||^2. Returns [[r, s], [0, rho]], the factor
    of [A, a], with s = r^-T b and rho^2 = norm2 - ||s||^2; or None, for the
    caller to refactor, when A has no row for rho, r is singular, or
    rho^2 <= norm2 / 16 (rho mostly roundoff: a nearly lies in range(A)).
    """
    k = r.shape[1]
    if rows <= k:
        return None
    s, info = dtrtrs(r, b, trans=1)
    rho2 = norm2 - s @ s
    if info != 0 or not rho2 > norm2 / 16.0:
        return None
    grown = np.empty_like(r, dtype=float, shape=(k + 1, k + 1))  # r's memory order
    grown[:k, :k] = r
    grown[:k, k] = s
    grown[k, :k] = 0.0
    grown[k, k] = np.sqrt(rho2)
    return grown


class GksState:
    """Growing orthonormal basis V with the cached G V and L V.

    G V and ``d`` are in the range coordinates of G, where inner products
    are those of R^m. The projected problem reads R_G, dhat and R_L only.
    R_G^T R_G = (G V)^T G V and dhat = Q_G^T d for Q_G = G V R_G^-1, never
    formed, so ||G V z - d||^2 = ||R_G z - dhat||^2 + o, with o = ||d - Q_G
    dhat||^2 kept as ``outside``, not read as the cancelling ||d||^2 -
    ||dhat||^2. ``gtd_norm`` is ||G^T d||, the scale of the gradient; V
    spans G^T d, as in the Golub-Kahan ``seed`` (R_G, dhat, gtd_norm, o) of
    ``init_gks``. R_L factors W^(1/2) L V, with no Q. The ``buffers`` of
    ``gks_buffers`` hold V, G V and L V, not zeroed: only the k written
    columns, which ``v``, ``gv`` and ``lv`` view, are read.

    ``append_direction`` grows R_G by ``_grow_factor`` from (G V)^T g_new,
    or refactors R_G, dhat and o from the cached [G V, d], with no apply of
    G, when that declines (as for a G V with fewer rows than columns).
    ``set_weights`` factors W^(1/2) L V by ``_r_factor``. Unit weights (None)
    never change, so R_L is then kept and grown by ``_grow_factor`` from
    (L V)^T lv_new; when that declines it is dropped for the next
    ``set_weights`` to refactor.
    """

    def __init__(self, G: ParamOperator, d, k, buffers, seed):
        self._g, self._d, self._k = G, np.asarray(d, dtype=float), k
        self._v, self._gv, self._lv = buffers
        self.r_g, self.dhat, self.gtd_norm, self.outside = seed
        self.r_l, self._grows = None, False  # grows: R_L factors L V now

    @property
    def k(self) -> int:
        return self._k

    @property
    def v(self):
        return self._v[:, :self._k]

    @property
    def gv(self):
        return self._gv[:, :self._k]

    @property
    def lv(self):
        return self._lv[:, :self._k]

    def set_weights(self, w):
        """Set R_L, the factor of diag(sqrt(w)) L V; None is unit weight."""
        if not (w is None and self._grows):
            # a fresh column-major product, which the factor overwrites
            scale = 1.0 if w is None else np.sqrt(w)[:, None]
            self.r_l = _r_factor(np.multiply(scale, self.lv, order="F"))
        self._grows = w is None

    def data_gradient(self, z):
        """G^T (G V z - d), by one ``adjoint_apply`` of G."""
        res = self.gv @ z
        res -= self._d
        return self._g.adjoint_apply(res)

    def append_direction(self, v_new, lv_new):
        """Add a column orthogonal to V; raises IndexError when full.

        Takes one ``apply_rep`` of G.
        """
        k = self._k
        self._v[:, k] = v_new
        self._lv[:, k] = lv_new
        self._gv[:, k] = self._g.apply_rep(v_new)
        self._k = k + 1
        # (G V)^T g_new and ||g_new||^2 in one product
        b = self.gv.T @ self._gv[:, k]
        r_g = _grow_factor(self.r_g, self._g.m, b[:k], b[k])
        if r_g is None:
            a = np.empty((self._gv.shape[0], k + 2), order="F")
            a[:, :k + 1] = self.gv
            a[:, k + 1] = self._d
            self.r_g, self.dhat, self.outside = _factor_with_data(a)
        else:
            # Q_G gains (g_new - Q_G s) / rho; g_new^T d = v_new^T G^T d = 0
            self.r_g, s, rho = r_g, r_g[:k, k], r_g[k, k]
            self.dhat = np.append(self.dhat, -(s @ self.dhat) / rho)
            self.outside = max(self.outside - self.dhat[-1]**2, 0.0)
        if self._grows:
            self.r_l = _grow_factor(self.r_l, self._lv.shape[0],
                                    self._lv[:, :k].T @ lv_new,
                                    lv_new @ lv_new)
            self._grows = self.r_l is not None


def init_gks(G: ParamOperator, d, L: Regularizer, buffers) -> GksState | None:
    """Seed the subspace in ``buffers`` with ell Golub-Kahan steps on (G, d).

    G V = U B holds for the bidiagonalization, so the cached G V is U B, and
    with d = ||d|| U e_1, [G V, d] = U [B, ||d|| e_1]: R_G, dhat and o are
    those of the small (k+1) x (k+1) matrix [B, ||d|| e_1]. The first step
    gives ||G^T d|| = ||d|| alpha_1. d enters in range coordinates (one
    transform on the periodic blur). V, G V and L V fill the ``buffers`` of
    ``gks_buffers``, with ell + 1 U columns. Returns the ``GksState``, or
    None when Golub-Kahan stops at its first step (G^T d = 0, d = 0 too).
    """
    d = G.range_rep(d)
    u, b, v = golub_kahan(G, d, buffers[0].shape[1] - 1, buffers[:2])
    k = v.shape[1]
    if k == 0:
        return None
    np.matmul(u, b, out=buffers[2][:, :k])
    for j in range(k):
        buffers[3][:, j] = L.apply(v[:, j])
    beta = np.linalg.norm(d)
    a = np.zeros((k + 1, k + 1), order="F")
    a[:, :k], a[0, k] = b, beta
    r_g, dhat, outside = _factor_with_data(a)
    seed = (r_g, dhat, beta * b[0, 0], outside)
    return GksState(G, d, k, buffers[1:], seed)


def project_and_solve(gsvd: StackGsvd, eta, dhat):
    """Solve min_z ||R_G z - dhat||^2 + eta ||R_L z||^2 on the projected pair.

    ``gsvd`` is the thin GSVD of (R_G, R_L): with R_G = U diag(c) W^T R and
    R_L = (Q_L W) W^T R, the solution ``gsvd.solve(eta, dhat)`` is one
    triangular solve. ``eta`` > 0 is the GCV choice or ``MmgksConfig.eta``.
    """
    return gsvd.solve(eta, dhat)


def expand_subspace(state: GksState, eta, weights, L: Regularizer,
                    grad_scale, z, lvz):
    """Enlarge the basis with the normalized majorant gradient at x = V z.

    The expansion vector is r = G^T (G V z - d) + eta L^T (w * (L V z)),
    its data part from the cached G V and with ``lvz`` = L V z, taken as
    it is when ``weights`` is None (w = 1). It is projected out of V by one
    classical Gram-Schmidt pass, and by a second only when the first removed
    more than 1 - 1/sqrt(2) of its norm ("twice is enough"), and normalized.
    Returns False without expanding when r is negligible, at most 1e-14
    ``grad_scale`` with ``grad_scale`` = ||G^T d|| (stationarity on the
    current weights).
    """
    wlvz = lvz if weights is None else weights * lvz
    r = state.data_gradient(z) + eta * L.adjoint_apply(wlvz)
    floor = 1e-14 * grad_scale
    nr = np.linalg.norm(r)
    if nr <= floor:
        return False
    r -= state.v @ (state.v.T @ r)
    nr, norm = np.linalg.norm(r), nr
    if nr < norm / np.sqrt(2.0):
        r -= state.v @ (state.v.T @ r)
        nr = np.linalg.norm(r)
    if nr <= floor:
        return False
    v_new = r / nr
    state.append_direction(v_new, L.apply(v_new))
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
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and nonnegative")
        if self.p < 2 and self.epsilon == 0:
            raise ValueError("epsilon > 0 is required for p < 2")
        if not 0.0 <= self.tol < np.inf:
            raise ValueError("tol must be finite and nonnegative")
        if not (_is_count(self.subspace_dim) and _is_count(self.max_iters)):
            raise ValueError("subspace_dim and max_iters must be integers of "
                             "at least 1")
        if self.eta is not None and not 0.0 < self.eta < np.inf:
            raise ValueError("eta must be finite and positive, or None")


@dataclass
class MmgksResult:
    x: np.ndarray
    objectives: list
    etas: list
    iterations: int
    converged: bool
    subspace_dim: int


def mmgks_solve(G, L, d, config: MmgksConfig | None = None, buffers=None):
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
    It fills ``buffers`` of ``gks_buffers(G, L, config)``, which a caller may
    reuse across solves, or new ones when None; they change no result.
    """
    G = _as_operator(G)
    d = _finite_data(d, G.m)
    cfg = config or MmgksConfig()
    L = as_regularizer(L, G.n)
    eps = 0.0 if cfg.p == 2 else cfg.epsilon
    state = init_gks(G, d, L, buffers or gks_buffers(G, L, cfg))
    if state is None:                  # G^T d = 0: x = 0 is the minimizer
        return MmgksResult(x=np.zeros(G.n), objectives=[], etas=[],
                           iterations=0, converged=True, subspace_dim=0)
    grad_scale = state.gtd_norm
    z = np.zeros(0)
    u = np.zeros(L.q)                  # L x at x = 0
    objectives, etas = [], []
    converged, iterations = False, 0

    for it in range(cfg.max_iters):
        w = None if cfg.p == 2 else majorant_weights(u, cfg.p, eps)
        state.set_weights(w)
        gsvd = thin_gsvd(state.r_g, state.r_l)
        if cfg.eta is not None:
            eta = float(cfg.eta)
        else:
            eta = select_eta(gsvd, state.dhat).eta
        z_prev, z = z, project_and_solve(gsvd, eta, state.dhat)
        # x = V z: L x is read on the cached product, and G x - d has the
        # norm of [R_G z - dhat; ||d - Q_G dhat||]
        lvz = state.lv @ z
        res = np.append(state.r_g @ z - state.dhat, np.sqrt(state.outside))
        iterations = it + 1
        etas.append(eta)
        objectives.append(objective_value(res, lvz, mm_lambda(eta, cfg.p),
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
            expand_subspace(state, eta, w, L, grad_scale, z, lvz)
    x = state.v[:, :z.size] @ z
    return MmgksResult(x=x, objectives=objectives, etas=etas,
                       iterations=iterations, converged=converged,
                       subspace_dim=state.k)
