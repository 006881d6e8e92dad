"""Outer nonlinear solvers for separable inverse problems.

Three Gauss-Newton flavors over the blur parameters y:

* ``gn_nls_solve``: joint GN on (x, y) for the stacked Tikhonov residual.
* ``genvarpro_solve``: variable projection for p = 2; x is eliminated by a
  regularized linear solve and y follows a GN step on the projected residual.
* ``lp_varpro_solve``: the lp extension; x comes from the majorize-minimize
  subspace solver, the regularizer is reweighted per outer iteration, and the
  projected-residual Jacobian uses the weighted pair.

The projected-residual Jacobian comes in three variants (full, half, reduced)
evaluated through the GSVD of the stacked pair so that only matrix-vector
products and one diagonal inverse appear.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy.linalg import solve_triangular

from .gcv import GcvConfig
from .metrics import ConvergenceRow, rre
from .mmgks import (MmgksConfig, _as_operator, majorant_weights, mmgks_solve)
from .regularizers import as_regularizer


class SolverError(RuntimeError):
    """Raised when an outer solve diverges or stalls; carries partial history."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class JacobianVariant(Enum):
    FULL = "full"
    HALF = "half"
    REDUCED = "reduced"


DENSE_LIMIT = 4096


@dataclass
class StackGsvd:
    """Thin GSVD of a stacked pair {G, L}.

    G = U diag(c) Z^T and L = T Z^T with Z^T = W^T R, where ``u`` (m x n) has
    orthonormal columns, ``c`` and ``s2 = 1 - c^2`` hold the generalized
    spectra, and ``t`` (q x n) equals X_L diag(s), so no division by small
    generalized values ever occurs.
    """

    u: np.ndarray
    t: np.ndarray
    w: np.ndarray
    r: np.ndarray
    c: np.ndarray
    s2: np.ndarray

    def solve_z(self, vec):
        """Apply Z^{-1} = W^T R^{-T} to a vector."""
        return self.w.T @ solve_triangular(self.r.T, vec, lower=True)


def thin_gsvd(g_dense, l_dense) -> StackGsvd:
    """Thin GSVD of the pair {G, L} via QR of the stack and an SVD of the top."""
    g_dense = np.asarray(g_dense, dtype=float)
    l_dense = np.asarray(l_dense, dtype=float)
    m, n = g_dense.shape
    stack = np.vstack([g_dense, l_dense])
    q, r = np.linalg.qr(stack)
    svals = np.linalg.svd(r, compute_uv=False)
    if svals[-1] <= 2 * n * np.finfo(float).eps * svals[0]:
        raise np.linalg.LinAlgError(
            "stacked pair {G, L} is rank deficient; cannot form its GSVD")
    q1, q2 = q[:m], q[m:]
    u, c, wt = np.linalg.svd(q1, full_matrices=False)
    c = np.clip(c, 0.0, 1.0)
    w = wt.T
    t = q2 @ w
    return StackGsvd(u=u, t=t, w=w, r=r, c=c, s2=np.maximum(0.0, 1.0 - c**2))


def tik_solve(G, L, lam, d, method="dense", mmgks_config=None):
    """Minimize ||G x - d||^2 + lam ||L x||^2.

    ``method='dense'`` solves the stacked least-squares problem by QR and is
    meant for problems up to a few thousand unknowns; ``method='gks'``
    delegates to the subspace solver with p = 2 and fixed eta = lam.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    G = _as_operator(G)
    L = as_regularizer(L, G.n)
    d = np.asarray(d, dtype=float)
    if method == "gks":
        cfg = replace(mmgks_config or MmgksConfig(), p=2.0, eta=lam)
        return mmgks_solve(G, L, d, cfg).x
    if method != "dense":
        raise ValueError("method must be 'dense' or 'gks'")
    g_dense = G.dense()
    if lam == 0.0:
        stacked = g_dense
        rhs = d
    else:
        stacked = np.vstack([g_dense, np.sqrt(lam) * L.dense()])
        rhs = np.concatenate([d, np.zeros(L.q)])
    x, _, rank, _ = np.linalg.lstsq(stacked, rhs, rcond=None)
    if rank < G.n:
        raise np.linalg.LinAlgError(
            "stacked operator is rank deficient; the regularized solution "
            "is not unique")
    return x


def _check_dense_feasible(op):
    if op.n > DENSE_LIMIT:
        raise ValueError(
            f"full/half Jacobians need a dense GSVD of the pair, which is "
            f"limited to n <= {DENSE_LIMIT} unknowns (got n = {op.n}); use "
            f"the reduced Jacobian instead")


def jacobian_half(op, x, lam, L, gsvd=None, l_dense=None):
    """Projected-residual Jacobian keeping only the projection term.

    Column j is -A_j where A_j projects the derivative of the prediction,
    i.e. the derivative of y' -> P_perp(y) ([d; 0] - G_L(y') x) with the
    projector and x frozen at the current y.
    """
    _check_dense_feasible(op)
    L = as_regularizer(L, op.n)
    if l_dense is None:
        l_dense = L.dense()
    if gsvd is None:
        gsvd = thin_gsvd(op.dense(), l_dense)
    m, q, rpar = op.m, l_dense.shape[0], op.r
    den = gsvd.c**2 + lam * gsvd.s2
    cols = np.zeros((m + q, rpar))
    for j in range(rpar):
        v = op.derivative_apply(j, np.asarray(x, dtype=float))
        g = (gsvd.c / den) * (gsvd.u.T @ v)
        cols[:m, j] = gsvd.u @ (gsvd.c * g) - v
        cols[m:, j] = np.sqrt(lam) * (gsvd.t @ g)
    return cols


def jacobian_full(op, x, lam, L, d, gsvd=None, l_dense=None):
    """Projected-residual Jacobian with both terms, columns -A_j - B_j.

    This is the exact derivative of y -> [d; 0] - G_L(y) x(y) with x(y) the
    regularized solution, evaluated through the GSVD of the pair.
    """
    _check_dense_feasible(op)
    L = as_regularizer(L, op.n)
    if l_dense is None:
        l_dense = L.dense()
    if gsvd is None:
        gsvd = thin_gsvd(op.dense(), l_dense)
    cols = jacobian_half(op, x, lam, L, gsvd=gsvd, l_dense=l_dense)
    m = op.m
    den = gsvd.c**2 + lam * gsvd.s2
    misfit = op.apply(np.asarray(x, dtype=float)) - np.asarray(d, dtype=float)
    for j in range(op.r):
        wj = op.derivative_adjoint_apply(j, misfit)
        tvec = gsvd.solve_z(wj)
        cols[:m, j] += gsvd.u @ ((gsvd.c / den) * tvec)
        cols[m:, j] += np.sqrt(lam) * (gsvd.t @ (tvec / den))
    return cols


def jacobian_reduced(op, x):
    """Columns (dG/dy_j) x of the data-fit derivative with x frozen."""
    x = np.asarray(x, dtype=float)
    return np.column_stack([op.derivative_apply(j, x) for j in range(op.r)])


@dataclass
class RunRecord:
    """Append-only per-iteration history of an outer solve."""

    rows: list = field(default_factory=list)
    ys: list = field(default_factory=list)            # y0, then y after each update
    func_values: list = field(default_factory=list)   # ||F||^2 per iteration
    grad_norms: list = field(default_factory=list)
    etas: list = field(default_factory=list)
    x_snapshots: dict = field(default_factory=dict)
    best_iteration: int = 0
    best_rre_x: float = np.inf
    best_x: np.ndarray | None = None
    converged: bool = False
    stop_reason: str = ""

    def add_row(self, iteration, func_value, grad_norm, rre_y, rre_x, eta,
                wall_time):
        base_f = self.func_values[0] if self.func_values else func_value
        base_g = self.grad_norms[0] if self.grad_norms else grad_norm
        self.func_values.append(func_value)
        self.grad_norms.append(grad_norm)
        self.etas.append(eta)
        self.rows.append(ConvergenceRow(
            iteration=iteration,
            rel_func_value=func_value / base_f if base_f else np.nan,
            rel_grad_norm=grad_norm / base_g if base_g else np.nan,
            rre_y=rre_y, rre_x=rre_x, eta=eta, wall_time=wall_time))

    @property
    def rre_x_series(self):
        return [row.rre_x for row in self.rows]

    @property
    def rre_y_series(self):
        return [row.rre_y for row in self.rows]


@dataclass
class VarproConfig:
    """Settings shared by the variable-projection outer solvers."""

    y0: np.ndarray | None = None
    variant: JacobianVariant = JacobianVariant.REDUCED
    regularizer: object = None          # Regularizer, matrix, or None (identity)
    max_iters: int = 30
    step_tol: float = 1e-6
    p: float = 2.0
    epsilon: float = 1e-2
    inner: str = "auto"                 # 'dense', 'gks' or 'auto'
    inner_iters: int = 30
    inner_tol: float = 1e-4
    subspace_dim: int = 10
    lam_mode: str = "gcv"               # 'fixed', 'gcv' or 'sweep-oracle'
    lam: float | None = None
    sweep_grid: np.ndarray | None = None
    omega: float = 1.0
    damping: bool = False
    max_halvings: int = 10
    keep_iterates: bool = False
    divergence_factor: float = 10.0

    def __post_init__(self):
        if self.step_tol <= 0:
            raise ValueError("step_tol must be positive")
        if not 0.0 < self.p <= 2.0:
            raise ValueError("p must lie in (0, 2]")
        if self.lam_mode == "fixed" and self.lam is None:
            raise ValueError("fixed lambda mode needs a lambda value")
        if isinstance(self.variant, str):
            self.variant = JacobianVariant(self.variant)

    def resolved_sweep_grid(self):
        if self.sweep_grid is not None:
            return np.asarray(self.sweep_grid, dtype=float)
        return np.logspace(-4, 0, 20)

    def mmgks_config(self, eta=None):
        return MmgksConfig(p=self.p, epsilon=self.epsilon,
                           subspace_dim=self.subspace_dim,
                           max_iters=self.inner_iters, tol=self.inner_tol,
                           eta=eta, gcv=GcvConfig(omega=self.omega))


def _dense_gcv_lambda(gsvd: StackGsvd, d, omega, grid=None):
    """GCV on the full (unprojected) pair via its thin GSVD filters."""
    d = np.asarray(d, dtype=float)
    dtil = gsvd.u.T @ d
    outside = max(float(d @ d - dtil @ dtil), 0.0)
    m = gsvd.u.shape[0]

    def value(lam):
        f = gsvd.c**2 / (gsvd.c**2 + lam * gsvd.s2)
        den = (m - omega * f.sum()) ** 2
        return m * (outside + float(((1 - f) ** 2 * dtil**2).sum())) / den

    grid = np.logspace(-12, 4, 200) if grid is None else grid
    vals = np.array([value(g) for g in grid])
    i = int(np.argmin(vals))
    a = np.log(grid[max(i - 1, 0)])
    b = np.log(grid[min(i + 1, len(grid) - 1)])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = value(np.exp(c)), value(np.exp(e))
    while (b - a) > 1e-4:
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = value(np.exp(c))
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = value(np.exp(e))
    return float(np.exp(c if fc < fe else e))


def _use_dense(problem_n, cfg: VarproConfig):
    if cfg.inner == "dense":
        return True
    if cfg.inner == "gks":
        return False
    return problem_n <= DENSE_LIMIT


def _inner_solve(op, L, d, cfg: VarproConfig, x_true):
    """Solve for x at the current parameters; returns (x, eta_effective, lam)."""
    dense = _use_dense(op.n, cfg)
    if cfg.p == 2.0:
        if cfg.lam_mode == "fixed":
            lam = float(cfg.lam)
            x = tik_solve(op, L, lam, d, "dense" if dense else "gks",
                          cfg.mmgks_config())
            return x, lam, lam
        if cfg.lam_mode == "gcv":
            if dense:
                gsvd = thin_gsvd(op.dense(), L.dense())
                lam = _dense_gcv_lambda(gsvd, d, cfg.omega)
                x = tik_solve(op, L, lam, d, "dense")
                return x, lam, lam
            res = mmgks_solve(op, L, d, cfg.mmgks_config())
            lam = res.etas[-1] if res.etas else np.nan
            return res.x, lam, lam
        if cfg.lam_mode == "sweep-oracle":
            if x_true is None:
                raise ValueError("sweep-oracle lambda mode needs x_true")
            best = None
            for lam in cfg.resolved_sweep_grid():
                x = tik_solve(op, L, lam, d, "dense" if dense else "gks",
                              cfg.mmgks_config())
                err = rre(x, x_true)
                if best is None or err < best[0]:
                    best = (err, lam, x)
            return best[2], best[1], best[1]
        raise ValueError(f"unknown lambda mode {cfg.lam_mode!r}")
    # p != 2: the inner solve is the majorize-minimize subspace iteration
    if cfg.lam_mode == "fixed":
        eta = float(cfg.lam) * cfg.epsilon ** (cfg.p - 2.0)
        res = mmgks_solve(op, L, d, cfg.mmgks_config(eta=eta))
        return res.x, eta, float(cfg.lam)
    if cfg.lam_mode == "gcv":
        res = mmgks_solve(op, L, d, cfg.mmgks_config())
        eta = res.etas[-1] if res.etas else np.nan
        return res.x, eta, eta * cfg.epsilon ** (2.0 - cfg.p)
    if cfg.lam_mode == "sweep-oracle":
        if x_true is None:
            raise ValueError("sweep-oracle lambda mode needs x_true")
        best = None
        for lam in cfg.resolved_sweep_grid():
            eta = lam * cfg.epsilon ** (cfg.p - 2.0)
            res = mmgks_solve(op, L, d, cfg.mmgks_config(eta=eta))
            err = rre(res.x, x_true)
            if best is None or err < best[0]:
                best = (err, eta, lam, res.x)
        return best[3], best[1], best[2]
    raise ValueError(f"unknown lambda mode {cfg.lam_mode!r}")


def _valid_params(problem, y):
    try:
        problem.operator(y)
        return True
    except (ValueError, IndexError):
        return False


def _stacked_residual(op, L, x, d, eta, p, eps_eff):
    u = L.apply(x)
    w = majorant_weights(u, p, eps_eff)
    sqrt_w = np.sqrt(w)
    r_data = op.apply(x) - d
    f_hat = np.concatenate([r_data, np.sqrt(eta) * (sqrt_w * u)])
    return r_data, f_hat, u, sqrt_w


def _varpro_engine(problem, cfg: VarproConfig):
    """Shared outer loop of genvarpro_solve and lp_varpro_solve."""
    if cfg.y0 is None:
        raise ValueError("config must provide the initial parameter vector y0")
    d = np.asarray(problem.d, dtype=float).ravel()
    x_true = getattr(problem, "x_true", None)
    y_true = getattr(problem, "y_true", None)
    if x_true is not None:
        x_true = np.asarray(x_true, dtype=float).ravel()
    if y_true is not None:
        y_true = np.asarray(y_true, dtype=float).ravel()

    y = np.asarray(cfg.y0, dtype=float).copy()
    op = problem.operator(y)
    L = as_regularizer(cfg.regularizer, op.n)
    record = RunRecord()
    record.ys.append(y.copy())
    rre_y0 = rre(y, y_true) if y_true is not None else np.nan
    eps_eff = 0.0 if cfg.p == 2.0 else cfg.epsilon
    x = None

    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        op = problem.operator(y)
        x, eta, lam = _inner_solve(op, L, d, cfg, x_true)
        r_data, f_hat, u, sqrt_w = _stacked_residual(op, L, x, d, eta,
                                                     cfg.p, eps_eff)

        if cfg.variant is JacobianVariant.REDUCED:
            jac = jacobian_reduced(op, x)
            step, *_ = np.linalg.lstsq(jac, -r_data, rcond=None)
            grad_norm = float(np.linalg.norm(jac.T @ r_data))
        else:
            l_hat = sqrt_w[:, None] * L.dense()
            gsvd = thin_gsvd(op.dense(), l_hat)
            if cfg.variant is JacobianVariant.FULL:
                jac = jacobian_full(op, x, eta, L, d, gsvd=gsvd,
                                    l_dense=l_hat)
            else:
                jac = jacobian_half(op, x, eta, L, gsvd=gsvd, l_dense=l_hat)
            step, *_ = np.linalg.lstsq(jac, f_hat, rcond=None)
            grad_norm = float(np.linalg.norm(jac.T @ f_hat))

        # keep the parameters inside the valid domain; damping additionally
        # guards an increasing residual when enabled
        halvings = 0
        y_new = y + step
        while not _valid_params(problem, y_new) and halvings < cfg.max_halvings:
            step = step / 2.0
            y_new = y + step
            halvings += 1
        if not _valid_params(problem, y_new):
            raise SolverError(
                f"parameter update left the valid domain at iteration {it}",
                record)
        if cfg.damping:
            phi0 = float(f_hat @ f_hat)
            while halvings < cfg.max_halvings:
                op_try = problem.operator(y_new)
                x_try, eta_try, _ = _inner_solve(op_try, L, d, cfg, x_true)
                _, f_try, _, _ = _stacked_residual(op_try, L, x_try, d,
                                                   eta_try, cfg.p, eps_eff)
                if float(f_try @ f_try) <= phi0:
                    break
                step = step / 2.0
                y_new = y + step
                halvings += 1

        y = y_new
        wall = time.perf_counter() - t0
        rre_x_val = rre(x, x_true) if x_true is not None else np.nan
        rre_y_val = rre(y, y_true) if y_true is not None else np.nan
        record.ys.append(y.copy())
        record.add_row(it, float(f_hat @ f_hat), grad_norm, rre_y_val,
                       rre_x_val, eta, wall)
        if cfg.keep_iterates:
            record.x_snapshots[it] = x.copy()
        if x_true is not None and rre_x_val < record.best_rre_x:
            record.best_rre_x = rre_x_val
            record.best_iteration = it
            record.best_x = x.copy()

        if y_true is not None and np.isfinite(rre_y0) and rre_y0 > 0 \
                and rre_y_val > cfg.divergence_factor * rre_y0:
            raise SolverError(
                f"parameter iteration diverged: RRE(y) grew to "
                f"{rre_y_val:.3g} from {rre_y0:.3g}", record)
        if np.linalg.norm(step) <= cfg.step_tol * max(np.linalg.norm(y), 1e-30):
            record.converged = True
            record.stop_reason = "step tolerance"
            break
    else:
        record.stop_reason = "max iterations"
    if record.best_x is None and x is not None:
        record.best_x = x.copy()
        record.best_iteration = record.rows[-1].iteration if record.rows else 0
    return x, y, record


def genvarpro_solve(problem, lam, config: VarproConfig):
    """Variable projection for p = 2.

    ``lam`` fixes the regularization weight; pass None to keep the config's
    lambda mode (gcv or sweep-oracle).
    """
    changes = {"p": 2.0}
    if lam is not None:
        changes.update(lam_mode="fixed", lam=float(lam))
    return _varpro_engine(problem, replace(config, **changes))


def lp_varpro_solve(problem, config: VarproConfig):
    """Variable projection with lp regularization; p = 2 reduces to genvarpro."""
    return _varpro_engine(problem, replace(config))


def gn_nls_solve(problem, config: VarproConfig, x0=None):
    """Joint Gauss-Newton on (x, y) for the stacked Tikhonov residual.

    Assembles the Jacobian [[G, d(Gx)/dy], [sqrt(lam) L, 0]] densely and takes
    (optionally damped) steps in the concatenated variable. Meant for small
    problems.
    """
    cfg = config
    if cfg.y0 is None:
        raise ValueError("config must provide the initial parameter vector y0")
    if cfg.lam_mode != "fixed":
        raise ValueError("gn_nls_solve requires a fixed lambda")
    lam = float(cfg.lam)
    d = np.asarray(problem.d, dtype=float).ravel()
    x_true = getattr(problem, "x_true", None)
    y_true = getattr(problem, "y_true", None)
    if x_true is not None:
        x_true = np.asarray(x_true, dtype=float).ravel()
    if y_true is not None:
        y_true = np.asarray(y_true, dtype=float).ravel()

    y = np.asarray(cfg.y0, dtype=float).copy()
    op = problem.operator(y)
    if op.n > DENSE_LIMIT:
        raise ValueError("gn_nls_solve assembles dense Jacobians; problem too large")
    L = as_regularizer(cfg.regularizer, op.n)
    l_dense = L.dense()
    x = np.zeros(op.n) if x0 is None else np.asarray(x0, dtype=float).copy()
    record = RunRecord()
    record.ys.append(y.copy())

    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        op = problem.operator(y)
        resid = np.concatenate([op.apply(x) - d, np.sqrt(lam) * L.apply(x)])
        jac = np.zeros((op.m + L.q, op.n + op.r))
        jac[:op.m, :op.n] = op.dense()
        jac[op.m:, :op.n] = np.sqrt(lam) * l_dense
        jac[:op.m, op.n:] = jacobian_reduced(op, x)
        step, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        if not np.all(np.isfinite(step)):
            raise SolverError("linearized system produced a non-finite step",
                              record)

        phi0 = float(resid @ resid)
        halvings = 0
        while True:
            x_new = x + step[:op.n]
            y_new = y + step[op.n:]
            if _valid_params(problem, y_new):
                if not cfg.damping:
                    break
                op_try = problem.operator(y_new)
                r_try = np.concatenate([op_try.apply(x_new) - d,
                                        np.sqrt(lam) * L.apply(x_new)])
                if float(r_try @ r_try) <= phi0:
                    break
            if halvings >= cfg.max_halvings:
                raise SolverError(
                    "damped step failed to reduce the residual", record)
            step = step / 2.0
            halvings += 1
        x, y = x_new, y_new
        wall = time.perf_counter() - t0
        grad_norm = float(np.linalg.norm(jac.T @ resid))
        rre_x_val = rre(x, x_true) if x_true is not None else np.nan
        rre_y_val = rre(y, y_true) if y_true is not None else np.nan
        record.ys.append(y.copy())
        record.add_row(it, phi0, grad_norm, rre_y_val, rre_x_val, lam, wall)
        if x_true is not None and rre_x_val < record.best_rre_x:
            record.best_rre_x = rre_x_val
            record.best_iteration = it
            record.best_x = x.copy()
        if np.linalg.norm(step) <= cfg.step_tol * max(
                np.linalg.norm(np.concatenate([x, y])), 1e-30):
            record.converged = True
            record.stop_reason = "step tolerance"
            break
    else:
        record.stop_reason = "max iterations"
    return x, y, record
