"""Outer variable-projection solver for separable inverse problems.

``lp_varpro_solve`` is the one outer loop over the blur parameters y, for
every p and lambda mode: each outer step eliminates x by one inner solve at
the operator G(y) built when y was accepted (a dense Tikhonov solve at p = 2
on small problems, the majorize-minimize subspace solver otherwise), then
takes a Gauss-Newton step on the projected residual of the reweighted pair.

The dense Tikhonov solve is the MMGKS projected step on the full pair: it
factors {G, L} once with ``gcv.thin_gsvd``, picks eta with ``gcv.select_eta``
(in GCV mode) and reads x from ``StackGsvd.solve``, the routines that serve
each MMGKS inner iteration. The projected-residual Jacobian comes in three
variants (full, half, reduced). Full and half are evaluated through the same
thin GSVD of the stacked pair, so that only matrix-vector products and one
diagonal inverse appear; at p = 2 the inner solve and the Jacobian share it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .gcv import GcvConfig, select_eta, thin_gsvd
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


def tik_solve(G, L, lam, d, gsvd=None):
    """Minimize ||G x - d||^2 + lam ||L x||^2 densely.

    Solves through ``gsvd``, the thin GSVD of {G, L}; without it the pair is
    factored here (G alone at lam = 0). Raises
    :class:`~lpvarpro.gcv.RankDeficiencyError`, a ``LinAlgError``, when the
    solution is not unique. Meant for problems up to a few thousand unknowns.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if gsvd is None:
        G = _as_operator(G)
        l_dense = (np.zeros((0, G.n)) if lam == 0.0
                   else as_regularizer(L, G.n).dense())
        gsvd = thin_gsvd(G.dense(), l_dense)
    return gsvd.solve(lam, np.asarray(d, dtype=float))


def _check_dense_feasible(op):
    if op.n > DENSE_LIMIT:
        raise ValueError(
            f"full/half Jacobians need a dense GSVD of the pair, which is "
            f"limited to n <= {DENSE_LIMIT} unknowns (got n = {op.n}); use "
            f"the reduced Jacobian instead")


def jacobian_half(op, x, lam, L, gsvd=None):
    """Projected-residual Jacobian keeping only the projection term.

    Column j is -A_j where A_j projects the derivative of the prediction,
    i.e. the derivative of y' -> P_perp(y) ([d; 0] - G_L(y') x) with the
    projector and x frozen at the current y. ``gsvd`` is the thin GSVD of
    {G, L}; it is formed here when not given.
    """
    _check_dense_feasible(op)
    if gsvd is None:
        gsvd = thin_gsvd(op.dense(), as_regularizer(L, op.n).dense())
    m, q, rpar = op.m, gsvd.t.shape[0], op.r
    filt = gsvd.filter(lam)
    cols = np.zeros((m + q, rpar))
    for j in range(rpar):
        v = op.derivative_apply(j, np.asarray(x, dtype=float))
        g = filt * (gsvd.u.T @ v)
        cols[:m, j] = gsvd.u @ (gsvd.c * g) - v
        cols[m:, j] = np.sqrt(lam) * (gsvd.t @ g)
    return cols


def jacobian_full(op, x, lam, L, d, gsvd=None):
    """Projected-residual Jacobian with both terms, columns -A_j - B_j.

    This is the exact derivative of y -> [d; 0] - G_L(y) x(y) with x(y) the
    regularized solution, evaluated through the GSVD of the pair (formed
    here when ``gsvd`` is not given).
    """
    _check_dense_feasible(op)
    if gsvd is None:
        gsvd = thin_gsvd(op.dense(), as_regularizer(L, op.n).dense())
    cols = jacobian_half(op, x, lam, L, gsvd=gsvd)
    m = op.m
    filt = gsvd.filter(lam)
    den = gsvd.c**2 + lam * gsvd.s2
    misfit = op.apply(np.asarray(x, dtype=float)) - np.asarray(d, dtype=float)
    for j in range(op.r):
        wj = op.derivative_adjoint_apply(j, misfit)
        tvec = gsvd.solve_z(wj)
        cols[:m, j] += gsvd.u @ (filt * tvec)
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
    converged: bool = False
    stop_reason: str = ""

    def add_iteration(self, iteration, x, y, func_value, grad_norm, eta,
                      wall_time, x_true=None, y_true=None):
        """Append one outer iteration: the new y and its row.

        The errors against ``x_true``/``y_true`` are reported only, and are
        NaN when the truth is absent. Returns the appended row.
        """
        rre_x = rre(x, x_true) if x_true is not None else np.nan
        rre_y = rre(y, y_true) if y_true is not None else np.nan
        base_f = self.func_values[0] if self.func_values else func_value
        base_g = self.grad_norms[0] if self.grad_norms else grad_norm
        self.ys.append(y.copy())
        self.func_values.append(func_value)
        self.grad_norms.append(grad_norm)
        self.etas.append(eta)
        self.rows.append(ConvergenceRow(
            iteration=iteration,
            rel_func_value=func_value / base_f if base_f else np.nan,
            rel_grad_norm=grad_norm / base_g if base_g else np.nan,
            rre_y=rre_y, rre_x=rre_x, eta=eta, wall_time=wall_time))
        return self.rows[-1]

    @property
    def rre_x_series(self):
        return [row.rre_x for row in self.rows]

    @property
    def rre_y_series(self):
        return [row.rre_y for row in self.rows]


@dataclass
class VarproConfig:
    """Settings of the variable-projection outer solver."""

    y0: np.ndarray | None = None
    variant: JacobianVariant = JacobianVariant.REDUCED
    regularizer: object = None          # Regularizer, matrix, or None (identity)
    max_iters: int = 30
    step_tol: float = 1e-6
    p: float = 2.0
    epsilon: float = 1e-2
    inner: str = "auto"                 # 'dense' (p = 2 only), 'gks' or 'auto'
    inner_iters: int = 30
    inner_tol: float = 1e-4
    subspace_dim: int = 10
    lam_mode: str = "gcv"               # 'fixed' or 'gcv'
    # lam is the regularization weight lambda of lam_mode 'fixed'. Every
    # inner solve runs at the normal-equations weight
    # eta = lambda * epsilon**(p - 2) of ||G x - d||^2 + eta ||W^(1/2) L x||^2
    # with majorant weights W, so eta = lambda at p = 2. GCV selects eta
    # itself, and RunRecord.etas holds eta in every mode. mmgks.mm_lambda
    # (2 eta / p) only weights the objective that the inner solver records.
    lam: float | None = None
    omega: float = 1.0
    damping: bool = False
    max_halvings: int = 10
    divergence_factor: float = 10.0

    def __post_init__(self):
        if self.step_tol <= 0:
            raise ValueError("step_tol must be positive")
        if not 0.0 < self.p <= 2.0:
            raise ValueError("p must lie in (0, 2]")
        if self.inner not in ("dense", "gks", "auto"):
            raise ValueError("inner must be 'dense', 'gks' or 'auto'")
        if self.inner == "dense" and self.p != 2.0:
            raise ValueError("the dense inner solve is Tikhonov and needs p = 2")
        if self.lam_mode not in ("fixed", "gcv"):
            raise ValueError("lam_mode must be 'fixed' or 'gcv'")
        if self.lam_mode == "fixed" and self.lam is None:
            raise ValueError("fixed lambda mode needs a lambda value")
        if isinstance(self.variant, str):
            self.variant = JacobianVariant(self.variant)

    def mmgks_config(self, eta=None):
        return MmgksConfig(p=self.p, epsilon=self.epsilon,
                           subspace_dim=self.subspace_dim,
                           max_iters=self.inner_iters, tol=self.inner_tol,
                           eta=eta, gcv=GcvConfig(omega=self.omega))


def _use_dense(problem_n, cfg: VarproConfig):
    """Whether the inner solve is the dense Tikhonov solve (p = 2 only)."""
    if cfg.p != 2.0 or cfg.inner == "gks":
        return False
    return cfg.inner == "dense" or problem_n <= DENSE_LIMIT


def _inner_solve(op, L, d, cfg: VarproConfig):
    """Solve for x at the current parameters.

    Returns ``(x, eta, gsvd)`` with eta the weight of the solve and gsvd the
    thin GSVD of {G, L} on the dense route, formed once and read by every
    solve of the step, else None.
    """
    gsvd = thin_gsvd(op.dense(), L.dense()) if _use_dense(op.n, cfg) else None
    if cfg.lam_mode == "gcv":
        if gsvd is not None:
            eta = select_eta(gsvd, d, GcvConfig(omega=cfg.omega)).eta
            return tik_solve(op, L, eta, d, gsvd), eta, gsvd
        res = mmgks_solve(op, L, d, cfg.mmgks_config())
        return res.x, (res.etas[-1] if res.etas else np.nan), None
    eta = float(cfg.lam) * cfg.epsilon ** (cfg.p - 2.0)
    if gsvd is not None:
        return tik_solve(op, L, eta, d, gsvd), eta, gsvd
    return mmgks_solve(op, L, d, cfg.mmgks_config(eta=eta)).x, eta, None


def _truth(problem):
    """(x_true, y_true) of the problem as flat float arrays, None if absent."""
    return tuple(None if v is None else np.asarray(v, dtype=float).ravel()
                 for v in (getattr(problem, "x_true", None),
                           getattr(problem, "y_true", None)))


def _operator_at(problem, y):
    """G(y), or None when y lies outside the parameter domain."""
    try:
        return problem.operator(y)
    except (ValueError, IndexError):
        return None


def _stacked_residual(op, L, x, d, eta, p, eps_eff):
    u = L.apply(x)
    w = majorant_weights(u, p, eps_eff)
    sqrt_w = np.sqrt(w)
    r_data = op.apply(x) - d
    f_hat = np.concatenate([r_data, np.sqrt(eta) * (sqrt_w * u)])
    return r_data, f_hat, sqrt_w


def lp_varpro_solve(problem, config: VarproConfig):
    """Variable projection with lp regularization; returns ``(x, y, record)``.

    A step that leaves the parameter domain or, with damping, raises the
    residual is halved up to ``max_halvings`` times; when no trial is
    accepted the solve raises :class:`SolverError` with the partial record.
    """
    cfg = config
    if cfg.y0 is None:
        raise ValueError("config must provide the initial parameter vector y0")
    d = np.asarray(problem.d, dtype=float).ravel()
    x_true, y_true = _truth(problem)

    y = np.asarray(cfg.y0, dtype=float).copy()
    op = problem.operator(y)
    if cfg.variant is not JacobianVariant.REDUCED:
        _check_dense_feasible(op)
    L = as_regularizer(cfg.regularizer, op.n)
    record = RunRecord()
    record.ys.append(y.copy())
    rre_y0 = rre(y, y_true) if y_true is not None else np.nan
    eps_eff = 0.0 if cfg.p == 2.0 else cfg.epsilon
    x = None

    def residual_sq(op_try):
        x_try, eta_try, _ = _inner_solve(op_try, L, d, cfg)
        _, f_try, _ = _stacked_residual(op_try, L, x_try, d, eta_try, cfg.p,
                                        eps_eff)
        return float(f_try @ f_try)

    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        x, eta, gsvd = _inner_solve(op, L, d, cfg)
        r_data, f_hat, sqrt_w = _stacked_residual(op, L, x, d, eta, cfg.p,
                                                  eps_eff)

        if cfg.variant is JacobianVariant.REDUCED:
            jac = jacobian_reduced(op, x)
            step, *_ = np.linalg.lstsq(jac, -r_data, rcond=None)
            grad_norm = float(np.linalg.norm(jac.T @ r_data))
        else:
            # a GSVD from the inner solve exists only at p = 2, where the
            # weights are exactly 1 and the weighted pair is {G, L} itself
            if gsvd is None:
                gsvd = thin_gsvd(op.dense(), sqrt_w[:, None] * L.dense())
            if cfg.variant is JacobianVariant.FULL:
                jac = jacobian_full(op, x, eta, L, d, gsvd=gsvd)
            else:
                jac = jacobian_half(op, x, eta, L, gsvd=gsvd)
            step, *_ = np.linalg.lstsq(jac, f_hat, rcond=None)
            grad_norm = float(np.linalg.norm(jac.T @ f_hat))

        # the operator built to check y_new serves the next outer step
        phi0 = float(f_hat @ f_hat)
        halvings = 0
        while True:
            y_new = y + step
            op_new = _operator_at(problem, y_new)
            if op_new is not None and (not cfg.damping
                                       or residual_sq(op_new) <= phi0):
                break
            if halvings >= cfg.max_halvings:
                reason = ("left the valid domain" if op_new is None
                          else "raised the residual")
                raise SolverError(
                    f"parameter update {reason} after {halvings} halvings "
                    f"at iteration {it}", record)
            step = step / 2.0
            halvings += 1

        y, op = y_new, op_new
        row = record.add_iteration(it, x, y, phi0, grad_norm, eta,
                                   time.perf_counter() - t0, x_true, y_true)

        if np.isfinite(rre_y0) and rre_y0 > 0 \
                and row.rre_y > cfg.divergence_factor * rre_y0:
            raise SolverError(
                f"parameter iteration diverged: RRE(y) grew to "
                f"{row.rre_y:.3g} from {rre_y0:.3g}", record)
        if np.linalg.norm(step) <= cfg.step_tol * max(np.linalg.norm(y), 1e-30):
            record.converged = True
            record.stop_reason = "step tolerance"
            break
    else:
        record.stop_reason = "max iterations"
    return x, y, record
