"""Outer variable-projection solver for separable inverse problems.

``lp_varpro_solve`` is the one outer loop over the blur parameters y, for
every p, with lambda fixed or chosen by GCV (``lam=None``). Each outer step
is one call of ``_step`` at the operator G(y) built when y was accepted: it
eliminates x by one inner solve (the majorize-minimize subspace solver, or
a dense Tikhonov solve at p = 2 under the full and half Jacobians) and
returns x, eta and the Gauss-Newton system of the projected residual of the
reweighted pair, which the loop solves for the step in y.

The projected-residual Jacobian comes in three variants (full, half,
reduced). Full and half differentiate the thin GSVD of the reweighted pair
that ``_step`` holds, with matrix-vector products and one diagonal inverse.
At p = 2 that pair is {G, L}, and its GSVD also gives the inner solve: the
MMGKS projected step on the full pair, with eta from ``gcv.select_eta``
(lam=None) and x from ``StackGsvd.solve``. The reduced Jacobian reads no
dense matrix, so it always runs MMGKS.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .gcv import select_eta, thin_gsvd
from .mmgks import (MmgksConfig, _as_operator, _finite_data, _is_count,
                    gks_buffers, majorant_weights, mmgks_solve)
from .operators import DENSE_LIMIT
from .regularizers import as_regularizer


class SolverError(RuntimeError):
    """Outer step not finite or out of the domain; holds the record."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class JacobianVariant(Enum):
    FULL = "full"
    HALF = "half"
    REDUCED = "reduced"


# Halvings of one outer step before the solve gives up on it.
MAX_HALVINGS = 10


def tik_solve(G, L, lam, d, gsvd=None):
    """Minimize ||G x - d||^2 + lam ||L x||^2 densely.

    Solves through ``gsvd``, the thin GSVD of {G, L}; without it the pair is
    factored here (G alone at lam = 0). Raises
    :class:`~lpvarpro.gcv.RankDeficiencyError`, a ``LinAlgError``, when the
    solution is not unique. Meant for problems up to a few thousand unknowns.
    """
    G = _as_operator(G)
    d = _finite_data(d, G.m)
    if not lam >= 0:
        raise ValueError("lam must be nonnegative")
    if gsvd is None:
        l_dense = (np.zeros((0, G.n)) if lam == 0.0
                   else as_regularizer(L, G.n).dense())
        gsvd = thin_gsvd(G.dense(), l_dense)
    return gsvd.solve(lam, d)


def jacobian_half(op, x, eta, gsvd):
    """Projected-residual Jacobian keeping only the projection term.

    Column j is -A_j where A_j projects the derivative of the prediction,
    i.e. the derivative of y' -> P_perp(y) ([d; 0] - G_L(y') x) with the
    projector and x frozen at the current y. ``gsvd`` is the thin GSVD of
    the pair x was solved on at weight ``eta``, {G, W^(1/2) L}, whose Q_L
    ``StackGsvd.apply_q_l`` applies by a triangular solve and L.
    """
    m, q, rpar = op.m, gsvd.l_mat.shape[0], op.r
    filt = gsvd.filter(eta)
    cols = np.zeros((m + q, rpar))
    for j in range(rpar):
        v = op.derivative_apply(j, np.asarray(x, dtype=float))
        g = filt * (gsvd.u.T @ v)
        cols[:m, j] = gsvd.u @ (gsvd.c * g) - v
        cols[m:, j] = np.sqrt(eta) * gsvd.apply_q_l(gsvd.w @ g)
    return cols


def jacobian_full(op, x, eta, gsvd, misfit):
    """Projected-residual Jacobian with both terms, columns -A_j - B_j.

    This is the exact derivative of y -> [d; 0] - G_L(y) x(y) with x(y) the
    regularized solution, evaluated through ``gsvd`` as in
    :func:`jacobian_half`, one more Q_L product a column; ``misfit`` = G x - d.
    """
    cols = jacobian_half(op, x, eta, gsvd)
    m = op.m
    filt = gsvd.filter(eta)
    den = gsvd.c**2 + eta * gsvd.s2
    for j in range(op.r):
        wj = op.derivative_adjoint_apply(j, misfit)
        tvec = gsvd.solve_z(wj)
        cols[:m, j] += gsvd.u @ (filt * tvec)
        cols[m:, j] += np.sqrt(eta) * gsvd.apply_q_l(gsvd.w @ (tvec / den))
    return cols


def jacobian_reduced(op, x):
    """Columns (dG/dy_j) x of the data-fit derivative with x frozen."""
    x = np.asarray(x, dtype=float)
    return np.column_stack([op.derivative_apply(j, x) for j in range(op.r)])


def rre(v, v_true):
    """Relative reconstruction error ||v - v_true||_2 / ||v_true||_2."""
    v = np.asarray(v, dtype=float).ravel()
    v_true = np.asarray(v_true, dtype=float).ravel()
    if v.size != v_true.size:
        raise ValueError(f"v has {v.size} entries, but v_true has "
                         f"{v_true.size}")
    denom = np.linalg.norm(v_true)
    if denom == 0.0:
        raise ValueError("reference vector must be nonzero")
    return float(np.linalg.norm(v - v_true) / denom)


@dataclass
class ConvergenceRow:
    """One outer iteration of a ``RunRecord``, as a convergence-table row."""

    iteration: int
    rel_func_value: float
    rel_grad_norm: float
    rre_y: float
    rre_x: float
    eta: float
    wall_time: float


@dataclass
class RunRecord:
    """Append-only per-iteration history of an outer solve."""

    rows: list = field(default_factory=list)
    ys: list = field(default_factory=list)            # y0, then y after each update
    func_values: list = field(default_factory=list)   # ||F||^2 per iteration
    grad_norms: list = field(default_factory=list)
    etas: list = field(default_factory=list)
    stop_reason: str = ""

    def add_iteration(self, iteration, x, y, func_value, grad_norm, eta,
                      wall_time, x_true=None, y_true=None):
        """Append one outer iteration: the new y and its row.

        The errors against ``x_true``/``y_true`` are reported only, and are
        NaN when the truth is absent.
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


@dataclass
class VarproConfig:
    """Settings of the variable-projection outer solver."""

    y0: np.ndarray
    variant: JacobianVariant = JacobianVariant.REDUCED
    regularizer: object = None          # Regularizer, matrix, or None (identity)
    max_iters: int = 30
    step_tol: float = 1e-6
    p: float = 2.0
    epsilon: float = 1e-2
    # 'auto' solves densely at p = 2 under full/half Jacobians; 'gks' never
    inner: str = "auto"
    inner_iters: int = 30
    inner_tol: float = 1e-4
    # lam is the fixed regularization weight lambda; None (the default)
    # selects eta by GCV at every inner solve. A fixed lambda runs every
    # inner solve at the normal-equations weight
    # eta = lambda * epsilon**(p - 2) of ||G x - d||^2 + eta ||W^(1/2) L x||^2
    # with majorant weights W, so eta = lambda at p = 2. RunRecord.etas holds
    # eta either way. mmgks.mm_lambda (2 eta / p) only weights the objective
    # that the inner solver records.
    lam: float | None = None

    def __post_init__(self):
        if not 0 < self.step_tol < np.inf:
            raise ValueError("step_tol must be finite and positive")
        if not (_is_count(self.max_iters) and _is_count(self.inner_iters)):
            raise ValueError("max_iters and inner_iters must be integers of "
                             "at least 1")
        if self.lam is not None and not 0 < self.lam < np.inf:
            raise ValueError("lam must be finite and positive, or None to "
                             "select by GCV")
        if self.inner not in ("gks", "auto"):
            raise ValueError("inner must be 'gks' or 'auto'")
        if isinstance(self.variant, str):
            self.variant = JacobianVariant(self.variant)
        # MmgksConfig checks p, epsilon and inner_tol
        self.mmgks_config()

    def mmgks_config(self):
        """Settings of every inner solve, checked before a fixed lam sets
        their eta = lam * epsilon**(p - 2)."""
        cfg = MmgksConfig(p=self.p, epsilon=self.epsilon,
                          max_iters=self.inner_iters, tol=self.inner_tol)
        return cfg if self.lam is None else replace(
            cfg, eta=float(self.lam) * self.epsilon ** (self.p - 2.0))


def _step(op, L, l_dense, d, variant, mm_cfg, buffers):
    """Solve for x at G = ``op``; return ``(x, eta, jac, rhs, phi)``.

    The dense route, taken when ``buffers`` is None, factors {G, L} with
    ``l_dense``, the dense L; MMGKS, set by ``mm_cfg``, fills ``buffers``.
    eta is the weight of the solve, the Gauss-Newton step solves jac s = rhs
    by least squares, and phi = ||f_hat||^2 of the stacked residual f_hat =
    [G x - d; sqrt(eta) W^(1/2) L x], W the majorant weights at x. Full and
    half read the thin GSVD of {G, W^(1/2) L}, which dies with the step.
    """
    eta = mm_cfg.eta
    if buffers is None:
        gsvd = thin_gsvd(op.dense(), l_dense)
        if eta is None:
            eta = select_eta(gsvd, d).eta
        x = tik_solve(op, L, eta, d, gsvd)
    else:
        gsvd = None
        res = mmgks_solve(op, L, d, mm_cfg, buffers)
        x = res.x
        if eta is None:     # GCV picks none if x = 0 solves (G^T d = 0)
            eta = res.etas[-1] if res.etas else np.nan
    u = L.apply(x)
    # at p = 2 the weights are 1 whatever epsilon is
    sqrt_w = np.sqrt(majorant_weights(u, mm_cfg.p, mm_cfg.epsilon))
    r_data = op.apply(x) - d
    f_hat = np.concatenate([r_data, np.sqrt(eta) * (sqrt_w * u)])
    phi = float(f_hat @ f_hat)
    if variant is JacobianVariant.REDUCED:
        return x, eta, jacobian_reduced(op, x), -r_data, phi
    # the dense route runs at p = 2, where W = I and {G, L} is the pair
    if gsvd is None:
        gsvd = thin_gsvd(op.dense(), sqrt_w[:, None] * l_dense)
    if variant is JacobianVariant.FULL:
        return x, eta, jacobian_full(op, x, eta, gsvd, r_data), f_hat, phi
    return x, eta, jacobian_half(op, x, eta, gsvd), f_hat, phi


def _truth(problem):
    """(x_true, y_true) of the problem as flat float arrays, None if absent."""
    return tuple(None if v is None else np.asarray(v, dtype=float).ravel()
                 for v in (getattr(problem, "x_true", None),
                           getattr(problem, "y_true", None)))


def _operator_at(problem, y):
    """G(y), or None when the build refuses y by ValueError (out of domain)."""
    try:
        return problem.operator(y)
    except ValueError:
        return None


def lp_varpro_solve(problem, config: VarproConfig):
    """Variable projection with lp regularization; returns ``(x, y, record)``.

    Each outer step runs one inner solve. A step that leaves the parameter
    domain is halved up to ``MAX_HALVINGS`` times; the solve raises
    :class:`SolverError` with the partial record when every halving leaves
    it, or when a step's Jacobian or residual is not finite. One set of GKS
    buffers, allocated here, serves every inner solve (all G have one shape).
    One factorization and one operator are alive per step: a step's
    factorization dies with ``_step``, its operator before the next build.
    """
    cfg = config
    d = _finite_data(problem.d).ravel()
    if not d.any():
        raise ValueError("the data d must not be all zero")
    x_true, y_true = _truth(problem)

    y = np.asarray(cfg.y0, dtype=float).copy()
    op = problem.operator(y)
    d = _finite_data(d, op.m)          # its length, against the rows of G
    reduced = cfg.variant is JacobianVariant.REDUCED
    if not reduced and op.n > DENSE_LIMIT:
        raise ValueError(
            f"full/half Jacobians need a dense GSVD of the pair, which is "
            f"limited to n <= {DENSE_LIMIT} unknowns (got n = {op.n}); use "
            f"the reduced Jacobian instead")
    L = as_regularizer(cfg.regularizer, op.n)
    # only full/half read the dense pair, L once per solve; at p = 2 their
    # GSVD of {G, L} serves the inner solve too
    l_dense = None if reduced else L.dense()
    dense = not reduced and cfg.p == 2.0 and cfg.inner == "auto"
    mm_cfg = cfg.mmgks_config()
    buffers = None if dense else gks_buffers(op, L, mm_cfg)
    record = RunRecord()
    record.ys.append(y.copy())

    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        x, eta, jac, rhs, phi = _step(op, L, l_dense, d, cfg.variant,
                                      mm_cfg, buffers)
        op = None               # before the next pair is built
        if np.isnan(eta):
            raise SolverError(f"GCV chose no eta: G^T d = 0, so x = 0 "
                              f"solves, at iteration {it}", record)
        # rhs is part of f_hat, so a finite phi = ||f_hat||^2 covers it
        if not (np.isfinite(jac).all() and np.isfinite(phi)):
            raise SolverError(f"non-finite Jacobian or residual at iteration "
                              f"{it}", record)
        step, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
        grad_norm = float(np.linalg.norm(jac.T @ rhs))

        # the operator built to check y + step serves the next outer step
        halvings = 0
        while (op_new := _operator_at(problem, y + step)) is None:
            if halvings >= MAX_HALVINGS:
                raise SolverError(
                    f"parameter update left the valid domain after "
                    f"{halvings} halvings at iteration {it}", record)
            step = step / 2.0
            halvings += 1

        y, op = y + step, op_new
        record.add_iteration(it, x, y, phi, grad_norm, eta,
                             time.perf_counter() - t0, x_true, y_true)
        if np.linalg.norm(step) <= cfg.step_tol * max(np.linalg.norm(y), 1e-30):
            record.stop_reason = "step tolerance"
            break
    else:
        record.stop_reason = "max iterations"
    return x, y, record
