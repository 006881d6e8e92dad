"""Quality metrics and convergence bookkeeping shared by the solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def rre(v, v_true):
    """Relative reconstruction error ||v - v_true||_2 / ||v_true||_2."""
    v = np.asarray(v, dtype=float).ravel()
    v_true = np.asarray(v_true, dtype=float).ravel()
    denom = np.linalg.norm(v_true)
    if denom == 0.0:
        raise ValueError("reference vector must be nonzero")
    return float(np.linalg.norm(v - v_true) / denom)


@dataclass
class ConvergenceRow:
    """One iteration of solver history, matching the convergence-table columns."""

    iteration: int
    rel_func_value: float
    rel_grad_norm: float
    rre_y: float
    rre_x: float
    eta: float
    wall_time: float
