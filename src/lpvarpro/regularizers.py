"""Regularization operators L on flattened (row-major) vectors.

One class, :class:`MatrixRegularizer`, applies every L: the sparse matrices
of ``first_derivative_1d``, ``second_derivative_1d``, ``derivative_2d`` and
``framelet_analysis_2d`` (a linear B-spline tight frame, W^T W = I), the
identity of ``as_regularizer(None, n)`` or a caller's matrix. ``derivative_2d``
keeps its last matrix, read-only: a build costs more than the rest of a 2D
problem's setup.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import sparse

from .operators import _whole_number


class Regularizer:
    """Linear map L with input dimension ``n`` and output dimension ``q``."""

    n: int
    q: int

    def apply(self, x) -> np.ndarray:
        raise NotImplementedError

    def adjoint_apply(self, u) -> np.ndarray:
        raise NotImplementedError

    def dense(self) -> np.ndarray:
        raise NotImplementedError


class MatrixRegularizer(Regularizer):
    """Wrap an explicit (sparse or dense) matrix."""

    def __init__(self, mat):
        if not sparse.issparse(mat):
            mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2:
            raise ValueError(f"a regularizer matrix must be 2-D, got shape "
                             f"{mat.shape}")
        self.mat = mat
        # a CSR transpose sums as mat.T @ u does, in about half the time
        self._mat_t = mat.T.tocsr() if sparse.issparse(mat) else mat.T
        self.q, self.n = mat.shape

    def apply(self, x):
        return np.asarray(self.mat @ np.asarray(x, dtype=float)).ravel()

    def adjoint_apply(self, u):
        return np.asarray(self._mat_t @ np.asarray(u, dtype=float)).ravel()

    def dense(self):
        return self.mat.toarray() if sparse.issparse(self.mat) else np.asarray(self.mat)


def first_derivative_1d(n):
    """Bidiagonal (n-1) x n forward-difference matrix with rows [1, -1]."""
    n = _whole_number(n, "n")
    if n < 2:
        raise ValueError("n must be at least 2")
    data = np.ones(n - 1)
    return sparse.diags_array([data, -data], offsets=[0, 1],
                              shape=(n - 1, n)).tocsr()


def second_derivative_1d(n):
    """Tridiagonal (n-2) x n matrix with rows [-1, 2, -1]."""
    n = _whole_number(n, "n")
    if n < 3:
        raise ValueError("n must be at least 3")
    ones = np.ones(n - 2)
    return sparse.diags_array([-ones, 2 * ones, -ones], offsets=[0, 1, 2],
                              shape=(n - 2, n)).tocsr()


@functools.lru_cache(maxsize=1)
def derivative_2d(order, n):
    """Read-only CSR Kronecker sum D (x) I + I (x) D on n x n images.

    D is the 1D difference of ``order`` 1 or 2. The sum annihilates constant
    (order 1) or affine (order 2) images, but it is not a gradient: the terms
    number their rows differently, so a row adds a vertical difference at one
    pixel to a horizontal one at another. At n = 8 its null space has
    dimension 8 (order 1) or 16.
    """
    n = _whole_number(n, "n")
    if n < 3 or order not in (1, 2):
        raise ValueError("order must be 1 or 2, and n at least 3")
    d = (first_derivative_1d if order == 1 else second_derivative_1d)(n)
    eye = sparse.eye_array(n)
    mat = (sparse.kron(d, eye) + sparse.kron(eye, d)).tocsr()
    for part in (mat.data, mat.indices, mat.indptr):
        part.setflags(write=False)
    return mat


def framelet_filters_1d(n):
    """Linear B-spline framelet filter matrices W0, W1, W2 of size n x n.

    Masks [1,2,1]/4, sqrt(2)/4*[-1,0,1] and [-1,2,-1]/4 with reflexive
    boundaries (x_{-1} = x_0, x_n = x_{n-1}), which makes
    W0^T W0 + W1^T W1 + W2^T W2 = I hold exactly.
    """
    n = _whole_number(n, "n")
    if n < 3:
        raise ValueError("n must be at least 3")
    filters = []
    for (a, b, c), scale in (((1.0, 2.0, 1.0), 0.25),
                             ((-1.0, 0.0, 1.0), np.sqrt(2.0) / 4.0),
                             ((-1.0, 2.0, -1.0), 0.25)):
        diag = np.full(n, b)
        diag[0] += a
        diag[-1] += c
        w = sparse.diags_array([np.full(n - 1, a), diag, np.full(n - 1, c)],
                               offsets=[-1, 0, 1])
        filters.append(w.tocsr() * scale)
    return tuple(filters)


def framelet_analysis_2d(n):
    """Tight-frame framelet analysis matrix W on flattened n x n images.

    One level of the frame: the nine blocks W_i (x) W_j of the 1D filters in
    row-major (i, j) order, stacked as a 9 n^2 x n^2 CSR matrix; W^T W = I.
    """
    filters = framelet_filters_1d(n)
    return sparse.vstack([sparse.kron(wi, wj)
                          for wi in filters for wj in filters], format="csr")


def as_regularizer(L, n):
    """Coerce a Regularizer, matrix or None (identity) to width ``n``."""
    n = _whole_number(n, "n")
    if L is None:
        return MatrixRegularizer(sparse.eye_array(n, format="csr"))
    if not isinstance(L, Regularizer):
        L = MatrixRegularizer(L)
    if L.n != n:
        raise ValueError(f"the regularizer acts on {L.n} unknowns, but the "
                         f"problem has {n}")
    return L
