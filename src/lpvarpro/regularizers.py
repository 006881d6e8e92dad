"""Regularization operators L on flattened (row-major) vectors.

Two classes give the forward and adjoint actions and a dense assembly.
:class:`MatrixRegularizer` applies an explicit matrix: the factories
``first_derivative_1d``, ``second_derivative_1d`` and ``framelet_analysis_2d``
(a linear B-spline tight frame, W^T W = I) return sparse ones, and
``as_regularizer(None, n)`` wraps the sparse identity.
:class:`KroneckerSumRegularizer` applies ``derivative_2d`` by image slices:
a matrix would add 40% or more to the build time of a 2D problem.
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
        if not sparse.issparse(mat):
            mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2:
            raise ValueError(f"a regularizer matrix must be 2-D, got shape "
                             f"{mat.shape}")
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


def _add_term(out, c, x):
    """out += c x in place, as out -+ |c| x; |c| = 1 takes no product."""
    y = x if abs(c) == 1.0 else abs(c) * x
    (np.add if c > 0 else np.subtract)(out, y, out=out)


class KroneckerSumRegularizer(Regularizer):
    """Matrix-free action of D (x) I + I (x) D on flattened n x n images.

    D ((n-k) x n) has the 1D stencil ``coef`` on each row. D @ X plus
    X @ D^T, each read row-major, sums shifted slices of X from zero in the
    order of the sparse products with D and D^T, which it equals bit for
    bit. The terms number their rows differently, so a row adds a vertical
    difference at one pixel to a horizontal one at another: this is not a
    discrete gradient. At n = 8 its null space has dimension 8 (k = 1) or 16.
    """

    def __init__(self, coef, n):
        self.n1 = int(n)
        self.coef = tuple(coef)
        self.rows = self.n1 + 1 - len(self.coef)
        self.n = self.n1 * self.n1
        self.q = self.rows * self.n1

    def apply(self, x):
        X, r = np.asarray(x, dtype=float).reshape(self.n1, self.n1), self.rows
        down, across = np.zeros((r, self.n1)), np.zeros((self.n1, r))
        for t, c in enumerate(self.coef):
            _add_term(down, c, X[t:t + r])
            _add_term(across, c, X[:, t:t + r])
        return down.ravel() + across.ravel()

    def adjoint_apply(self, u):
        u, r = np.asarray(u, dtype=float), self.rows
        down, across = np.zeros((2, self.n1, self.n1))
        # D^T adds the terms of an output row from the last coefficient on
        for t, c in reversed(list(enumerate(self.coef))):
            _add_term(down[t:t + r], c, u.reshape(r, self.n1))
            _add_term(across[:, t:t + r], c, u.reshape(self.n1, r))
        return down.ravel() + across.ravel()

    def dense(self):
        eye = np.eye(self.n1)
        d = sum(c * eye[t:t + self.rows] for t, c in enumerate(self.coef))
        return np.kron(d, eye) + np.kron(eye, d)


def derivative_2d(order, n):
    """Kronecker sum of the 1D difference of ``order`` 1 or 2 on n x n images.

    It annihilates constant (order 1) or affine (order 2) images, but it is
    not a derivative operator; see :class:`KroneckerSumRegularizer`.
    """
    if n < 3 or order not in (1, 2):
        raise ValueError("order must be 1 or 2, and n at least 3")
    return KroneckerSumRegularizer({1: (1, -1), 2: (-1, 2, -1)}[order], n)


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


def as_regularizer(L, n):
    """Coerce a Regularizer, matrix or None (identity) to width ``n``."""
    if L is None:
        return MatrixRegularizer(sparse.eye_array(n, format="csr"))
    if not isinstance(L, Regularizer):
        L = MatrixRegularizer(L)
    if L.n != n:
        raise ValueError(f"the regularizer acts on {L.n} unknowns, but the "
                         f"problem has {n}")
    return L
