"""Regularization operators: identity, derivative stencils and framelets.

All operators act on flattened (row-major) vectors and expose forward and
adjoint actions plus a dense assembly for small sizes. The 2D derivative
operators use the Kronecker-sum structure without materializing it, and the
framelet analysis operator realizes a linear B-spline tight frame with
reflexive boundary corrections so that W^T W = I.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .operators import _columns


class Regularizer:
    """Linear map L with input dimension ``n`` and output dimension ``q``."""

    n: int
    q: int

    def apply(self, x) -> np.ndarray:
        raise NotImplementedError

    def adjoint_apply(self, u) -> np.ndarray:
        raise NotImplementedError

    def dense(self) -> np.ndarray:
        return _columns(self.apply, self.q, self.n)


class IdentityRegularizer(Regularizer):
    def __init__(self, n):
        self.n = self.q = int(n)

    def apply(self, x):
        return np.asarray(x, dtype=float).copy()

    def adjoint_apply(self, u):
        return np.asarray(u, dtype=float).copy()

    def dense(self):
        return np.eye(self.n)


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

    For a stencil D of shape (n-k) x n both Kronecker terms have (n-k)*n rows,
    so their sum is well defined; the action is D @ X read row-major plus
    X @ D^T read row-major.
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
    """First- or second-derivative Kronecker-sum regularizer on n x n images."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if order == 1:
        return KroneckerSumRegularizer(first_derivative_1d(n), n)
    if order == 2:
        return KroneckerSumRegularizer(second_derivative_1d(n), n)
    raise ValueError("order must be 1 or 2")


def framelet_filters_1d(n):
    """Linear B-spline framelet filter matrices W0, W1, W2 of size n x n.

    Masks [1,2,1]/4, sqrt(2)/4*[1,0,-1] and [-1,2,-1]/4 with reflexive
    boundary corrections in the first and last rows, which makes
    W0^T W0 + W1^T W1 + W2^T W2 = I hold exactly.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    w0 = sparse.lil_array((n, n))
    w1 = sparse.lil_array((n, n))
    w2 = sparse.lil_array((n, n))
    for i in range(1, n - 1):
        w0[i, i - 1:i + 2] = [1.0, 2.0, 1.0]
        w1[i, i - 1:i + 2] = [-1.0, 0.0, 1.0]
        w2[i, i - 1:i + 2] = [-1.0, 2.0, -1.0]
    w0[0, :2] = [3.0, 1.0]
    w1[0, :2] = [-1.0, 1.0]
    w2[0, :2] = [1.0, -1.0]
    w0[n - 1, n - 2:] = [1.0, 3.0]
    w1[n - 1, n - 2:] = [-1.0, 1.0]
    w2[n - 1, n - 2:] = [-1.0, 1.0]
    return (w0.tocsr() / 4.0, w1.tocsr() * (np.sqrt(2.0) / 4.0),
            w2.tocsr() / 4.0)


class FrameletRegularizer(Regularizer):
    """Two-dimensional framelet analysis operator W on flattened n x n images.

    One level of the tight frame: the nine blocks W_i (x) W_j stacked in
    row-major (i, j) order, so q = 9 n^2 and W^T W = I.
    """

    def __init__(self, n):
        self.n1 = int(n)
        self.filters = framelet_filters_1d(self.n1)
        self.filters_t = tuple(f.T.tocsr() for f in self.filters)
        self.n = self.n1 * self.n1
        self.q = 9 * self.n

    def apply(self, x):
        X = np.asarray(x, dtype=float).reshape(self.n1, self.n1)
        out = []
        for wi in self.filters:
            wx = wi @ X
            out.extend(np.asarray(wx @ wjt).ravel() for wjt in self.filters_t)
        return np.concatenate(out)

    def adjoint_apply(self, u):
        u = np.asarray(u, dtype=float)
        if u.size != self.q:
            raise ValueError("coefficient vector has wrong length")
        blocks = iter(u.reshape(9, self.n1, self.n1))
        acc = np.zeros((self.n1, self.n1))
        for wit in self.filters_t:
            for wj in self.filters:
                acc += np.asarray(wit @ np.asarray(next(blocks) @ wj))
        return acc.ravel()

    def dense(self):
        return np.vstack([np.kron(wi.toarray(), wj.toarray())
                          for wi in self.filters for wj in self.filters])


def framelet_analysis_2d(n):
    """Tight-frame framelet analysis operator on n x n images (q = 9 n^2)."""
    return FrameletRegularizer(n)


def as_regularizer(L, n=None):
    """Coerce a Regularizer, explicit matrix, or None (identity) to a Regularizer."""
    if L is None:
        if n is None:
            raise ValueError("need n to build an identity regularizer")
        return IdentityRegularizer(n)
    if isinstance(L, Regularizer):
        return L
    return MatrixRegularizer(L)
