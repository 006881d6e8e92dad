"""Parametrized forward operators for 1D and 2D Gaussian deconvolution.

The two concrete operators are a 1D Gaussian Toeplitz blur (zero boundary)
parametrized by sigma, and a 2D anisotropic Gaussian PSF convolution
parametrized by (sigma1, sigma2, rho). Both expose forward, adjoint and
per-parameter derivative actions so that outer Gauss-Newton loops can form
reduced Jacobians from matrix-vector products only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import fft as sfft
from scipy.linalg import toeplitz


class ConvBoundary(Enum):
    """Boundary model for shift-invariant convolution."""

    ZERO = "zero"
    PERIODIC = "periodic"
    REFLEXIVE = "reflexive"


_PAD_MODE = {
    ConvBoundary.ZERO: "constant",
    ConvBoundary.PERIODIC: "wrap",
    ConvBoundary.REFLEXIVE: "symmetric",
}


@dataclass(frozen=True)
class PsfParams:
    """Anisotropic Gaussian PSF parameters (sigma1, sigma2, rho), in pixels.

    The covariance matrix [[sigma1^2, rho^2], [rho^2, sigma2^2]] must be
    positive definite, i.e. delta = sigma1^2 sigma2^2 - rho^4 > 0.
    """

    sigma1: float
    sigma2: float
    rho: float

    def __post_init__(self):
        if not (self.sigma1 > 0 and self.sigma2 > 0):
            raise ValueError("sigma1 and sigma2 must be positive")
        if not self.delta > 0:
            raise ValueError(
                "covariance not positive definite: "
                f"sigma1^2*sigma2^2 - rho^4 = {self.delta:g} <= 0"
            )

    @property
    def delta(self) -> float:
        return self.sigma1**2 * self.sigma2**2 - self.rho**4

    def as_array(self) -> np.ndarray:
        return np.array([self.sigma1, self.sigma2, self.rho], dtype=float)

    @classmethod
    def from_array(cls, y) -> "PsfParams":
        y = np.asarray(y, dtype=float)
        if y.shape != (3,):
            raise ValueError("parameter vector must have length 3")
        return cls(float(y[0]), float(y[1]), float(y[2]))


def gaussian_kernel_1d(sigma, offsets):
    """Evaluate the normalized 1D Gaussian g(s) = exp(-s^2/(2 sigma^2)) / sqrt(2 pi sigma^2).

    Parameters
    ----------
    sigma : positive float
    offsets : array_like of sample offsets s (pixels)
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    s = np.asarray(offsets, dtype=float)
    return np.exp(-(s**2) / (2.0 * sigma**2)) / np.sqrt(2.0 * np.pi * sigma**2)


def _gaussian_kernel_1d_dsigma(sigma, offsets):
    # d/dsigma of gaussian_kernel_1d: g(s) * (s^2/sigma^3 - 1/sigma)
    s = np.asarray(offsets, dtype=float)
    g = gaussian_kernel_1d(sigma, s)
    return g * (s**2 / sigma**3 - 1.0 / sigma)


def build_toeplitz_1d(sigma, n):
    """Dense n x n Toeplitz blur matrix from the 1D Gaussian on an integer grid.

    Midpoint quadrature with unit spacing and zero boundary conditions; the
    first column and row are the kernel values at offsets 0..n-1.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    col = gaussian_kernel_1d(sigma, np.arange(n))
    return toeplitz(col)


def _build_toeplitz_1d_dsigma(sigma, n):
    col = _gaussian_kernel_1d_dsigma(sigma, np.arange(n))
    return toeplitz(col)


def _psf_raw_2d(params: PsfParams, size):
    """Unnormalized Gaussian PSF values on a centered integer grid."""
    ks, kt = size
    s = np.arange(ks, dtype=float) - (ks - 1) / 2.0
    t = np.arange(kt, dtype=float) - (kt - 1) / 2.0
    S, T = np.meshgrid(s, t, indexing="ij")
    delta = params.delta
    quad = (params.sigma2**2 * S**2 - 2.0 * params.rho**2 * S * T
            + params.sigma1**2 * T**2)
    return np.exp(-quad / (2.0 * delta)) / (2.0 * np.pi * np.sqrt(delta))


def psf_gaussian_2d(params: PsfParams, size=(31, 31)):
    """Normalized anisotropic Gaussian PSF on a centered odd-sized grid.

    The raw values are divided by their sum so the entries add to one.
    """
    ks, kt = size
    if ks % 2 == 0 or kt % 2 == 0:
        raise ValueError("PSF size must be odd in both dimensions")
    raw = _psf_raw_2d(params, size)
    return raw / raw.sum()


def _psf_raw_gradients_2d(params: PsfParams, size):
    """Analytic partials of the unnormalized PSF w.r.t. (sigma1, sigma2, rho)."""
    ks, kt = size
    s = np.arange(ks, dtype=float) - (ks - 1) / 2.0
    t = np.arange(kt, dtype=float) - (kt - 1) / 2.0
    S, T = np.meshgrid(s, t, indexing="ij")
    s1, s2, rho = params.sigma1, params.sigma2, params.rho
    delta = params.delta
    raw = _psf_raw_2d(params, size)

    quad = s2**2 * S**2 - 2.0 * rho**2 * S * T + s1**2 * T**2
    # d log raw / d theta = -delta_theta/(2 delta) - quad_theta/(2 delta)
    #                       + quad * delta_theta / (2 delta^2)
    grads = []
    for dquad, ddelta in (
        (2.0 * s1 * T**2, 2.0 * s1 * s2**2),
        (2.0 * s2 * S**2, 2.0 * s2 * s1**2),
        (-4.0 * rho * S * T, -4.0 * rho**3),
    ):
        dlog = (-ddelta / (2.0 * delta) - dquad / (2.0 * delta)
                + quad * ddelta / (2.0 * delta**2))
        grads.append(raw * dlog)
    return grads


def psf_param_gradients(params: PsfParams, size=(31, 31), method="analytic",
                        fd_step=1e-5):
    """Partials of the *normalized* PSF with respect to (sigma1, sigma2, rho).

    ``method='analytic'`` differentiates the closed form through the
    normalization by the quotient rule. ``method='fd'`` uses central finite
    differences with step ``fd_step``; if a perturbed parameter set loses
    positive definiteness the step is shrunk once before giving up.

    Returns a list of three arrays, each summing to zero.
    """
    ks, kt = size
    if ks % 2 == 0 or kt % 2 == 0:
        raise ValueError("PSF size must be odd in both dimensions")
    if method == "analytic":
        raw = _psf_raw_2d(params, size)
        z = raw.sum()
        p = raw / z
        grads = []
        for draw in _psf_raw_gradients_2d(params, size):
            grads.append(draw / z - p * (draw.sum() / z))
        return grads
    if method == "fd":
        y0 = params.as_array()
        grads = []
        for j in range(3):
            h = float(fd_step)
            for attempt in range(2):
                try:
                    yp = y0.copy(); yp[j] += h
                    ym = y0.copy(); ym[j] -= h
                    pp = psf_gaussian_2d(PsfParams.from_array(yp), size)
                    pm = psf_gaussian_2d(PsfParams.from_array(ym), size)
                    grads.append((pp - pm) / (2.0 * h))
                    break
                except ValueError:
                    if attempt == 1:
                        raise
                    h /= 10.0
        return grads
    raise ValueError(f"unknown gradient method {method!r}")


class _CachedConv2D:
    """FFT convolution with a fixed kernel on fixed-size inputs.

    The kernel transform is cached; the three boundary models are realized by
    padding before a linear 'valid' convolution, which makes the exact adjoint
    a flipped-kernel convolution followed by folding the pad back.
    """

    def __init__(self, kernel, image_shape, boundary: ConvBoundary):
        kernel = np.asarray(kernel, dtype=float)
        self.kernel_shape = kernel.shape
        self.image_shape = image_shape
        self.boundary = boundary
        kh, kw = kernel.shape
        nh, nw = image_shape
        if kh > nh or kw > nw:
            raise ValueError("PSF larger than the padded image is not supported")
        # pad widths chosen so the valid convolution returns the image size
        self.pad = ((kh - 1 - (kh - 1) // 2, (kh - 1) // 2),
                    (kw - 1 - (kw - 1) // 2, (kw - 1) // 2))
        self.full_shape = (nh + kh - 1, nw + kw - 1)
        self.fshape = tuple(sfft.next_fast_len(s) for s in self.full_shape)
        self.kf = sfft.rfftn(kernel, self.fshape)
        self.kf_flip = sfft.rfftn(kernel[::-1, ::-1], self.fshape)

    def apply(self, x):
        xp = np.pad(x, self.pad, mode=_PAD_MODE[self.boundary])
        out = sfft.irfftn(sfft.rfftn(xp, self.fshape) * self.kf, self.fshape)
        kh, kw = self.kernel_shape
        nh, nw = self.image_shape
        return out[kh - 1:kh - 1 + nh, kw - 1:kw - 1 + nw]

    def adjoint(self, v):
        # full correlation with the kernel, then fold the padding adjoint
        out = sfft.irfftn(sfft.rfftn(v, self.fshape) * self.kf_flip, self.fshape)
        full = out[:self.full_shape[0], :self.full_shape[1]]
        return _fold_pad(full, self.pad, self.boundary, self.image_shape)


def _fold_pad(v, pad, boundary: ConvBoundary, image_shape):
    """Adjoint of np.pad for the three boundary modes, applied per axis."""
    for axis in (0, 1):
        a, b = pad[axis]
        n = image_shape[axis]
        v = np.moveaxis(v, axis, 0)
        core = v[a:a + n].copy()
        if boundary is ConvBoundary.PERIODIC:
            if a:
                core[n - a:] += v[:a]
            if b:
                core[:b] += v[a + n:]
        elif boundary is ConvBoundary.REFLEXIVE:
            if a:
                core[:a] += v[:a][::-1]
            if b:
                core[n - b:] += v[a + n:][::-1]
        v = np.moveaxis(core, 0, axis)
    return v


def conv2d_apply(psf, x, boundary=ConvBoundary.PERIODIC):
    """Discrete 2D convolution of image ``x`` with kernel ``psf``.

    The output has the shape of ``x``; out-of-range samples follow the
    boundary model. Kernels may have any shape not exceeding the image.
    """
    psf = np.asarray(psf, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("image must be nonempty")
    return _CachedConv2D(psf, x.shape, boundary).apply(x)


class ParamOperator:
    """A linear map G(y) with per-parameter derivative actions.

    Subclasses provide ``apply``, ``adjoint_apply``, ``derivative_apply`` and
    ``derivative_adjoint_apply``. An instance holds one parameter value;
    ``ProblemInstance.operator`` builds the family at new parameters.
    """

    m: int
    n: int
    r: int

    @property
    def params(self) -> np.ndarray:
        raise NotImplementedError

    def apply(self, x) -> np.ndarray:
        raise NotImplementedError

    def adjoint_apply(self, v) -> np.ndarray:
        raise NotImplementedError

    def derivative_apply(self, j, x) -> np.ndarray:
        """Action of dG/dy_j on x."""
        raise NotImplementedError

    def derivative_adjoint_apply(self, j, v) -> np.ndarray:
        """Action of (dG/dy_j)^T on v."""
        raise NotImplementedError

    def dense(self) -> np.ndarray:
        """Dense matrix representation; intended for small problems."""
        cols = [self.apply(e) for e in np.eye(self.n)]
        return np.column_stack(cols)


class MatrixOperator(ParamOperator):
    """Wrap a plain matrix as a parameterless operator (mostly for tests)."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.m, self.n = self.a.shape
        self.r = 0

    @property
    def params(self):
        return np.zeros(0)

    def apply(self, x):
        return self.a @ x

    def adjoint_apply(self, v):
        return self.a.T @ v

    def dense(self):
        return self.a


class GaussianBlur1D(ParamOperator):
    """1D Gaussian Toeplitz blur with zero boundary, parametrized by sigma."""

    def __init__(self, sigma, n):
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        if n < 2:
            raise ValueError("n must be at least 2")
        self.sigma = float(sigma)
        self.m = self.n = int(n)
        self.r = 1
        self._g = build_toeplitz_1d(self.sigma, self.n)
        self._dg = _build_toeplitz_1d_dsigma(self.sigma, self.n)

    @property
    def params(self):
        return np.array([self.sigma])

    def apply(self, x):
        return self._g @ x

    def adjoint_apply(self, v):
        return self._g.T @ v

    def derivative_apply(self, j, x):
        if j != 0:
            raise IndexError("parameter index out of range")
        return self._dg @ x

    def derivative_adjoint_apply(self, j, v):
        if j != 0:
            raise IndexError("parameter index out of range")
        return self._dg.T @ v

    def dense(self):
        return self._g

    def derivative_dense(self, j=0):
        if j != 0:
            raise IndexError("parameter index out of range")
        return self._dg


class GaussianPsfBlur2D(ParamOperator):
    """2D convolution with a normalized anisotropic Gaussian PSF.

    Acts on flattened (row-major) square images. Derivative actions convolve
    with the partials of the normalized PSF, using the commutativity of
    convolution in the blur parametrization.
    """

    def __init__(self, params: PsfParams, image_shape, psf_size=31,
                 boundary=ConvBoundary.PERIODIC):
        if np.isscalar(image_shape):
            image_shape = (int(image_shape), int(image_shape))
        self.image_shape = tuple(image_shape)
        self.psf_params = params
        self.psf_size = int(psf_size)
        self.boundary = boundary
        self.m = self.n = int(np.prod(self.image_shape))
        self.r = 3
        size = (self.psf_size, self.psf_size)
        self.psf = psf_gaussian_2d(params, size)
        self.psf_grads = psf_param_gradients(params, size)
        self._conv = _CachedConv2D(self.psf, self.image_shape, boundary)
        self._dconv = [_CachedConv2D(g, self.image_shape, boundary)
                       for g in self.psf_grads]

    @property
    def params(self):
        return self.psf_params.as_array()

    def _as_image(self, x):
        return np.asarray(x, dtype=float).reshape(self.image_shape)

    def apply(self, x):
        return self._conv.apply(self._as_image(x)).ravel()

    def adjoint_apply(self, v):
        return self._conv.adjoint(self._as_image(v)).ravel()

    def derivative_apply(self, j, x):
        return self._dconv[j].apply(self._as_image(x)).ravel()

    def derivative_adjoint_apply(self, j, v):
        return self._dconv[j].adjoint(self._as_image(v)).ravel()

    def dense(self):
        if self.n > 4096:
            raise ValueError("dense assembly is limited to images up to 64x64")
        return self._dense_from_kernel(self.psf)

    def derivative_dense(self, j):
        if self.n > 4096:
            raise ValueError("dense assembly is limited to images up to 64x64")
        return self._dense_from_kernel(self.psf_grads[j])

    def _dense_from_kernel(self, kernel):
        conv = _CachedConv2D(kernel, self.image_shape, self.boundary)
        cols = np.empty((self.m, self.n))
        e = np.zeros(self.image_shape)
        it = 0
        for i in range(self.image_shape[0]):
            for jj in range(self.image_shape[1]):
                e[i, jj] = 1.0
                cols[:, it] = conv.apply(e).ravel()
                e[i, jj] = 0.0
                it += 1
        return cols

