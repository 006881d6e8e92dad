"""Parametrized forward operators for 1D and 2D Gaussian deconvolution.

The two concrete operators are a 1D Gaussian Toeplitz blur (zero boundary)
parametrized by sigma, and a 2D anisotropic Gaussian PSF convolution
parametrized by (sigma1, sigma2, rho). Both expose forward, adjoint and
per-parameter derivative actions so that outer Gauss-Newton loops can form
reduced Jacobians from matrix-vector products only.

Every operator has range coordinates, an isometry ``range_rep`` of R^m in
which ``apply_rep`` applies G and which ``adjoint_apply`` reads as well as
vectors of R^m. They are the identity but under the default PERIODIC
boundary of the 2D blur, which is diagonal in the 2D DFT: there they are
the orthonormal half spectrum, and one real FFT applies G, one inverse FFT
G^T. Builds reject a parameter that is not finite, or whose kernel
arithmetic overflows or underflows, by ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy import fft as sfft
from scipy.linalg import toeplitz


class ConvBoundary(Enum):
    """Boundary model for shift-invariant convolution."""

    ZERO = "zero"
    PERIODIC = "periodic"
    REFLEXIVE = "reflexive"


# Dense assembly of an operator or a pair is limited to this many unknowns.
DENSE_LIMIT = 4096


def _whole_number(value, name):
    """``value`` as an int; raises ValueError unless it is a whole number."""
    try:
        whole = int(value)
        if whole == value:
            return whole
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _columns(fn, m, n):
    """Dense m x n matrix of columns fn(e_i), reusing one unit vector e_i."""
    if n > DENSE_LIMIT:
        raise ValueError(f"dense assembly is limited to n <= {DENSE_LIMIT} "
                         f"unknowns (got n = {n})")
    cols = np.empty((m, n))
    e = np.zeros(n)
    for i in range(n):
        e[i] = 1.0
        cols[:, i] = fn(e)
        e[i] = 0.0
    return cols


_PAD_MODE = {
    ConvBoundary.ZERO: "constant",
    ConvBoundary.REFLEXIVE: "symmetric",
}


@dataclass(frozen=True)
class PsfParams:
    """Anisotropic Gaussian PSF parameters (sigma1, sigma2, rho), in pixels.

    The covariance matrix [[sigma1^2, rho^2], [rho^2, sigma2^2]] must be
    positive definite, i.e. delta = sigma1^2 sigma2^2 - rho^4 > 0, and its
    entries and delta finite floats.
    """

    sigma1: float
    sigma2: float
    rho: float

    def __post_init__(self):
        if not (self.sigma1 > 0 and self.sigma2 > 0):
            raise ValueError("sigma1 and sigma2 must be positive")
        # a product of Python floats overflows to inf, where ** raises
        s1, s2, r2 = (float(v) * float(v)
                      for v in (self.sigma1, self.sigma2, self.rho))
        delta = s1 * s2 - r2 * r2
        if not all(map(math.isfinite, (s1, s2, r2, delta))):
            raise ValueError("PSF parameters must be finite, with a finite "
                             "covariance and delta")
        if not delta > 0:
            raise ValueError(
                "covariance not positive definite: "
                f"sigma1^2*sigma2^2 - rho^4 = {delta:g} <= 0"
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


def _psf_raw_2d(params: PsfParams, size):
    """Unnormalized Gaussian PSF on a centered odd-sized integer grid.

    Returns the values with the grid offsets S, T and the quadratic form
    quad(S, T) of their exponent, which the gradients read.
    """
    ks, kt = size
    if ks % 2 == 0 or kt % 2 == 0:
        raise ValueError("PSF size must be odd in both dimensions")
    S, T = np.meshgrid(np.arange(ks) - (ks - 1) / 2.0,
                       np.arange(kt) - (kt - 1) / 2.0, indexing="ij")
    delta = params.delta
    quad = (params.sigma2**2 * S**2 - 2.0 * params.rho**2 * S * T
            + params.sigma1**2 * T**2)
    raw = np.exp(-quad / (2.0 * delta)) / (2.0 * np.pi * np.sqrt(delta))
    return raw, S, T, quad


def psf_gaussian_2d(params: PsfParams, size=(31, 31)):
    """Normalized anisotropic Gaussian PSF on a centered odd-sized grid.

    The raw values are divided by their sum so the entries add to one.
    """
    raw = _psf_raw_2d(params, size)[0]
    return raw / raw.sum()


def psf_param_gradients(params: PsfParams, size=(31, 31)):
    """Partials of the *normalized* PSF with respect to (sigma1, sigma2, rho).

    The closed form is differentiated through the normalization by the
    quotient rule. Returns a list of three arrays, each summing to zero.
    """
    raw, S, T, quad = _psf_raw_2d(params, size)
    s1, s2, rho = params.sigma1, params.sigma2, params.rho
    delta = params.delta
    z = raw.sum()
    p = raw / z
    grads = []
    # d log raw / d theta = -delta_theta/(2 delta) - quad_theta/(2 delta)
    #                       + quad * delta_theta / (2 delta^2)
    for dquad, ddelta in (
        (2.0 * s1 * T**2, 2.0 * s1 * s2**2),
        (2.0 * s2 * S**2, 2.0 * s2 * s1**2),
        (-4.0 * rho * S * T, -4.0 * rho**3),
    ):
        draw = raw * (-ddelta / (2.0 * delta) - dquad / (2.0 * delta)
                      + quad * ddelta / (2.0 * delta**2))
        grads.append(draw / z - p * (draw.sum() / z))
    return grads


class _CachedConv2D:
    """FFT convolution with a fixed kernel on fixed-size inputs.

    The convolution is circulant on an FFT grid. Its eigenvalues ``kf`` are
    the transform of the kernel embedded in the grid with its center rolled
    to the origin; the adjoint multiplies by their cached conjugate. PERIODIC
    convolves on the image grid itself. ZERO and REFLEXIVE pad the image
    into a grid large enough that nothing wraps into the cropped output, and
    their adjoint folds the pad back.
    """

    def __init__(self, kernel, image_shape, boundary: ConvBoundary):
        kernel = np.asarray(kernel, dtype=float)
        self.image_shape = tuple(image_shape)
        self.boundary = boundary
        (kh, kw), (nh, nw) = kernel.shape, self.image_shape
        if not (0 < kh <= nh and 0 < kw <= nw):
            raise ValueError(f"PSF of shape {kernel.shape} must be nonempty "
                             f"and no larger than the image of shape "
                             f"{self.image_shape}")
        # the kernel center, which is also the pad after each axis
        ch, cw = (kh - 1) // 2, (kw - 1) // 2
        if boundary is ConvBoundary.PERIODIC:
            self.pad, self.grid = ((0, 0), (0, 0)), self.image_shape
        else:
            self.pad = ((kh - 1 - ch, ch), (kw - 1 - cw, cw))
            self.grid = (sfft.next_fast_len(nh + kh - 1),
                         sfft.next_fast_len(nw + kw - 1))
        embedded = np.zeros(self.grid)
        embedded[:kh, :kw] = kernel
        self.kf = sfft.rfftn(np.roll(embedded, (-ch, -cw), axis=(0, 1)))

    @cached_property
    def kf_conj(self):
        """conj(kf), the eigenvalues of the adjoint, built on first use."""
        return np.conj(self.kf)

    @cached_property
    def _rep_spectra(self):
        """Scales (w, kf w, conj(kf) / w) / sqrt(N) of ``rep`` and
        ``adjoint_rep``: N = n1 n2 makes the transforms orthonormal, and w =
        sqrt(2) on the half-spectrum columns whose conjugates are not
        stored, 1 on the others, keeps inner products."""
        w = np.ones(self.kf.shape[1])
        w[1:(self.grid[1] + 1) // 2] = np.sqrt(2.0)
        w /= np.sqrt(np.prod(self.grid))
        return w, self.kf * w, np.conj(self.kf) / (w * np.prod(self.grid))

    def rep(self, x, filtered):
        """Range coordinates of G x (``filtered``) or of x, PERIODIC only.

        They are the orthonormal half spectrum scaled by w, viewed as reals,
        so they keep inner products; one real FFT.
        """
        f = sfft.rfftn(x)
        f *= self._rep_spectra[1 if filtered else 0]
        return f.view(float).ravel()

    def adjoint_rep(self, u):
        """G^T u for range coordinates u, the adjoint of ``rep``; one
        inverse real FFT. Its real part on the self-conjugate columns makes
        it the adjoint for any u, not only for coordinates of a real image.
        """
        f = np.reshape(u, (self.grid[0], -1)).view(complex)
        return sfft.irfftn(f * self._rep_spectra[2], self.grid, norm="forward",
                           overwrite_x=True)

    def _filter(self, x, eigenvalues):
        """Circulant action of ``eigenvalues``, the spectrum scaled in place."""
        f = sfft.rfftn(x, self.grid)
        f *= eigenvalues
        return sfft.irfftn(f, self.grid, overwrite_x=True)

    def apply(self, x):
        if self.boundary is not ConvBoundary.PERIODIC:
            x = np.pad(x, self.pad, mode=_PAD_MODE[self.boundary])
        out = self._filter(x, self.kf)
        (a, _), (b, _) = self.pad
        return out[a:a + self.image_shape[0], b:b + self.image_shape[1]]

    def adjoint(self, v):
        if self.boundary is not ConvBoundary.PERIODIC:
            # the adjoint of the crop puts v back at its offset in the grid
            v = np.pad(v, [(a, g - a - n) for (a, _), g, n
                           in zip(self.pad, self.grid, self.image_shape)])
        out = self._filter(v, self.kf_conj)
        return (out if self.boundary is ConvBoundary.PERIODIC
                else _fold_pad(out, self.pad, self.boundary, self.image_shape))


def _fold_pad(v, pad, boundary: ConvBoundary, image_shape):
    """Per-axis adjoint of np.pad (ZERO, REFLEXIVE); reads v up to the pad."""
    for axis in (0, 1):
        a, b = pad[axis]
        n = image_shape[axis]
        v = np.moveaxis(v, axis, 0)
        core = v[a:a + n].copy()
        if boundary is ConvBoundary.REFLEXIVE:
            if a:
                core[:a] += v[:a][::-1]
            if b:
                core[n - b:] += v[a + n:a + n + b][::-1]
        v = np.moveaxis(core, 0, axis)
    return v


class ParamOperator:
    """A linear map G(y) with per-parameter derivative actions.

    Subclasses provide ``apply``, ``adjoint_apply``, ``derivative_apply`` and
    ``derivative_adjoint_apply`` for an m x n map with r parameters. The
    range coordinates (``range_rep``, ``apply_rep`` and their length
    ``rep_size``) are the identity unless a subclass overrides them. An
    instance is built at one parameter value, which it does not report: the
    caller that chose y holds it, and ``ProblemInstance.operator`` builds
    the family at new parameters.
    """

    m: int
    n: int
    r: int

    @property
    def rep_size(self) -> int:
        """Length of the range coordinates of a vector of R^m."""
        return self.m

    def range_rep(self, v) -> np.ndarray:
        """Range coordinates of v in R^m; they keep inner products."""
        return np.asarray(v, dtype=float)

    def apply_rep(self, x) -> np.ndarray:
        """``range_rep(apply(x))``, the action of G in range coordinates."""
        return self.range_rep(self.apply(x))

    def apply(self, x) -> np.ndarray:
        raise NotImplementedError

    def adjoint_apply(self, v) -> np.ndarray:
        """Action of G^T on v, given in R^m or in range coordinates."""
        raise NotImplementedError

    def derivative_apply(self, j, x) -> np.ndarray:
        """Action of dG/dy_j on x."""
        raise NotImplementedError

    def derivative_adjoint_apply(self, j, v) -> np.ndarray:
        """Action of (dG/dy_j)^T on v."""
        raise NotImplementedError

    def dense(self) -> np.ndarray:
        """Dense matrix representation; intended for small problems."""
        return _columns(self.apply, self.m, self.n)


class MatrixOperator(ParamOperator):
    """Wrap a plain matrix as a parameterless operator (mostly for tests)."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.m, self.n = self.a.shape
        self.r = 0

    def apply(self, x):
        return self.a @ x

    def adjoint_apply(self, v):
        return self.a.T @ v

    def dense(self):
        return self.a


class GaussianBlur1D(ParamOperator):
    """1D Gaussian Toeplitz blur with zero boundary, parametrized by sigma.

    G is built at construction. The dense dG/dsigma is built on first use,
    from the derivative kernel evaluated with G, so an operator that is only
    applied never forms it. Both kernels are zero where g(s) < eps^2 g(0):
    that moves no sum of entries of G by more than n eps^2 g(0), far below the
    roundoff of a QR or SVD of G, and drops the subnormal (slow on x86) tail.
    The samples are not renormalized: a row sums to 1 for sigma >= 1 but to
    about g(0) = 1 / (sqrt(2 pi) sigma) as sigma -> 0 (399 at 1e-3), where
    G -> g(0) I and the FULL/HALF residual tends to 0 (ROADMAP item 2).
    """

    def __init__(self, sigma, n):
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        n = _whole_number(n, "n")
        if n < 2:
            raise ValueError("n must be at least 2")
        self.sigma = float(sigma)
        self.m = self.n = n
        self.r = 1
        # one kernel evaluation at offsets 0..n-1 gives G and dG/dsigma,
        # whose kernel is g(s) (s^2/sigma^3 - 1/sigma); sigma^3 underflows
        # below about 1e-103 (sigma^2 below 1.5e-162), and above about
        # 5.6e102 it overflows, which would leave dG/dsigma 0
        s, sigma = np.arange(self.n, dtype=float), np.float64(self.sigma)
        with np.errstate(all="ignore"):
            cube = sigma**3
            g = gaussian_kernel_1d(sigma, s)
            dg = g * (s**2 / cube - 1.0 / sigma)
        if not (0 < cube < np.inf and np.isfinite(g).all()
                and np.isfinite(dg).all()):
            raise ValueError(f"sigma = {self.sigma:g} out of range: sigma^3 "
                             f"or the blur kernel is not finite")
        tail = g < np.finfo(float).eps ** 2 * g[0]
        g[tail] = dg[tail] = 0.0
        self._g = toeplitz(g)
        self._dg_kernel = dg

    @cached_property
    def _dg(self):
        return toeplitz(self._dg_kernel)

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


class GaussianPsfBlur2D(ParamOperator):
    """2D convolution with a normalized anisotropic Gaussian PSF.

    Acts on flattened (row-major) square images. Derivative actions convolve
    with the partials of the normalized PSF, using the commutativity of
    convolution in the blur parametrization. The PSF and its transform are
    built at construction; the three partials and their transforms are built
    on the first derivative action, so an operator that is only applied
    never forms them. Under PERIODIC the range coordinates are the weighted
    orthonormal half spectrum of ``_CachedConv2D.rep``, 2 n1 (n2//2 + 1)
    reals for an n1 x n2 image.
    """

    def __init__(self, params: PsfParams, image_shape, psf_size=31,
                 boundary=ConvBoundary.PERIODIC):
        self.image_shape = tuple(image_shape)
        self.psf_size = _whole_number(psf_size, "psf_size")
        self.boundary = boundary
        self.m = self.n = int(np.prod(self.image_shape))
        self.r = 3
        self._params = params
        self._periodic = boundary is ConvBoundary.PERIODIC
        self.psf = psf_gaussian_2d(params, (self.psf_size, self.psf_size))
        self._conv = _CachedConv2D(self.psf, self.image_shape, boundary)

    @cached_property
    def _dconv(self):
        size = (self.psf_size, self.psf_size)
        return [_CachedConv2D(g, self.image_shape, self.boundary)
                for g in psf_param_gradients(self._params, size)]

    def _as_image(self, x):
        return np.asarray(x, dtype=float).reshape(self.image_shape)

    def apply(self, x):
        return self._conv.apply(self._as_image(x)).ravel()

    def adjoint_apply(self, v):
        # range coordinates are longer than an image: 2 n1 (n2//2 + 1) > n
        if self._periodic and np.size(v) == self.rep_size:
            return self._conv.adjoint_rep(v).ravel()
        return self._conv.adjoint(self._as_image(v)).ravel()

    @property
    def rep_size(self):
        if not self._periodic:
            return self.m
        return 2 * self.image_shape[0] * (self.image_shape[1] // 2 + 1)

    def range_rep(self, v):
        if not self._periodic:
            return super().range_rep(v)
        return self._conv.rep(self._as_image(v), filtered=False)

    def apply_rep(self, x):
        if not self._periodic:
            return super().apply_rep(x)
        return self._conv.rep(self._as_image(x), filtered=True)

    def derivative_apply(self, j, x):
        return self._dconv[j].apply(self._as_image(x)).ravel()

    def derivative_adjoint_apply(self, j, v):
        return self._dconv[j].adjoint(self._as_image(v)).ravel()
