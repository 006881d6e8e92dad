"""Test-problem generators, bundled synthetic images and noise.

The 1D instance blurs a piecewise-constant signal with a Gaussian Toeplitz
matrix under zero boundary conditions; the 2D instances blur a square image
with a normalized anisotropic Gaussian PSF. Noise is white Gaussian, rescaled
so the noise-to-signal ratio is met exactly, and every instance is fully
determined by its inputs and seed.
The grain image tests each ellipse on its bounding window only, and each
builtin image is built once per (name, n) per process. The noiseless pair
(x_true, d_true) of the most recent builtin 2D instance and of the most
recent 1D instance is kept read-only, so a build that repeats all inputs
but the noise level and seed pays only for the noise and two copies.
Synthesis applies the blur without building its derivatives. Image arrays
passed by the caller are never cached.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .operators import (ConvBoundary, GaussianBlur1D, GaussianPsfBlur2D,
                        PsfParams, _whole_number)


def _norm(v):
    """||v||_2 as np.linalg.norm computes it for a real v, sqrt(v . v),
    without its argument handling."""
    v = v.ravel()
    return math.sqrt(v.dot(v))


def add_noise(d_true, level, seed):
    """Add white Gaussian noise with an exact noise-to-signal ratio.

    Draws from a seeded generator and rescales so that
    ||noise|| / ||d_true|| equals ``level`` exactly.
    """
    if not 0 <= level < np.inf:
        raise ValueError("noise level must be finite and nonnegative")
    d_true = np.asarray(d_true, dtype=float)
    if level == 0.0:
        return d_true.copy(), np.zeros_like(d_true)
    norm_true = _norm(d_true)
    if norm_true == 0.0:
        raise ValueError("cannot scale noise against zero data")
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(d_true.shape)
    eps *= level * norm_true / _norm(eps)
    return d_true + eps, eps


def piecewise_signal(n):
    """Piecewise-constant test signal with three plateaus and two spikes in [0, 1]."""
    if n < 16:
        raise ValueError("signal needs at least 16 samples")
    x = np.zeros(n)
    t = np.arange(n) / n

    def band(lo, hi, val):
        x[(t >= lo) & (t < hi)] = val

    band(0.10, 0.22, 0.55)
    band(0.30, 0.46, 0.95)
    band(0.62, 0.78, 0.45)
    x[int(0.53 * n)] = 1.0
    x[int(0.86 * n)] = 0.80
    return x


def _satellite_image(n):
    """Sparse bright object on a black background (solar panels, body, dish)."""
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    u = (ii - 0.5 * (n - 1)) / n
    v = (jj - 0.5 * (n - 1)) / n
    img = np.zeros((n, n))
    img[(np.abs(u) < 0.045) & (np.abs(v) > 0.11) & (np.abs(v) < 0.36)] = 0.55
    img[(np.abs(u) < 0.012) & (np.abs(v) <= 0.13)] = 0.75
    cs, sn = np.cos(0.5), np.sin(0.5)
    uu = u * cs + v * sn
    vv = -u * sn + v * cs
    img[(uu / 0.10) ** 2 + (vv / 0.065) ** 2 <= 1.0] = 0.90
    img[(u + 0.17) ** 2 + (v - 0.03) ** 2 < 0.0022] = 1.0
    img[(u - 0.20) ** 2 + (v + 0.16) ** 2 < 0.0006] = 0.85
    return img


def _grain_image(n):
    """High-contrast granular texture: scattered ellipses over a dark base.

    Each ellipse is tested only on the pixels within max(a, b) + 1 of its
    center along both axes; outside that window (u/a)^2 + (v/b)^2 >
    1 + 2/max(a, b), so no pixel of the ellipse is missed. An ellipse costs a
    window of at most (0.11 n + 3)^2 pixels instead of the n x n grid.
    """
    count = max(24, (n * n) // 110)
    # ci, cj, a, b, theta, val of every ellipse, drawn in the stream order of
    # one Generator.uniform call per value, which returns low + (high-low) u
    low = np.array([0.0, 0.0, 0.020, 0.012, 0.0, 0.35])
    high = np.array([n, n, 0.055, 0.040, np.pi, 1.0])
    draws = low + (high - low) * np.random.default_rng(170915).random((count, 6))
    img = np.full((n, n), 0.06)
    for ci, cj, a, b, theta, val in draws:
        a, b = a * n, b * n
        reach = max(a, b) + 1.0
        i0, i1 = max(int(ci - reach), 0), min(int(ci + reach) + 1, n)
        j0, j1 = max(int(cj - reach), 0), min(int(cj + reach) + 1, n)
        du = np.arange(i0, i1, dtype=float)[:, None] - ci
        dv = np.arange(j0, j1, dtype=float)[None, :] - cj
        cs, sn = np.cos(theta), np.sin(theta)
        uu = du * cs + dv * sn
        vv = -du * sn + dv * cs
        window = img[i0:i1, j0:j1]
        window[(uu / a) ** 2 + (vv / b) ** 2 <= 1.0] = val
    return img


_BUILTIN_IMAGES = {
    "satellite": _satellite_image,
    "grain": _grain_image,
}


@functools.cache
def _shared_image(name, n):
    """The one read-only build of builtin image ``name`` at size n."""
    try:
        make = _BUILTIN_IMAGES[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin image {name!r}; available: "
            f"{sorted(_BUILTIN_IMAGES)}") from None
    image = make(n)
    image.flags.writeable = False
    return image


def _blur(image, params, psf_size, boundary):
    """d_true = G(params) x_true of a square image."""
    op = GaussianPsfBlur2D(params, image.shape, psf_size, boundary)
    return op.apply(image.ravel())


@functools.lru_cache(maxsize=1)
def _noiseless_builtin(name, size, params, psf_size, boundary):
    """The read-only (x_true as an image, d_true) of builtin image ``name``,
    which lies in [0, 1] already."""
    image = _shared_image(name, size)
    d_true = _blur(image, params, psf_size, boundary)
    d_true.setflags(write=False)
    return image, d_true


@functools.lru_cache(maxsize=1)
def _noiseless_1d(n, sigma_true):
    """The read-only (x_true, d_true) of the 1D instance of n samples."""
    x_true = piecewise_signal(n)
    d_true = GaussianBlur1D(sigma_true, n).apply(x_true)
    x_true.setflags(write=False)
    d_true.setflags(write=False)
    return x_true, d_true


@dataclass
class ProblemInstance:
    """A forward model plus data: d = G(y_true) x_true + noise."""

    family: str                       # 'toeplitz1d' or 'psf2d'
    y_true: np.ndarray
    x_true: np.ndarray                # flattened
    d_true: np.ndarray
    d: np.ndarray
    noise: np.ndarray
    noise_level: float
    seed: int
    shape: tuple
    boundary: ConvBoundary = ConvBoundary.PERIODIC
    psf_size: int = 31

    def operator(self, y):
        """Instantiate the forward operator family at parameters y."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if self.family == "toeplitz1d":
            if y.shape != (1,):
                raise ValueError("parameter vector must have length 1")
            return GaussianBlur1D(float(y[0]), self.shape[0])
        if self.family == "psf2d":
            return GaussianPsfBlur2D(PsfParams.from_array(y), self.shape,
                                     self.psf_size, self.boundary)
        raise ValueError(f"unknown problem family {self.family!r}")


def make_1d_problem(n=128, sigma_true=2.0, level=0.01, seed=0):
    """1D Gaussian deconvolution instance with the bundled edge signal.

    The noiseless pair is shared with the previous build of the same
    (n, sigma_true); the instance holds copies of it.
    """
    n, sigma_true = _whole_number(n, "n"), float(sigma_true)
    x_true, d_true = _noiseless_1d(n, sigma_true)
    x_true, d_true = x_true.copy(), d_true.copy()
    d, eps = add_noise(d_true, level, seed)
    return ProblemInstance(family="toeplitz1d",
                           y_true=np.array([sigma_true]),
                           x_true=x_true, d_true=d_true, d=d, noise=eps,
                           noise_level=float(level), seed=int(seed),
                           shape=(n,), boundary=ConvBoundary.ZERO)


def make_blind_deconv_problem(image, y_true, level, seed,
                              boundary=ConvBoundary.PERIODIC, psf_size=31,
                              size=128):
    """2D blind-deconvolution instance from a builtin or user image.

    ``image`` may be a builtin name or a square 2D array, which is copied, so
    ``x_true`` shares no memory with it; intensities are rescaled to [0, 1]
    when they fall outside. ``y_true`` is a PsfParams or a length-3 vector
    (sigma1, sigma2, rho). A builtin image shares its noiseless pair with the
    previous build of the same (image, size, y_true, psf_size, boundary); the
    instance holds copies of it. ``size`` is read for builtin images only.
    """
    params = y_true if isinstance(y_true, PsfParams) \
        else PsfParams.from_array(y_true)
    if isinstance(boundary, str):
        boundary = ConvBoundary(boundary)
    psf_size = _whole_number(psf_size, "psf_size")
    if isinstance(image, str):
        x_true, d_true = _noiseless_builtin(
            image, _whole_number(size, "size"), params, psf_size, boundary)
        x_true, d_true = x_true.copy(), d_true.copy()
    else:
        x_true = np.array(image, dtype=float, order="C")
        if x_true.ndim != 2 or x_true.shape[0] != x_true.shape[1]:
            raise ValueError("image must be a square 2D array")
        lo, hi = x_true.min(), x_true.max()
        if lo < 0.0 or hi > 1.0:
            if hi == lo:
                raise ValueError("constant image cannot be rescaled to "
                                 "[0, 1]")
            x_true -= lo
            x_true /= hi - lo
        d_true = _blur(x_true, params, psf_size, boundary)
    d, eps = add_noise(d_true, level, seed)
    return ProblemInstance(family="psf2d", y_true=params.as_array(),
                           x_true=x_true.ravel(), d_true=d_true, d=d,
                           noise=eps, noise_level=float(level),
                           seed=int(seed), shape=x_true.shape,
                           boundary=boundary, psf_size=psf_size)
