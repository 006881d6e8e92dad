import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from lpvarpro import operators
from lpvarpro.operators import (DENSE_LIMIT, ConvBoundary, GaussianBlur1D,
                                GaussianPsfBlur2D, MatrixOperator, PsfParams,
                                gaussian_kernel_1d, psf_gaussian_2d,
                                psf_param_gradients)
from lpvarpro.problems import make_1d_problem, make_blind_deconv_problem
from lpvarpro.varpro import _operator_at, jacobian_reduced

BOUNDARIES = [ConvBoundary.ZERO, ConvBoundary.PERIODIC, ConvBoundary.REFLEXIVE]


def build_toeplitz_1d(sigma, n):
    """Dense n x n Toeplitz blur matrix from the 1D Gaussian on an integer grid.

    Midpoint quadrature with unit spacing and zero boundary conditions; the
    first column and row are the kernel values at offsets 0..n-1.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return toeplitz(gaussian_kernel_1d(sigma, np.arange(n)))


def conv2d_apply(psf, x, boundary=ConvBoundary.PERIODIC):
    """Discrete 2D convolution of image ``x`` with kernel ``psf``.

    The output has the shape of ``x``; out-of-range samples follow the
    boundary model. Kernels may have any shape not exceeding the image.
    """
    psf = np.asarray(psf, dtype=float)
    x = np.asarray(x, dtype=float)
    return operators._CachedConv2D(psf, x.shape, boundary).apply(x)


def conv2d_loop(psf, x, boundary):
    """O(n^2 k^2) reference convolution with explicit boundary indexing."""
    kh, kw = psf.shape
    nh, nw = x.shape
    ch, cw = (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros_like(x, dtype=float)
    for i in range(nh):
        for j in range(nw):
            acc = 0.0
            for a in range(kh):
                for b in range(kw):
                    ii, jj = i + ch - a, j + cw - b
                    if boundary is ConvBoundary.PERIODIC:
                        acc += psf[a, b] * x[ii % nh, jj % nw]
                    elif boundary is ConvBoundary.REFLEXIVE:
                        ri = ii if 0 <= ii < nh else (-ii - 1 if ii < 0 else 2 * nh - ii - 1)
                        rj = jj if 0 <= jj < nw else (-jj - 1 if jj < 0 else 2 * nw - jj - 1)
                        acc += psf[a, b] * x[ri, rj]
                    elif 0 <= ii < nh and 0 <= jj < nw:
                        acc += psf[a, b] * x[ii, jj]
            out[i, j] = acc
    return out


class TestGaussianKernel1d:
    def test_closed_form_at_zero(self):
        assert gaussian_kernel_1d(2.0, [0])[0] == pytest.approx(
            1.0 / np.sqrt(8.0 * np.pi), abs=1e-15)

    def test_even_symmetry(self):
        vals = gaussian_kernel_1d(2.0, [-3, 3])
        assert vals[0] == vals[1]

    def test_matches_high_precision_oracle(self):
        # frozen from a 50-digit evaluation of the formula
        expected = [0.39894228040143267794,
                    0.24197072451914334980,
                    0.05399096651318805195]
        vals = gaussian_kernel_1d(1.0, [0, 1, 2])
        np.testing.assert_allclose(vals, expected, rtol=1e-15)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            gaussian_kernel_1d(0.0, [0])
        with pytest.raises(ValueError):
            gaussian_kernel_1d(-1.0, [0])
        with pytest.raises(ValueError):
            gaussian_kernel_1d(np.nan, [0])
        with pytest.raises(ValueError):
            GaussianBlur1D(np.nan, 8)

    @pytest.mark.parametrize("sigma", [1e-110, 1e-165, 1e200, np.inf])
    def test_blur_with_non_finite_kernel_refused(self, sigma):
        # sigma^3 underflows below about 1e-103, so the derivative kernel is
        # not finite; below about 1.5e-162 the blur itself is NaN. Above
        # about 5.6e102 sigma^3 overflows (an OverflowError of Python
        # floats, which no halving caught), and at inf G was 0. Such a
        # sigma lies outside the domain, so an outer step to it is halved
        with pytest.raises(ValueError, match="not finite"):
            GaussianBlur1D(sigma, 8)
        problem = make_1d_problem(n=16, seed=0)
        with pytest.raises(ValueError, match="not finite"):
            problem.operator([sigma])
        assert _operator_at(problem, [sigma]) is None


class TestToeplitz1d:
    def test_condition_number_anchor(self):
        cond = np.linalg.cond(build_toeplitz_1d(2.0, 128))
        assert 1.7e7 < cond < 1.7e9

    def test_constant_diagonals(self):
        g = build_toeplitz_1d(1.3, 12)
        for k in range(-11, 12):
            diag = np.diagonal(g, offset=k)
            assert np.all(diag == diag[0])

    def test_matvec_matches_convolution_loop(self):
        rng = np.random.default_rng(7)
        n, sigma = 16, 2.0
        g = build_toeplitz_1d(sigma, n)
        x = rng.standard_normal(n)
        kern = gaussian_kernel_1d(sigma, np.arange(-(n - 1), n))
        expected = np.zeros(n)
        for i in range(n):
            for j in range(n):
                expected[i] += kern[(i - j) + n - 1] * x[j]
        np.testing.assert_allclose(g @ x, expected, rtol=1e-13)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_toeplitz_1d(2.0, 1)

    def test_whole_sizes(self):
        # 10.5 used to build a 10-point operator, and psf_size 9.5 a 9 x 9 PSF
        assert GaussianBlur1D(2.0, 10.0).n == 10
        with pytest.raises(ValueError, match="n must be a whole number"):
            GaussianBlur1D(2.0, 10.5)
        with pytest.raises(ValueError, match="psf_size must be a whole"):
            GaussianPsfBlur2D(PsfParams(2.0, 1.5, 0.5), (16, 16), 9.5)


TAIL_CASES = [(sigma, n) for sigma in (0.05, 0.3, 1.0, 2.0, 2.5, 8.0)
              for n in (64, 512)]


class TestBlur1dTail:
    """The 1D blur zeroes its kernels where g(s) < eps^2 g(0)."""

    @pytest.mark.parametrize("sigma, n", TAIL_CASES)
    def test_no_subnormal_entries(self, sigma, n):
        # at sigma = 2.5, n = 512 the uncut G holds 2502 subnormal entries
        op = GaussianBlur1D(sigma, n)
        for a in (op.dense(), op._dg):
            mag = np.abs(a)
            assert not np.any((mag > 0) & (mag < np.finfo(float).tiny))

    @pytest.mark.parametrize("sigma, n", TAIL_CASES)
    def test_within_eps_squared_of_the_exact_kernel(self, sigma, n):
        exact = toeplitz(gaussian_kernel_1d(sigma, np.arange(n)))
        cut = GaussianBlur1D(sigma, n).dense()
        assert (np.abs(cut - exact).max()
                <= np.finfo(float).eps**2 * gaussian_kernel_1d(sigma, [0])[0])


class TestPsfParams:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PsfParams(-1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            PsfParams(1.0, 1.0, 1.5)   # delta = 1 - 5.06 < 0
        p = PsfParams(1.5, 2.0, 1.0)
        assert p.delta == pytest.approx(1.5**2 * 2.0**2 - 1.0)

    @pytest.mark.parametrize("params", [
        (np.inf, 1.0, 0.0), (1.0, 1.0, np.inf), (1e200, 1.0, 0.5),
        (1e200, 1e-200, 0.0), (1.0, 1.0, 1e100), (1e160, 1e160, 0.0)])
    def test_non_finite_or_overflowing_refused(self, params):
        # (inf, 1, 0) gave a NaN PSF and (1e200, 1, 0.5) an OverflowError
        # in delta; every one is outside the domain, so an outer step to it
        # is halved
        with pytest.raises(ValueError, match="finite"):
            PsfParams(*params)
        problem = make_blind_deconv_problem("satellite", (4.0, 3.0, 1.5),
                                            0.01, 0, size=16, psf_size=5)
        assert _operator_at(problem, params) is None


class TestPsfGaussian2d:
    def test_symmetries_for_isotropic_params(self):
        p = psf_gaussian_2d(PsfParams(1.7, 1.7, 0.0), (21, 21))
        np.testing.assert_allclose(p, p.T, atol=1e-16)
        np.testing.assert_allclose(p, p[::-1, :], atol=1e-16)
        np.testing.assert_allclose(p, p[:, ::-1], atol=1e-16)

    def test_unit_sum(self):
        for params in (PsfParams(1.5, 2.0, 1.0), PsfParams(3.0, 4.0, 0.5)):
            p = psf_gaussian_2d(params, (31, 31))
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_matches_direct_formula(self):
        params = PsfParams(1.5, 2.0, 1.0)
        size = 31
        c = (size - 1) / 2.0
        delta = params.delta
        raw = np.zeros((size, size))
        for i in range(size):
            for j in range(size):
                s, t = i - c, j - c
                quad = (params.sigma2**2 * s * s
                        - 2.0 * params.rho**2 * s * t
                        + params.sigma1**2 * t * t)
                raw[i, j] = np.exp(-quad / (2 * delta)) / (2 * np.pi * np.sqrt(delta))
        expected = raw / raw.sum()
        np.testing.assert_allclose(
            psf_gaussian_2d(params, (size, size)), expected, rtol=1e-13)

    def test_rejects_even_size_and_bad_delta(self):
        with pytest.raises(ValueError):
            psf_gaussian_2d(PsfParams(1.5, 2.0, 1.0), (30, 31))
        with pytest.raises(ValueError):
            PsfParams(0.8, 0.8, 0.9)


class TestPsfGradients:
    def test_sigma_swap_transposes(self):
        g1, g2, _ = psf_param_gradients(PsfParams(1.4, 1.4, 0.0), (21, 21))
        np.testing.assert_allclose(g1, g2.T, atol=1e-14)

    def test_gradients_sum_to_zero(self):
        grads = psf_param_gradients(PsfParams(1.5, 2.0, 1.0), (31, 31))
        for g in grads:
            assert abs(g.sum()) <= 1e-10

    def test_analytic_matches_finite_differences(self):
        params = PsfParams(1.5, 2.0, 1.0)
        analytic = psf_param_gradients(params, (31, 31))
        y0, h = params.as_array(), 1e-5
        for ga, step in zip(analytic, h * np.eye(3)):
            gf = (psf_gaussian_2d(PsfParams.from_array(y0 + step), (31, 31))
                  - psf_gaussian_2d(PsfParams.from_array(y0 - step), (31, 31))
                  ) / (2 * h)
            assert np.abs(ga - gf).max() < 1e-6


class TestConv2dApply:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 12))
        psf = np.zeros((7, 7))
        psf[3, 3] = 1.0
        for bc in BOUNDARIES:
            np.testing.assert_allclose(conv2d_apply(psf, x, bc), x, atol=1e-12)

    def test_constant_image_periodic(self):
        params = PsfParams(1.5, 2.0, 1.0)
        psf = psf_gaussian_2d(params, (9, 9))
        x = np.full((16, 16), 0.37)
        out = conv2d_apply(psf, x, ConvBoundary.PERIODIC)
        np.testing.assert_allclose(out, x, atol=1e-12)

    @pytest.mark.parametrize("bc", BOUNDARIES)
    def test_matches_nested_loop_oracle(self, bc):
        rng = np.random.default_rng(11)
        psf = rng.standard_normal((8, 8))
        x = rng.standard_normal((16, 16))
        np.testing.assert_allclose(conv2d_apply(psf, x, bc),
                                   conv2d_loop(psf, x, bc), atol=1e-12)

    def test_commutativity_matched_supports(self):
        # conv(P, x) = conv(x as kernel, P as image) for equal odd sizes
        rng = np.random.default_rng(5)
        p = rng.standard_normal((9, 9))
        x = rng.standard_normal((9, 9))
        out1 = conv2d_apply(p, x, ConvBoundary.PERIODIC)
        out2 = conv2d_apply(x, p, ConvBoundary.PERIODIC)
        np.testing.assert_allclose(out1, out2, atol=1e-12)

    @pytest.mark.parametrize("bc", BOUNDARIES)
    @pytest.mark.parametrize("ksize", [(4, 6), (5, 9), (6, 3), (12, 20)])
    def test_rectangular_matches_nested_loop_oracle(self, bc, ksize):
        # even and odd kernel sides on a non-square image pin the center
        # offset on each axis; (12, 20) is as large as the image
        rng = np.random.default_rng(12)
        psf = rng.standard_normal(ksize)
        x = rng.standard_normal((12, 20))
        np.testing.assert_allclose(conv2d_apply(psf, x, bc),
                                   conv2d_loop(psf, x, bc), atol=1e-12)
        conv = operators._CachedConv2D(psf, x.shape, bc)
        v = rng.standard_normal(x.shape)
        assert np.sum(conv.apply(x) * v) == pytest.approx(
            np.sum(x * conv.adjoint(v)), rel=1e-12)

    def test_periodic_transforms_at_image_size(self, monkeypatch):
        # the periodic blur is circulant on the image grid: every transform
        # of apply, adjoint and the derivative actions is image-sized
        op = GaussianPsfBlur2D(PsfParams(3.0, 2.5, 1.0), (64, 64), 31)
        shapes = []
        rfftn_orig, irfftn_orig = operators.sfft.rfftn, operators.sfft.irfftn

        def rfftn(x, s=None, *args, **kwargs):
            shapes.append(tuple(np.shape(x) if s is None else s))
            return rfftn_orig(x, s, *args, **kwargs)

        def irfftn(x, s=None, *args, **kwargs):
            out = irfftn_orig(x, s, *args, **kwargs)
            shapes.append(out.shape)
            return out

        # the derivative transforms are built on first use; build them
        # before recording, so only the actions' own transforms are seen
        op._dconv
        monkeypatch.setattr(operators.sfft, "rfftn", rfftn)
        monkeypatch.setattr(operators.sfft, "irfftn", irfftn)
        x = np.random.default_rng(6).standard_normal(op.n)
        op.apply(x)
        op.adjoint_apply(x)
        op.derivative_apply(1, x)
        op.derivative_adjoint_apply(2, x)
        assert shapes == [(64, 64)] * 8

    def test_rejects_oversized_kernel(self):
        for bc in BOUNDARIES:
            for psf in (np.ones((9, 9)), np.ones((0, 3))):
                with pytest.raises(ValueError, match=r"larger than the image "
                                                     r"of shape \(4, 4\)"):
                    conv2d_apply(psf, np.ones((4, 4)), bc)
            with pytest.raises(ValueError, match="nonempty"):
                conv2d_apply(np.ones((1, 1)), np.ones((0, 4)), bc)

    @pytest.mark.parametrize("bc", BOUNDARIES)
    @pytest.mark.parametrize("shape", [(32, 32), (20, 27)])
    def test_in_place_spectra_keep_the_arithmetic(self, bc, shape):
        # apply and adjoint multiply the spectrum in place, the adjoint by
        # a cached conjugate; the results equal the expressions
        # that formed a new product spectrum on every call bit for bit
        rng = np.random.default_rng(35)
        conv = operators._CachedConv2D(
            psf_gaussian_2d(PsfParams(3.0, 2.5, 1.0), (15, 15)), shape, bc)
        grid, (a, _), (b, _) = conv.grid, *conv.pad
        x = rng.standard_normal(shape)

        def filtered(z, kf):
            return operators.sfft.irfftn(operators.sfft.rfftn(z, grid) * kf,
                                         grid)

        periodic = bc is ConvBoundary.PERIODIC
        padded = x if periodic else np.pad(x, conv.pad,
                                           mode=operators._PAD_MODE[bc])
        ref_apply = filtered(padded, conv.kf)[a:a + shape[0], b:b + shape[1]]
        spread = x if periodic else np.pad(
            x, [(p, g - p - n) for (p, _), g, n in zip(conv.pad, grid, shape)])
        ref_adjoint = filtered(spread, np.conj(conv.kf))
        if not periodic:
            ref_adjoint = operators._fold_pad(ref_adjoint, conv.pad, bc, shape)
        for got, ref in ((conv.apply(x), ref_apply),
                         (conv.adjoint(x), ref_adjoint)):
            assert got.shape == ref.shape
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


def _adjoint_gap(op, rng, trials=100):
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.n)
        v = rng.standard_normal(op.m)
        gap = abs(op.apply(x) @ v - x @ op.adjoint_apply(v))
        worst = max(worst, gap / (np.linalg.norm(x) * np.linalg.norm(v)))
    return worst


class TestAdjointConsistency:
    def test_toeplitz_1d(self):
        rng = np.random.default_rng(0)
        assert _adjoint_gap(GaussianBlur1D(2.0, 40), rng) <= 1e-10

    @pytest.mark.parametrize("bc", BOUNDARIES)
    def test_psf_2d_all_boundaries(self, bc):
        rng = np.random.default_rng(1)
        op = GaussianPsfBlur2D(PsfParams(1.5, 2.0, 1.0), (12, 12), 7, bc)
        assert _adjoint_gap(op, rng) <= 1e-10

    @pytest.mark.parametrize("bc", BOUNDARIES)
    def test_derivative_adjoints(self, bc):
        rng = np.random.default_rng(2)
        op = GaussianPsfBlur2D(PsfParams(1.5, 2.0, 1.0), (10, 10), 7, bc)
        for j in range(3):
            for _ in range(20):
                x = rng.standard_normal(op.n)
                v = rng.standard_normal(op.m)
                gap = abs(op.derivative_apply(j, x) @ v
                          - x @ op.derivative_adjoint_apply(j, v))
                assert gap <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(v)


def assert_range_rep(op, x, y, u):
    """range_rep keeps inner products, apply_rep = range_rep o G, and
    adjoint_apply on range coordinates is the adjoint of apply_rep, each to
    1e-12 relative."""
    def close(a, b, scale):
        assert abs(a - b) <= 1e-12 * scale

    rx, ry = op.range_rep(x), op.range_rep(y)
    assert rx.shape == (op.rep_size,)
    close(rx @ ry, x @ y, np.linalg.norm(x) * np.linalg.norm(y))
    ref = op.range_rep(op.apply(x))
    assert (np.linalg.norm(op.apply_rep(x) - ref)
            <= 1e-12 * np.linalg.norm(x))
    close(op.apply_rep(x) @ u, x @ op.adjoint_apply(u),
          np.linalg.norm(x) * np.linalg.norm(u))
    # the image and its range coordinates give one G^T
    assert (np.linalg.norm(op.adjoint_apply(op.range_rep(y))
                           - op.adjoint_apply(y))
            <= 1e-12 * np.linalg.norm(y))


class TestRangeRep:
    """The range representation of the operators: the identity by default,
    the weighted orthonormal half spectrum for the periodic 2D blur."""

    @pytest.mark.parametrize("op", [
        GaussianBlur1D(2.0, 40),
        MatrixOperator(np.random.default_rng(31).standard_normal((30, 20))),
        GaussianPsfBlur2D(PsfParams(1.5, 2.0, 1.0), (10, 16), 5,
                          ConvBoundary.ZERO),
        GaussianPsfBlur2D(PsfParams(1.5, 2.0, 1.0), (9, 9), 5,
                          ConvBoundary.REFLEXIVE)],
        ids=["blur1d", "matrix", "zero", "reflexive"])
    def test_identity_by_default(self, op):
        rng = np.random.default_rng(30)
        x, v = rng.standard_normal(op.n), rng.standard_normal(op.m)
        assert op.rep_size == op.m
        assert op.range_rep(v).tobytes() == v.tobytes()
        assert op.apply_rep(x).tobytes() == op.apply(x).tobytes()

    @pytest.mark.parametrize("shape, size", [((10, 16), 180), ((9, 9), 90),
                                             ((12, 7), 96)])
    def test_periodic_coordinates_are_the_half_spectrum(self, shape, size):
        # 2 n1 (n2//2 + 1) reals, longer than an image for odd and even n2
        op = GaussianPsfBlur2D(PsfParams(1.5, 2.0, 1.0), shape, 5)
        assert op.rep_size == size > op.m

    @settings(max_examples=60, deadline=None)
    @given(sigma1=st.floats(0.3, 5.0), sigma2=st.floats(0.3, 5.0),
           corr=st.floats(0.0, 0.95), half=st.integers(0, 4),
           shape=st.one_of(st.sampled_from([(10, 16), (9, 9)]),
                           st.tuples(st.integers(9, 24), st.integers(9, 24))),
           bc=st.sampled_from(BOUNDARIES), seed=st.integers(0, 2**32 - 1))
    def test_property_over_psf_and_image(self, sigma1, sigma2, corr, half,
                                         shape, bc, seed):
        # odd and even widths: the sqrt(2) weights sit on the half-spectrum
        # columns 1 .. (n2 - 1) // 2, whose conjugates are not stored;
        # rho^4 = corr^2 sigma1^2 sigma2^2 keeps the covariance definite
        params = PsfParams(sigma1, sigma2, np.sqrt(corr * sigma1 * sigma2))
        op = GaussianPsfBlur2D(params, shape, 2 * half + 1, bc)
        rng = np.random.default_rng(seed)
        # u is any vector of range coordinates, not only those of an image
        assert_range_rep(op, rng.standard_normal(op.n),
                         rng.standard_normal(op.n),
                         rng.standard_normal(op.rep_size))

    def test_periodic_takes_one_transform_each(self, monkeypatch):
        op = GaussianPsfBlur2D(PsfParams(3.0, 2.5, 1.0), (32, 32), 15)
        rng = np.random.default_rng(34)
        x, u = rng.standard_normal(op.n), rng.standard_normal(op.rep_size)
        calls = []
        for name in ("rfftn", "irfftn"):
            def counting(*args, _name=name, _orig=getattr(operators.sfft,
                                                          name), **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(operators.sfft, name, counting)
        op.range_rep(x)
        op.apply_rep(x)
        op.adjoint_apply(u)
        assert calls == ["rfftn", "rfftn", "irfftn"]


class TestDenseAssembly:
    def test_dense_matches_apply_1d(self):
        rng = np.random.default_rng(4)
        op = GaussianBlur1D(1.5, 24)
        x = rng.standard_normal(24)
        np.testing.assert_allclose(op.dense() @ x, op.apply(x), rtol=1e-12)

    @pytest.mark.parametrize("bc", BOUNDARIES)
    def test_dense_matches_apply_2d(self, bc):
        rng = np.random.default_rng(5)
        op = GaussianPsfBlur2D(PsfParams(1.2, 1.6, 0.6), (8, 8), 5, bc)
        x = rng.standard_normal(op.n)
        np.testing.assert_allclose(op.dense() @ x, op.apply(x), atol=1e-12)

    def test_dense_refused_above_limit(self):
        op = GaussianPsfBlur2D(PsfParams(1.2, 1.6, 0.6), (65, 65), 5)
        assert op.n > DENSE_LIMIT
        with pytest.raises(ValueError, match=f"n <= {DENSE_LIMIT}"):
            op.dense()


class TestDerivativesOnFirstUse:
    """Derivatives are built when first read and equal eager builds."""

    def test_blur_1d(self):
        sigma, n = 1.7, 24
        op = GaussianBlur1D(sigma, n)
        assert "_dg" not in vars(op)
        s = np.arange(n, dtype=float)
        eager = toeplitz(gaussian_kernel_1d(sigma, s)
                         * (s**2 / sigma**3 - 1.0 / sigma))
        rng = np.random.default_rng(9)
        x, v = rng.standard_normal(n), rng.standard_normal(n)
        assert op.derivative_apply(0, x).tobytes() == (eager @ x).tobytes()
        assert (op.derivative_adjoint_apply(0, v).tobytes()
                == (eager.T @ v).tobytes())

    @pytest.mark.parametrize("bc", BOUNDARIES)
    def test_psf_blur_2d(self, bc):
        params, shape, size = PsfParams(1.5, 2.0, 1.0), (10, 10), 7
        op = GaussianPsfBlur2D(params, shape, size, bc)
        assert "_dconv" not in vars(op)
        eager = [operators._CachedConv2D(g, shape, bc)
                 for g in psf_param_gradients(params, (size, size))]
        rng = np.random.default_rng(10)
        x, v = rng.standard_normal(op.n), rng.standard_normal(op.m)
        for j, conv in enumerate(eager):
            assert (op.derivative_apply(j, x).tobytes()
                    == conv.apply(x.reshape(shape)).ravel().tobytes())
            assert (op.derivative_adjoint_apply(j, v).tobytes()
                    == conv.adjoint(v.reshape(shape)).ravel().tobytes())


class TestReducedJacobian:
    def test_matches_finite_differences_of_blur_action(self):
        rng = np.random.default_rng(6)
        params = PsfParams(1.5, 2.0, 1.0)
        x = rng.random((16, 16))
        jac = jacobian_reduced(
            GaussianPsfBlur2D(params, (16, 16), 9, ConvBoundary.PERIODIC),
            x.ravel())
        y0 = params.as_array()
        h = 1e-5
        for j in range(3):
            yp, ym = y0.copy(), y0.copy()
            yp[j] += h
            ym[j] -= h
            op_p = GaussianPsfBlur2D(PsfParams.from_array(yp), (16, 16), 9)
            op_m = GaussianPsfBlur2D(PsfParams.from_array(ym), (16, 16), 9)
            fd = (op_p.apply(x.ravel()) - op_m.apply(x.ravel())) / (2 * h)
            denom = np.linalg.norm(fd)
            assert np.linalg.norm(jac[:, j] - fd) < 1e-5 * denom

    def test_zero_input_gives_zero_jacobian(self):
        jac = jacobian_reduced(
            GaussianPsfBlur2D(PsfParams(1.5, 2.0, 1.0), (8, 8), 5,
                              ConvBoundary.PERIODIC), np.zeros(64))
        assert np.all(jac == 0.0)

    def test_scalar_family_column_equals_x(self):
        # with G(y) = y * I the derivative action reproduces x itself
        from lpvarpro.operators import ParamOperator

        class ScaledIdentity(ParamOperator):
            def __init__(self, y, n):
                self.y, self.m, self.n, self.r = float(y), n, n, 1

            def apply(self, x):
                return self.y * np.asarray(x, float)

            def adjoint_apply(self, v):
                return self.y * np.asarray(v, float)

            def derivative_apply(self, j, x):
                return np.asarray(x, float).copy()

        rng = np.random.default_rng(8)
        x = rng.standard_normal(9)
        jac = jacobian_reduced(ScaledIdentity(2.5, 9), x)
        np.testing.assert_allclose(jac[:, 0], x)
