import numpy as np
import pytest

from lpvarpro.operators import (ConvBoundary, GaussianBlur1D,
                                GaussianPsfBlur2D, PsfParams,
                                build_toeplitz_1d, conv2d_apply,
                                gaussian_kernel_1d, psf_gaussian_2d,
                                psf_param_gradients)
from lpvarpro.varpro import jacobian_reduced

BOUNDARIES = [ConvBoundary.ZERO, ConvBoundary.PERIODIC, ConvBoundary.REFLEXIVE]


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


class TestPsfParams:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PsfParams(-1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            PsfParams(1.0, 1.0, 1.5)   # delta = 1 - 5.06 < 0
        p = PsfParams(1.5, 2.0, 1.0)
        assert p.delta == pytest.approx(1.5**2 * 2.0**2 - 1.0)


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
        analytic = psf_param_gradients(params, (31, 31), method="analytic")
        fd = psf_param_gradients(params, (31, 31), method="fd", fd_step=1e-5)
        for ga, gf in zip(analytic, fd):
            assert np.abs(ga - gf).max() < 1e-6

    def test_fd_recovers_after_shrinking_step(self):
        # rho close to the positive-definiteness boundary: the first step
        # would leave the domain, the retry with a smaller one succeeds
        params = PsfParams(1.0, 1.0, 0.9)
        grads = psf_param_gradients(params, (21, 21), method="fd", fd_step=0.5)
        assert len(grads) == 3
        # a second shrink is never attempted
        with pytest.raises(ValueError):
            psf_param_gradients(PsfParams(1.0, 1.0, 0.99), (21, 21),
                                method="fd", fd_step=0.5)


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

    def test_rejects_oversized_kernel(self):
        with pytest.raises(ValueError):
            conv2d_apply(np.ones((9, 9)), np.ones((4, 4)), ConvBoundary.ZERO)


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
        for j in range(3):
            np.testing.assert_allclose(op.derivative_dense(j) @ x,
                                       op.derivative_apply(j, x), atol=1e-12)


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

            @property
            def params(self):
                return np.array([self.y])

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
