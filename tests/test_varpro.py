import warnings
from collections import Counter

import numpy as np
import pytest

from lpvarpro import varpro
from lpvarpro.mmgks import MmgksConfig, majorant_weights, mmgks_solve
from lpvarpro.operators import (ConvBoundary, GaussianBlur1D,
                                GaussianPsfBlur2D, ParamOperator, PsfParams)
from lpvarpro.problems import make_1d_problem, make_blind_deconv_problem
from lpvarpro.regularizers import (IdentityRegularizer, MatrixRegularizer,
                                   as_regularizer, derivative_2d,
                                   first_derivative_1d)
from lpvarpro.gcv import thin_gsvd
from lpvarpro.varpro import (JacobianVariant, SolverError, VarproConfig,
                             jacobian_full, jacobian_half, jacobian_reduced,
                             lp_varpro_solve, tik_solve)


def stacked_pinv(g_dense, l_dense, lam):
    gl = np.vstack([g_dense, np.sqrt(lam) * l_dense])
    return gl, np.linalg.pinv(gl)


def projected_residual(op, L, lam, d):
    """[d; 0] - G_L x(y) with x(y) the regularized solution (dense path)."""
    x = tik_solve(op, L, lam, d)
    g = op.dense()
    l_dense = L.dense()
    top = d - g @ x
    bottom = -np.sqrt(lam) * (l_dense @ x)
    return np.concatenate([top, bottom])


def fd_jacobian(fn, y, h=1e-6):
    y = np.asarray(y, dtype=float)
    cols = []
    for j in range(y.size):
        yp, ym = y.copy(), y.copy()
        yp[j] += h
        ym[j] -= h
        cols.append((fn(yp) - fn(ym)) / (2 * h))
    return np.column_stack(cols)


class TestTikSolve:
    def test_identity_closed_form(self):
        d = np.arange(1.0, 6.0)
        x = tik_solve(np.eye(5), IdentityRegularizer(5), 0.25, d)
        np.testing.assert_allclose(x, d / 1.25, rtol=1e-13)

    def test_zero_lambda_is_least_squares(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((12, 7))
        d = rng.standard_normal(12)
        x = tik_solve(g, IdentityRegularizer(7), 0.0, d)
        expected, *_ = np.linalg.lstsq(g, d, rcond=None)
        np.testing.assert_allclose(x, expected, rtol=1e-11)

    def test_matches_dense_normal_equations_1d(self):
        prob = make_1d_problem(n=64, sigma_true=2.0, level=0.01, seed=0)
        g = prob.operator(prob.y_true).dense()
        L = MatrixRegularizer(first_derivative_1d(64))
        lam = 3e-3
        x = tik_solve(g, L, lam, prob.d)
        ld = L.dense()
        expected = np.linalg.solve(g.T @ g + lam * ld.T @ ld, g.T @ prob.d)
        assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_gks_route_agrees_with_dense(self):
        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=1)
        op = prob.operator(prob.y_true)
        L = IdentityRegularizer(48)
        lam = 1e-2
        x_gks = mmgks_solve(op, L, prob.d, MmgksConfig(
            p=2.0, eta=lam, max_iters=80, tol=1e-13)).x
        x_dense = tik_solve(op, L, lam, prob.d)
        assert np.linalg.norm(x_gks - x_dense) <= 1e-6 * np.linalg.norm(x_dense)

    def test_rank_deficient_raises(self):
        g = np.zeros((4, 3))
        with pytest.raises(np.linalg.LinAlgError):
            tik_solve(g, None, 0.0, np.zeros(4))


def make_problems():
    prob1d = make_1d_problem(n=32, sigma_true=2.0, level=0.01, seed=3)
    prob2d = make_blind_deconv_problem("satellite", (1.5, 2.0, 1.0),
                                       0.01, 5, psf_size=9, size=12)
    return prob1d, prob2d


class TestJacobianFull:
    @pytest.mark.parametrize("case", ["1d", "2d"])
    def test_matches_finite_differences(self, case):
        prob1d, prob2d = make_problems()
        prob = prob1d
        if case == "2d":
            prob = prob2d
        L = IdentityRegularizer(prob.n)
        lam = 1e-2
        y0 = prob.y_true * 1.15
        op = prob.operator(y0)
        jac = jacobian_full(op, tik_solve(op, L, lam, prob.d), lam, L, prob.d)

        def resid(y):
            return projected_residual(prob.operator(y), L, lam, prob.d)

        fd = fd_jacobian(resid, y0, h=1e-6)
        assert np.linalg.norm(jac - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_both_terms_present_at_small_lambda(self):
        prob1d, _ = make_problems()
        lam = 1e-10
        L = IdentityRegularizer(prob1d.n)
        y0 = prob1d.y_true * 1.2
        op = prob1d.operator(y0)
        x = tik_solve(op, L, lam, prob1d.d)
        full = jacobian_full(op, x, lam, L, prob1d.d)
        half = jacobian_half(op, x, lam, L)
        # the transpose (second) term does not vanish in the unregularized limit
        assert np.linalg.norm(full - half) > 1e-6 * np.linalg.norm(full)

    def test_zero_x_leaves_only_transpose_term(self):
        prob1d, _ = make_problems()
        lam = 5e-3
        L = IdentityRegularizer(prob1d.n)
        y0 = prob1d.y_true * 0.9
        op = prob1d.operator(y0)
        x = np.zeros(prob1d.n)
        full = jacobian_full(op, x, lam, L, prob1d.d)
        assert np.all(jacobian_half(op, x, lam, L) == 0.0)
        # oracle: -B_j = (G_L^dagger)^T dG_j^T (G x - d) built densely
        gl, pinv = stacked_pinv(op.dense(), L.dense(), lam)
        misfit = -prob1d.d
        expected = pinv.T @ op.derivative_dense(0).T @ misfit
        np.testing.assert_allclose(full[:, 0], expected, rtol=1e-9)


class TestJacobianHalf:
    def test_reconstruction_identity(self):
        prob1d, _ = make_problems()
        lam = 2e-3
        L = MatrixRegularizer(first_derivative_1d(prob1d.n))
        y0 = prob1d.y_true * 1.1
        op = prob1d.operator(y0)
        x = tik_solve(op, L, lam, prob1d.d)
        full = jacobian_full(op, x, lam, L, prob1d.d)
        half = jacobian_half(op, x, lam, L)
        # oracle: the dropped term, assembled densely
        gl, pinv = stacked_pinv(op.dense(), L.dense(), lam)
        misfit = op.dense() @ x - prob1d.d
        b_term = pinv.T @ (op.derivative_dense(0).T @ misfit)
        np.testing.assert_allclose(full[:, 0] - half[:, 0], b_term,
                                   atol=1e-12 * max(1, np.abs(b_term).max()))

    def test_matches_frozen_projector_finite_differences(self):
        prob1d, _ = make_problems()
        lam = 1e-2
        L = IdentityRegularizer(prob1d.n)
        y0 = prob1d.y_true * 1.15
        op = prob1d.operator(y0)
        x = tik_solve(op, L, lam, prob1d.d)
        half = jacobian_half(op, x, lam, L)
        gl, pinv = stacked_pinv(op.dense(), L.dense(), lam)
        proj_perp = np.eye(gl.shape[0]) - gl @ pinv
        dstack = np.concatenate([prob1d.d, np.zeros(L.q)])

        def frozen_map(y):
            op_y = prob1d.operator(y)
            gl_y = np.vstack([op_y.dense(), np.sqrt(lam) * L.dense()])
            return proj_perp @ (dstack - gl_y @ x)

        fd = fd_jacobian(frozen_map, y0, h=1e-6)
        assert np.linalg.norm(half - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_close_to_full_at_zero_noise(self):
        # well-conditioned rectangular family with consistent data: the
        # dropped transpose term scales with the (vanishing) misfit
        rng = np.random.default_rng(13)
        c = rng.standard_normal((20, 8))
        prob = _ScalarFamilyProblem(c, 2.0, rng.standard_normal(8))
        lam = 1e-6
        L = IdentityRegularizer(8)
        op = prob.operator(prob.y_true)
        x = tik_solve(op, L, lam, prob.d)
        full = jacobian_full(op, x, lam, L, prob.d)
        half = jacobian_half(op, x, lam, L)
        assert np.linalg.norm(full - half) <= 1e-3 * np.linalg.norm(full)
        f_hat = np.concatenate([op.apply(x) - prob.d,
                                np.sqrt(lam) * L.apply(x)])
        s_full, *_ = np.linalg.lstsq(full, f_hat, rcond=None)
        s_half, *_ = np.linalg.lstsq(half, f_hat, rcond=None)
        assert np.linalg.norm(s_full - s_half) \
            <= 1e-3 * max(np.linalg.norm(s_full), 1e-12)


class TestJacobianReduced:
    def test_matches_finite_differences(self):
        prob1d, prob2d = make_problems()
        for prob in (prob1d, prob2d):
            y0 = prob.y_true * 1.1
            op = prob.operator(y0)
            x = prob.x_true
            jac = jacobian_reduced(op, x)

            def blur_action(y):
                return prob.operator(y).apply(x)

            fd = fd_jacobian(blur_action, y0, h=1e-5)
            assert np.linalg.norm(jac - fd) <= 1e-5 * np.linalg.norm(fd)


class _ScalarFamilyProblem:
    """G(y) = y * C for a fixed matrix C; linear in the single parameter."""

    class _Op(ParamOperator):
        def __init__(self, y, c):
            self.y = float(y)
            self.c = c
            self.m, self.n = c.shape
            self.r = 1

        @property
        def params(self):
            return np.array([self.y])

        def apply(self, x):
            return self.y * (self.c @ np.asarray(x, float))

        def adjoint_apply(self, v):
            return self.y * (self.c.T @ np.asarray(v, float))

        def derivative_apply(self, j, x):
            return self.c @ np.asarray(x, float)

        def derivative_adjoint_apply(self, j, v):
            return self.c.T @ np.asarray(v, float)

        def dense(self):
            return self.y * self.c

        def derivative_dense(self, j):
            return self.c

    def __init__(self, c, y_true, x_true):
        self.c = c
        self.y_true = np.array([y_true])
        self.x_true = x_true
        self.d = self._Op(y_true, c).apply(x_true)

    def operator(self, y):
        y = np.atleast_1d(y)
        return self._Op(y[0], self.c)


class TestGenVarpro:
    def test_first_step_negligible_at_truth_with_clean_data(self):
        # reduced variant on the 1D instance: the data residual vanishes at
        # the truth once the regularization bias is negligible
        prob = make_1d_problem(n=32, sigma_true=2.0, level=0.0, seed=0)
        cfg = VarproConfig(y0=prob.y_true.copy(),
                           variant=JacobianVariant.REDUCED,
                           max_iters=1, lam_mode="fixed", lam=1e-12)
        _, y1, _ = lp_varpro_solve(prob, cfg)
        assert np.linalg.norm(y1 - prob.y_true) \
            <= 1e-8 * np.linalg.norm(prob.y_true)
        # for full/half the regularized projected functional is biased away
        # from the truth (the lambda factors cancel between residual and
        # Jacobian), so stationarity at y_true is a reduced-variant property;
        # full/half correctness is pinned by the finite-difference oracles

    def test_semiconvergent_trajectory_passes_through_truth(self):
        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.001, seed=9)
        cfg = VarproConfig(y0=np.array([2.5]), variant=JacobianVariant.REDUCED,
                           max_iters=60, lam_mode="fixed", lam=1e-3,
                           step_tol=1e-12)
        _, y, record = lp_varpro_solve(prob, cfg)
        closest = min(abs(yy[0] - 2.0) for yy in record.ys)
        assert closest < 0.02

    def test_rel_func_value_starts_at_one(self):
        prob = make_1d_problem(n=24, sigma_true=2.0, level=0.01, seed=2)
        cfg = VarproConfig(y0=np.array([2.3]), max_iters=3,
                           lam_mode="fixed", lam=1e-3)
        _, _, record = lp_varpro_solve(prob, cfg)
        assert record.rows[0].rel_func_value == pytest.approx(1.0)
        assert record.rows[0].rel_grad_norm == pytest.approx(1.0)

    @pytest.mark.parametrize("variant", ["reduced", "half", "full"])
    def test_damped_residual_never_increases(self, variant):
        # FULL collapses sigma to ~1e-16, where no halving of the last step
        # lowers ||F||^2; the solve must then raise rather than accept a rise
        prob = make_1d_problem(n=32, sigma_true=2.0, level=0.01, seed=7)
        cfg = VarproConfig(y0=np.array([2.6]), variant=variant,
                           regularizer=first_derivative_1d(32), max_iters=12,
                           lam_mode="fixed", lam=1e-3, damping=True)
        if variant == "full":
            with pytest.raises(SolverError) as err:
                lp_varpro_solve(prob, cfg)
            record = err.value.record
        else:
            _, _, record = lp_varpro_solve(prob, cfg)
        fv = record.func_values
        assert len(fv) >= 8
        assert all(fv[i + 1] <= fv[i] for i in range(len(fv) - 1))

    def test_divergence_aborts(self):
        prob = make_1d_problem(n=24, sigma_true=2.0, level=0.01, seed=3)

        class Hostile:
            d = prob.d
            x_true = prob.x_true
            y_true = prob.y_true

            def operator(self, y):
                return prob.operator(y)

        hostile = Hostile()
        cfg = VarproConfig(y0=np.array([2.05]), max_iters=50,
                           lam_mode="fixed", lam=1e-3,
                           divergence_factor=0.001)
        with pytest.raises(SolverError):
            lp_varpro_solve(hostile, cfg)


class TestLpVarpro:
    def test_lp_run_improves_parameter(self):
        # blind 1D recovery is weakly identifiable, so assert a solid
        # improvement of the parameter error along the trajectory
        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=5)
        cfg = VarproConfig(y0=np.array([2.5]), p=1.0, epsilon=1e-2,
                           variant=JacobianVariant.REDUCED, max_iters=30,
                           lam_mode="fixed", lam=1e-5, inner="gks",
                           inner_iters=40, inner_tol=1e-8, step_tol=1e-12)
        _, y, record = lp_varpro_solve(prob, cfg)
        closest = min(abs(yy[0] - 2.0) for yy in record.ys)
        assert closest < 0.5 * abs(2.5 - 2.0)
        assert all(eta > 0 for eta in record.etas)
        assert len(record.rows) == len(record.etas)

    def test_satellite16_p1_gcv_answer_pinned(self):
        # guards the MMGKS inner loop: GCV-selected eta at p = 1 on a 2D
        # blind-deconvolution problem, errors recorded with the inner loop
        # that factored the projected pair by a CS decomposition and solved
        # it by least squares
        prob = make_blind_deconv_problem("satellite", (4.0, 3.0, 1.5), 0.01,
                                         0, psf_size=9, size=16)
        cfg = VarproConfig(y0=np.array([3.0, 2.5, 1.0]), variant="reduced",
                           regularizer=derivative_2d(1, 16), max_iters=3,
                           p=1.0, epsilon=1e-2, inner="gks")
        _, _, record = lp_varpro_solve(prob, cfg)
        assert len(record.rows) == 3
        assert record.rows[-1].rre_x == pytest.approx(0.6255292792314721,
                                                      rel=1e-3)
        assert record.rows[-1].rre_y == pytest.approx(0.22335127370887636,
                                                      rel=1e-3)

    def test_weighted_pair_jacobian_matches_fd(self):
        # frozen weights: the full Jacobian against the pair {G, P L}
        prob = make_1d_problem(n=32, sigma_true=2.0, level=0.01, seed=6)
        L = MatrixRegularizer(first_derivative_1d(32))
        eta = 1e-2
        y0 = prob.y_true * 1.1
        op = prob.operator(y0)
        x = tik_solve(op, L, eta, prob.d)
        w = majorant_weights(L.apply(x), 1.0, 1e-2)
        l_hat_dense = np.sqrt(w)[:, None] * L.dense()
        l_hat = MatrixRegularizer(l_hat_dense)
        jac = jacobian_full(op, tik_solve(op, l_hat, eta, prob.d), eta,
                            l_hat, prob.d)

        def resid(y):
            return projected_residual(prob.operator(y), l_hat, eta, prob.d)

        fd = fd_jacobian(resid, y0, h=1e-6)
        assert np.linalg.norm(jac - fd) <= 1e-4 * np.linalg.norm(fd)


class TestVarproConfig:
    def test_rejects_unknown_inner(self):
        with pytest.raises(ValueError):
            VarproConfig(y0=np.array([2.0]), inner="qr")

    def test_rejects_unknown_lam_mode(self):
        with pytest.raises(ValueError):
            VarproConfig(y0=np.array([2.0]), lam_mode="lcurve")

    def test_rejects_dense_inner_below_p_two(self):
        with pytest.raises(ValueError):
            VarproConfig(y0=np.array([2.0]), inner="dense", p=1.0)


class TestEngineWork:
    def test_one_dense_gsvd_per_outer_step(self, monkeypatch):
        # the dense inner solve (GCV or fixed lambda) and the full Jacobian
        # share the GSVD of {G, L}, and G is assembled once for it
        calls = Counter()
        thin_gsvd_orig = varpro.thin_gsvd
        dense_orig = GaussianBlur1D.dense

        def counting_gsvd(*args):
            calls["thin_gsvd"] += 1
            return thin_gsvd_orig(*args)

        def counting_dense(op):
            calls["dense"] += 1
            return dense_orig(op)

        monkeypatch.setattr(varpro, "thin_gsvd", counting_gsvd)
        monkeypatch.setattr(GaussianBlur1D, "dense", counting_dense)
        prob = make_1d_problem(n=32, sigma_true=2.0, level=0.01, seed=0)
        for lam_mode in ("gcv", "fixed"):
            calls.clear()
            cfg = VarproConfig(y0=np.array([2.5]), variant="full",
                               regularizer=first_derivative_1d(32),
                               max_iters=4, lam_mode=lam_mode, lam=1e-3,
                               inner="dense")
            _, _, record = lp_varpro_solve(prob, cfg)
            assert len(record.rows) == 4
            assert calls == Counter(thin_gsvd=4, dense=4), lam_mode

    def test_collapsed_width_emits_no_runtime_warning(self):
        # FULL drives sigma towards 0, where G = I up to scale, s2 = 0 and
        # the dense GCV quotient is 0/0 on the whole grid
        prob = make_1d_problem(n=64, sigma_true=2.0, level=0.01, seed=0)
        cfg = VarproConfig(y0=np.array([2.5]), variant="full",
                           regularizer=first_derivative_1d(64), max_iters=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x, y, _ = lp_varpro_solve(prob, cfg)
        assert np.isfinite(x).all() and np.isfinite(y).all()

    def test_dense_variant_refused_before_first_inner_solve(self, monkeypatch):
        calls = []
        mmgks_orig = varpro.mmgks_solve

        def counting(*args, **kwargs):
            calls.append(1)
            return mmgks_orig(*args, **kwargs)

        monkeypatch.setattr(varpro, "mmgks_solve", counting)
        prob = make_blind_deconv_problem("satellite", (1.5, 2.0, 1.0), 0.01,
                                         0, psf_size=9, size=65)
        cfg = VarproConfig(y0=np.array([1.8, 2.2, 1.1]), variant="full",
                           max_iters=2)
        with pytest.raises(ValueError, match="reduced"):
            lp_varpro_solve(prob, cfg)
        assert calls == []

    def test_one_operator_build_per_accepted_step(self, monkeypatch):
        prob = make_1d_problem(n=32, sigma_true=2.0, level=0.01, seed=4)
        calls = []
        operator_orig = prob.operator

        def counting(y):
            calls.append(1)
            return operator_orig(y)

        monkeypatch.setattr(prob, "operator", counting)
        cfg = VarproConfig(y0=np.array([2.4]), max_iters=5,
                           lam_mode="fixed", lam=1e-3)
        _, _, record = lp_varpro_solve(prob, cfg)
        assert len(record.rows) == 5
        assert len(calls) == 1 + len(record.rows)
