import dataclasses
import inspect
import warnings
from collections import Counter

import numpy as np
import pytest

import lpvarpro
from lpvarpro import varpro
from lpvarpro.mmgks import MmgksConfig, majorant_weights, mmgks_solve
from lpvarpro.operators import (ConvBoundary, GaussianBlur1D,
                                GaussianPsfBlur2D, ParamOperator, PsfParams,
                                psf_param_gradients)
from lpvarpro.problems import make_1d_problem, make_blind_deconv_problem
from lpvarpro.regularizers import (FrameletRegularizer, IdentityRegularizer,
                                   MatrixRegularizer, as_regularizer,
                                   derivative_2d, first_derivative_1d,
                                   framelet_analysis_2d)
from lpvarpro.gcv import GcvConfig, select_eta, thin_gsvd
from lpvarpro.varpro import (JacobianVariant, SolverError, VarproConfig,
                             jacobian_full, jacobian_half, jacobian_reduced,
                             lp_varpro_solve, tik_solve)


def pair_gsvd(op, L):
    """Thin GSVD of the pair {G, L} that the FULL/HALF Jacobians read."""
    return thin_gsvd(op.dense(), L.dense())


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
        x = tik_solve(op, L, lam, prob.d)
        jac = jacobian_full(op, x, lam, pair_gsvd(op, L),
                            op.apply(x) - prob.d)

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
        gsvd = pair_gsvd(op, L)
        full = jacobian_full(op, x, lam, gsvd, op.apply(x) - prob1d.d)
        half = jacobian_half(op, x, lam, gsvd)
        # the transpose (second) term does not vanish in the unregularized limit
        assert np.linalg.norm(full - half) > 1e-6 * np.linalg.norm(full)

    def test_zero_x_leaves_only_transpose_term(self):
        prob1d, _ = make_problems()
        lam = 5e-3
        L = IdentityRegularizer(prob1d.n)
        y0 = prob1d.y_true * 0.9
        op = prob1d.operator(y0)
        x = np.zeros(prob1d.n)
        gsvd = pair_gsvd(op, L)
        full = jacobian_full(op, x, lam, gsvd, op.apply(x) - prob1d.d)
        assert np.all(jacobian_half(op, x, lam, gsvd) == 0.0)
        # oracle: -B_j = (G_L^dagger)^T dG_j^T (G x - d) built densely
        gl, pinv = stacked_pinv(op.dense(), L.dense(), lam)
        misfit = -prob1d.d
        expected = pinv.T @ op.derivative_adjoint_apply(0, misfit)
        np.testing.assert_allclose(full[:, 0], expected, rtol=1e-9)


class TestJacobianHalf:
    def test_reconstruction_identity(self):
        prob1d, _ = make_problems()
        lam = 2e-3
        L = MatrixRegularizer(first_derivative_1d(prob1d.n))
        y0 = prob1d.y_true * 1.1
        op = prob1d.operator(y0)
        x = tik_solve(op, L, lam, prob1d.d)
        gsvd = pair_gsvd(op, L)
        full = jacobian_full(op, x, lam, gsvd, op.apply(x) - prob1d.d)
        half = jacobian_half(op, x, lam, gsvd)
        # oracle: the dropped term, assembled densely
        gl, pinv = stacked_pinv(op.dense(), L.dense(), lam)
        misfit = op.dense() @ x - prob1d.d
        b_term = pinv.T @ op.derivative_adjoint_apply(0, misfit)
        np.testing.assert_allclose(full[:, 0] - half[:, 0], b_term,
                                   atol=1e-12 * max(1, np.abs(b_term).max()))

    def test_matches_frozen_projector_finite_differences(self):
        prob1d, _ = make_problems()
        lam = 1e-2
        L = IdentityRegularizer(prob1d.n)
        y0 = prob1d.y_true * 1.15
        op = prob1d.operator(y0)
        x = tik_solve(op, L, lam, prob1d.d)
        half = jacobian_half(op, x, lam, pair_gsvd(op, L))
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
        gsvd = pair_gsvd(op, L)
        full = jacobian_full(op, x, lam, gsvd, op.apply(x) - prob.d)
        half = jacobian_half(op, x, lam, gsvd)
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
                           max_iters=1, lam=1e-12)
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
                           max_iters=60, lam=1e-3,
                           step_tol=1e-12)
        _, y, record = lp_varpro_solve(prob, cfg)
        closest = min(abs(yy[0] - 2.0) for yy in record.ys)
        assert closest < 0.02

    def test_rel_func_value_starts_at_one(self):
        prob = make_1d_problem(n=24, sigma_true=2.0, level=0.01, seed=2)
        cfg = VarproConfig(y0=np.array([2.3]), max_iters=3, lam=1e-3)
        _, _, record = lp_varpro_solve(prob, cfg)
        assert record.rows[0].rel_func_value == pytest.approx(1.0)
        assert record.rows[0].rel_grad_norm == pytest.approx(1.0)

    @pytest.mark.parametrize("variant", ["reduced", "half", "full"])
    def test_damped_residual_never_increases(self, variant):
        # FULL collapses sigma to ~1e-16, where ||F||^2 is roundoff (~3e-33).
        # Whether a halving of the last step still lowers it there, or the
        # solve raises with its record, depends on the rounding of the
        # factorization; either way no accepted step raises ||F||^2. The two
        # raises of the halving loop are reached by construction below
        prob = make_1d_problem(n=32, sigma_true=2.0, level=0.01, seed=7)
        cfg = VarproConfig(y0=np.array([2.6]), variant=variant,
                           regularizer=first_derivative_1d(32), max_iters=12,
                           lam=1e-3, damping=True)
        try:
            _, _, record = lp_varpro_solve(prob, cfg)
        except SolverError as err:
            if variant != "full":
                raise
            record = err.record
        fv = record.func_values
        assert len(fv) >= 8
        assert all(fv[i + 1] <= fv[i] for i in range(len(fv) - 1))

    def test_step_leaving_the_domain_raises_with_record(self, monkeypatch):
        # an operator that refuses every y but y0: the first step and all
        # MAX_HALVINGS halvings of it are refused
        prob = make_1d_problem(n=32, sigma_true=2.0, level=0.01, seed=7)
        y0 = np.array([2.6])
        asked = []
        operator_orig = prob.operator

        def refusing(y):
            asked.append(1)
            if not np.array_equal(y, y0):
                raise ValueError("outside the domain")
            return operator_orig(y)

        monkeypatch.setattr(prob, "operator", refusing)
        cfg = VarproConfig(y0=y0, max_iters=5, lam=1e-3)
        with pytest.raises(SolverError, match="left the valid domain after "
                           "10 halvings at iteration 1") as err:
            lp_varpro_solve(prob, cfg)
        assert len(asked) == 2 + varpro.MAX_HALVINGS
        record = err.value.record
        assert record.rows == [] and record.func_values == []
        assert len(record.ys) == 1
        np.testing.assert_array_equal(record.ys[0], y0)

    def test_index_error_in_operator_build_propagates(self, monkeypatch):
        # only ValueError marks a y outside the domain; an IndexError is a
        # bug in the build and must not be halved away
        prob = make_1d_problem(n=32, sigma_true=2.0, level=0.01, seed=7)
        y0 = np.array([2.6])
        operator_orig = prob.operator

        def broken(y):
            if not np.array_equal(y, y0):
                raise IndexError("index 3 is out of bounds")
            return operator_orig(y)

        monkeypatch.setattr(prob, "operator", broken)
        cfg = VarproConfig(y0=y0, max_iters=5, lam=1e-3)
        with pytest.raises(IndexError, match="out of bounds"):
            lp_varpro_solve(prob, cfg)

    def test_damped_step_raising_the_residual_raises_with_record(
            self, monkeypatch):
        # every trial's residual is twice the first one, so ||F||^2 at the
        # trial is 4 phi0 for the first step and all its halvings
        solves = []
        inner_orig = varpro._inner_solve

        def raising(*args):
            solved = inner_orig(*args)
            solves.append(solved[4])
            if len(solves) == 1:
                return solved
            return solved[:4] + (2.0 * solves[0],) + solved[5:]

        monkeypatch.setattr(varpro, "_inner_solve", raising)
        prob = make_1d_problem(n=32, sigma_true=2.0, level=0.01, seed=7)
        y0 = np.array([2.6])
        cfg = VarproConfig(y0=y0, max_iters=5, lam=1e-3, damping=True)
        with pytest.raises(SolverError, match="raised the residual after "
                           "10 halvings at iteration 1") as err:
            lp_varpro_solve(prob, cfg)
        assert len(solves) == 2 + varpro.MAX_HALVINGS
        record = err.value.record
        assert record.rows == [] and record.func_values == []
        assert len(record.ys) == 1
        np.testing.assert_array_equal(record.ys[0], y0)

    @pytest.mark.parametrize("lam", [None, 1e-3])
    def test_solve_reads_no_truth(self, lam):
        # the same problem without x_true/y_true: the answer does not move
        # and the record reports the errors as NaN
        prob = make_1d_problem(n=24, sigma_true=2.0, level=0.01, seed=3)

        class Blind:
            d = prob.d

            def operator(self, y):
                return prob.operator(y)

        cfg = VarproConfig(y0=np.array([2.3]), variant="full",
                           regularizer=first_derivative_1d(24), max_iters=6,
                           lam=lam)
        x, y, record = lp_varpro_solve(prob, cfg)
        x_b, y_b, record_b = lp_varpro_solve(Blind(), cfg)
        assert x_b.tobytes() == x.tobytes() and y_b.tobytes() == y.tobytes()
        assert record_b.etas == record.etas
        assert np.isfinite(record.rows[-1].rre_y)
        assert all(np.isnan(r.rre_x) and np.isnan(r.rre_y)
                   for r in record_b.rows)


class TestLpVarpro:
    def test_lp_run_improves_parameter(self):
        # blind 1D recovery is weakly identifiable, so assert a solid
        # improvement of the parameter error along the trajectory
        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=5)
        cfg = VarproConfig(y0=np.array([2.5]), p=1.0, epsilon=1e-2,
                           variant=JacobianVariant.REDUCED, max_iters=30,
                           lam=1e-5, inner="gks",
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
        x = tik_solve(op, l_hat, eta, prob.d)
        jac = jacobian_full(op, x, eta, pair_gsvd(op, l_hat),
                            op.apply(x) - prob.d)

        def resid(y):
            return projected_residual(prob.operator(y), l_hat, eta, prob.d)

        fd = fd_jacobian(resid, y0, h=1e-6)
        assert np.linalg.norm(jac - fd) <= 1e-4 * np.linalg.norm(fd)


    @pytest.mark.parametrize("variant, y_end", [("half", 1.7608),
                                                ("full", 1.8107)])
    def test_lp_full_half_factor_the_weighted_pair(self, monkeypatch,
                                                   variant, y_end):
        # at p != 2 the inner solve is MMGKS, which holds no GSVD, so each
        # step factors {G, W^(1/2) L} with the majorant weights at its x
        pairs, xs = [], []
        gsvd_orig, mmgks_orig = varpro.thin_gsvd, varpro.mmgks_solve

        def recording_gsvd(g_dense, l_dense):
            pairs.append(l_dense.copy())
            return gsvd_orig(g_dense, l_dense)

        def recording_mmgks(*args, **kwargs):
            res = mmgks_orig(*args, **kwargs)
            xs.append(res.x)
            return res

        monkeypatch.setattr(varpro, "thin_gsvd", recording_gsvd)
        monkeypatch.setattr(varpro, "mmgks_solve", recording_mmgks)
        prob = make_1d_problem(n=32, sigma_true=2.0, level=0.01, seed=3)
        eps = 1e-2
        L = MatrixRegularizer(first_derivative_1d(32))
        cfg = VarproConfig(y0=np.array([2.5]), variant=variant, p=1.0,
                           epsilon=eps, regularizer=first_derivative_1d(32),
                           max_iters=3)
        _, y, record = lp_varpro_solve(prob, cfg)
        assert len(record.rows) == len(pairs) == len(xs) == 3
        for l_pair, x in zip(pairs, xs):
            sqrt_w = np.sqrt(majorant_weights(L.apply(x), 1.0, eps))
            np.testing.assert_array_equal(l_pair, sqrt_w[:, None] * L.dense())
        assert all(np.isfinite(dataclasses.astuple(row)).all()
                   for row in record.rows)
        assert y[0] == pytest.approx(y_end, abs=1e-3)


class TestVarproConfig:
    @pytest.mark.parametrize("inner", ["qr", "dense"])
    def test_rejects_unknown_inner(self, inner):
        with pytest.raises(ValueError):
            VarproConfig(y0=np.array([2.0]), inner=inner)

    @pytest.mark.parametrize("kwargs", [
        {}, {"y0": np.array([2.0]), "lam_mode": "fixed"},
        {"y0": np.array([2.0]), "divergence_factor": 1}])
    def test_rejects_missing_y0_and_removed_fields(self, kwargs):
        with pytest.raises(TypeError):
            VarproConfig(**kwargs)

    def test_settable_fields(self):
        # the whole config surface, with the parameters of the public
        # functions that take options; a new knob is named and justified here
        assert [f.name for f in dataclasses.fields(VarproConfig)] == [
            "y0", "variant", "regularizer", "max_iters", "step_tol", "p",
            "epsilon", "inner", "inner_iters", "inner_tol", "lam", "damping"]
        assert [f.name for f in dataclasses.fields(MmgksConfig)] == [
            "p", "epsilon", "subspace_dim", "max_iters", "tol", "eta"]
        assert dataclasses.fields(GcvConfig) == ()
        for fn, names in ((psf_param_gradients, ["params", "size"]),
                          (mmgks_solve, ["G", "L", "d", "config"]),
                          (select_eta, ["gsvd", "dhat"]),
                          (FrameletRegularizer, ["n"]),
                          (framelet_analysis_2d, ["n"])):
            assert list(inspect.signature(fn).parameters) == names, fn

    def test_package_exports_the_user_workflow(self):
        # internals stay importable from their modules only
        exported = {name for name in vars(lpvarpro)
                    if not name.startswith("_")
                    and not inspect.ismodule(getattr(lpvarpro, name))}
        assert exported == {
            "ProblemInstance", "make_1d_problem", "make_blind_deconv_problem",
            "ConvBoundary", "GaussianBlur1D", "GaussianPsfBlur2D",
            "MatrixOperator", "PsfParams", "FrameletRegularizer",
            "IdentityRegularizer", "KroneckerSumRegularizer",
            "MatrixRegularizer", "derivative_2d", "first_derivative_1d",
            "framelet_analysis_2d", "second_derivative_1d", "JacobianVariant",
            "MmgksConfig", "VarproConfig", "lp_varpro_solve", "mmgks_solve",
            "RankDeficiencyError", "SolverError", "rre"}

    @pytest.mark.parametrize("kwargs", [
        {"max_iters": 0}, {"inner_iters": 0}, {"lam": 0.0}, {"lam": -1e-3},
        {"lam": np.nan}, {"p": 1.0, "epsilon": 0.0},
        {"p": 0.5, "epsilon": -1e-2}])
    def test_rejects_settings_the_solver_cannot_use(self, kwargs):
        # each of these used to construct, then failed or gave no answer
        # at the first step or inner solve
        with pytest.raises(ValueError):
            VarproConfig(y0=np.array([2.5]), **kwargs)

    def test_fixed_lambda_sets_eta_at_p1(self):
        # a fixed lambda runs every inner solve at eta = lambda eps^(p - 2)
        prob = make_1d_problem(n=32, sigma_true=2.0, level=0.01, seed=2)
        lam, eps = 1e-5, 1e-2
        cfg = VarproConfig(y0=np.array([2.5]), p=1.0, epsilon=eps,
                           regularizer=first_derivative_1d(32), max_iters=3,
                           lam=lam)
        _, _, record = lp_varpro_solve(prob, cfg)
        assert len(record.etas) == 3
        assert all(eta == lam * eps ** -1.0 for eta in record.etas)


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
        for lam in (None, 1e-3):
            calls.clear()
            cfg = VarproConfig(y0=np.array([2.5]), variant="full",
                               regularizer=first_derivative_1d(32),
                               max_iters=4, lam=lam, inner="auto")
            _, _, record = lp_varpro_solve(prob, cfg)
            assert len(record.rows) == 4
            assert calls == Counter(thin_gsvd=4, dense=4), lam

    def test_regularizer_assembled_once_per_solve(self, monkeypatch):
        # L is fixed for the solve: the dense inner solves and the FULL
        # Jacobians of all ten outer steps read one dense matrix of L
        calls = []
        dense_orig = MatrixRegularizer.dense

        def counting(reg):
            calls.append(1)
            return dense_orig(reg)

        monkeypatch.setattr(MatrixRegularizer, "dense", counting)
        prob = make_1d_problem(n=64, sigma_true=2.0, level=0.01, seed=0)
        cfg = VarproConfig(y0=np.array([2.5]), variant="full",
                           regularizer=first_derivative_1d(64), max_iters=10,
                           step_tol=1e-300)
        _, _, record = lp_varpro_solve(prob, cfg)
        assert len(record.rows) == 10
        assert len(calls) == 1

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

    @pytest.mark.parametrize("variant", ["reduced", "half"])
    def test_damped_trial_solve_serves_next_step(self, monkeypatch, variant):
        # every first trial is accepted here, so each accepted step costs one
        # inner solve: the trial's, which the next step reads
        calls = []
        inner_orig = varpro._inner_solve

        def counting(*args):
            calls.append(1)
            return inner_orig(*args)

        monkeypatch.setattr(varpro, "_inner_solve", counting)
        prob = make_1d_problem(n=32, sigma_true=2.0, level=0.01, seed=7)
        cfg = VarproConfig(y0=np.array([2.6]), variant=variant,
                           regularizer=first_derivative_1d(32), max_iters=12,
                           lam=1e-3, damping=True)
        _, _, record = lp_varpro_solve(prob, cfg)
        assert len(record.rows) == 12
        assert len(calls) == 1 + len(record.rows)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_jacobian_raises_with_record(self, monkeypatch, bad):
        # without the check lstsq raises a bare LinAlgError and the record
        # of the steps taken so far is lost
        calls = []
        jacobian_orig = varpro.jacobian_reduced

        def poisoned(op, x):
            calls.append(1)
            jac = jacobian_orig(op, x)
            if len(calls) == 2:
                jac[0, 0] = bad
            return jac

        monkeypatch.setattr(varpro, "jacobian_reduced", poisoned)
        prob = make_1d_problem(n=32, sigma_true=2.0, level=0.01, seed=0)
        cfg = VarproConfig(y0=np.array([2.5]), max_iters=5, lam=1e-3)
        with pytest.raises(SolverError,
                           match="non-finite.*iteration 2") as err:
            lp_varpro_solve(prob, cfg)
        assert len(err.value.record.rows) == 1

    def test_extra_parameters_of_1d_family_refused(self, monkeypatch):
        # the 1D family has one parameter; a longer y0 used to run with the
        # one-column step broadcast onto every entry
        calls = []
        inner_orig = varpro._inner_solve

        def counting(*args):
            calls.append(1)
            return inner_orig(*args)

        monkeypatch.setattr(varpro, "_inner_solve", counting)
        prob = make_1d_problem(n=32, sigma_true=2.0, level=0.01, seed=0)
        cfg = VarproConfig(y0=np.array([2.5, 1.0]), max_iters=2)
        with pytest.raises(ValueError, match="length 1"):
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
        cfg = VarproConfig(y0=np.array([2.4]), max_iters=5, lam=1e-3)
        _, _, record = lp_varpro_solve(prob, cfg)
        assert len(record.rows) == 5
        assert len(calls) == 1 + len(record.rows)
