import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from lpvarpro import gcv
from lpvarpro.gcv import (ETA_GRID, EtaSelection, GcvConfig,
                          RankDeficiencyError, StackGsvd, _GcvQuotient,
                          select_eta, thin_gsvd)
from lpvarpro.operators import GaussianBlur1D
from lpvarpro.problems import make_1d_problem
from lpvarpro.regularizers import first_derivative_1d


def dense_projected_gcv(r_g, r_l, dhat, eta):
    """Direct evaluation with explicitly assembled regularized pseudoinverse."""
    k = r_g.shape[0]
    pinv_eta = np.linalg.solve(r_g.T @ r_g + eta * (r_l.T @ r_l), r_g.T)
    resid_mat = np.eye(k) - r_g @ pinv_eta
    num = k * float(np.linalg.norm(resid_mat @ dhat) ** 2)
    den = float(np.trace(np.eye(k) - r_g @ pinv_eta)) ** 2
    return num / den


def quotient(gsvd, dhat, eta):
    """The GCV quotient at a scalar eta through ``curve`` on an array, as
    the grid scan calls it; inf where it is not finite, as at 0/0."""
    value = _GcvQuotient(gsvd, dhat).curve(np.array([eta]))[0][0]
    return float(value) if np.isfinite(value) else np.inf


def random_pair(rng, k):
    # diagonal shifts keep the pair well conditioned so the dense oracle
    # (which squares the conditioning) stays trustworthy at 1e-10
    r_g = np.triu(rng.standard_normal((k, k))) + 2.0 * np.eye(k)
    r_l = np.triu(rng.standard_normal((k, k))) + 2.0 * np.eye(k)
    return r_g, r_l


class TestGsvdPair:
    """thin_gsvd of a small pair, as the MMGKS inner iteration factors it."""

    def test_identity_pair(self):
        gsvd = thin_gsvd(np.eye(4), np.eye(4))
        np.testing.assert_allclose(gsvd.c**2 + gsvd.s2, np.ones(4), atol=1e-14)
        zt = gsvd.w.T @ gsvd.r
        np.testing.assert_allclose(gsvd.u * gsvd.c @ zt, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(gsvd.apply_q_l(gsvd.w @ zt), np.eye(4),
                                   atol=1e-12)

    @pytest.mark.parametrize("k", [3, 6, 12])
    def test_reconstruction_and_orthogonality(self, k):
        rng = np.random.default_rng(k)
        r_g, r_l = random_pair(rng, k)
        gsvd = thin_gsvd(r_g, r_l)
        scale_g = max(np.abs(r_g).max(), 1.0)
        scale_l = max(np.abs(r_l).max(), 1.0)
        zt = gsvd.w.T @ gsvd.r
        t = gsvd.apply_q_l(gsvd.w)
        assert np.abs(gsvd.u * gsvd.c @ zt - r_g).max() <= 1e-10 * scale_g
        assert np.abs(t @ zt - r_l).max() <= 1e-10 * scale_l
        np.testing.assert_allclose(gsvd.c**2 + gsvd.s2, np.ones(k), atol=1e-14)
        assert np.abs(gsvd.u.T @ gsvd.u - np.eye(k)).max() <= 1e-12
        assert np.abs(gsvd.w.T @ gsvd.w - np.eye(k)).max() <= 1e-12
        # T = Q_L W = X_L diag(s) with orthonormal X_L
        assert np.abs(t.T @ t - np.diag(gsvd.s2)).max() <= 1e-12

    def test_diagonal_pair_gives_diagonal_ratios(self):
        dg = np.diag([3.0, 2.0, 0.5])
        dl = np.diag([1.0, 4.0, 1.0])
        gsvd = thin_gsvd(dg, dl)
        ratios = sorted(gsvd.c / np.sqrt(gsvd.s2))
        np.testing.assert_allclose(ratios, sorted([3.0, 0.5, 0.5]), rtol=1e-12)

    def test_rank_deficient_pair_raises(self):
        r_g = np.zeros((3, 3))
        r_g[0, 0] = 1.0
        r_l = np.zeros((3, 3))
        r_l[1, 1] = 1.0
        with pytest.raises(RankDeficiencyError):
            thin_gsvd(r_g, r_l)

    def test_short_stack_is_padded_and_tested(self):
        # [R_G; R_L] with fewer rows than columns cannot have full column
        # rank; without the zero padding R would be 2 x 3 and its two
        # singular values would pass the rank test
        with pytest.raises(RankDeficiencyError):
            thin_gsvd(np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]]))

    def test_dense_route_raises_the_same_type(self):
        g = np.eye(4)
        g[3, 3] = 0.0
        l_mat = np.eye(4)[:2]
        with pytest.raises(RankDeficiencyError, match="null space"):
            thin_gsvd(g, l_mat)
        assert issubclass(RankDeficiencyError, np.linalg.LinAlgError)


def stack_with_condition(rng, n, kappa):
    """A pair {G, L}, each n x n, whose stack [G; L] has condition kappa."""
    u, _ = np.linalg.qr(rng.standard_normal((2 * n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    stack = (u * np.logspace(0, -np.log10(kappa), n)) @ v.T
    return stack[:n], stack[n:]


def numpy_route_gsvd(g, l_mat):
    """(c, R) of the stacked pair through numpy.linalg: the oracle.

    The stack is assembled by np.vstack, padded with zero rows of L when it
    is short, and factored by np.linalg.qr and np.linalg.svd.
    """
    m, n = g.shape
    short = n - m - l_mat.shape[0]
    if short > 0:
        l_mat = np.vstack([l_mat, np.zeros((short, n))])
    q, r = np.linalg.qr(np.vstack([g, l_mat]))
    c = np.linalg.svd(q[:m], compute_uv=False)
    return np.clip(c, 0.0, 1.0), r


def dense_benchmark_pair():
    """{G, L} of the dense 1D benchmark problem (n = 512) at y0 = 2.5."""
    prob = make_1d_problem(n=512, sigma_true=2.0, level=0.01, seed=0)
    return prob.operator(np.array([2.5])).dense(), \
        first_derivative_1d(512).toarray()


class TestGsvdAgainstNumpyRoute:
    """The in-place LAPACK thin_gsvd against the numpy.linalg route."""

    @pytest.mark.parametrize("case", ["dense512", 3, 10, 39])
    def test_matches_numpy_route(self, case):
        if case == "dense512":
            g, l_mat = dense_benchmark_pair()
        else:
            g, l_mat = random_pair(np.random.default_rng(case), case)
        gsvd = thin_gsvd(g, l_mat)
        c_ref, r_ref = numpy_route_gsvd(g, l_mat)
        k = g.shape[1]
        assert np.abs(gsvd.c - c_ref).max() <= 1e-12
        # both QRs are Householder's, so R agrees with its signs
        assert (np.linalg.norm(gsvd.r - r_ref)
                <= 1e-12 * np.linalg.norm(r_ref))
        zt = gsvd.w.T @ gsvd.r
        assert (np.linalg.norm(gsvd.u * gsvd.c @ zt - g)
                <= 1e-12 * np.linalg.norm(g))
        assert (np.linalg.norm(gsvd.apply_q_l(gsvd.w @ zt) - l_mat)
                <= 1e-12 * np.linalg.norm(l_mat))
        assert np.abs(gsvd.u.T @ gsvd.u - np.eye(k)).max() <= 1e-12
        assert np.abs(gsvd.w.T @ gsvd.w - np.eye(k)).max() <= 1e-12

    def test_unconverged_svd_raises(self, monkeypatch):
        dgesdd = gcv.dgesdd

        def unconverged(*args, **kwargs):
            u, s, vt, _ = dgesdd(*args, **kwargs)
            return u, s, vt, 1

        monkeypatch.setattr(gcv, "dgesdd", unconverged)
        with pytest.raises(np.linalg.LinAlgError,
                           match="SVD did not converge") as err:
            thin_gsvd(np.eye(3), np.eye(3))
        assert type(err.value) is np.linalg.LinAlgError


class TestGsvdMemory:
    def test_builds_no_q(self):
        # R^-1 from the rank test gives Q_G = G R^-1 by one dtrmm, so the
        # stacked Q is not formed and no copy of Q_L is kept: the peak
        # above the inputs is R, Q_G, U, W^T and the dgesdd workspace
        # (8 n^2); it was 9.06 n^2 with Q formed
        n = 256
        g = GaussianBlur1D(2.0, n).dense()
        l_mat = first_derivative_1d(n).toarray()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            thin_gsvd(g, l_mat)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 8.5 * n * n * 8


def kappa_f(r):
    """||R||_F ||R^-1||_F of a square triangular R."""
    return (np.linalg.norm(r)
            * np.linalg.norm(solve_triangular(r, np.eye(r.shape[0]))))


class TestQFreeAgainstHouseholderQ:
    """thin_gsvd, which forms G R^-1, against the Householder Q route.

    ``numpy_route_gsvd`` reads Q_G from the Householder Q of the same stack.
    The generalized cosines agree to 100 eps kappa_F(R), the roundoff of
    forming G R^-1.
    """

    @pytest.mark.parametrize("sigma, l_scale", [
        (2.5, 1.0), (0.1, 1.0), (1e-16, 1.0), (2.5, 1e-4)],
        ids=["sigma2.5", "sigma0.1", "sigma1e-16", "ill_conditioned"])
    def test_matches_householder_q(self, sigma, l_scale):
        n = 256
        g = GaussianBlur1D(sigma, n).dense()
        l_mat = l_scale * first_derivative_1d(n).toarray()
        gsvd = thin_gsvd(g, l_mat)
        c_ref, r_ref = numpy_route_gsvd(g, l_mat)
        kappa = kappa_f(gsvd.r)
        # both QRs are Householder's, so R agrees with its signs
        assert (np.linalg.norm(gsvd.r - r_ref)
                <= 1e-12 * np.linalg.norm(r_ref))
        assert (np.abs(gsvd.c - c_ref).max()
                <= 100 * np.finfo(float).eps * kappa)
        # 1e-12 relative up to kappa_F = 1e3 (the stack has kappa_F 3.2e5
        # with L scaled by 1e-4), in proportion to kappa_F above
        rtol = 1e-12 * max(1.0, kappa / 1e3)
        assert (kappa > 1e5) == (l_scale < 1.0)
        zt = gsvd.w.T @ gsvd.r
        assert (np.linalg.norm(gsvd.u * gsvd.c @ zt - g)
                <= rtol * np.linalg.norm(g))
        assert (np.linalg.norm(gsvd.apply_q_l(gsvd.w @ zt) - l_mat)
                <= rtol * np.linalg.norm(l_mat))
        # Q_L W = X_L diag(s) with orthonormal X_L: [G; L] R^-1 is orthonormal
        t = gsvd.apply_q_l(gsvd.w)
        assert np.abs(t.T @ t - np.diag(gsvd.s2)).max() <= rtol
        assert np.abs(gsvd.u.T @ gsvd.u - np.eye(n)).max() <= 1e-12
        assert np.abs(gsvd.w.T @ gsvd.w - np.eye(n)).max() <= 1e-12


class TestStackSolve:
    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_matches_solve_triangular(self, k):
        rng = np.random.default_rng(30 + k)
        r_g, r_l = random_pair(rng, k)
        gsvd = thin_gsvd(r_g, r_l)
        rhs = rng.standard_normal(k)
        ref = solve_triangular(gsvd.r, gsvd.w @ (gsvd.filter(0.3)
                                                 * (gsvd.u.T @ rhs)))
        assert (np.linalg.norm(gsvd.solve(0.3, rhs) - ref)
                <= 1e-13 * np.linalg.norm(ref))
        ref_z = gsvd.w.T @ solve_triangular(gsvd.r.T, rhs, lower=True)
        assert (np.linalg.norm(gsvd.solve_z(rhs) - ref_z)
                <= 1e-13 * np.linalg.norm(ref_z))

    def test_singular_factor_raises(self):
        gsvd = thin_gsvd(np.eye(3), np.eye(3))
        r = gsvd.r.copy()
        r[1, 1] = 0.0
        singular = StackGsvd(u=gsvd.u, l_mat=gsvd.l_mat, w=gsvd.w, r=r,
                             c=gsvd.c, s2=gsvd.s2)
        for solve in (lambda: singular.solve(1.0, np.ones(3)),
                      lambda: singular.solve_z(np.ones(3)),
                      lambda: singular.apply_q_l(np.ones(3))):
            with pytest.raises(np.linalg.LinAlgError):
                solve()


class TestRankDecision:
    """The rank verdict of thin_gsvd against the singular values of R."""

    @pytest.mark.parametrize("n", [3, 12, 40, 200])
    def test_verdict_matches_singular_value_oracle(self, n):
        # condition numbers from 1e8 to 1e17 straddle the threshold
        # 1 / (2 n eps) at every n, so both verdicts occur
        rng = np.random.default_rng(n)
        verdicts = set()
        for kappa in np.logspace(8, 17, 10):
            g, l_mat = stack_with_condition(rng, n, kappa)
            svals = np.linalg.svd(np.linalg.qr(np.vstack([g, l_mat]))[1],
                                  compute_uv=False)
            deficient = svals[-1] <= 2 * n * np.finfo(float).eps * svals[0]
            verdicts.add(deficient)
            if deficient:
                with pytest.raises(RankDeficiencyError):
                    thin_gsvd(g, l_mat)
            else:
                thin_gsvd(g, l_mat)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("col", [0, 2, 4])
    def test_exact_zero_pivot_raises(self, col):
        rng = np.random.default_rng(col)
        g = rng.standard_normal((5, 5))
        l_mat = rng.standard_normal((4, 5))
        g[:, col] = l_mat[:, col] = 0.0
        r = np.linalg.qr(np.vstack([g, l_mat]))[1]
        assert r[col, col] == 0.0
        with pytest.raises(RankDeficiencyError):
            thin_gsvd(g, l_mat)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_bound_that_overflows_defers_to_singular_values(self, scale):
        # ||R||_F overflows to inf and ||R^-1||_F underflows to 0 (or the
        # reverse); their product is NaN, which the SVD decides without a
        # warning
        gsvd = thin_gsvd(scale * np.eye(3), scale * np.eye(3))
        np.testing.assert_allclose(gsvd.c**2, 0.5 * np.ones(3), rtol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        g = np.triu(np.ones((4, 4))) + np.eye(4)
        g[1, 2] = bad
        with pytest.raises(np.linalg.LinAlgError):
            thin_gsvd(g, np.eye(4))


class TestGcvValue:
    @pytest.mark.parametrize("k", [3, 6, 12])
    def test_matches_dense_assembly(self, k):
        rng = np.random.default_rng(10 * k)
        r_g, r_l = random_pair(rng, k)
        dhat = rng.standard_normal(k)
        # a tall data factor leaves part of dhat outside range(U), which is
        # residual at every eta
        tall_g = np.vstack([r_g, rng.standard_normal((4, k))])
        tall_dhat = rng.standard_normal(k + 4)
        for g, data in ((r_g, dhat), (tall_g, tall_dhat)):
            gsvd = thin_gsvd(g, r_l)
            # at tiny eta the dense residual cancels catastrophically, so the
            # oracle itself only carries ~10 digits
            for eta, rtol in ((1e-2, 1e-10), (1e-1, 1e-10), (1.0, 1e-10),
                              (50.0, 1e-10), (1e-6, 1e-8)):
                dense = dense_projected_gcv(g, r_l, data, eta)
                at_scalar, _ = _GcvQuotient(gsvd, data).curve(eta)
                for mine in (quotient(gsvd, data, eta), at_scalar):
                    assert abs(mine - dense) <= rtol * abs(dense)
        # select_eta minimizes the same tall quotient
        gsvd = thin_gsvd(tall_g, r_l)
        sel = select_eta(gsvd, tall_dhat)
        oracle = [dense_projected_gcv(tall_g, r_l, tall_dhat, eta)
                  for eta in ETA_GRID]
        assert sel.value <= min(oracle) * (1 + 1e-8)
        assert sel.value == pytest.approx(
            dense_projected_gcv(tall_g, r_l, tall_dhat, sel.eta),
            rel=1e-8)

    def test_unregularized_directions_do_not_enter_numerator(self):
        # s = 0 in one direction: its filter is 1 for every eta, so the
        # numerator only sees the other components
        r_g = np.diag([1.0, 0.5])
        r_l = np.diag([0.0, 1.0])
        gsvd = thin_gsvd(r_g, r_l)
        dhat = np.array([7.0, 0.0])
        for eta in (1e-3, 1.0, 1e3):
            assert quotient(gsvd, dhat, eta) == pytest.approx(0.0, abs=1e-20)

    def test_large_eta_limit(self):
        rng = np.random.default_rng(3)
        r_g, r_l = random_pair(rng, 5)
        r_l += 5 * np.eye(5)            # nonsingular regularizer factor
        dhat = rng.standard_normal(5)
        gsvd = thin_gsvd(r_g, r_l)
        val = quotient(gsvd, dhat, 1e14)
        expected = 5 * float(np.linalg.norm(gsvd.u.T @ dhat) ** 2) / 25.0
        assert val == pytest.approx(expected, rel=1e-6)

    def test_vanishing_denominator_gives_inf(self):
        # L = 0 leaves every filter factor at 1, so the denominator is 0 and
        # the slope is 0/0, which raises no warning
        gsvd = thin_gsvd(np.eye(4), np.zeros((4, 4)))
        assert quotient(gsvd, np.ones(4), 1.0) == np.inf
        assert not np.isfinite(_GcvQuotient(gsvd, np.ones(4)).curve(1.0)[1])

    @pytest.mark.parametrize("k", [2, 7, 25])
    def test_slope_matches_central_differences(self, k):
        rng = np.random.default_rng(100 + k)
        r_g, r_l = random_pair(rng, k)
        tall_g = np.vstack([r_g, rng.standard_normal((3, k))])
        # the five-point stencil: truncation O(h^4), roundoff O(eps / h)
        h = 1e-3
        steps = np.array([2 * h, h, -h, -2 * h])
        weights = np.array([-1.0, 8.0, -8.0, 1.0]) / (12 * h)
        for g, data in ((r_g, rng.standard_normal(k)),
                        (tall_g, rng.standard_normal(k + 3))):
            gsvd = thin_gsvd(g, r_l)
            q = _GcvQuotient(gsvd, data)
            for log_eta in np.log(ETA_GRID[100::9]):
                log_v = np.log([quotient(gsvd, data, np.exp(log_eta + t))
                                for t in steps])
                assert np.isfinite(log_v).all()
                assert q.curve(np.exp(log_eta))[1] == pytest.approx(
                    weights @ log_v, rel=1e-6, abs=1e-9)


def exhaustive_argmin(r_g, r_l, dhat, points=10**6):
    """Filter-formula scan over a dense log grid, written independently."""
    gsvd = thin_gsvd(r_g, r_l)
    dtil = gsvd.u.T @ dhat
    c2 = gsvd.c**2
    s2 = gsvd.s2
    k = r_g.shape[0]
    best_eta, best_val = None, np.inf
    for chunk in np.array_split(np.logspace(-12, 4, points), 50):
        f = c2[None, :] / (c2[None, :] + chunk[:, None] * s2[None, :])
        vals = k * ((1 - f) ** 2 @ dtil**2) / (k - f.sum(axis=1)) ** 2
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = vals[i]
            best_eta = chunk[i]
    return best_eta, best_val


def golden_select_eta(gsvd, dhat):
    """Grid scan plus golden-section search on log eta: the oracle.

    The same grid, degenerate test and neighbour interval as ``select_eta``,
    refined by comparing quotient values down to ``GcvConfig.refine_tol``.
    """
    vals = np.array([quotient(gsvd, dhat, eta) for eta in ETA_GRID])
    finite = np.isfinite(vals)
    if not finite.any() or (np.ptp(vals[finite])
                            <= 1e-15 * np.abs(vals[finite]).max()):
        mid = float(np.sqrt(GcvConfig.grid_min * GcvConfig.grid_max))
        return EtaSelection(eta=mid, value=float(vals[0]), degenerate=True)
    i = int(np.argmin(vals))
    a = np.log(ETA_GRID[max(i - 1, 0)])
    b = np.log(ETA_GRID[min(i + 1, ETA_GRID.size - 1)])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = (quotient(gsvd, dhat, np.exp(t)) for t in (c, d))
    while b - a > GcvConfig.refine_tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = quotient(gsvd, dhat, np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = quotient(gsvd, dhat, np.exp(d))
    return EtaSelection(eta=float(np.exp(c if fc < fd else d)),
                        value=min(fc, fd))


class TestSelectEta:
    def test_matches_exhaustive_grid(self):
        rng = np.random.default_rng(42)
        for k in (4, 8, 12):
            r_g = np.triu(rng.standard_normal((k, k))) + 2 * np.eye(k)
            r_l = np.triu(0.3 * rng.standard_normal((k, k))) + np.eye(k)
            dhat = rng.standard_normal(k)
            sel = select_eta(thin_gsvd(r_g, r_l), dhat)
            oracle_eta, oracle_val = exhaustive_argmin(r_g, r_l, dhat,
                                                       points=10**5)
            # same minimizer up to the refinement tolerance plus grid spacing
            assert abs(np.log(sel.eta) - np.log(oracle_eta)) <= 2e-3

    def test_argmin_invariant_under_data_scaling(self):
        rng = np.random.default_rng(7)
        r_g = np.triu(rng.standard_normal((6, 6))) + 2 * np.eye(6)
        r_l = np.eye(6)
        dhat = rng.standard_normal(6)
        gsvd = thin_gsvd(r_g, r_l)
        e1 = select_eta(gsvd, dhat).eta
        e2 = select_eta(gsvd, 37.0 * dhat).eta
        assert abs(np.log(e1) - np.log(e2)) <= 1e-6

    def test_flat_curve_flagged_degenerate(self):
        # zero projected data: the numerator vanishes identically in eta
        sel = select_eta(thin_gsvd(np.eye(3), np.eye(3)), np.zeros(3))
        assert isinstance(sel, EtaSelection)
        assert sel.degenerate
        # L = 0: every filter is 1, so the quotient is 0/0 at every grid
        # point and the solution does not depend on eta
        sel = select_eta(thin_gsvd(np.eye(4), np.zeros((4, 4))), np.ones(4))
        assert sel.degenerate
        assert sel.eta == pytest.approx(np.sqrt(GcvConfig.grid_min
                                                * GcvConfig.grid_max))

    def test_refinement_next_to_vanished_denominator(self):
        # below eta ~ 2e-10 the filters sum to k in rounding and the quotient
        # is not finite; the grid minimum (index 30) lies next to that region,
        # so one end of the bracket next to it (index 29) has a slope that is
        # not finite (-inf there: one f is 1 - eps, so k - sum f is 0 while
        # sum f g is not)
        gsvd = thin_gsvd(np.diag([1.0, 1.1, 1.14]),
                         np.diag([4.8e-4, 5.1e-4, 7e-4]))
        dhat = np.array([0.34, 0.42, 0.37])
        vals = [quotient(gsvd, dhat, eta) for eta in ETA_GRID]
        assert int(np.argmin(vals)) == 30 and vals[29] == np.inf
        _, slope_29 = _GcvQuotient(gsvd, dhat).curve(ETA_GRID[29])
        assert not np.isfinite(slope_29)
        sel = select_eta(gsvd, dhat)
        assert not sel.degenerate
        assert np.isfinite(sel.value) and sel.value <= vals[30]
        assert ETA_GRID[29] < sel.eta < ETA_GRID[31]
        assert sel.value == pytest.approx(quotient(gsvd, dhat, sel.eta))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 40),
           decay=st.floats(0.0, 8.0), log_noise=st.floats(-4.0, 0.0))
    def test_slope_root_against_golden_section(self, seed, k, decay,
                                               log_noise):
        # a projected discrete ill-posed problem: R_G with singular values
        # decaying over `decay` decades, and data with relative noise
        rng = np.random.default_rng(seed)
        r_g = (0.1 * np.triu(rng.standard_normal((k, k)))
               + np.diag(np.logspace(0, -decay, k)))
        r_l = 0.1 * np.triu(rng.standard_normal((k, k))) + np.eye(k)
        clean = r_g @ rng.standard_normal(k)
        dhat = clean + (10**log_noise * np.linalg.norm(clean) / np.sqrt(k)
                        * rng.standard_normal(k))
        gsvd = thin_gsvd(r_g, r_l)
        sel = select_eta(gsvd, dhat)
        oracle = golden_select_eta(gsvd, dhat)
        if oracle.degenerate:
            assert sel == oracle
            return
        close = (abs(np.log(sel.eta) - np.log(oracle.eta))
                 <= 2 * GcvConfig.refine_tol)
        # near the grid floor 1 - f cancels, so the computed quotient holds
        # a relative roundoff up to about eps max(f / (1 - f)), with
        # f / (1 - f) = c^2 / (eta s2)
        pos = gsvd.s2 > 0
        floor = np.finfo(float).eps * np.max(
            gsvd.c[pos]**2 / (min(sel.eta, oracle.eta) * gsvd.s2[pos]),
            initial=0.0)
        assert close or sel.value <= oracle.value * (1 + 1e-9 + 4 * floor)

    def test_root_above_grid_minimum_is_not_taken(self, monkeypatch):
        # only roundoff puts a slope root above the grid minimum; V doubled
        # at every evaluation of the refinement, which passes a scalar eta,
        # stands in for it
        rng = np.random.default_rng(8)
        r_g, r_l = random_pair(rng, 6)
        gsvd = thin_gsvd(r_g, r_l)
        dhat = rng.standard_normal(6)
        root = select_eta(gsvd, dhat)
        vals = [quotient(gsvd, dhat, eta) for eta in ETA_GRID]
        i = int(np.argmin(vals))
        assert root.eta not in ETA_GRID and root.value <= vals[i]
        curve = _GcvQuotient.curve

        def doubled(self, eta):
            value, grad = curve(self, eta)
            return (value if np.ndim(eta) else 2.0 * value), grad

        monkeypatch.setattr(_GcvQuotient, "curve", doubled)
        grid = select_eta(gsvd, dhat)
        assert grid.eta == ETA_GRID[i] and not grid.degenerate
        assert grid.value == pytest.approx(vals[i], rel=1e-14)

    def test_one_grid_scan_and_few_slopes(self, monkeypatch):
        # one curve call on the whole grid, then one per refinement step
        calls = []
        curve = _GcvQuotient.curve

        def counting(self, eta):
            calls.append(np.size(eta))
            return curve(self, eta)

        monkeypatch.setattr(_GcvQuotient, "curve", counting)
        rng = np.random.default_rng(5)
        steps = []
        for k in range(2, 41):
            r_g, r_l = random_pair(rng, k)
            calls.clear()
            select_eta(thin_gsvd(r_g, r_l), rng.standard_normal(k))
            assert calls[0] == ETA_GRID.size
            assert len(calls) <= 13 and set(calls[1:]) <= {1}
            steps.append(len(calls) - 1)
        assert max(steps) > 2

    def test_grid_is_a_read_only_constant(self):
        assert ETA_GRID[0] == GcvConfig.grid_min
        assert ETA_GRID[-1] == pytest.approx(GcvConfig.grid_max)
        assert ETA_GRID.size == GcvConfig.grid_points
        with pytest.raises(ValueError):
            ETA_GRID[0] = 1.0

    def test_config_validation(self):
        # the search grid is fixed
        with pytest.raises(TypeError):
            GcvConfig(grid_min=1e-10)
