import numpy as np
import pytest

from lpvarpro.gcv import (EtaSelection, GcvConfig, RankDeficiencyError,
                          gcv_value, select_eta, thin_gsvd)


def dense_projected_gcv(r_g, r_l, dhat, eta, omega=1.0):
    """Direct evaluation with explicitly assembled regularized pseudoinverse."""
    k = r_g.shape[0]
    pinv_eta = np.linalg.solve(r_g.T @ r_g + eta * (r_l.T @ r_l), r_g.T)
    resid_mat = np.eye(k) - r_g @ pinv_eta
    num = k * float(np.linalg.norm(resid_mat @ dhat) ** 2)
    den = float(np.trace(np.eye(k) - omega * (r_g @ pinv_eta))) ** 2
    return num / den


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
        np.testing.assert_allclose(gsvd.t @ zt, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("k", [3, 6, 12])
    def test_reconstruction_and_orthogonality(self, k):
        rng = np.random.default_rng(k)
        r_g, r_l = random_pair(rng, k)
        gsvd = thin_gsvd(r_g, r_l)
        scale_g = max(np.abs(r_g).max(), 1.0)
        scale_l = max(np.abs(r_l).max(), 1.0)
        zt = gsvd.w.T @ gsvd.r
        assert np.abs(gsvd.u * gsvd.c @ zt - r_g).max() <= 1e-10 * scale_g
        assert np.abs(gsvd.t @ zt - r_l).max() <= 1e-10 * scale_l
        np.testing.assert_allclose(gsvd.c**2 + gsvd.s2, np.ones(k), atol=1e-14)
        assert np.abs(gsvd.u.T @ gsvd.u - np.eye(k)).max() <= 1e-12
        assert np.abs(gsvd.w.T @ gsvd.w - np.eye(k)).max() <= 1e-12
        # T = X_L diag(s) with orthonormal X_L
        assert np.abs(gsvd.t.T @ gsvd.t - np.diag(gsvd.s2)).max() <= 1e-12

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


class TestGcvValue:
    @pytest.mark.parametrize("k", [3, 6, 12])
    @pytest.mark.parametrize("omega", [1.0, 0.8])
    def test_matches_dense_assembly(self, k, omega):
        rng = np.random.default_rng(10 * k)
        r_g, r_l = random_pair(rng, k)
        dhat = rng.standard_normal(k)
        # a tall data factor leaves part of dhat outside range(U), which is
        # residual at every eta
        tall_g = np.vstack([r_g, rng.standard_normal((4, k))])
        tall_dhat = rng.standard_normal(k + 4)
        for g, data in ((r_g, dhat), (tall_g, tall_dhat)):
            gsvd = thin_gsvd(g, r_l)
            for eta in (1e-2, 1e-1, 1.0, 50.0):
                mine = gcv_value(gsvd, data, eta, omega)
                dense = dense_projected_gcv(g, r_l, data, eta, omega)
                assert abs(mine - dense) <= 1e-10 * abs(dense)
            # at tiny eta the dense residual cancels catastrophically, so the
            # oracle itself only carries ~10 digits
            mine = gcv_value(gsvd, data, 1e-6, omega)
            dense = dense_projected_gcv(g, r_l, data, 1e-6, omega)
            assert abs(mine - dense) <= 1e-8 * abs(dense)
        # select_eta minimizes the same tall quotient
        gsvd = thin_gsvd(tall_g, r_l)
        sel = select_eta(gsvd, tall_dhat, GcvConfig(omega=omega))
        grid = GcvConfig().grid()
        oracle = [dense_projected_gcv(tall_g, r_l, tall_dhat, eta, omega)
                  for eta in grid]
        assert sel.value <= min(oracle) * (1 + 1e-8)
        assert sel.value == pytest.approx(
            dense_projected_gcv(tall_g, r_l, tall_dhat, sel.eta, omega),
            rel=1e-8)

    def test_unregularized_directions_do_not_enter_numerator(self):
        # s = 0 in one direction: its filter is 1 for every eta, so the
        # numerator only sees the other components
        r_g = np.diag([1.0, 0.5])
        r_l = np.diag([0.0, 1.0])
        gsvd = thin_gsvd(r_g, r_l)
        dhat = np.array([7.0, 0.0])
        for eta in (1e-3, 1.0, 1e3):
            assert gcv_value(gsvd, dhat, eta) == pytest.approx(0.0, abs=1e-20)

    def test_large_eta_limit(self):
        rng = np.random.default_rng(3)
        r_g, r_l = random_pair(rng, 5)
        r_l += 5 * np.eye(5)            # nonsingular regularizer factor
        dhat = rng.standard_normal(5)
        gsvd = thin_gsvd(r_g, r_l)
        val = gcv_value(gsvd, dhat, 1e14, omega=1.0)
        expected = 5 * float(np.linalg.norm(gsvd.u.T @ dhat) ** 2) / 25.0
        assert val == pytest.approx(expected, rel=1e-6)

    def test_rejects_nonpositive_eta(self):
        gsvd = thin_gsvd(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            gcv_value(gsvd, np.ones(2), 0.0)


def exhaustive_argmin(r_g, r_l, dhat, omega=1.0, points=10**6):
    """Filter-formula scan over a dense log grid, written independently."""
    gsvd = thin_gsvd(r_g, r_l)
    dtil = gsvd.u.T @ dhat
    c2 = gsvd.c**2
    s2 = gsvd.s2
    k = r_g.shape[0]
    best_eta, best_val = None, np.inf
    for chunk in np.array_split(np.logspace(-12, 4, points), 50):
        f = c2[None, :] / (c2[None, :] + chunk[:, None] * s2[None, :])
        vals = k * ((1 - f) ** 2 @ dtil**2) / (k - omega * f.sum(axis=1)) ** 2
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = vals[i]
            best_eta = chunk[i]
    return best_eta, best_val


class TestSelectEta:
    def test_matches_exhaustive_grid(self):
        rng = np.random.default_rng(42)
        for k in (4, 8, 12):
            r_g = np.triu(rng.standard_normal((k, k))) + 2 * np.eye(k)
            r_l = np.triu(0.3 * rng.standard_normal((k, k))) + np.eye(k)
            dhat = rng.standard_normal(k)
            sel = select_eta(thin_gsvd(r_g, r_l), dhat, GcvConfig())
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
        e1 = select_eta(gsvd, dhat, GcvConfig()).eta
        e2 = select_eta(gsvd, 37.0 * dhat, GcvConfig()).eta
        assert abs(np.log(e1) - np.log(e2)) <= 1e-6

    def test_smaller_omega_selects_no_larger_eta(self):
        # diagonal toy with decaying spectrum and noisy data coefficients
        c = np.array([1.0, 0.6, 0.3, 0.1, 0.03, 0.01])
        r_g = np.diag(c)
        r_l = np.eye(6)
        rng = np.random.default_rng(0)
        dhat = c * 1.0 + 0.05 * rng.standard_normal(6)
        eta_full = exhaustive_argmin(r_g, r_l, dhat, omega=1.0, points=10**5)[0]
        eta_small = exhaustive_argmin(r_g, r_l, dhat, omega=0.5, points=10**5)[0]
        assert eta_small <= eta_full * (1 + 1e-9)
        gsvd = thin_gsvd(r_g, r_l)
        sel_full = select_eta(gsvd, dhat, GcvConfig(omega=1.0))
        sel_small = select_eta(gsvd, dhat, GcvConfig(omega=0.5))
        assert sel_small.eta <= sel_full.eta * (1 + 1e-6)

    def test_flat_curve_flagged_degenerate(self):
        # zero projected data: the numerator vanishes identically in eta
        sel = select_eta(thin_gsvd(np.eye(3), np.eye(3)), np.zeros(3),
                         GcvConfig())
        assert isinstance(sel, EtaSelection)
        assert sel.degenerate
        # L = 0: every filter is 1, so the quotient is 0/0 at every grid
        # point and the solution does not depend on eta
        cfg = GcvConfig()
        sel = select_eta(thin_gsvd(np.eye(4), np.zeros((4, 4))), np.ones(4),
                         cfg)
        assert sel.degenerate
        assert sel.eta == pytest.approx(np.sqrt(cfg.grid_min * cfg.grid_max))

    def test_refinement_next_to_vanished_denominator(self):
        # below eta ~ 2e-10 every filter rounds to 1 and the quotient is 0/0;
        # the grid minimum lies next to that region, so the golden-section
        # refinement probes points where the denominator vanishes
        gsvd = thin_gsvd(np.diag([1.0, 1.1, 1.14]),
                         np.diag([4.8e-4, 5.1e-4, 7e-4]))
        dhat = np.array([0.34, 0.42, 0.37])
        sel = select_eta(gsvd, dhat, GcvConfig())
        assert not sel.degenerate
        assert sel.value == pytest.approx(gcv_value(gsvd, dhat, sel.eta))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GcvConfig(omega=0.0)
        with pytest.raises(ValueError):
            GcvConfig(grid_min=1.0, grid_max=0.5)
