import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvarpro import gcv, mmgks, operators
from lpvarpro.gcv import thin_gsvd
from lpvarpro.mmgks import (GksState, MmgksConfig, expand_subspace,
                            golub_kahan, init_gks, majorant_weights, mm_lambda,
                            mmgks_solve, objective_value, project_and_solve)
from lpvarpro.operators import (ConvBoundary, GaussianBlur1D,
                                GaussianPsfBlur2D, MatrixOperator, PsfParams)
from lpvarpro.problems import make_1d_problem, make_blind_deconv_problem
from lpvarpro.regularizers import (MatrixRegularizer, as_regularizer,
                                   derivative_2d, first_derivative_1d)


class CountingQ(np.ndarray):
    """An array view that counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingQ.products += 1
        inputs = [np.asarray(a) if isinstance(a, CountingQ) else a
                  for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def projected_solution(state, eta):
    """z of the projected Tikhonov problem on the current factors of state,
    by the one pair factorization that ``mmgks_solve`` runs."""
    return project_and_solve(thin_gsvd(state.r_g, state.r_l), eta,
                             state.dhat)


def expand(state, z, eta, weights, L):
    """expand_subspace with the product and the scale mmgks_solve passes."""
    return expand_subspace(state, eta, weights, L, state.gtd_norm, z,
                           state.lv @ z)


def seeded(G, d, ell, L, capacity):
    """init_gks with ell Golub-Kahan steps, on new room for capacity columns."""
    cfg = MmgksConfig(subspace_dim=ell, max_iters=capacity - ell + 1)
    return init_gks(G, d, L, mmgks.gks_buffers(G, L, cfg))


def dense_state(a, d, v, lv, capacity):
    """GksState of a MatrixOperator on the columns v, seeded by a dense QR.

    R_G, dhat and ||d - Q_G dhat||^2 come from the R factor of [A V, d];
    appends keep them exact only when V spans A^T d, as a Golub-Kahan seed
    does. G V is A V, whose range coordinates are its own, and the buffers
    past the seed columns hold NaN, which no read of a state may meet.
    """
    k = v.shape[1]
    r = np.linalg.qr(np.column_stack([a @ v, d]), mode="r")
    outside = r[k, k]**2 if r.shape[0] > k else 0.0
    buffers = [np.full((rows, capacity), np.nan, order="F")
               for rows in (a.shape[1], a.shape[0], lv.shape[0])]
    buffers[0][:, :k], buffers[1][:, :k], buffers[2][:, :k] = v, a @ v, lv
    return GksState(MatrixOperator(a), d, k, buffers,
                    (r[:k, :-1], r[:k, -1], np.linalg.norm(a.T @ d), outside))


def basis_spanning(col, k, rng):
    """Orthonormal n x k basis whose first column is along col."""
    q, _ = np.linalg.qr(np.column_stack(
        [col, rng.standard_normal((col.size, k - 1))]))
    return q


def assert_data_factors(state, a, d, rtol, seed=0):
    """R_G, dhat, G V and ||G^T d|| of state against dense products of A.

    R_G^T R_G = (A V)^T A V, the cached G V holds the range coordinates of
    A V, ``gtd_norm`` = ||A^T d||, and for random z the misfit ||R_G z -
    dhat||^2 + o = ||A V z - d||^2, with o the state's ``outside``, ||d -
    Q_G dhat||^2.
    """
    gv = a @ state.v
    assert_gram_matches(state.r_g, gv, rtol)
    rep = np.column_stack([state._g.range_rep(col) for col in gv.T])
    assert np.linalg.norm(state.gv - rep) <= rtol * np.linalg.norm(rep)
    assert state.gtd_norm == pytest.approx(np.linalg.norm(a.T @ d), rel=rtol)
    z = np.random.default_rng(seed).standard_normal(state.k)
    misfit = np.linalg.norm(state.r_g @ z - state.dhat)**2 + state.outside
    assert misfit == pytest.approx(np.linalg.norm(gv @ z - d)**2, rel=rtol)


def count_data_refactors(monkeypatch, d):
    """Count the R factors of [G V, d] that refactor R_G, in a list.

    ``d`` is in the range coordinates of G, as the state holds it.
    """
    calls = [0]
    r_factor_orig = mmgks._r_factor

    def counting(a):
        calls[0] += a.shape[0] == d.size and np.array_equal(a[:, -1], d)
        return r_factor_orig(a)

    monkeypatch.setattr(mmgks, "_r_factor", counting)
    return calls


def count_dgeqrt(monkeypatch):
    """Count the blocked Householder QRs, the one QR kernel of the package
    (``gcv._r_factor``), in a one-element list."""
    calls = [0]
    dgeqrt_orig = gcv.dgeqrt

    def counting(*args, **kwargs):
        calls[0] += 1
        return dgeqrt_orig(*args, **kwargs)

    monkeypatch.setattr(gcv, "dgeqrt", counting)
    return calls


def count_operator_calls(monkeypatch, G):
    """Count apply, adjoint_apply and apply_rep of a MatrixOperator.

    apply_rep is counted as one call, not as the apply that its default
    runs.
    """
    calls = Counter()
    for name, fn in (("apply", lambda x: G.a @ x),
                     ("adjoint_apply", lambda v: G.a.T @ v),
                     ("apply_rep", lambda x: G.a @ x)):
        def counting(x, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(x)

        monkeypatch.setattr(G, name, counting)
    return calls


def assert_gram_matches(r, a, rtol):
    """R^T R = A^T A to rtol relative to ||A||^2 (R is not unique)."""
    assert np.linalg.norm(r.T @ r - a.T @ a) <= rtol * np.linalg.norm(a)**2


def normal_equations_solution(state, eta, a, d):
    """The same z from the normal equations assembled on A V."""
    gv = a @ state.v
    lhs = gv.T @ gv + eta * state.r_l.T @ state.r_l
    return np.linalg.solve(lhs, gv.T @ d)


class TestMajorantWeights:
    def test_zero_input(self):
        np.testing.assert_allclose(majorant_weights(np.array([0.0]), 1, 0.1),
                                   [10.0], rtol=1e-14)

    def test_p_two_gives_ones(self):
        u = np.array([-3.0, 0.0, 5.5])
        np.testing.assert_array_equal(majorant_weights(u, 2, 0.0), np.ones(3))

    def test_example_value(self):
        np.testing.assert_allclose(majorant_weights(np.array([3.0]), 1, 4.0),
                                   [0.2], rtol=1e-14)

    def test_requires_epsilon_for_small_p(self):
        # at 1 < p < 2 too: the weight 0^(p/2 - 1) of u = 0 is inf; the
        # check refuses epsilon = 0 whatever u is
        for p in (0.8, 1.5):
            for u in ([1.0], [0.0]):
                with pytest.raises(ValueError):
                    majorant_weights(np.array(u), p, 0.0)


class TestObjectiveValue:
    def test_all_terms_at_zero(self):
        val = objective_value(np.zeros(5), np.zeros(5), lam=2.0, p=1.0,
                              epsilon=0.1)
        assert val == pytest.approx(2.0 * 5 * 0.1, rel=1e-14)

    def test_p2_eps0_is_tikhonov(self):
        rng = np.random.default_rng(0)
        G = rng.standard_normal((8, 6))
        x = rng.standard_normal(6)
        d = rng.standard_normal(8)
        L = MatrixRegularizer(first_derivative_1d(6))
        val = objective_value(G @ x - d, L.apply(x), lam=0.7, p=2.0,
                              epsilon=0.0)
        expected = np.linalg.norm(G @ x - d) ** 2 \
            + 0.7 * np.linalg.norm(L.dense() @ x) ** 2
        assert val == pytest.approx(expected, rel=1e-13)

    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(1)
        G = rng.standard_normal((7, 5))
        x = rng.standard_normal(5)
        d = rng.standard_normal(7)
        lam, p, eps = 0.3, 1.3, 0.05
        acc = float(np.linalg.norm(G @ x - d) ** 2)
        for t in x:
            acc += lam * (t * t + eps * eps) ** (p / 2)
        # L = I, so L x is x itself
        assert objective_value(G @ x - d, x, lam, p, eps) == pytest.approx(
            acc, rel=1e-13)

    def test_rejects_p_le_one_without_eps(self):
        with pytest.raises(ValueError):
            objective_value(np.zeros(3), np.zeros(3), 1.0, 1.0, 0.0)


class TestGolubKahan:
    def test_single_step_direction(self):
        rng = np.random.default_rng(2)
        G = rng.standard_normal((12, 8))
        d = rng.standard_normal(12)
        _, _, v = golub_kahan(MatrixOperator(G), d, 1)
        expected = G.T @ d / np.linalg.norm(G.T @ d)
        np.testing.assert_allclose(np.abs(v[:, 0]), np.abs(expected),
                                   rtol=1e-12)

    def test_bidiagonal_relation(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((30, 20))
        d = rng.standard_normal(30)
        u, b, v = golub_kahan(MatrixOperator(G), d, 5)
        assert v.shape[1] == 5
        resid = np.linalg.norm(G @ v - u @ b)
        assert resid <= 1e-10 * np.linalg.norm(G)
        np.testing.assert_allclose(v.T @ v, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-12)

    @pytest.mark.parametrize("m, ell", [(30, 5), (6, 6)])
    def test_seeded_data_factor(self, m, ell):
        # R_G and dhat from the factor of [B, ||d|| e_1], as [G V, d] =
        # U [B, ||d|| e_1], and G^T d = ||d|| alpha_1 v_1; at ell = m the
        # last step breaks down and U ends in a zero column
        rng = np.random.default_rng(16)
        G = MatrixOperator(rng.standard_normal((m, 20)))
        d = rng.standard_normal(m)
        state = seeded(G, d, ell, as_regularizer(None, 20), capacity=ell)
        assert state.r_g.shape == (ell, ell)
        assert_data_factors(state, G.a, d, 1e-13)
        # dhat = Q_G^T d for Q_G = G V R_G^-1
        q_g = np.linalg.solve(state.r_g.T, (G.a @ state.v).T).T
        np.testing.assert_allclose(state.dhat, q_g.T @ d, rtol=0,
                                   atol=1e-12 * np.linalg.norm(d))

    @pytest.mark.parametrize("ell", [0, 9])
    def test_rejects_subspace_dimension_out_of_range(self, ell):
        rng = np.random.default_rng(4)
        G = MatrixOperator(rng.standard_normal((12, 8)))
        with pytest.raises(ValueError, match="1 <= ell <= min"):
            golub_kahan(G, rng.standard_normal(12), ell)

    def test_breakdown_flagged(self):
        # rank-1 G: the second bidiagonalization step must break down
        G = np.outer(np.arange(1.0, 7.0), np.ones(5))
        d = np.arange(1.0, 7.0)
        _, _, v = golub_kahan(MatrixOperator(G), d, 4)
        assert v.shape[1] < 4


class TestProjectAndSolve:
    def _state(self, G, L, d, ell):
        state = seeded(MatrixOperator(G), d, ell, L, capacity=ell)
        state.set_weights(None)
        return state

    def test_matches_dense_normal_equations(self):
        rng = np.random.default_rng(4)
        G = rng.standard_normal((20, 15))
        L = as_regularizer(None, 15)
        d = rng.standard_normal(20)
        state = self._state(G, L, d, 6)
        eta = 0.37
        z = projected_solution(state, eta)
        np.testing.assert_allclose(z, normal_equations_solution(state, eta, G,
                                                                d),
                                   rtol=1e-10)

    def test_large_eta_shrinks_solution(self):
        rng = np.random.default_rng(5)
        G = rng.standard_normal((20, 15))
        L = as_regularizer(None, 15)
        d = rng.standard_normal(20)
        state = self._state(G, L, d, 5)
        z = projected_solution(state, 1e14)
        assert np.linalg.norm(z) <= 1e-10

    def test_orthonormal_columns_diagonal_case(self):
        rng = np.random.default_rng(6)
        G, _ = np.linalg.qr(rng.standard_normal((30, 12)))
        d = rng.standard_normal(30)
        v = np.eye(12)[:, :4]
        lv = v.copy()
        state = dense_state(G, d, v, lv, capacity=4)
        state.set_weights(None)
        eta = 0.9
        z = projected_solution(state, eta)
        expected = (v.T @ (G.T @ d)) / (1.0 + eta)
        np.testing.assert_allclose(z, expected, rtol=1e-12)

    @pytest.mark.parametrize("eta", [1e-12, 1e3])
    def test_matches_dense_normal_equations_at_extreme_eta(self, eta):
        # 1e-12 is the floor of the GCV grid, where the MMGKS solves of
        # the 2D p = 1 benchmark problems select eta
        rng = np.random.default_rng(14)
        G = MatrixOperator(rng.standard_normal((20, 15)))
        L = MatrixRegularizer(first_derivative_1d(15))
        d = rng.standard_normal(20)
        state = seeded(G, d, 6, L, capacity=6)
        state.set_weights(rng.uniform(0.5, 2.0, L.q))
        z = projected_solution(state, eta)
        np.testing.assert_allclose(z, normal_equations_solution(state, eta,
                                                                G.a, d),
                                   rtol=1e-10)

    def test_data_factor_with_fewer_rows_than_columns(self, monkeypatch):
        # R_G has fewer rows than the basis has columns once G V has more
        # columns than rows: the fifth column grows R_G, and each later one
        # refactors it
        rng = np.random.default_rng(15)
        G = MatrixOperator(rng.standard_normal((5, 12)))
        L = MatrixRegularizer(first_derivative_1d(12))
        d = rng.standard_normal(5)
        state = seeded(G, d, 4, L, capacity=8)
        refactors = count_data_refactors(monkeypatch, d)
        state.set_weights(None)
        for _ in range(4):
            z = projected_solution(state, 0.3)
            assert expand(state, z, 0.3, None, L)
            state.set_weights(None)
        assert state.r_g.shape == (5, 8)
        assert refactors == [3]
        z = projected_solution(state, 0.3)
        np.testing.assert_allclose(z, normal_equations_solution(state, 0.3,
                                                                G.a, d),
                                   rtol=1e-10)

    def test_singular_projected_system_raises(self):
        v = np.eye(4)[:, :2]
        state = dense_state(np.zeros((4, 4)), np.zeros(4), v,
                            np.zeros((4, 2)), capacity=2)
        state.set_weights(None)
        with pytest.raises(ValueError, match="null space"):
            project_and_solve(thin_gsvd(state.r_g, state.r_l), 1.0,
                              np.zeros(2))


class TestGksStateBuffers:
    @pytest.mark.parametrize("m", [40, 8])
    def test_growth_past_capacity(self, m):
        # m = 8 < k also covers the R_G with fewer rows than columns; the
        # first basis column is along G^T d, as a Golub-Kahan seed's is
        rng = np.random.default_rng(13)
        G = rng.standard_normal((m, 30))
        d = rng.standard_normal(m)
        ld = first_derivative_1d(30).toarray()
        basis = basis_spanning(G.T @ d, 20, rng)
        lv = np.column_stack([ld @ basis[:, j] for j in range(20)])
        state = dense_state(G, d, basis[:, :2], lv[:, :2], capacity=20)
        for j in range(2, 20):
            state.append_direction(basis[:, j], lv[:, j])
            assert_data_factors(state, G, d, 1e-12, seed=j)
        assert state.k == 20
        np.testing.assert_array_equal(state.v, basis)
        np.testing.assert_array_equal(state.lv, lv)
        np.testing.assert_allclose(state.v.T @ state.v, np.eye(20),
                                   atol=1e-12)
        assert state.r_g.shape == (min(m, 20), 20)
        # the buffers are sized once: a column past capacity is refused
        with pytest.raises(IndexError):
            state.append_direction(basis[:, 0], lv[:, 0])
        assert state.k == 20

    @pytest.mark.parametrize("m", [40, 8])
    def test_g_v_read_through_its_factors(self, m):
        # the state keeps G V, not G^T G V nor Q_G: R_G, dhat stand for
        # ||G V z - d||, also once G V has more columns than rows (m = 8 <
        # k), and the cached G V gives the data gradient G^T (G V z - d)
        rng = np.random.default_rng(19)
        G = MatrixOperator(rng.standard_normal((m, 30)))
        L = MatrixRegularizer(first_derivative_1d(30))
        d = rng.standard_normal(m)
        state = seeded(G, d, 4, L, capacity=12)
        state.set_weights(None)
        for _ in range(8):
            z = projected_solution(state, 0.1)
            assert expand(state, z, 0.1, None, L)
            state.set_weights(None)
        assert not hasattr(state, "h") and not hasattr(state, "q_g")
        z = rng.standard_normal(state.k)
        grad = G.a.T @ (G.a @ (state.v @ z) - d)
        np.testing.assert_allclose(state.data_gradient(z), grad,
                                   atol=1e-12 * np.linalg.norm(grad))
        assert_data_factors(state, G.a, d, 1e-12)

    def test_weighted_factor_after_reweighting_and_growth(self):
        rng = np.random.default_rng(14)
        G = MatrixOperator(rng.standard_normal((25, 18)))
        L = MatrixRegularizer(first_derivative_1d(18))
        d = rng.standard_normal(25)
        state = seeded(G, d, 4, L, capacity=9)
        w1 = rng.uniform(0.5, 2.0, L.q)
        w2 = rng.uniform(0.5, 2.0, L.q)
        state.set_weights(w1)
        state.set_weights(w2)
        wlv = np.sqrt(w2)[:, None] * state.lv
        np.testing.assert_allclose(state.r_l.T @ state.r_l, wlv.T @ wlv,
                                   rtol=1e-12, atol=1e-12)
        # after an append the same non-unit weights refactor R_L alone
        z = projected_solution(state, 0.1)
        assert expand(state, z, 0.1, w2, L)
        state.set_weights(w2)
        ref = np.linalg.qr(np.sqrt(w2)[:, None] * state.lv, mode="r")
        assert state.r_l.shape == ref.shape == (5, 5)
        np.testing.assert_allclose(np.abs(state.r_l), np.abs(ref),
                                   rtol=1e-12, atol=1e-12)

    def test_unit_weights_keep_one_factor_across_appends(self, monkeypatch):
        rng = np.random.default_rng(14)
        G = MatrixOperator(rng.standard_normal((25, 18)))
        L = MatrixRegularizer(first_derivative_1d(18))
        d = rng.standard_normal(25)
        state = seeded(G, d, 4, L, capacity=9)
        calls = count_dgeqrt(monkeypatch)
        state.set_weights(None)
        for _ in range(5):
            z = projected_solution(state, 0.1)
            assert expand(state, z, 0.1, None, L)
            state.set_weights(None)
        assert state.k == 9
        # the factor of the first call took the appended columns; the other
        # five QRs factor the stacked pairs of projected_solution
        assert calls == [1 + 5]
        assert state.r_l.shape == (9, 9)
        np.testing.assert_array_equal(state.r_l, np.triu(state.r_l))
        assert_gram_matches(state.r_l, state.lv, 1e-13)

    @pytest.mark.parametrize("q", [60, 4, 0])
    def test_r_only_factor_matches_qr_and_keeps_products(self, q):
        # tall (q >> k), short (q < k) and empty weighted L V: the factor is
        # computed in place, so the cached products and R_G, dhat must not
        # change
        rng = np.random.default_rng(15)
        k = 7
        basis, _ = np.linalg.qr(rng.standard_normal((20, k)))
        lv = rng.standard_normal((q, k))
        state = dense_state(rng.standard_normal((30, 20)),
                            rng.standard_normal(30), basis, lv, capacity=k + 3)
        before = [a.tobytes() for a in (state.v, state.lv, state.gv,
                                        state.r_g, state.dhat)]
        for _ in range(2):
            w = rng.uniform(0.5, 2.0, q)
            state.set_weights(w)
            ref = np.linalg.qr(np.sqrt(w)[:, None] * lv, mode="r")
            # an empty w is a general weight too, factored the same way
            assert state.r_l.shape == ref.shape
            np.testing.assert_allclose(np.abs(state.r_l), np.abs(ref),
                                       rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max(initial=1))
        assert [a.tobytes() for a in (state.v, state.lv, state.gv,
                                      state.r_g, state.dhat)] == before

    @pytest.mark.parametrize("scale", [1e-8, 1e-6])
    def test_cancelling_unit_weight_append_is_refactored(self, monkeypatch,
                                                         scale):
        # lv_new = L V a + scale r leaves rho^2 = ||lv_new||^2 - ||s||^2 to
        # roundoff (1e-8), or accurate to about 1e-3 only (1e-6, where the
        # computed rho^2 is surely positive), so the grown factor is dropped
        # and the next set_weights refactors L V by Householder
        rng = np.random.default_rng(21)
        q, k = 40, 6
        lv = rng.standard_normal((q, k))
        state = dense_state(rng.standard_normal((35, 30)),
                            rng.standard_normal(35), np.eye(30, k), lv,
                            capacity=k + 1)
        calls = count_dgeqrt(monkeypatch)
        state.set_weights(None)
        lv_new = lv @ rng.standard_normal(k) + scale * rng.standard_normal(q)
        state.append_direction(np.eye(30)[:, k], lv_new)
        state.set_weights(None)
        assert calls == [2]
        ref = np.linalg.qr(state.lv, mode="r")
        np.testing.assert_allclose(np.abs(state.r_l), np.abs(ref), rtol=0,
                                   atol=1e-12 * np.abs(ref).max())

    def test_singular_unit_weight_factor_is_refactored(self, monkeypatch):
        # a zero column of L V leaves a zero on the diagonal of R_L, which
        # cannot take a new column; the append must not raise, and the next
        # set_weights refactors
        rng = np.random.default_rng(24)
        lv = rng.standard_normal((20, 4))
        lv[:, 2] = 0.0
        state = dense_state(rng.standard_normal((15, 10)),
                            rng.standard_normal(15), np.eye(10, 4), lv,
                            capacity=5)
        calls = count_dgeqrt(monkeypatch)
        state.set_weights(None)
        assert state.r_l[2, 2] == 0.0
        state.append_direction(np.eye(10)[:, 4], rng.standard_normal(20))
        state.set_weights(None)
        assert calls == [2]
        assert state.r_l.shape == (5, 5)
        assert_gram_matches(state.r_l, state.lv, 1e-13)

    @pytest.mark.parametrize("q", [0, 4, 8])
    def test_short_or_empty_l_v_factors_at_unit_weights(self, monkeypatch,
                                                        q):
        # R_L grows only while L V has a row for the new diagonal entry
        # (q > k): with k = 7, q = 8 takes one append and refactors at the
        # second; q = 4 and q = 0 refactor at every set_weights
        rng = np.random.default_rng(22)
        k = 7
        state = dense_state(rng.standard_normal((30, 20)),
                            rng.standard_normal(30), np.eye(20, k),
                            rng.standard_normal((q, k)), capacity=k + 3)
        calls = count_dgeqrt(monkeypatch)
        state.set_weights(None)
        for j in range(k, k + 3):
            lv_new = rng.standard_normal(q)
            if q > j:
                # a column orthogonal to L V, whose rho is its norm
                lv_new = np.linalg.qr(state.lv, mode="complete")[0][:, -1]
            state.append_direction(np.eye(20)[:, j], lv_new)
            state.set_weights(None)
            assert state.r_l.shape == (min(q, j + 1), j + 1)
            assert_gram_matches(state.r_l, state.lv, 1e-13)
        # dgeqrt skips a factor with no rows
        assert calls == [{0: 0, 4: 4, 8: 3}[q]]


class TestTallKernels:
    # block 4 up to 64 columns, block 32 above
    @pytest.mark.parametrize("shape", [(0, 3), (2, 5), (4032, 1), (4032, 40),
                                       (300, 65), (1023, 512)])
    def test_r_factor_matches_numpy_qr(self, shape):
        a = np.random.default_rng(16).standard_normal(shape)
        ref = np.linalg.qr(a, mode="r")
        r = gcv._r_factor(np.asfortranarray(a))
        assert r.shape == ref.shape
        np.testing.assert_allclose(np.abs(r), np.abs(ref), rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max(initial=1))

    @pytest.mark.parametrize("shape", [(40, 13), (50, 2), (9, 9), (3, 7)],
                             ids=["tall", "one_column", "square", "wide"])
    def test_factor_with_data_matches_the_pair(self, shape):
        # [A, d] = Q [[R_A, dhat], [0, rho]]: R_A factors A^T A, R_A^T dhat
        # = A^T d and ||A z - d||^2 = ||R_A z - dhat||^2 + o for every z;
        # o = rho^2 needs a row below R_A (the square seed has one, the
        # wide pair none)
        rng = np.random.default_rng(sum(shape))
        pair = rng.standard_normal(shape)
        a, d = pair[:, :-1], pair[:, -1]
        r_a, dhat, outside = mmgks._factor_with_data(np.asfortranarray(pair))
        rows = min(shape[0], shape[1] - 1)
        assert r_a.shape == (rows, shape[1] - 1) and dhat.shape == (rows,)
        assert np.array_equal(r_a, np.triu(r_a))
        scale = np.linalg.norm(pair)**2
        assert np.linalg.norm(r_a.T @ r_a - a.T @ a) <= 1e-13 * scale
        assert np.linalg.norm(r_a.T @ dhat - a.T @ d) <= 1e-13 * scale
        if shape[0] < shape[1]:
            assert outside == 0.0
        else:
            rho2 = np.linalg.lstsq(a, d, rcond=None)[1][0]
            assert outside > 0 and abs(outside - rho2) <= 1e-13 * scale
        for z in rng.standard_normal((3, shape[1] - 1)):
            lhs = np.sum((a @ z - d)**2)
            rhs = np.sum((r_a @ z - dhat)**2) + outside
            assert abs(lhs - rhs) <= 1e-12 * max(lhs, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           near_span=st.lists(st.booleans(), min_size=1, max_size=12),
           extra_rows=st.integers(1, 30))
    def test_grown_factor_keeps_gram(self, seed, near_span, extra_rows):
        # columns A c + 1e-8 r leave rho^2 to roundoff, so _grow_factor
        # declines them and the caller refactors; the others, A c plus a
        # part outside range(A) at least as long, grow the factor, which
        # stays a Cholesky factor of A^T A
        rng = np.random.default_rng(seed)
        k0 = 3
        m = k0 + len(near_span) + extra_rows
        a = rng.standard_normal((m, k0))
        r = np.linalg.qr(a, mode="r")
        for near in near_span:
            col = rng.standard_normal(m)
            col -= a @ np.linalg.lstsq(a, col, rcond=None)[0]
            in_range = a @ rng.standard_normal(a.shape[1])
            if near:
                col = in_range + 1e-8 * col
            else:
                col = (col / np.linalg.norm(col) + rng.uniform()
                       * in_range / np.linalg.norm(in_range))
            grown = mmgks._grow_factor(r, m, a.T @ col, col @ col)
            assert (grown is None) is near
            a = np.column_stack([a, col])
            r = np.linalg.qr(a, mode="r") if near else grown
            assert r.shape == (a.shape[1],) * 2
            assert_gram_matches(r, a, 1e-13)

    @pytest.mark.parametrize("near_span, passes", [(False, 1), (True, 2)])
    def test_projection_passes_on_expansion(self, monkeypatch, near_span,
                                            passes):
        # an expansion vector far from span(V) is projected out of V by one
        # pass (two products with V); one that the first pass nearly
        # cancels by a second. With z = 0 and L = I the vector is
        # t - G^T d for the lvz = t passed in; the append reads G V, not V
        rng = np.random.default_rng(17)
        G = MatrixOperator(rng.standard_normal((50, 40)))
        L = as_regularizer(None, 40)
        d = rng.standard_normal(50)
        state = seeded(G, d, 6, L, capacity=7)
        gtd = state.gtd_norm
        t = rng.standard_normal(40)
        t -= state.v @ (state.v.T @ t)
        t *= 10 * gtd / np.linalg.norm(t)
        if near_span:
            t = state.v @ (gtd * rng.standard_normal(6)) + 1e-8 * t
        monkeypatch.setattr(CountingQ, "products", 0)
        state._v = state._v.view(CountingQ)
        assert expand_subspace(state, 1.0, None, L, gtd, np.zeros(6), t)
        assert CountingQ.products == 2 * passes
        state._v = np.asarray(state._v)
        assert state.k == 7
        assert np.abs(state.v[:, :6].T @ state.v[:, 6]).max() <= 1e-14

    @pytest.mark.parametrize("buffer", ["_v", "_gv", "_lv"])
    def test_append_takes_one_product_with_v_and_with_l_v(self, monkeypatch,
                                                          buffer):
        # growing R_G reads G V once, for (G V)^T g_new, and V not at all,
        # and growing R_L reads L V once, for (L V)^T lv_new; G is applied
        # once, into range coordinates
        rng = np.random.default_rng(23)
        G = MatrixOperator(rng.standard_normal((25, 18)))
        L = MatrixRegularizer(first_derivative_1d(18))
        d = rng.standard_normal(25)
        state = seeded(G, d, 4, L, capacity=5)
        state.set_weights(None)
        v_new = rng.standard_normal(18)
        v_new -= state.v @ (state.v.T @ v_new)
        v_new /= np.linalg.norm(v_new)
        lv_new = L.apply(v_new)
        calls = count_operator_calls(monkeypatch, G)
        monkeypatch.setattr(CountingQ, "products", 0)
        setattr(state, buffer, getattr(state, buffer).view(CountingQ))
        state.append_direction(v_new, lv_new)
        setattr(state, buffer, np.asarray(getattr(state, buffer)))
        assert CountingQ.products == (buffer != "_v")
        assert calls == Counter(apply_rep=1)
        state.set_weights(None)
        assert state.r_l.shape == (5, 5)
        assert_gram_matches(state.r_l, state.lv, 1e-13)
        assert_data_factors(state, G.a, d, 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           near_span=st.lists(st.booleans(), min_size=1, max_size=12),
           extra_rows=st.integers(1, 30))
    def test_unit_weight_factor_keeps_gram_and_cosines(self, seed, near_span,
                                                       extra_rows):
        # random appends, some of them nearly in range(L V): R_L stays a
        # Cholesky factor of (L V)^T L V, and the projected pair has the
        # generalized cosines of the Householder factor of L V
        rng = np.random.default_rng(seed)
        k0 = 3
        k = k0 + len(near_span)
        q = k + extra_rows
        state = dense_state(rng.standard_normal((k + 5, k + 5)),
                            rng.standard_normal(k + 5), np.eye(k + 5, k0),
                            rng.standard_normal((q, k0)), capacity=k)
        state.set_weights(None)
        for j, near in enumerate(near_span, start=k0):
            lv_new = rng.standard_normal(q)
            if near:
                lv_new = state.lv @ rng.standard_normal(j) + 1e-8 * lv_new
            state.append_direction(np.eye(k + 5)[:, j], lv_new)
            state.set_weights(None)
        assert state.r_l.shape == (k, k)
        assert_gram_matches(state.r_l, state.lv, 1e-13)
        ref = np.linalg.qr(state.lv, mode="r")
        np.testing.assert_allclose(thin_gsvd(state.r_g, state.r_l).c,
                                   thin_gsvd(state.r_g, ref).c, rtol=0,
                                   atol=1e-12)

    def test_thin_qrs_run_no_numpy_qr(self, monkeypatch):
        # the seed in init_gks, R_L at unit weights and the stacked pair run
        # the blocked dgeqrt, and none of them overwrites the products it
        # factors
        rng = np.random.default_rng(18)
        G = MatrixOperator(rng.standard_normal((25, 18)))
        L = MatrixRegularizer(first_derivative_1d(18))
        d = rng.standard_normal(25)
        calls = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            calls.append(1)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        state = seeded(G, d, 4, L, capacity=6)
        products = [x.tobytes() for x in (state.v, state.lv, state.gv,
                                          state.r_g, state.dhat)]
        state.set_weights(None)
        thin_gsvd(state.r_g, state.r_l)
        assert calls == []
        assert [x.tobytes() for x in (state.v, state.lv, state.gv,
                                      state.r_g, state.dhat)] == products
        assert_gram_matches(state.r_l, state.lv, 1e-13)


class TestExpandSubspace:
    def test_declines_at_exact_solution(self):
        rng = np.random.default_rng(7)
        G = MatrixOperator(rng.standard_normal((10, 6)))
        L = as_regularizer(None, 6)
        d = rng.standard_normal(10)
        eta = 0.5
        # saturate the subspace so the projected solve is the full-space one
        state = seeded(G, d, 6, L, capacity=7)
        state.set_weights(None)
        z = projected_solution(state, eta)
        grew = expand(state, z, eta, None, L)
        assert not grew

    def test_declines_when_the_basis_spans_the_space(self):
        # the gradient -G^T d at z = 0 is far from zero, but V spans R^4, so
        # Gram-Schmidt leaves nothing of it: the second stall exit
        rng = np.random.default_rng(10)
        G = MatrixOperator(rng.standard_normal((4, 4)))
        L = as_regularizer(None, 4)
        state = seeded(G, rng.standard_normal(4), 4, L, capacity=5)
        assert state.k == 4
        assert not expand_subspace(state, 1.0, None, L, state.gtd_norm,
                                   np.zeros(4), np.zeros(4))
        assert state.k == 4

    def test_new_direction_orthogonal(self):
        rng = np.random.default_rng(8)
        G = MatrixOperator(rng.standard_normal((25, 18)))
        L = as_regularizer(None, 18)
        d = rng.standard_normal(25)
        state = seeded(G, d, 5, L, capacity=6)
        state.set_weights(None)
        z = projected_solution(state, 0.1)
        assert expand(state, z, 0.1, None, L)
        k = state.k
        assert np.abs(state.v[:, :k - 1].T @ state.v[:, k - 1]).max() <= 1e-10

    def test_grown_data_factor_matches_fresh(self):
        # R_G and dhat grown by one column are the R factor of a fresh QR
        # of G V and Q^T d, up to the signs of the rows
        rng = np.random.default_rng(9)
        G = MatrixOperator(rng.standard_normal((25, 18)))
        L = as_regularizer(None, 18)
        d = rng.standard_normal(25)
        state = seeded(G, d, 5, L, capacity=6)
        state.set_weights(None)
        z = projected_solution(state, 0.1)
        expand(state, z, 0.1, None, L)
        q_fresh, r_fresh = np.linalg.qr(G.a @ state.v)
        signs = np.sign(np.diag(state.r_g)) * np.sign(np.diag(r_fresh))
        assert np.abs(state.r_g - signs[:, None] * r_fresh).max() <= 1e-10
        assert np.abs(state.dhat - signs * (q_fresh.T @ d)).max() <= 1e-10


class TestDataFactor:
    """R_G, dhat, G V and ||G^T d|| against dense products, seed and
    appends; the periodic blur holds G V and d in its range coordinates."""

    @pytest.mark.parametrize("family", ["matrix", "1d", "psf2d"])
    def test_invariants_after_seed_and_each_append(self, monkeypatch,
                                                   family):
        rng = np.random.default_rng(40)
        if family == "matrix":
            G = MatrixOperator(rng.standard_normal((40, 30)))
        elif family == "1d":
            G = GaussianBlur1D(1.5, 64)
        else:
            G = GaussianPsfBlur2D(PsfParams(1.5, 1.2, 0.8), (12, 12), 5,
                                  ConvBoundary.PERIODIC)
        a = G.dense()
        d = a @ rng.standard_normal(G.n) + 0.01 * rng.standard_normal(G.m)
        L = as_regularizer(None, G.n)
        refactors = count_data_refactors(monkeypatch, G.range_rep(d))
        state = seeded(G, d, 5, L, capacity=13)
        state.set_weights(None)
        assert_data_factors(state, a, d, 1e-10)
        for j in range(8):
            z = projected_solution(state, 1e-3)
            assert expand(state, z, 1e-3, None, L)
            state.set_weights(None)
            assert_data_factors(state, a, d, 1e-10, seed=j)
        assert state.k == 13
        assert refactors == [0]

    def test_refactor_when_image_nearly_in_range(self, monkeypatch):
        # G v_new = G V c + 1e-9 w: rho^2 is left to roundoff, so R_G and
        # dhat are refactored from the cached [G V, d]
        rng = np.random.default_rng(41)
        m, n, k = 30, 20, 5
        a = rng.standard_normal((m, n))
        d = rng.standard_normal(m)
        v = basis_spanning(a.T @ d, k + 2, rng)
        # a rank-one change that leaves A V alone and sets A v_new
        v_new = v[:, k]
        target = a @ v[:, :k] @ rng.standard_normal(k) \
            + 1e-9 * rng.standard_normal(m)
        a += np.outer(target - a @ v_new, v_new)
        state = dense_state(a, d, v[:, :k], v[:, :k], capacity=k + 2)
        refactors = count_data_refactors(monkeypatch, d)
        state.append_direction(v_new, v_new)
        assert refactors == [1]
        assert_data_factors(state, a, d, 1e-10)
        # the next, well-placed column grows the refactored R_G
        state.append_direction(v[:, k + 1], v[:, k + 1])
        assert refactors == [1]
        assert state.r_g.shape == (k + 2, k + 2)
        assert_data_factors(state, a, d, 1e-10, seed=1)

    def test_refactor_when_g_v_has_fewer_rows(self, monkeypatch):
        # m = 6 rows: the fifth column grows R_G, the sixth leaves
        # rho^2 = 0.043 ||G v_new||^2 and refactors it, and from then on R_G
        # has no row for rho, so each column refactors it to 6 x k; the
        # misfit stays exact. A refactor reads the cached G V and applies
        # G no more: each expansion applies G and G^T once
        rng = np.random.default_rng(42)
        m, n = 6, 20
        G = MatrixOperator(rng.standard_normal((m, n)))
        d = rng.standard_normal(m)
        L = MatrixRegularizer(first_derivative_1d(n))
        state = seeded(G, d, 4, L, capacity=10)
        refactors = count_data_refactors(monkeypatch, d)
        calls = count_operator_calls(monkeypatch, G)
        state.set_weights(None)
        for j in range(6):
            z = projected_solution(state, 0.1)
            assert expand(state, z, 0.1, None, L)
            state.set_weights(None)
            assert state.r_g.shape == (min(m, state.k), state.k)
            assert_data_factors(state, G.a, d, 1e-10, seed=j)
        assert refactors == [5]
        assert calls == Counter(apply_rep=6, adjoint_apply=6)


def majorant_value(x, v, G, d, L, lam, p, eps):
    """Quadratic tangent majorant at v, with its constant reconstructed."""
    u_v = L.dense() @ v
    w = (u_v**2 + eps**2) ** (p / 2 - 1)
    phi_v = (u_v**2 + eps**2) ** (p / 2)
    c = lam * float((phi_v - (p / 2) * w * u_v**2).sum())
    u_x = L.dense() @ x
    return (float(np.linalg.norm(G @ x - d) ** 2)
            + lam * (p / 2) * float((w * u_x**2).sum()) + c)


class TestMajorantProperties:
    def setup_method(self):
        rng = np.random.default_rng(10)
        self.G = rng.standard_normal((12, 9))
        self.d = rng.standard_normal(12)
        self.L = MatrixRegularizer(first_derivative_1d(9))
        self.lam, self.p, self.eps = 0.4, 1.0, 1e-2
        self.v = rng.standard_normal(9)

    def objective(self, x):
        return objective_value(self.G @ x - self.d, self.L.apply(x),
                               self.lam, self.p, self.eps)

    def test_tangency_value(self):
        q_at_v = majorant_value(self.v, self.v, self.G, self.d, self.L,
                                self.lam, self.p, self.eps)
        j_at_v = self.objective(self.v)
        assert q_at_v == pytest.approx(j_at_v, rel=1e-12)

    def test_tangency_gradient_by_finite_differences(self):
        h = 1e-6
        for j in range(9):
            e = np.zeros(9)
            e[j] = h
            dq = (majorant_value(self.v + e, self.v, self.G, self.d, self.L,
                                 self.lam, self.p, self.eps)
                  - majorant_value(self.v - e, self.v, self.G, self.d, self.L,
                                   self.lam, self.p, self.eps)) / (2 * h)
            dj = (self.objective(self.v + e)
                  - self.objective(self.v - e)) / (2 * h)
            assert dq == pytest.approx(dj, abs=1e-5 * max(1.0, abs(dj)))

    def test_domination(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = self.v + rng.standard_normal(9) * rng.uniform(0.01, 3.0)
            q = majorant_value(x, self.v, self.G, self.d, self.L,
                               self.lam, self.p, self.eps)
            j = self.objective(x)
            assert q >= j - 1e-10 * max(1.0, abs(j))


class TestMmgksSolve:
    def test_rejects_data_of_wrong_length(self):
        # numpy used to fail to broadcast shape (3,) into shape (4,)
        with pytest.raises(ValueError, match=r"length 4, the rows of G; got "
                                             r"shape \(3,\)"):
            mmgks_solve(np.eye(4), None, np.ones(3))

    def test_identity_closed_form(self):
        rng = np.random.default_rng(12)
        d = rng.standard_normal(10)
        cfg = MmgksConfig(p=2.0, eta=0.5, subspace_dim=3, max_iters=5,
                          tol=1e-12)
        res = mmgks_solve(np.eye(10), as_regularizer(None, 10), d, cfg)
        np.testing.assert_allclose(res.x, d / 1.5, rtol=1e-8)
        assert res.iterations <= 2

    def test_matches_dense_tikhonov_1d(self):
        prob = make_1d_problem(n=64, sigma_true=2.0, level=0.01, seed=0)
        G = prob.operator(prob.y_true).dense()
        L = MatrixRegularizer(first_derivative_1d(64))
        eta = 1e-2
        cfg = MmgksConfig(p=2.0, eta=eta, subspace_dim=10, max_iters=80,
                          tol=1e-14)
        res = mmgks_solve(G, L, prob.d, cfg)
        dense = np.linalg.solve(G.T @ G + eta * (L.dense().T @ L.dense()),
                                G.T @ prob.d)
        assert np.linalg.norm(res.x - dense) <= 1e-6 * np.linalg.norm(dense)

    @pytest.mark.parametrize("p", [2.0, 1.0, 0.8])
    def test_objective_monotone_for_fixed_eta(self, p):
        # ||d||^2 is about 1400 times the objective, so a misfit read as
        # ||d||^2 - ||dhat||^2 rose by 1e-12 relative on seeds 26 and 37
        L = MatrixRegularizer(first_derivative_1d(64))
        cfg = MmgksConfig(p=p, epsilon=1e-2, eta=5e-3, subspace_dim=10,
                          max_iters=60, tol=1e-16)
        rising = []
        for seed in range(40):
            prob = make_1d_problem(n=64, sigma_true=2.0, level=0.01,
                                   seed=seed)
            res = mmgks_solve(prob.operator(prob.y_true), L, prob.d, cfg)
            objs = np.array(res.objectives)
            if np.any(objs[1:] > objs[:-1] + 1e-12 * np.abs(objs[:-1])):
                rising.append(seed)
        assert rising == []

    def test_limit_point_satisfies_reweighted_normal_equations(self):
        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=2)
        G = prob.operator(prob.y_true).dense()
        L = MatrixRegularizer(first_derivative_1d(48))
        eta = 1e-2
        cfg = MmgksConfig(p=1.0, epsilon=1e-2, eta=eta, subspace_dim=10,
                          max_iters=400, tol=1e-14)
        res = mmgks_solve(G, L, prob.d, cfg)
        ld = L.dense()
        w = majorant_weights(ld @ res.x, 1.0, 1e-2)
        lhs = (G.T @ G + eta * ld.T @ (w[:, None] * ld)) @ res.x
        rhs = G.T @ prob.d
        assert np.linalg.norm(lhs - rhs) <= 1e-6 * np.linalg.norm(rhs)

    def test_gcv_auto_mode_runs(self):
        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=3)
        cfg = MmgksConfig(p=1.0, epsilon=1e-2, subspace_dim=8, max_iters=15,
                          tol=1e-8)
        res = mmgks_solve(prob.operator(prob.y_true),
                          as_regularizer(None, 48), prob.d, cfg)
        assert len(res.etas) == res.iterations
        assert all(eta > 0 for eta in res.etas)

    def test_basis_orthonormality_maintained(self):
        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=4)
        G = prob.operator(prob.y_true)
        L = as_regularizer(None, 48)
        d = prob.d
        state = seeded(G, d, 6, L, capacity=18)
        for _ in range(12):
            state.set_weights(None)
            z = projected_solution(state, 1e-3)
            if not expand(state, z, 1e-3, None, L):
                break
            gram = state.v.T @ state.v
            assert np.abs(gram - np.eye(state.k)).max() <= 1e-8

    def test_objectives_match_full_operators(self):
        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=5)
        G = prob.operator(prob.y_true)
        L = MatrixRegularizer(first_derivative_1d(48))
        p, eps = 1.0, 1e-2
        cfg = MmgksConfig(p=p, epsilon=eps, subspace_dim=6, max_iters=8,
                          tol=1e-16)
        res = mmgks_solve(G, L, prob.d, cfg)
        assert res.iterations == 8
        for i in range(res.iterations):
            # the run stopped after i + 1 iterations returns iterate i
            x_i = mmgks_solve(G, L, prob.d,
                              replace(cfg, max_iters=i + 1)).x
            full = objective_value(G.apply(x_i) - prob.d, L.apply(x_i),
                                   mm_lambda(res.etas[i], p), p, eps)
            assert res.objectives[i] == pytest.approx(full, rel=1e-10)

    @pytest.mark.parametrize("max_iters, tol, converged",
                             [(12, 1e-16, False), (40, 1e-2, True)])
    def test_operator_calls_per_expansion(self, monkeypatch, max_iters, tol,
                                          converged):
        # the bidiagonalization applies G and G^T ell times each and the
        # seed's G V = U B none; after that each expansion applies G^T once,
        # for the gradient, and G once, for the new column of G V (R_G is
        # not refactored here), and the last iteration does not expand,
        # whether or not the solve converged
        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=6)
        ell = 5
        G = MatrixOperator(prob.operator(prob.y_true).dense())
        calls = count_operator_calls(monkeypatch, G)
        cfg = MmgksConfig(p=1.0, epsilon=1e-2, subspace_dim=ell,
                          max_iters=max_iters, tol=tol)
        res = mmgks_solve(G, MatrixRegularizer(first_derivative_1d(48)),
                          prob.d, cfg)
        assert res.converged is converged
        expansions = res.subspace_dim - ell
        assert expansions == res.iterations - 1
        assert calls == Counter(apply_rep=ell + expansions,
                                adjoint_apply=ell + expansions)

    def test_stall_floor_scale_is_norm_of_adjoint_data(self, monkeypatch):
        # ||G^T d|| = ||d|| alpha_1, read off the bidiagonalization
        scales = []
        expand_orig = mmgks.expand_subspace

        def recording(state, eta, weights, L, grad_scale, *args):
            scales.append(grad_scale)
            return expand_orig(state, eta, weights, L, grad_scale, *args)

        monkeypatch.setattr(mmgks, "expand_subspace", recording)
        rng = np.random.default_rng(20)
        G = rng.standard_normal((30, 20))
        d = rng.standard_normal(30)
        mmgks_solve(G, first_derivative_1d(20), d,
                    MmgksConfig(p=1.0, subspace_dim=4, max_iters=5))
        assert len(scales) == 4
        np.testing.assert_allclose(scales, np.linalg.norm(G.T @ d),
                                   rtol=1e-13)

    def test_one_projected_factorization_per_iteration(self):
        # GCV and the projected solve read one thin GSVD; neither factors
        # the projected pair again by least squares or a CS decomposition
        calls = Counter()
        counted = ("thin_gsvd", "lstsq", "cossin")

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name in counted:
                calls[frame.f_code.co_name] += 1

        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=7)
        G = prob.operator(prob.y_true)
        L = MatrixRegularizer(first_derivative_1d(48))
        cfg = MmgksConfig(p=1.0, epsilon=1e-2, subspace_dim=5, max_iters=10,
                          tol=1e-16)
        sys.setprofile(profile)
        try:
            res = mmgks_solve(G, L, prob.d, cfg)
        finally:
            sys.setprofile(None)
        assert res.iterations == 10
        assert calls == Counter(thin_gsvd=res.iterations)

    @pytest.mark.parametrize("p, r_l_factors", [(2.0, 1), (1.0, 6)])
    def test_weighted_factor_work_per_solve(self, monkeypatch, p,
                                            r_l_factors):
        # the seed factors [B, ||d|| e_1] once, by the blocked kernel; unit
        # weights (p = 2) factor R_L once and grow it from L V, other
        # weights refactor R_L once per iteration, and every iteration
        # factors its stacked pair [R_G; R_L]. A GaussianBlur1D is used as
        # it is, and the objective reads the cached products, so no
        # operator is wrapped
        calls = Counter()
        dgeqrt_orig = gcv.dgeqrt

        def counting_dgeqrt(*args, **kwargs):
            calls["dgeqrt"] += 1
            return dgeqrt_orig(*args, **kwargs)

        class CountingMatrixOperator(MatrixOperator):
            def __init__(self, a):
                calls["MatrixOperator"] += 1
                super().__init__(a)

        monkeypatch.setattr(gcv, "dgeqrt", counting_dgeqrt)
        monkeypatch.setattr(mmgks, "MatrixOperator", CountingMatrixOperator)
        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=8)
        cfg = MmgksConfig(p=p, epsilon=1e-2, subspace_dim=5, max_iters=6,
                          tol=1e-16)
        res = mmgks_solve(prob.operator(prob.y_true),
                          MatrixRegularizer(first_derivative_1d(48)), prob.d,
                          cfg)
        assert res.iterations == 6
        assert calls == Counter(dgeqrt=1 + r_l_factors + res.iterations)

    def test_householder_runs_only_on_the_stacks(self, monkeypatch):
        # a p = 2 solve runs the one QR kernel on the seed [B, ||d|| e_1],
        # on L V once, and on one stacked pair [R_G; R_L] per iteration
        shapes = []
        r_factor_orig = gcv._r_factor

        def recording(a):
            shapes.append(a.shape)
            return r_factor_orig(a)

        monkeypatch.setattr(gcv, "_r_factor", recording)
        monkeypatch.setattr(mmgks, "_r_factor", recording)
        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=11)
        ell = 5
        L = MatrixRegularizer(first_derivative_1d(48))
        cfg = MmgksConfig(p=2.0, subspace_dim=ell, max_iters=6, tol=1e-16)
        res = mmgks_solve(prob.operator(prob.y_true), L, prob.d, cfg)
        assert res.iterations == 6
        stacks = [(2 * k, k) for k in range(ell, ell + 6)]
        assert shapes == [(ell + 1, ell + 1), (L.q, ell)] + stacks

    @pytest.mark.parametrize("family", ["1d", "psf2d"])
    def test_grown_factor_matches_refactoring_every_iteration(
            self, monkeypatch, family):
        # the oracle marks R_L stale before every set_weights, so each
        # iteration factors L V afresh by Householder
        if family == "1d":
            prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=12)
            L = MatrixRegularizer(first_derivative_1d(48))
        else:
            prob = make_blind_deconv_problem("grain", (3.0, 2.0, 0.5), 0.01,
                                             12, size=32)
            L = derivative_2d(1, 32)
        G = prob.operator(prob.y_true)
        cfg = MmgksConfig(p=2.0, subspace_dim=8, max_iters=30, tol=1e-8)
        grown = mmgks_solve(G, L, prob.d, cfg)
        set_orig = GksState.set_weights

        def refactoring(self, w):
            self._grows = False
            set_orig(self, w)

        monkeypatch.setattr(GksState, "set_weights", refactoring)
        fresh = mmgks_solve(G, L, prob.d, cfg)
        assert grown.iterations == fresh.iterations
        assert np.linalg.norm(grown.x - fresh.x) <= 1e-10 * np.linalg.norm(
            fresh.x)

    def test_expansion_direction_does_not_cancel(self, monkeypatch):
        # the setup of the [1d] case above. Near convergence ||r|| falls to
        # 1.6e-9 ||G^T d||. The gradient formed as G^T G V z - G^T d put an
        # error of about eps ||G^T d|| into the new column, 8.4e-8 of ||r||
        # there; G^T (G V z - d) puts its error through G^T, mostly into
        # span(V), which the projection removes: 1.1e-10 of ||r|| there,
        # as against an exact rational reference, and less elsewhere
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("the reference needs an extended long double")
        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=12)
        L = MatrixRegularizer(first_derivative_1d(48))
        G = prob.operator(prob.y_true)
        ext = np.longdouble
        g, l_mat = G.dense().astype(ext), L.dense().astype(ext)
        expand_orig = mmgks.expand_subspace
        rows = []

        def checking(state, eta, weights, L_, grad_scale, z, lvz):
            v = state.v.astype(ext)
            grew = expand_orig(state, eta, weights, L_, grad_scale, z, lvz)
            x = v @ z.astype(ext)
            r = g.T @ (g @ x - prob.d) + ext(eta) * (l_mat.T @ (l_mat @ x))
            r_perp = r
            for _ in range(2):
                r_perp = r_perp - v @ (v.T @ r_perp)
            scale = np.sqrt(r_perp @ r_perp)
            err = state.v[:, -1] * scale - r_perp
            rows.append((float(np.sqrt(err @ err) / np.sqrt(r @ r)),
                         float(np.sqrt(r @ r) / grad_scale)))
            return grew

        monkeypatch.setattr(mmgks, "expand_subspace", checking)
        res = mmgks_solve(G, L, prob.d, MmgksConfig(p=2.0, subspace_dim=8,
                                                    max_iters=30, tol=1e-8))
        errors, ratios = np.array(rows).T
        assert len(rows) == res.iterations - 1 == 29
        assert ratios.min() < 1e-8
        assert errors.max() <= 1e-9

    @pytest.mark.parametrize("p", [2.0, 1.0])
    def test_periodic_solve_fft_count(self, monkeypatch, p):
        # the seed takes one FFT for the range coordinates of d and one per
        # apply and adjoint of the bidiagonalization, with no G^T G V; each
        # expansion one for G^T (G V z - d) and one for G v_new
        prob = make_blind_deconv_problem("grain", (3.0, 2.0, 0.5), 0.01, 0,
                                         size=16, psf_size=7)
        G = prob.operator(prob.y_true)
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2",
                     "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
            def counting(*args, _name=name,
                         _orig=getattr(operators.sfft, name), **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(operators.sfft, name, counting)
        ell = 6
        res = mmgks_solve(G, derivative_2d(1, 16), prob.d,
                          MmgksConfig(p=p, subspace_dim=ell, max_iters=9,
                                      tol=1e-16))
        assert res.iterations == 9
        assert len(calls) == 1 + 2 * ell + 2 * (res.iterations - 1)

    def test_one_regularizer_apply_per_basis_column(self):
        # L is applied to the ell seed columns and to each expansion vector,
        # never to the zero first iterate; every iteration but the last
        # expands
        class CountingRegularizer(MatrixRegularizer):
            applies = 0

            def apply(self, x):
                self.applies += 1
                return super().apply(x)

        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=9)
        ell = 5
        for p in (2.0, 1.0):
            L = CountingRegularizer(first_derivative_1d(48))
            cfg = MmgksConfig(p=p, epsilon=1e-2, subspace_dim=ell,
                              max_iters=8, tol=1e-16)
            res = mmgks_solve(prob.operator(prob.y_true), L, prob.d, cfg)
            expansions = res.subspace_dim - ell
            assert expansions == res.iterations - 1 == 7
            assert L.applies == ell + expansions

    @pytest.mark.parametrize("tol, converged", [(1e-16, False), (1e-2, True)])
    def test_solution_is_basis_times_last_coefficients(self, monkeypatch,
                                                       tol, converged):
        # x is formed once, from the last projected solution; the basis has
        # no column past it, with or without convergence
        seen = {}
        init_orig, solve_orig = mmgks.init_gks, mmgks.project_and_solve

        def recording_init(*args, **kwargs):
            seen["state"] = init_orig(*args, **kwargs)
            return seen["state"]

        def recording_solve(*args, **kwargs):
            seen["z"] = solve_orig(*args, **kwargs)
            return seen["z"]

        monkeypatch.setattr(mmgks, "init_gks", recording_init)
        monkeypatch.setattr(mmgks, "project_and_solve", recording_solve)
        prob = make_1d_problem(n=48, sigma_true=2.0, level=0.01, seed=10)
        cfg = MmgksConfig(p=1.0, epsilon=1e-2, subspace_dim=5, max_iters=12,
                          tol=tol)
        res = mmgks_solve(prob.operator(prob.y_true),
                          MatrixRegularizer(first_derivative_1d(48)), prob.d,
                          cfg)
        assert res.converged is converged
        z, state = seen["z"], seen["state"]
        assert state.k == z.size
        np.testing.assert_array_equal(res.x, state.v[:, :z.size] @ z)

    def test_zero_data_returns_zero_without_iterating(self):
        res = mmgks_solve(np.eye(6), as_regularizer(None, 6), np.zeros(6))
        assert res.iterations == 0 and res.converged and res.subspace_dim == 0
        np.testing.assert_array_equal(res.x, np.zeros(6))

    @pytest.mark.parametrize("eta", [None, 0.1])
    def test_data_orthogonal_to_range_returns_zero(self, eta):
        # G^T d = 0 with d != 0: Golub-Kahan stops at its first step, and
        # x = 0 minimizes ||G x||^2 + ||d||^2 + lam phi(L x); this used to
        # raise "bidiagonalization broke down immediately"
        G = MatrixOperator(np.array([[1.0, 0.0], [0.0, 0.0]]))
        res = mmgks_solve(G, None, np.array([0.0, 1.0]),
                          MmgksConfig(p=1.0, eta=eta))
        assert res.iterations == 0 and res.converged and res.subspace_dim == 0
        assert res.etas == [] and res.objectives == []
        np.testing.assert_array_equal(res.x, np.zeros(2))

    @pytest.mark.parametrize("wrap", [False, True])
    def test_rejects_regularizer_of_wrong_width(self, wrap):
        # a 47 x 48 L on 64 unknowns used to fail inside a matrix product
        prob = make_1d_problem(n=64, sigma_true=2.0, level=0.01, seed=0)
        L = first_derivative_1d(48)
        with pytest.raises(ValueError, match="acts on 48 unknowns, but the "
                                             "problem has 64"):
            mmgks_solve(prob.operator(prob.y_true),
                        MatrixRegularizer(L) if wrap else L, prob.d)

    def test_config_validation(self):
        # a NaN or negative tol never converged, and a NaN epsilon at p = 1
        # ended in a failed SVD, as did epsilon = 0 at p = 1.5
        for kwargs in ({"p": 2.5}, {"p": 0.9, "epsilon": 0.0},
                       {"p": 1.5, "epsilon": 0.0}, {"tol": np.nan},
                       {"tol": -1.0}, {"p": 1.0, "epsilon": np.nan},
                       {"subspace_dim": 2.5},
                       {"max_iters": 3.5}, {"max_iters": np.nan},
                       {"subspace_dim": np.inf}):
            with pytest.raises(ValueError):
                MmgksConfig(**kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_data_not_finite(self, bad):
        # a NaN used to end in a failed SVD, an inf in a RuntimeWarning
        d = np.ones(10)
        d[3] = bad
        with pytest.raises(ValueError, match="data d must be finite"):
            mmgks_solve(np.eye(10), None, d)

    @pytest.mark.parametrize("eta", [0.0, -1.0, np.nan, np.inf])
    def test_config_rejects_eta_not_finite_and_positive(self, eta):
        # refused at construction, before any Golub-Kahan step runs
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            MmgksConfig(eta=eta)

    @pytest.mark.parametrize("factor", [1e-20, 1e20])
    def test_p2_solve_does_not_depend_on_the_data_scale(self, factor):
        # the breakdown test reads a scale of G and the expansion floor
        # scales with ||G^T d||, so x scales with d and GCV picks the same
        # etas up to roundoff, however small or large d is
        prob = make_1d_problem(n=64, sigma_true=2.0, level=0.01, seed=0)
        op = prob.operator(prob.y_true)
        L = MatrixRegularizer(first_derivative_1d(64))
        cfg = MmgksConfig(p=2.0, max_iters=8)
        ref = mmgks_solve(op, L, prob.d, cfg)
        scaled = mmgks_solve(op, L, factor * prob.d, cfg)
        assert scaled.iterations == ref.iterations == 8
        np.testing.assert_allclose(scaled.etas, ref.etas, rtol=1e-11)
        assert (np.linalg.norm(scaled.x / factor - ref.x)
                <= 1e-12 * np.linalg.norm(ref.x))

    @pytest.mark.parametrize("field", ["max_iters", "subspace_dim"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_config_rejects_counts_below_one(self, field, value):
        # max_iters = 0 would return x = 0 unsolved, and subspace_dim = 0
        # would fail only later, inside golub_kahan
        with pytest.raises(ValueError, match="at least 1"):
            MmgksConfig(**{field: value})
