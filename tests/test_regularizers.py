import numpy as np
import pytest
from scipy import sparse

from lpvarpro.regularizers import (as_regularizer, derivative_2d,
                                   first_derivative_1d, framelet_analysis_2d,
                                   second_derivative_1d)


def printed_framelet_filters(n):
    """The three displayed filter matrices, assembled directly row by row."""
    w0 = np.zeros((n, n))
    w1 = np.zeros((n, n))
    w2 = np.zeros((n, n))
    for i in range(1, n - 1):
        w0[i, i - 1:i + 2] = [1, 2, 1]
        w1[i, i - 1:i + 2] = [-1, 0, 1]
        w2[i, i - 1:i + 2] = [-1, 2, -1]
    w0[0, :2] = [3, 1]
    w0[-1, -2:] = [1, 3]
    w1[0, :2] = [-1, 1]
    w1[-1, -2:] = [-1, 1]
    w2[0, :2] = [1, -1]
    w2[-1, -2:] = [-1, 1]
    return w0 / 4.0, np.sqrt(2) / 4.0 * w1, w2 / 4.0


class TestFirstDerivative1d:
    def test_annihilates_constants(self):
        L = first_derivative_1d(9)
        np.testing.assert_array_equal(L @ np.full(9, 3.7), np.zeros(8))

    def test_ramp_gives_minus_ones(self):
        L = first_derivative_1d(7)
        np.testing.assert_array_equal(L @ np.arange(7.0), -np.ones(6))

    def test_displayed_stencil_n4(self):
        expected = np.array([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]],
                            dtype=float)
        np.testing.assert_array_equal(first_derivative_1d(4).toarray(), expected)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            first_derivative_1d(1)


class TestSecondDerivative1d:
    def test_annihilates_affine(self):
        L = second_derivative_1d(9)
        x = 0.3 * np.arange(9.0) + 1.1
        np.testing.assert_allclose(L @ x, np.zeros(7), atol=1e-14)

    def test_impulse_response(self):
        L = second_derivative_1d(5)
        np.testing.assert_array_equal(L @ np.array([0., 0., 1., 0., 0.]),
                                      np.array([-1., 2., -1.]))

    def test_displayed_stencil_n4(self):
        expected = np.array([[-1, 2, -1, 0], [0, -1, 2, -1]], dtype=float)
        np.testing.assert_array_equal(second_derivative_1d(4).toarray(), expected)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            second_derivative_1d(2)


class TestDerivative2d:
    def test_annihilates_constant_image(self):
        L = as_regularizer(derivative_2d(1, 6), 36)
        np.testing.assert_array_equal(L.apply(np.full(36, 2.2)),
                                      np.zeros(L.q))

    def test_matches_dense_kronecker_sum(self):
        rng = np.random.default_rng(0)
        eye = np.eye(8)
        for order in (1, 2):
            L = as_regularizer(derivative_2d(order, 8), 64)
            d = (first_derivative_1d if order == 1
                 else second_derivative_1d)(8).toarray()
            dense = np.kron(d, eye) + np.kron(eye, d)
            np.testing.assert_array_equal(L.dense(), dense)
            x = rng.standard_normal(64)
            np.testing.assert_allclose(L.apply(x), dense @ x, atol=1e-12)
            u = rng.standard_normal(L.q)
            np.testing.assert_allclose(L.adjoint_apply(u), dense.T @ u,
                                       atol=1e-12)

    @pytest.mark.parametrize("n", [3, 16])
    @pytest.mark.parametrize("order", [1, 2])
    def test_cached_read_only_csr_kronecker_sum(self, order, n):
        # the matrix is kept for the next call, so an edit in place would
        # change every later problem that asks for it
        mat = derivative_2d(order, n)
        d = (first_derivative_1d if order == 1 else second_derivative_1d)(n)
        eye = sparse.eye_array(n)
        ref = sparse.kron(d, eye) + sparse.kron(eye, d)
        assert sparse.issparse(mat) and mat.format == "csr"
        assert mat.shape == ref.shape and (mat != ref).nnz == 0
        assert derivative_2d(order, n) is mat
        before = mat.toarray()
        for edit in (lambda: mat.data.__setitem__(0, 5.0),
                     lambda: mat.__imul__(2.0),
                     lambda: mat.__setitem__((0, 0), 5.0),
                     lambda: mat.indices.__setitem__(0, 1)):
            with pytest.raises(ValueError, match="read-only"):
                edit()
        np.testing.assert_array_equal(derivative_2d(order, n).toarray(),
                                      before)

    def test_vertical_edge_localized(self):
        n = 8
        img = np.zeros((n, n))
        img[:, 4:] = 1.0
        out = derivative_2d(1, n) @ img.ravel()
        # the row-difference part is zero; the column-difference part is
        # supported only at the edge column
        row_part = (first_derivative_1d(n) @ img).ravel()
        assert np.all(row_part == 0.0)
        col_part = np.asarray(img @ first_derivative_1d(n).T.toarray())
        nz_cols = np.unique(np.nonzero(col_part)[1])
        np.testing.assert_array_equal(nz_cols, [3])
        assert np.count_nonzero(out) == n

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            derivative_2d(3, 8)
        with pytest.raises(ValueError):
            derivative_2d(1, 2)


class TestFramelet2d:
    def test_tight_frame_identity(self):
        rng = np.random.default_rng(1)
        W = as_regularizer(framelet_analysis_2d(16), 16 * 16)
        for _ in range(25):
            x = rng.standard_normal(W.n)
            back = W.adjoint_apply(W.apply(x))
            assert np.abs(back - x).max() <= 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        W = as_regularizer(framelet_analysis_2d(12), 12 * 12)
        for _ in range(10):
            x = rng.standard_normal(W.n)
            assert abs(np.linalg.norm(W.apply(x)) - np.linalg.norm(x)) <= 1e-12

    def test_dense_matches_printed_kronecker_blocks(self):
        n = 4
        W = as_regularizer(framelet_analysis_2d(n), n * n)
        w0, w1, w2 = printed_framelet_filters(n)
        expected = np.vstack([np.kron(a, b)
                              for a in (w0, w1, w2)
                              for b in (w0, w1, w2)])
        np.testing.assert_allclose(W.dense(), expected, atol=1e-15)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(n * n)
        np.testing.assert_allclose(W.apply(x), expected @ x, atol=1e-13)
        u = rng.standard_normal(W.q)
        np.testing.assert_allclose(W.adjoint_apply(u), expected.T @ u,
                                   atol=1e-13)

    def test_output_dimension(self):
        W = framelet_analysis_2d(8)
        assert sparse.issparse(W) and W.format == "csr"
        assert W.shape == (9 * 64, 64)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            framelet_analysis_2d(2)


class TestAdjointConsistency:
    @pytest.mark.parametrize("make", [
        lambda: as_regularizer(None, 30),
        lambda: as_regularizer(derivative_2d(1, 7), 7 * 7),
        lambda: as_regularizer(derivative_2d(2, 7), 7 * 7),
        lambda: as_regularizer(framelet_analysis_2d(7), 7 * 7),
    ])
    def test_inner_product_identity(self, make):
        rng = np.random.default_rng(5)
        L = make()
        for _ in range(50):
            x = rng.standard_normal(L.n)
            u = rng.standard_normal(L.q)
            gap = abs(L.apply(x) @ u - x @ L.adjoint_apply(u))
            assert gap <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(u)


class TestNullSpaces:
    def test_constants_in_null_of_first_derivative(self):
        assert np.all(derivative_2d(1, 9) @ np.full(81, 1.23) == 0.0)

    def test_affine_images_in_null_of_second_derivative(self):
        n = 9
        ii, jj = np.meshgrid(np.arange(n, dtype=float),
                             np.arange(n, dtype=float), indexing="ij")
        img = 0.5 * ii + 0.25 * jj + 2.0
        np.testing.assert_allclose(derivative_2d(2, n) @ img.ravel(),
                                   np.zeros(n * (n - 2)), atol=1e-13)

    @pytest.mark.parametrize("order, dim", [(1, 8), (2, 16)])
    def test_kronecker_sum_null_space_dimension(self, order, dim):
        # a discrete gradient has only the constant images in its null
        # space; the Kronecker sum pairs differences of different pixels
        dense = derivative_2d(order, 8).toarray()
        assert dense.shape[1] - np.linalg.matrix_rank(dense) == dim


class TestAsRegularizer:
    def test_nested_list_matrix(self):
        # a list used to raise AttributeError: no attribute 'shape'
        L = as_regularizer([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]], 3)
        assert (L.q, L.n) == (2, 3)
        np.testing.assert_array_equal(L.apply(np.array([1.0, 3.0, 6.0])),
                                      [-2.0, -3.0])

    @pytest.mark.parametrize("mat", [np.ones(3), np.ones((1, 3, 3)),
                                     sparse.coo_array(np.ones(3))])
    def test_rejects_matrix_not_2d(self, mat):
        # a 1-D array used to fail unpacking its shape
        with pytest.raises(ValueError, match=r"must be 2-D, got shape \("):
            as_regularizer(mat, 3)


# each factory by name; the identity is the one that as_regularizer wraps
FACTORIES = {"identity": lambda n: as_regularizer(None, n).mat,
             "first": first_derivative_1d, "second": second_derivative_1d,
             "framelet": framelet_analysis_2d,
             "kron1": lambda n: derivative_2d(1, n),
             "kron2": lambda n: derivative_2d(2, n)}


@pytest.mark.parametrize("kind, n", [
    ("identity", 5), ("identity", 40), ("first", 5), ("first", 40),
    ("second", 5), ("second", 40), ("framelet", 3), ("framelet", 9),
    ("kron1", 16), ("kron1", 64), ("kron2", 16), ("kron2", 64)])
def test_adjoint_equals_the_transpose_product_bytewise(kind, n):
    # the adjoint multiplies by a CSR copy of the transpose; both sum each
    # output over the rows of the matrix in ascending order, signed zeros
    # of u included
    mat = FACTORIES[kind](n)
    L = as_regularizer(mat, mat.shape[1])
    u = np.random.default_rng(n).standard_normal(L.q)
    u[::3], u[1::4] = 0.0, -0.0
    assert L.adjoint_apply(u).tobytes() == (mat.T @ u).tobytes()


@pytest.mark.parametrize("kind, n", [("first", 10), ("second", 10),
                                     ("framelet", 8), ("kron1", 8),
                                     ("identity", 4)])
def test_sizes_must_be_whole_numbers(kind, n):
    # 8.5 used to build an 8 x 8 operator, and 10.0 failed inside scipy
    make = FACTORIES[kind]
    with pytest.raises(ValueError, match=rf"n must be a whole number, got "
                                         rf"{n}\.5"):
        make(n + 0.5)
    whole, as_float = make(n), make(float(n))
    assert whole.shape == as_float.shape and (whole != as_float).nnz == 0
