"""Property tests of the operators, the regularizers and the majorant.

Each property is drawn at random sizes and parameters: adjointness and the
dense assembly of every regularizer factory, the tight frame, the adjoint
pair of derivative actions of both blurs, and the domination of the
tangent majorant whose weights ``majorant_weights`` gives.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvarpro.mmgks import majorant_weights
from lpvarpro.operators import (ConvBoundary, GaussianBlur1D,
                                GaussianPsfBlur2D, PsfParams)
from lpvarpro.regularizers import (as_regularizer, derivative_2d,
                                   first_derivative_1d, framelet_analysis_2d,
                                   second_derivative_1d)

PROPERTY = settings(max_examples=40, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)


def regularizer(kind, n):
    """The regularizer of factory ``kind`` at size n, as a Regularizer."""
    if kind == "first":
        return as_regularizer(first_derivative_1d(n), n)
    if kind == "second":
        return as_regularizer(second_derivative_1d(n), n)
    if kind == "framelet":
        return as_regularizer(framelet_analysis_2d(n), n * n)
    return as_regularizer(derivative_2d({"kron1": 1, "kron2": 2}[kind], n),
                          n * n)


def assert_adjoint(forward, adjoint, x, u):
    """<forward x, u> = <x, adjoint u> to roundoff."""
    gap = abs(forward(x) @ u - x @ adjoint(u))
    assert gap <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(u) * (
        1 + np.sqrt(x.size + u.size))


@PROPERTY
@given(kind=st.sampled_from(["first", "second", "kron1", "kron2",
                             "framelet"]),
       n=st.integers(3, 12), seed=SEEDS)
def test_regularizer_adjoint_and_dense(kind, n, seed):
    L = regularizer(kind, n)
    rng = np.random.default_rng(seed)
    x, u = rng.standard_normal(L.n), rng.standard_normal(L.q)
    assert_adjoint(L.apply, L.adjoint_apply, x, u)
    dense = L.dense()
    assert dense.shape == (L.q, L.n)
    # entries of at most 2 in at most 9 terms a row
    np.testing.assert_allclose(dense @ x, L.apply(x), rtol=0,
                               atol=1e-13 * np.abs(x).max())


@PROPERTY
@given(n=st.integers(3, 16), seed=SEEDS)
def test_framelet_is_a_tight_frame(n, seed):
    W = regularizer("framelet", n)
    x = np.random.default_rng(seed).standard_normal(n * n)
    back = W.adjoint_apply(W.apply(x))
    assert np.abs(back - x).max() <= 1e-12 * np.abs(x).max()


@PROPERTY
@given(sigma=st.floats(0.3, 6.0), n=st.integers(2, 40), seed=SEEDS)
def test_blur_1d_derivative_actions_are_adjoint(sigma, n, seed):
    op = GaussianBlur1D(sigma, n)
    rng = np.random.default_rng(seed)
    x, v = rng.standard_normal(n), rng.standard_normal(n)
    assert_adjoint(lambda x: op.derivative_apply(0, x),
                   lambda v: op.derivative_adjoint_apply(0, v), x, v)


@st.composite
def psf_params(draw):
    """(sigma1, sigma2, rho) with a positive definite covariance."""
    s1, s2 = draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0))
    # rho^4 below 0.9 sigma1^2 sigma2^2 keeps delta away from 0
    rho = draw(st.floats(-1.0, 1.0)) * (0.9 * s1 * s1 * s2 * s2) ** 0.25
    return PsfParams(s1, s2, rho)


@PROPERTY
@given(params=psf_params(), boundary=st.sampled_from(list(ConvBoundary)),
       n=st.integers(7, 14), psf_size=st.sampled_from([3, 5, 7]),
       j=st.integers(0, 2), seed=SEEDS)
def test_blur_2d_derivative_actions_are_adjoint(params, boundary, n,
                                                psf_size, j, seed):
    op = GaussianPsfBlur2D(params, (n, n), psf_size, boundary)
    rng = np.random.default_rng(seed)
    x, v = rng.standard_normal(op.n), rng.standard_normal(op.m)
    assert_adjoint(lambda x: op.derivative_apply(j, x),
                   lambda v: op.derivative_adjoint_apply(j, v), x, v)


@PROPERTY
@given(p=st.floats(0.0, 2.0, exclude_min=True),
       epsilon=st.floats(1e-3, 1.0), u=st.floats(-100.0, 100.0),
       u0=st.floats(-100.0, 100.0), h=st.floats(-0.01, 0.01))
def test_majorant_dominates_and_touches(p, epsilon, u, u0, h):
    # phi(u) = (u^2 + eps^2)^(p/2) is concave in u^2 for p <= 2, so its
    # tangent in u^2 at u0^2 lies above it and meets it at u = +-u0; only
    # the tangent slope dominates at u = (1 + h) u0 near u0 as well
    def phi(t):
        return (t * t + epsilon * epsilon) ** (p / 2.0)

    w = majorant_weights(np.array([u0]), p, epsilon)[0]

    def majorant(t):
        return phi(u0) + 0.5 * p * w * (t * t - u0 * u0)

    def roundoff(t):
        return 1e-13 * (phi(u0) + 0.5 * p * w * (t * t + u0 * u0))

    for t in (u, (1.0 + h) * u0):
        assert phi(t) <= majorant(t) + roundoff(t)
    for t in (u0, -u0):
        assert abs(majorant(t) - phi(t)) <= roundoff(t)
