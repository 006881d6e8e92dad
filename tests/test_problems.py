from dataclasses import replace

import numpy as np
import pytest

from lpvarpro import operators, problems
from lpvarpro.operators import (ConvBoundary, GaussianBlur1D,
                                GaussianPsfBlur2D, PsfParams)
from lpvarpro.problems import (add_noise, make_1d_problem,
                               make_blind_deconv_problem, piecewise_signal)
from lpvarpro.regularizers import as_regularizer
from lpvarpro.varpro import rre, tik_solve


def grain_image_full_grid(n):
    """The grain texture with every ellipse tested on the full n x n grid."""
    rng = np.random.default_rng(170915)
    ii, jj = np.meshgrid(np.arange(n, dtype=float),
                         np.arange(n, dtype=float), indexing="ij")
    img = np.full((n, n), 0.06)
    count = max(24, (n * n) // 110)
    for _ in range(count):
        ci, cj = rng.uniform(0, n, size=2)
        a = rng.uniform(0.020, 0.055) * n
        b = rng.uniform(0.012, 0.040) * n
        theta = rng.uniform(0, np.pi)
        val = rng.uniform(0.35, 1.0)
        du, dv = ii - ci, jj - cj
        uu = du * np.cos(theta) + dv * np.sin(theta)
        vv = -du * np.sin(theta) + dv * np.cos(theta)
        img[(uu / a) ** 2 + (vv / b) ** 2 <= 1.0] = val
    return img


class TestAddNoise:
    def test_zero_level(self):
        d = np.arange(5.0)
        noisy, eps = add_noise(d, 0.0, 42)
        np.testing.assert_array_equal(noisy, d)
        np.testing.assert_array_equal(eps, np.zeros(5))

    def test_exact_ratio(self):
        rng = np.random.default_rng(0)
        d = rng.standard_normal(200)
        _, eps = add_noise(d, 0.01, 7)
        ratio = np.linalg.norm(eps) / np.linalg.norm(d)
        assert abs(ratio - 0.01) <= 1e-14

    def test_deterministic(self):
        d = np.arange(1.0, 50.0)
        a1, _ = add_noise(d, 0.05, 123)
        a2, _ = add_noise(d, 0.05, 123)
        np.testing.assert_array_equal(a1, a2)

    @pytest.mark.parametrize("shape", [(7,), (512,), (5, 6)])
    def test_norm_is_numpy_norm(self, shape):
        v = np.random.default_rng(4).standard_normal(shape)
        assert problems._norm(v) == np.linalg.norm(v)

    def test_zero_data_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(4), 0.1, 0)

    @pytest.mark.parametrize("level", [np.nan, np.inf])
    def test_non_finite_level_rejected(self, level):
        # each used to build a non-finite d
        for build in (lambda: add_noise(np.arange(1.0, 5.0), level, 0),
                      lambda: make_1d_problem(32, 2.0, level, 0),
                      lambda: make_blind_deconv_problem(
                          "grain", (4.0, 3.0, 1.5), level, 0, psf_size=9,
                          size=16)):
            with pytest.raises(ValueError, match="finite"):
                build()


class TestMake1dProblem:
    def test_condition_number_anchor(self):
        prob = make_1d_problem(128, 2.0, 0.01, 0)
        cond = np.linalg.cond(prob.operator(prob.y_true).dense())
        assert 1.7e7 < cond < 1.7e9

    def test_signal_range_and_structure(self):
        x = piecewise_signal(128)
        assert x.min() >= 0.0 and x.max() <= 1.0
        # at least three distinct plateau levels plus spikes
        assert len(np.unique(x)) >= 5

    def test_noiseless_recovery_with_tiny_lambda(self):
        prob = make_1d_problem(128, 2.0, 0.0, 0)
        x = tik_solve(prob.operator(prob.y_true), as_regularizer(None, 128),
                      1e-18, prob.d)
        assert rre(x, prob.x_true) < 1e-3

    def test_instance_invariants(self):
        prob = make_1d_problem(64, 2.0, 0.03, 5)
        op = prob.operator(prob.y_true)
        assert np.linalg.norm(op.apply(prob.x_true) - prob.d_true) \
            <= 1e-12 * np.linalg.norm(prob.d_true)
        ratio = np.linalg.norm(prob.d - prob.d_true) / np.linalg.norm(prob.d_true)
        assert abs(ratio - 0.03) <= 1e-12

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            make_1d_problem(8, 2.0, 0.01, 0)

    def test_builds_the_blur_only(self, monkeypatch):
        # synthesis only applies G, so dG/dsigma is not formed
        built = []
        toeplitz_orig = operators.toeplitz

        def counting_toeplitz(*args, **kwargs):
            built.append(1)
            return toeplitz_orig(*args, **kwargs)

        monkeypatch.setattr(operators, "toeplitz", counting_toeplitz)
        problems._noiseless_1d.cache_clear()
        make_1d_problem(64, 2.0, 0.01, 0)
        assert len(built) == 1

    def test_whole_n(self):
        # n = 64.0 used to raise numpy's TypeError
        prob = make_1d_problem(64.0, 2.0, 0.01, 0)
        assert prob.shape == (64,) and prob.x_true.shape == (64,)
        with pytest.raises(ValueError, match="n must be a whole number"):
            make_1d_problem(64.5, 2.0, 0.01, 0)


def builtin_x_true(name, n):
    """x_true of a noiseless instance of builtin image ``name``, as n x n."""
    prob = make_blind_deconv_problem(name, (2.0, 1.5, 0.5), 0.0, 0, size=n,
                                     psf_size=7)
    return prob.x_true.reshape(n, n)


class TestBuiltinImages:
    @pytest.mark.parametrize("name", ["satellite", "grain"])
    def test_range_and_determinism(self, name):
        img1 = builtin_x_true(name, 64)
        img2 = builtin_x_true(name, 64)
        np.testing.assert_array_equal(img1, img2)
        assert img1.min() >= 0.0 and img1.max() <= 1.0

    @pytest.mark.parametrize("n", [31, 64, 100, 128, 256])
    def test_grain_matches_full_grid_oracle(self, n):
        # each ellipse is tested on its bounding window only; odd and
        # non-power-of-two sizes clip the windows at the border differently
        assert (problems._shared_image("grain", n).tobytes()
                == grain_image_full_grid(n).tobytes())

    @pytest.mark.parametrize("name", ["satellite", "grain"])
    def test_each_image_is_built_once_per_size(self, name, monkeypatch):
        built = []
        make = problems._BUILTIN_IMAGES[name]

        def counting_make(n):
            built.append(n)
            return make(n)

        monkeypatch.setitem(problems._BUILTIN_IMAGES, name, counting_make)
        problems._shared_image.cache_clear()
        try:
            for n, seed in ((24, 0), (40, 0), (24, 1), (40.0, 1)):
                make_blind_deconv_problem(name, (2.0, 1.5, 0.5), 0.01, seed,
                                          size=n, psf_size=7)
        finally:
            problems._shared_image.cache_clear()
        assert built == [24, 40]

    def test_satellite_is_sparse(self):
        img = problems._shared_image("satellite", 128)
        assert np.mean(img > 0) < 0.25

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin image"):
            make_blind_deconv_problem("nebula", (2.0, 1.5, 0.5), 0.01, 0,
                                      size=64)


class TestBlindDeconvProblem:
    def test_instance_invariants(self):
        prob = make_blind_deconv_problem("grain", (3.0, 4.0, 0.5), 0.01, 3,
                                         size=48, psf_size=13)
        op = prob.operator(prob.y_true)
        assert np.linalg.norm(op.apply(prob.x_true) - prob.d_true) \
            <= 1e-12 * np.linalg.norm(prob.d_true)
        ratio = np.linalg.norm(prob.noise) / np.linalg.norm(prob.d_true)
        assert abs(ratio - 0.01) <= 1e-12

    def test_builds_the_blur_only(self, monkeypatch):
        # synthesis only applies G: one cached convolution is built, not the
        # three of the PSF partials as well
        built = []

        class CountingConv(operators._CachedConv2D):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(operators, "_CachedConv2D", CountingConv)
        problems._noiseless_builtin.cache_clear()
        make_blind_deconv_problem("satellite", (3.0, 4.0, 0.5), 0.01, 0,
                                  size=32, psf_size=9)
        assert len(built) == 1

    def test_whole_size(self):
        # size 32.5 used to build a 32 x 32 instance silently
        with pytest.raises(ValueError, match="size must be a whole number"):
            make_blind_deconv_problem("satellite", (3.0, 4.0, 0.5), 0.01, 0,
                                      size=32.5, psf_size=9)

    def test_delta_psf_limit(self):
        prob = make_blind_deconv_problem("satellite", (0.05, 0.05, 0.0),
                                         0.0, 0, size=32, psf_size=9)
        assert np.abs(prob.d_true - prob.x_true).max() <= 1e-6

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            make_blind_deconv_problem(np.ones((8, 10)), (1.5, 2.0, 1.0),
                                      0.01, 0)

    @pytest.mark.parametrize("scale", [1.0, 255.0])
    def test_x_true_does_not_alias_the_user_image(self, scale):
        # at scale 1 no rescaling copies the image, so x_true would view it
        img = scale * np.random.default_rng(2).uniform(0, 1, (16, 16))
        before = img.copy()
        prob = make_blind_deconv_problem(img, (1.5, 2.0, 1.0), 0.01, 0,
                                         psf_size=7)
        np.testing.assert_array_equal(img, before)
        x_true, d = prob.x_true.copy(), prob.d.copy()
        assert not np.shares_memory(prob.x_true, img)
        img[0, 0] = 7.0
        np.testing.assert_array_equal(prob.x_true, x_true)
        np.testing.assert_array_equal(prob.d, d)

    def test_user_image_rescaled(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 255, (16, 16))
        prob = make_blind_deconv_problem(img, (1.5, 2.0, 1.0), 0.0, 0,
                                         psf_size=7)
        assert prob.x_true.min() >= 0.0 and prob.x_true.max() <= 1.0
        # a constant image inside [0, 1] is kept; outside, it has no range
        # to rescale
        prob = make_blind_deconv_problem(np.full((8, 8), 0.5),
                                         (1.5, 2.0, 1.0), 0.0, 0, psf_size=7)
        assert np.all(prob.x_true == 0.5)
        with pytest.raises(ValueError, match="constant image cannot be"):
            make_blind_deconv_problem(np.full((8, 8), 2.0), (1.5, 2.0, 1.0),
                                      0.0, 0, psf_size=7)

    def test_boundary_by_name(self):
        by_name, by_enum = (
            make_blind_deconv_problem("satellite", (2.0, 1.5, 0.5), 0.01, 0,
                                      boundary, psf_size=7, size=16)
            for boundary in ("reflexive", ConvBoundary.REFLEXIVE))
        assert by_name.boundary is ConvBoundary.REFLEXIVE
        assert by_name.d.tobytes() == by_enum.d.tobytes()

    def test_unknown_family(self):
        prob = replace(make_1d_problem(32, 2.0, 0.01, 0), family="other")
        with pytest.raises(ValueError, match="unknown problem family 'other'"):
            prob.operator(prob.y_true)


def synthesized_1d(n, sigma, level, seed):
    """A 1D instance's (x_true, d_true, d, noise), built with no cache."""
    x_true = piecewise_signal(n)
    d_true = GaussianBlur1D(sigma, n).apply(x_true)
    return (x_true, d_true, *add_noise(d_true, level, seed))


def synthesized_2d(image, y, level, seed, size, psf_size, boundary):
    """A 2D instance's (x_true, d_true, d, noise), built with no cache."""
    x_true = problems._BUILTIN_IMAGES[image](size).ravel()
    op = GaussianPsfBlur2D(PsfParams(*y), (size, size), psf_size, boundary)
    d_true = op.apply(x_true)
    return (x_true, d_true, *add_noise(d_true, level, seed))


def assert_instance_is(prob, arrays):
    """The instance's arrays equal ``arrays`` byte for byte."""
    got = (prob.x_true, prob.d_true, prob.d, prob.noise)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in arrays]


BUILD_1D = {"a": (64, 2.0), "b": (48, 1.5)}
BUILD_2D = {"a": ("grain", (3.0, 2.0, 1.0), 32, 9, ConvBoundary.PERIODIC),
            "b": ("satellite", (2.0, 1.5, 0.5), 24, 7, ConvBoundary.ZERO)}


def build_1d(key, seed):
    n, sigma = BUILD_1D[key]
    return (make_1d_problem(n, sigma, 0.02, seed),
            synthesized_1d(n, sigma, 0.02, seed))


def build_2d(key, seed):
    image, y, size, psf_size, boundary = BUILD_2D[key]
    return (make_blind_deconv_problem(image, y, 0.02, seed, boundary,
                                      psf_size, size),
            synthesized_2d(image, y, 0.02, seed, size, psf_size, boundary))


class TestNoiselessCache:
    @pytest.mark.parametrize("build", [build_1d, build_2d])
    def test_instances_match_an_uncached_synthesis(self, build):
        for seed in range(4):
            assert_instance_is(*build("a", seed))

    @pytest.mark.parametrize("build", [build_1d, build_2d])
    def test_mutating_an_instance_leaves_the_next_build_intact(self, build):
        prob, _ = build("a", 0)
        for a in (prob.x_true, prob.d_true, prob.d, prob.noise):
            a[:] = 7.0
        assert_instance_is(*build("a", 1))

    @pytest.mark.parametrize("build", [build_1d, build_2d])
    def test_alternating_two_problems(self, build):
        # one entry: every build below misses, and must still be exact
        for key, seed in (("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 0)):
            assert_instance_is(*build(key, seed))

    def test_a_new_seed_builds_no_blur(self, monkeypatch):
        built = []

        class CountingConv(operators._CachedConv2D):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(operators, "_CachedConv2D", CountingConv)
        problems._noiseless_builtin.cache_clear()
        for seed in range(3):
            make_blind_deconv_problem("grain", (3.0, 2.0, 1.0), 0.02, seed,
                                      psf_size=9, size=32)
        assert len(built) == 1

    def test_caller_image_is_not_cached(self):
        # the caller owns the array and may change it between builds
        img = np.random.default_rng(3).uniform(0, 1, (16, 16))
        first = make_blind_deconv_problem(img, (1.5, 2.0, 1.0), 0.0, 0,
                                          psf_size=7)
        img[4, 5] = 0.0
        second = make_blind_deconv_problem(img, (1.5, 2.0, 1.0), 0.0, 0,
                                           psf_size=7)
        assert second.x_true[4 * 16 + 5] == img[4, 5]
        assert second.x_true[4 * 16 + 5] != first.x_true[4 * 16 + 5]
        op = second.operator(second.y_true)
        assert op.apply(img.ravel()).tobytes() == second.d_true.tobytes()

    def test_cached_arrays_are_read_only(self):
        prob, _ = build_2d("a", 0)
        image, y, size, psf_size, boundary = BUILD_2D["a"]
        pairs = (problems._noiseless_builtin(image, size, PsfParams(*y),
                                             psf_size, boundary),
                 problems._noiseless_1d(64, 2.0))
        for a in (*pairs[0], *pairs[1]):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert prob.x_true.flags.writeable and prob.d_true.flags.writeable
