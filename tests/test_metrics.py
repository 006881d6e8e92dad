import dataclasses

import numpy as np
import pytest

from lpvarpro.metrics import ConvergenceRow, rre


class TestRre:
    def test_exact_recovery(self):
        v = np.arange(1.0, 5.0)
        assert rre(v, v) == 0.0

    def test_zero_estimate(self):
        v = np.arange(1.0, 5.0)
        assert rre(np.zeros(4), v) == pytest.approx(1.0)

    def test_double_estimate(self):
        v = np.arange(1.0, 5.0)
        assert rre(2 * v, v) == pytest.approx(1.0)

    def test_scale_covariance(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(10)
        t = rng.standard_normal(10)
        for alpha in (0.5, -3.0, 100.0):
            assert rre(alpha * v, alpha * t) == pytest.approx(rre(v, t),
                                                              rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            rre(np.ones(3), np.zeros(3))


class TestConvergenceRow:
    def test_fields(self):
        row = ConvergenceRow(iteration=3, rel_func_value=0.5,
                             rel_grad_norm=0.4, rre_y=0.1, rre_x=0.2,
                             eta=1e-3, wall_time=0.01)
        assert row.iteration == 3
        assert [f.name for f in dataclasses.fields(ConvergenceRow)] == [
            "iteration", "rel_func_value", "rel_grad_norm", "rre_y",
            "rre_x", "eta", "wall_time"]
