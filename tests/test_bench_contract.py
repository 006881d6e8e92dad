"""Names of the package that the benchmark under ``perfbench/`` reads.

The benchmark builds every workload's config, reads the fixed GCV grid to
count etas at its bounds, and wraps package functions by name for its
per-layer spans. Removing one of these names fails here, and not only when
the benchmark runs. The 2D workloads must also run the periodic blur, whose
circulant FFT path they time.
"""

import os
import sys

import pytest

from lpvarpro.operators import ConvBoundary, GaussianPsfBlur2D

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import bench  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_config_reads_gcv_grid(name):
    _, config = bench.WORKLOADS[name].build(0)
    gcv = config.mmgks_config().gcv
    assert bench.eta_at_bound([gcv.grid_min], gcv) == 1


def test_every_span_name_has_a_trace_target():
    # trace_targets skips a missing attribute silently, so a renamed or
    # deleted function would otherwise just record no spans
    traced = {name for _, _, name in tracing.trace_targets()}
    assert set(bench.SPAN_NAMES) <= traced


@pytest.mark.parametrize("name", ["lp2d_satellite64", "tik2d_grain128"])
def test_2d_workloads_run_the_periodic_blur(name):
    # the circulant FFT path of the periodic blur is the one these
    # workloads time
    problem, config = bench.WORKLOADS[name].build(0)
    op = problem.operator(config.y0)
    assert isinstance(op, GaussianPsfBlur2D)
    assert op.boundary is ConvBoundary.PERIODIC
