"""Names of the package that the benchmark under ``perfbench/`` reads.

The benchmark builds every workload's config, reads the fixed GCV grid to
count etas at its bounds, and wraps package functions by name for its
per-layer spans. Removing one of these names fails here, and not only when
the benchmark runs.
"""

import os
import sys

import pytest

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
