"""Names of the package that the benchmark under ``perfbench/`` reads.

The benchmark builds every workload's config, reads the fixed GCV grid to
count etas at its bounds, and wraps package functions by name for its
per-layer spans. Removing one of these names fails here, and not only when
the benchmark runs. The 2D workloads must also run the periodic blur, whose
circulant FFT path they time, the GSVD of the dense workload's pair must
decide its rank without an SVD of R, and a solve of the dense workload must
hold one factorization at a time. Each workload takes the inner route its
``route`` names. Conversely, every top-level function and class of the
package must be used by the package or the benchmark, not by tests alone.
"""

import ast
import dataclasses
import glob
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

import lpvarpro
from lpvarpro import gcv, regularizers, varpro
from lpvarpro.gcv import thin_gsvd
from lpvarpro.operators import ConvBoundary, GaussianPsfBlur2D
from lpvarpro.regularizers import as_regularizer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
PACKAGE = os.path.join(ROOT, "src", "lpvarpro")
sys.path.insert(0, PERFBENCH)

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


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_rebuilt_workload_is_byte_equal(name):
    # setup is timed over repeated builds of one seed; a cached image that
    # went stale or was shared with an earlier instance would show here
    first, _ = bench.WORKLOADS[name].build(3)
    fields = ("x_true", "d", "d_true")
    expected = [getattr(first, f).tobytes() for f in fields]
    for f in fields:
        getattr(first, f)[:] = -1.0
    second, _ = bench.WORKLOADS[name].build(3)
    assert [getattr(second, f).tobytes() for f in fields] == expected
    for f in fields:
        assert not np.shares_memory(getattr(first, f), getattr(second, f))


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_takes_its_route(monkeypatch, name):
    # one outer step runs one inner solve: MMGKS on the 'gks' route, the
    # dense GSVD of the pair, shared with the Jacobian, on the 'dense' one
    calls = {"thin_gsvd": 0, "mmgks_solve": 0}
    for fn in calls:
        def counting(*args, _fn=fn, _orig=getattr(varpro, fn)):
            calls[_fn] += 1
            return _orig(*args)

        monkeypatch.setattr(varpro, fn, counting)
    problem, config = bench.WORKLOADS[name].build(0)
    lpvarpro.lp_varpro_solve(problem,
                             dataclasses.replace(config, max_iters=1))
    dense = bench.WORKLOADS[name].route == "dense"
    assert calls == {"thin_gsvd": int(dense), "mmgks_solve": int(not dense)}


def test_dense_workload_gsvd_makes_one_svd(monkeypatch):
    # the stack of the pair at y0 has condition 3.4, far from the rank
    # threshold, so the condition bound accepts it and the only SVD left
    # is the one of the top block of Q, by LAPACK dgesdd; R gets no
    # values-only SVD from either numpy or LAPACK
    problem, config = bench.WORKLOADS["full1d_dense512"].build(0)
    op = problem.operator(config.y0)
    l_dense = as_regularizer(config.regularizer, op.n).dense()
    calls = []
    svd, dgesdd = np.linalg.svd, gcv.dgesdd

    def counting_svd(*args, **kwargs):
        calls.append(bool(kwargs.get("compute_uv", True)))
        return svd(*args, **kwargs)

    def counting_dgesdd(*args, **kwargs):
        calls.append(bool(kwargs.get("compute_uv", 1)))
        return dgesdd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(gcv, "dgesdd", counting_dgesdd)
    thin_gsvd(op.dense(), l_dense)
    assert calls == [True]


def test_dense_workload_solve_holds_one_factorization():
    # the dense L and G (2 n^2 doubles) and one thin_gsvd (8 n^2) at a time;
    # a step that kept its factorization while the next pair was factored
    # peaked at 16 n^2, and a thin_gsvd that formed the stacked Q at 11 n^2
    problem, config = bench.WORKLOADS["full1d_dense512"].build(3)
    config = dataclasses.replace(config, max_iters=2)
    n = problem.operator(config.y0).n
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        lpvarpro.lp_varpro_solve(problem, config)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 10.6 * n * n * 8


def test_every_regularizer_class_defines_its_traced_methods():
    # the tracer wraps a method only on the class that defines it, and the
    # base class implements none of the three, so a regularizer that
    # inherited one from another subclass would run untraced
    targets = {(owner, attr) for owner, attr, _ in tracing.trace_targets()}
    base = regularizers.Regularizer
    concrete = [cls for cls in vars(regularizers).values()
                if isinstance(cls, type) and issubclass(cls, base)
                and cls is not base]
    assert concrete
    for cls in concrete:
        for attr in ("apply", "adjoint_apply", "dense"):
            assert (cls, attr) in targets, (cls.__name__, attr)


def test_package_exports_every_name_the_benchmark_reads():
    # bench.py reads the package as ``lp.<name>``; the exports are trimmed
    # to the user workflow, which must keep each of these
    with open(os.path.join(PERFBENCH, "bench.py")) as fh:
        names = set(re.findall(r"\blp\.(\w+)", fh.read()))
    assert names
    assert {name for name in names if not hasattr(lpvarpro, name)} == set()


def test_every_top_level_definition_is_used_outside_the_tests():
    # a name counts as used when the package or the benchmark reads it as a
    # name, an attribute or an import anywhere but inside its own definition
    trees = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))
                       + glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path) as fh:
            trees[path] = ast.parse(fh.read(), path)
    readers = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            readers.setdefault(name, []).append(id(node))
    unused = []
    for path, tree in trees.items():
        if os.path.dirname(path) != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                inside = {id(sub) for sub in ast.walk(node)}
                if all(r in inside for r in readers.get(node.name, [])):
                    unused.append(f"{os.path.basename(path)[:-3]}.{node.name}")
    assert unused == []
