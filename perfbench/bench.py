"""Workloads, answer check and measurement loops of the lpvarpro benchmark.

Import this module only after the thread counts are pinned (see run.py):
it imports numpy.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

import lpvarpro as lp
from lpvarpro.gcv import RankDeficiencyError

from run import THREAD_VARS
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

# A solve that raises one of these is counted as failed and the run goes on.
SOLVE_ERRORS = (lp.SolverError, np.linalg.LinAlgError, RankDeficiencyError,
                ValueError)

# Solve time depends on the noise (on full1d_dense512 by about 10% between
# noise seeds), so a run solves REALIZATIONS noise realizations made from its
# seed and reports medians over all of them. They come from a fixed pool of
# noise seeds 0 .. pool size - 1 whose answers reference.json records one by
# one: on full1d_dense512 how far σ has collapsed after ten outer iterations
# depends chaotically on the noise (rre_x is 1.0 on most noise seeds but 0.83
# on noise seed 7066690278), so no single reference answer holds for every
# noise seed. Run seed n solves noise seeds (REALIZATIONS * n + i) mod pool
# size for i < REALIZATIONS.
REALIZATIONS = 5

# The host's speed drifts: on the 2-core reference machine the same
# satellite solve took 2.5 s or 4.6 s a few minutes apart. Times are
# therefore scaled to a reference speed by a fixed calibration kernel timed
# throughout the run:
#     scaled = wall * CALIBRATION_REF_S / mean(calibration times of the run)
# CALIBRATION_REF_S is the kernel's typical time on that machine, so scaled
# times read close to wall times there. The run prints the wall times too.
CALIBRATION_REF_S = 0.135

# Setup is only milliseconds, so it is repeated in blocks of at least this
# long (and at least SETUP_MIN_REPS times), one before the first solve and
# one after every solve, and the median over all blocks is reported.
SETUP_MIN_SECONDS = 0.1
SETUP_MIN_REPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    route: str                        # inner solver that runs: 'gks' or 'dense'
    build: Callable                   # seed -> (ProblemInstance, VarproConfig)


def _psf2d(image, size, p):
    def build(seed):
        problem = lp.make_blind_deconv_problem(image, (4.0, 3.0, 1.5), 0.01,
                                               seed, size=size)
        config = lp.VarproConfig(y0=np.array([3.0, 2.5, 1.0]),
                                 variant="reduced",
                                 regularizer=lp.derivative_2d(1, size),
                                 max_iters=10, p=p, epsilon=1e-2, inner="gks")
        return problem, config
    return build


def _full1d(seed):
    problem = lp.make_1d_problem(n=512, sigma_true=2.0, level=0.01, seed=seed)
    config = lp.VarproConfig(y0=np.array([2.5]), variant="full",
                             regularizer=lp.first_derivative_1d(512),
                             max_iters=10, p=2.0, inner="auto")
    return problem, config


# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("lp2d_satellite64", "gks", _psf2d("satellite", 64, 1.0)),
    Workload("tik2d_grain128", "gks", _psf2d("grain", 128, 2.0)),
    Workload("full1d_dense512", "dense", _full1d),
)}

GKS_SPANS = ("mmgks.solve", "mmgks.golub_kahan", "mmgks.set_weights",
             "mmgks.project_and_solve", "mmgks.expand_subspace",
             "mmgks.objective_value", "gcv.select_eta")
DENSE_SPANS = ("operators.dense", "regularizers.dense", "varpro.thin_gsvd",
               "varpro.tik_solve")
SPAN_NAMES = ("operators.build", "operators.apply", "operators.adjoint",
              "operators.derivative", "regularizers.apply",
              "regularizers.adjoint", "varpro.jacobian") \
    + GKS_SPANS + DENSE_SPANS

# Layers the self-test requires to run (non-zero calls) or to stay absent
# (zero calls) on each route.
ALWAYS_CALLED = ("operators.build", "operators.apply", "operators.derivative",
                 "regularizers.apply", "varpro.jacobian")
EXPECTED_CALLS = {
    "gks": {**{n: True for n in ALWAYS_CALLED + GKS_SPANS
               + ("operators.adjoint", "regularizers.adjoint")},
            **{n: False for n in DENSE_SPANS}},
    "dense": {**{n: True for n in ALWAYS_CALLED + DENSE_SPANS},
              **{n: False for n in GKS_SPANS}},
}


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def environment():
    """Hardware and library facts that the timings depend on."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


@dataclass
class Solve:
    seconds: float
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    record: object = None
    error: str | None = None          # exception or answer-check failure
    warnings: int = 0                 # RuntimeWarnings seen (traced solves)


def solve_once(problem, config, solver=lp.lp_varpro_solve):
    """Time one solve; listed solver errors are caught and recorded."""
    start = time.perf_counter()
    try:
        x, y, record = solver(problem, config)
    except SOLVE_ERRORS as exc:
        return Solve(time.perf_counter() - start,
                     error=f"{type(exc).__name__}: {exc}")
    return Solve(time.perf_counter() - start, x, y, record)


def check_answer(solve, problem, ref, noise_seed):
    """Set ``solve.error`` when the answer misses its instance's reference.

    The stop reason must be one of ``ref['stop_reasons']``, and rre_x and
    rre_y must lie within ``ref['rtol']`` (relative) of the values that
    ``ref['instances'][str(noise_seed)]`` records.
    """
    if solve.error is not None:
        return solve
    if not (np.isfinite(solve.x).all() and np.isfinite(solve.y).all()):
        solve.error = "answer check: x or y is not finite"
        return solve
    if solve.record.stop_reason not in ref["stop_reasons"]:
        solve.error = (f"answer check: stop reason "
                       f"{solve.record.stop_reason!r} not in "
                       f"{ref['stop_reasons']}")
        return solve
    expected = ref["instances"][str(noise_seed)]
    for key, value in (("rre_x", lp.rre(solve.x, problem.x_true)),
                       ("rre_y", lp.rre(solve.y, problem.y_true))):
        if not abs(value - expected[key]) <= ref["rtol"] * expected[key]:
            solve.error = (f"answer check: {key} = {value:.6g} is not within "
                           f"{ref['rtol']} of the reference "
                           f"{expected[key]:.6g}")
            return solve
    return solve


class Calibration:
    """Dense QR of a 1024 x 512 matrix and the singular values of a 512 x 512.

    Of the kernels tried on the reference machine (this one, a mix of small
    QR, FFT and SVD calls, and a tall QR with FFTs), its run-mean time
    tracked the drift of the solve times best overall.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.tall = rng.standard_normal((1024, 512))
        self.square = rng.standard_normal((512, 512))
        self.samples = []
        self.sample()           # the first call pays one-off allocation costs
        self.samples.clear()

    def sample(self):
        start = time.perf_counter()
        np.linalg.qr(self.tall)
        np.linalg.svd(self.square, compute_uv=False)
        self.samples.append(time.perf_counter() - start)

    @property
    def factor(self):
        """Factor from wall seconds to seconds at the reference speed."""
        return CALIBRATION_REF_S / statistics.fmean(self.samples)


def time_setup(workload, seed):
    """Build the problem and regularizer repeatedly; return each duration."""
    times = []
    start = time.perf_counter()
    while (len(times) < SETUP_MIN_REPS
           or time.perf_counter() - start < SETUP_MIN_SECONDS):
        t0 = time.perf_counter()
        workload.build(seed)
        times.append(time.perf_counter() - t0)
    return times


def eta_at_bound(etas, gcv):
    """Number of etas within one grid step of the GCV search bounds."""
    lo, hi = np.log10(gcv.grid_min), np.log10(gcv.grid_max)
    step = (hi - lo) / (gcv.grid_points - 1)
    log_eta = np.log10(np.asarray(etas, dtype=float))
    return int(np.sum((log_eta <= lo + step) | (log_eta >= hi - step)))


def layer_metrics(tracer, run_id, solve, config):
    """Per-layer metrics of one traced solve.

    Self times are given as shares of the traced solve's wall time, which is
    reported too: a share does not move with the host's speed, and a layer
    that does not run on a workload reads 0 as a share rather than as a time.
    """
    calls, self_s = tracer.totals(run_id)
    total = sum(self_s.values())      # the root span covers every other one
    out = {"varpro.traced_solve_s": total}
    for name in SPAN_NAMES:
        out[f"{name}_calls"] = calls[name]
        out[f"{name}_share"] = self_s[name] / total
    out["varpro.self_share"] = self_s["varpro"] / total
    outer = len(solve.record.rows)
    out["varpro.outer_iters"] = outer
    out["operators.builds_per_outer"] = calls["operators.build"] / outer
    inner = tracer.results[(run_id, "mmgks.solve")]
    out["mmgks.inner_iters"] = sum(r.iterations for r in inner)
    out["mmgks.converged_ratio"] = (sum(r.converged for r in inner)
                                    / len(inner) if inner else 0.0)
    out["mmgks.subspace_dim_max"] = max((r.subspace_dim for r in inner),
                                        default=0)
    out["gcv.degenerate"] = sum(
        s.degenerate for s in tracer.results[(run_id, "gcv.select_eta")])
    out["gcv.eta_at_bound"] = eta_at_bound(solve.record.etas,
                                           config.mmgks_config().gcv)
    return out


def expectation_errors(route, metrics):
    """Layers that ran where they should be absent, or the other way round."""
    errors = []
    for name, called in EXPECTED_CALLS[route].items():
        count = metrics[f"{name}_calls"]
        if called and count == 0:
            errors.append(f"self-test: {name} was never called")
        if not called and count != 0:
            errors.append(f"self-test: {name} called {count} times, "
                          f"expected none")
    return errors


def _describe(solve, problem):
    if solve.error is not None:
        return f"{solve.seconds:.3f} s FAILED {solve.error}"
    rec = solve.record
    return (f"{solve.seconds:.3f} s, {len(rec.rows)} outer iterations, "
            f"stop {rec.stop_reason!r}, "
            f"rre_x {lp.rre(solve.x, problem.x_true):.6g}, "
            f"rre_y {lp.rre(solve.y, problem.y_true):.6g}")


def noise_seeds(seed, ref):
    """The run's noise seeds, drawn from the pool that ``ref`` records."""
    pool = len(ref["instances"])
    return [(REALIZATIONS * seed + i) % pool for i in range(REALIZATIONS)]


def instances(workload, seed, ref):
    """The run's inputs: (noise seed, problem, config) per realization."""
    return [(s, *workload.build(s)) for s in noise_seeds(seed, ref)]


def round_robin(items, seconds):
    """Yield the items in turn, at least one, until ``seconds`` have passed.

    Stopping on time alone bounds a run on a slow host; at the usual speed
    every item comes at least once within the benchmark's run length.
    """
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        yield items[i % len(items)]
        i += 1


def measure(workload, seed, seconds, ref):
    """Untraced run: end-to-end metrics and the solves they came from.

    Each metric is the median over all solves of the run; times are scaled
    to the reference speed. Setup blocks are spread over the run like the
    solves, so that one slow spell of the machine affects few of them. The
    calibration kernel runs after each timed block.
    """
    calibration = Calibration()
    calibration.sample()
    setup_seed = noise_seeds(seed, ref)[0]
    setup = time_setup(workload, setup_seed)
    calibration.sample()
    solves, rows = [], []
    for noise_seed, problem, config in round_robin(
            instances(workload, seed, ref), seconds):
        solve = check_answer(solve_once(problem, config), problem, ref,
                             noise_seed)
        calibration.sample()
        setup += time_setup(workload, setup_seed)
        solves.append(solve)
        print(f"solve {len(solves)} (noise seed {noise_seed}): "
              f"{_describe(solve, problem)}")
        if solve.error is None:
            rows.append((solve.seconds,
                         solve.seconds / len(solve.record.rows),
                         lp.rre(solve.x, problem.x_true),
                         lp.rre(solve.y, problem.y_true)))
    calibration.sample()
    factor = calibration.factor
    metrics = {
        "setup_s": statistics.median(setup) * factor,
        "solved_ratio": sum(s.error is None for s in solves) / len(solves),
        # ru_maxrss is in KiB on Linux; this process ran only this workload
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rows:
        wall, per_iter, rre_x, rre_y = zip(*rows)
        metrics.update(solve_s=statistics.median(wall) * factor,
                       outer_iter_s=statistics.median(per_iter) * factor,
                       rre_x=statistics.median(rre_x),
                       rre_y=statistics.median(rre_y))
        print(f"wall: median solve {statistics.median(wall):.6g} s, "
              f"median setup {statistics.median(setup):.6g} s")
    print(f"setup: {len(setup)} repetitions; calibration: "
          f"{len(calibration.samples)} samples, mean "
          f"{statistics.fmean(calibration.samples):.6g} s, factor "
          f"{factor:.6g}")
    return solves, metrics, []


def measure_traced(workload, seed, seconds, ref, trace_path):
    """Traced run: an untraced and a traced solve of each input in turn.

    The two solves of a pair swap order from one pair to the next. Each
    traced solve must return bit-identical x and y to its untraced twin.
    Per-layer metrics are means over the traced solves;
    ``tracing_overhead_s`` is the median of traced minus untraced time.
    """
    tracer = Tracer()
    solves, overhead, per_solve, errors = [], [], [], []
    for pair, (noise_seed, problem, config) in enumerate(round_robin(
            instances(workload, seed, ref), seconds)):
        run_id = f"{workload.name}/noise{noise_seed}/{pair}"

        def untraced():
            return solve_once(problem, config)

        def traced():
            with tracer.installed(run_id), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                solve = solve_once(problem, config,
                                   tracer.wrap("varpro", lp.lp_varpro_solve))
            solve.warnings = sum(issubclass(w.category, RuntimeWarning)
                                 for w in caught)
            return solve

        if pair % 2:
            traced_solve, plain = traced(), untraced()
            order = ((traced_solve, "traced"), (plain, "untraced"))
        else:
            plain, traced_solve = untraced(), traced()
            order = ((plain, "untraced"), (traced_solve, "traced"))
        for solve, label in order:
            check_answer(solve, problem, ref, noise_seed)
            solves.append(solve)
            print(f"solve {len(solves)} (noise seed {noise_seed}, {label}): "
                  f"{_describe(solve, problem)}")
        if plain.error is not None or traced_solve.error is not None:
            continue
        if not (plain.x.tobytes() == traced_solve.x.tobytes()
                and plain.y.tobytes() == traced_solve.y.tobytes()):
            traced_solve.error = \
                "self-test: traced x or y differs from untraced"
            print(traced_solve.error)
            continue
        try:
            metrics = layer_metrics(tracer, run_id, traced_solve, config)
        except ValueError as exc:
            errors.append(f"self-test: {exc}")
            continue
        metrics["varpro.runtime_warnings"] = traced_solve.warnings
        per_solve.append(metrics)
        overhead.append(traced_solve.seconds - plain.seconds)
    tracer.write(trace_path, workload=workload.name, seed=seed)
    print(f"trace: {len(tracer.spans)} spans written to {trace_path}")
    if not per_solve:
        return solves, {}, errors + ["no traced solve succeeded"]
    metrics = {key: statistics.fmean(m[key] for m in per_solve)
               for key in per_solve[0]}
    metrics["tracing_overhead_s"] = statistics.median(overhead)
    errors += expectation_errors(workload.route, metrics)
    return solves, metrics, errors


def run(name, seed, seconds, trace, root):
    """Run one workload and print the result line; return the exit code."""
    if name not in WORKLOADS:
        print(f"error: unknown workload {name!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec(root)
    wanted = spec["per_layer" if trace else "end_to_end"]
    ref = load_reference()[name]
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {name} seed {seed} seconds {seconds} "
          f"trace {int(trace)}")
    if trace:
        out_dir = os.path.join(HERE, "traces")
        os.makedirs(out_dir, exist_ok=True)
        solves, values, errors = measure_traced(
            WORKLOADS[name], seed, seconds, ref,
            os.path.join(out_dir, f"{name}-seed{seed}.json"))
    else:
        solves, values, errors = measure(WORKLOADS[name], seed, seconds, ref)
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
        print(f"{m['name']} = {float(value):.6g} {m['unit']}")
    for err in errors:
        print(err)
    failed = sum(s.error is not None for s in solves)
    print(json.dumps({"correct": failed == 0 and not errors,
                      "attempted": len(solves), "failed": failed,
                      "metrics": metrics}))
    return 0
