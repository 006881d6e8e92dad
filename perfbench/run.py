"""Benchmark of the lpvarpro solvers on three blind-deconvolution workloads.

Run from the repository root:

    python3 perfbench/run.py --workload lp2d_satellite64 --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` times untraced solves for ``--seconds`` seconds and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced solves and
prints the per-layer metrics. Both check every answer. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The package is imported from ``src/`` next to
this directory; without it the script exits with code 2.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def prepare():
    """Pin BLAS/OpenMP to one thread and put the checkout's src/ first.

    Must run before numpy is imported. Returns False when the lpvarpro
    sources are missing.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("thread counts must be pinned before numpy loads")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lpvarpro", "__init__.py")):
        print(f"error: no lpvarpro sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, src)
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not prepare():
        return 2
    import bench
    return bench.run(args.workload, args.seed, args.seconds,
                     bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
