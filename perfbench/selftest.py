"""Self-test of the benchmark harness; exits 0 when every check passes.

Run from the repository root:

    python3 perfbench/selftest.py

1. One untraced and one traced solve per workload at seed 0: the answers
   are bit-identical and match the reference, each layer expected on the
   workload's route records calls and each layer predicted absent records
   none (no mmgks or gcv spans on full1d_dense512), and children's spans
   never cover more than their parent's.
2. After each traced run every wrapped name holds its original function.
3. A solve that raises is counted as failed with its exception type, and the
   run goes on: 1D HALF with p = 1 at n = 64 raises RankDeficiencyError on
   noise seed 0.
"""

import os
import sys

import run


def main():
    if not run.prepare():
        return 2
    import numpy as np
    import lpvarpro as lp
    import bench
    import tracing

    problems = []
    originals = {(owner, attr): vars(owner)[attr]
                 for owner, attr, _ in tracing.trace_targets()}
    reference = bench.load_reference()
    out_dir = os.path.join(bench.HERE, "traces")
    os.makedirs(out_dir, exist_ok=True)
    for name, workload in bench.WORKLOADS.items():
        solves, metrics, errors = bench.measure_traced(
            workload, 0, 0.0, reference[name],
            os.path.join(out_dir, f"selftest-{name}.json"))
        problems += [f"{name}: {e}" for e in errors]
        problems += [f"{name}: {s.error}" for s in solves if s.error]
        problems += [f"{name}: {owner.__name__}.{attr} still wrapped"
                     for (owner, attr), fn in originals.items()
                     if vars(owner)[attr] is not fn]

    def half_p1(seed):
        problem = lp.make_1d_problem(n=64, sigma_true=2.0, level=0.01,
                                     seed=seed)
        config = lp.VarproConfig(y0=np.array([2.5]), variant="half",
                                 regularizer=lp.first_derivative_1d(64),
                                 max_iters=10, p=1.0)
        return problem, config

    # noise seed 0 raises; the run must record it and go on to the others
    failing = bench.Workload("half1d_p1_n64", "dense", half_p1)
    solves, _, _ = bench.measure(failing, 0, 1.0,
                                 reference["full1d_dense512"])
    if (len(solves) < 2 or solves[0].error is None
            or not solves[0].error.startswith("RankDeficiencyError")):
        problems.append("failure accounting: expected a RankDeficiencyError "
                        "on noise seed 0 and further attempts, got "
                        f"{[s.error for s in solves]}")

    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
