"""In-process spans around the public functions and methods of lpvarpro.

The tracer replaces each traced function or method at the name its caller
looks it up by: ``from ... import`` bindings copy the function into the
importing module, so a wrapper installed only in the defining module would
never run. Spans are kept in memory as tuples
``(name, start_ns, end_ns, parent_index, run_id)`` and written out once.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


def trace_targets():
    """(owner, attribute, span name) for every wrapped function or method.

    The owner is the module or class whose attribute the caller reads at call
    time. Span names are ``<layer>.<operation>``; the layers are the lpvarpro
    modules.
    """
    from lpvarpro import mmgks, operators, problems, regularizers, varpro

    targets = [(problems.ProblemInstance, "operator", "operators.build")]
    op_methods = (("apply", "operators.apply"),
                  ("adjoint_apply", "operators.adjoint"),
                  ("derivative_apply", "operators.derivative"),
                  ("derivative_adjoint_apply", "operators.derivative"),
                  ("dense", "operators.dense"),
                  ("derivative_dense", "operators.dense"))
    for cls in (operators.GaussianBlur1D, operators.GaussianPsfBlur2D):
        targets += [(cls, attr, name) for attr, name in op_methods]
    reg_methods = (("apply", "regularizers.apply"),
                   ("adjoint_apply", "regularizers.adjoint"),
                   ("dense", "regularizers.dense"))
    for cls in vars(regularizers).values():
        if isinstance(cls, type) and issubclass(cls, regularizers.Regularizer):
            targets += [(cls, attr, name) for attr, name in reg_methods]
    targets += [
        (mmgks, "golub_kahan", "mmgks.golub_kahan"),
        (mmgks.GksState, "set_weights", "mmgks.set_weights"),
        (mmgks, "project_and_solve", "mmgks.project_and_solve"),
        (mmgks, "expand_subspace", "mmgks.expand_subspace"),
        (mmgks, "objective_value", "mmgks.objective_value"),
        (mmgks, "select_eta", "gcv.select_eta"),
        (varpro, "mmgks_solve", "mmgks.solve"),
        (varpro, "thin_gsvd", "varpro.thin_gsvd"),
        (varpro, "tik_solve", "varpro.tik_solve"),
        (varpro, "jacobian_full", "varpro.jacobian"),
        (varpro, "jacobian_half", "varpro.jacobian"),
        (varpro, "jacobian_reduced", "varpro.jacobian"),
    ]
    # methods are wrapped only on the class that defines them, so an
    # inherited method is not wrapped twice
    return [(owner, attr, name) for owner, attr, name in targets
            if attr in vars(owner)]


# span names whose return values the layer metrics read
KEEP_RESULTS = ("mmgks.solve", "gcv.select_eta")


class Tracer:
    """Records nested spans of wrapped calls, grouped by run id."""

    def __init__(self):
        self.spans = []
        self.results = defaultdict(list)     # (run_id, span name) -> results
        self.run_id = None
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        keep = name in KEEP_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.run_id)
            if keep:
                self.results[(self.run_id, name)].append(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, run_id):
        """Wrap every target for the duration of the block, then restore."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        self.run_id = run_id
        try:
            for owner, attr, name in trace_targets():
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(name, original))
                self._patches.append((owner, attr, original))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)
            self.run_id = None

    def totals(self, run_id):
        """Per span name: call count and summed self time in seconds.

        Self time is a span's duration minus the durations of its direct
        children. Raises ValueError when children cover more than their
        parent's duration, which would mean a broken nesting.
        """
        child_ns = defaultdict(int)
        for name, start, end, parent, rid in self.spans:
            if rid == run_id and parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for index, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            own = (end - start) - child_ns[index]
            if own < 0:
                raise ValueError(
                    f"children of span {index} ({name}) cover "
                    f"{child_ns[index]} ns of its {end - start} ns")
            calls[name] += 1
            self_s[name] += own * 1e-9
        return calls, self_s

    def write(self, path, **meta):
        """Write all spans recorded so far as one JSON document."""
        with open(path, "w") as fh:
            json.dump(dict(meta, fields=["name", "start_ns", "end_ns",
                                         "parent", "run_id"],
                           spans=self.spans), fh)
