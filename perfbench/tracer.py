"""In-memory span recorder that wraps fogplan's public functions where their
callers bind them.

A span is ``[name, start, end, parent]`` with times from ``time.perf_counter``
and ``parent`` the index of the enclosing span (-1 for a root).  Spans nest
cli -> solver -> latency because every binding a caller resolves at call time
is replaced, not only the defining module's attribute.  Nothing is written
until ``write`` is called at the end of a run.

Work the benchmark's own checks cause (spans under a ``bench.check`` span) is
left out of the layer figures, so they show only what the workload's
operations do; ``offload_objective`` and ``check_feasibility``, which only
the checks call, are counted wherever they run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from collections import Counter


def _count_zero_rates(tracer, args, kwargs, rates):
    tracer.counters["phy.zero_rate_users"] += int((rates <= 0).sum())


def _count_solve(tracer, args, kwargs, result):
    tracer.counters["solver.iterations"] += int(result.iterations)
    tracer.counters["solver.converged"] += int(bool(result.converged))


def _counting_pools(tracer, pools):
    """The pool scorer `fogplan.oracle` binds, counting every assignment the
    oracle actually scores into ``oracle.assignments``."""

    class CountingPools(pools):
        def objective(self, codes):
            tracer.counters["oracle.assignments"] += 1
            return super().objective(codes)

    return CountingPools


CHECK_SPAN = "bench.check"
# Layer functions that only the checks call; counted under CHECK_SPAN too.
CHECK_ONLY = ("solver.offload_objective", "latency.check_feasibility")


# (span name, bindings "module.attribute" that callers resolve, result hook)
LAYER_FUNCTIONS = (
    ("scenario.generate_scenario", ("fogplan.scenario.generate_scenario", "fogplan.cli.generate_scenario"), None),
    ("phy.generate_channels", ("fogplan.phy.generate_channels", "fogplan.cli.generate_channels"), None),
    ("phy.uplink_rates", ("fogplan.phy.uplink_rates", "fogplan.cli.uplink_rates"), _count_zero_rates),
    ("solver.solve", ("fogplan.solver.solve", "fogplan.cli.solve"), _count_solve),
    (
        "solver.allocate_given_decision",
        ("fogplan.solver.allocate_given_decision", "fogplan.oracle.allocate_given_decision"),
        None,
    ),
    ("solver.offload_objective", ("fogplan.solver.offload_objective",), None),
    (
        "latency.total_delay",
        ("fogplan.latency.total_delay", "fogplan.solver.total_delay", "fogplan.oracle.total_delay"),
        None,
    ),
    ("latency.check_feasibility", ("fogplan.latency.check_feasibility",), None),
    ("oracle.enumerate_optimal", ("fogplan.oracle.enumerate_optimal",), None),
    ("cli.main", ("fogplan.cli.main",), None),
    ("cli.run_sweep", ("fogplan.cli.run_sweep",), None),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYER_FUNCTIONS)


def maybe_span(tracer, name: str):
    """`tracer.span(name)`, or nothing when the run is untraced."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Tracer:
    """Records spans for the wrapped layer functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._checking = 0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code (an operation or a
        check), so that layer spans nest under the request that caused them."""
        idx = self._open(name)
        self._checking += name == CHECK_SPAN
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter())
            self._checking -= name == CHECK_SPAN

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, time.perf_counter())
            if hook is not None and not self._checking:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, bindings, hook in LAYER_FUNCTIONS:
            for binding in bindings:
                module_name, attr = binding.rsplit(".", 1)
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._patches.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, hook))
        module = importlib.import_module("fogplan.oracle")
        self._patches.append((module, "_Pools", module._Pools))
        module._Pools = _counting_pools(self, module._Pools)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s and self_s for every layer function, where self time
        is a span's duration minus the durations of its direct children.
        Spans under a check count only for the CHECK_ONLY functions."""
        child_time = [0.0] * len(self.spans)
        in_check = [False] * len(self.spans)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_check[idx] = in_check[parent] or self.spans[parent][0] == CHECK_SPAN
        calls: Counter = Counter()
        busy: Counter = Counter()
        own: Counter = Counter()
        for idx, (name, start, end, _) in enumerate(self.spans):
            if in_check[idx] and name not in CHECK_ONLY:
                continue
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child_time[idx]
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
        return out

    def median_duration_s(self, name: str) -> float:
        durations = [end - start for span_name, start, end, _ in self.spans if span_name == name]
        return statistics.median(durations) if durations else 0.0

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": self.spans}, fh)
