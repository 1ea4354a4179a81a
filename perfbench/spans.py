"""Span recording for the traced benchmark run.

A traced run wraps a span around every call into a layer's public
function.  The benchmark's own calls (the result itself, the area model,
input generation) open spans directly; calls the program makes
internally (``run_kernel`` calling the interpreter, the compiler, the
simulator; ``lint_kernel`` calling each lint pass) are reached by
temporarily rebinding the name the caller looks up, and restored when
the run ends.  Nothing in ``src/`` is edited, and an untraced run
installs nothing: it uses :data:`NULL_TRACER`, whose spans do no work.

A span records its name, start, end, parent and result id.  A layer's
self time is the sum over its spans of duration minus the time covered
by direct child spans, so self times never double-count nesting.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional

#: span name -> per-layer metric that reports its self time.  The
#: ``bench.result`` span (one per result) is not a layer: its self time
#: is benchmark/eval glue and counts as uncovered.  ``bench.reference``
#: is the benchmark's host-speed sampling between results.
LAYER_SPANS = {
    "ir.build": "ir.build_s",
    "ir.golden": "ir.golden_s",
    "compile.compile": "compile.compile_s",
    "dataflow.codegen": "dataflow.codegen_s",
    "dataflow.simulate": "dataflow.simulate_s",
    "area.model": "area.model_s",
    "eval.verify": "eval.verify_s",
    "analysis.lint_ir": "analysis.lint_ir_s",
    "analysis.lint_circuit": "analysis.lint_circuit_s",
    "analysis.lint_prevv": "analysis.lint_prevv_s",
    "analysis.lint_sanitize": "analysis.lint_sanitize_s",
    "analysis.lint_perf": "analysis.lint_perf_s",
    "analysis.lint_occupancy": "analysis.lint_occupancy_s",
    "fuzz.generate": "fuzz.generate_s",
    "bench.reference": "bench.reference_s",
}


class _NullTracer:
    """Tracer stand-in for untraced runs: spans and counts do nothing."""

    def span(self, name: str, result: Optional[int] = None):
        return nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        pass


NULL_TRACER = _NullTracer()


class Tracer:
    """Records spans and boundary counts; installs the call-site wrappers."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, result_id]`` per span
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._result: Optional[int] = None
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, result: Optional[int] = None):
        if result is not None:
            self._result = result
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self._result]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            if result is not None:
                self._result = None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def wrap(self, name: str, fn: Callable, after=None) -> Callable:
        """``fn`` inside a span; ``after(value)`` records boundary counts."""

        def traced(*args, **kwargs):
            with self.span(name):
                value = fn(*args, **kwargs)
            if after is not None:
                after(value)
            return value

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Call-site wrappers
    # ------------------------------------------------------------------
    def _rebind(self, owner, attr: str, name: str, after=None) -> None:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, after))
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def install(self) -> None:
        """Wrap every layer entry point the workloads reach.

        Names are rebound where the *caller* looks them up: module
        globals bound by ``from ... import`` in the calling module, call-
        time imports in their defining module, methods on their class.
        """
        from repro.analysis.lint import all_passes
        from repro.compile import elastic
        from repro.dataflow import plan_cache_stats
        from repro.eval import runner
        from repro.ir import interpreter
        from repro.kernels.base import Kernel

        def on_compile(build) -> None:
            self.count("compile.components", len(build.circuit.components))

        self._rebind(Kernel, "build_ir", "ir.build")
        self._rebind(runner, "run_golden", "ir.golden")
        # lint's sanitize passes import run_golden at call time
        self._rebind(interpreter, "run_golden", "ir.golden")
        self._rebind(runner, "compile_function", "compile.compile", on_compile)
        # lint_kernel imports compile_function at call time
        self._rebind(elastic, "compile_function", "compile.compile", on_compile)
        # run_kernel's _finalize snapshots memory and compares it with
        # the golden run: the eval layer's verify step
        self._rebind(runner, "_finalize", "eval.verify")

        make_simulator = runner.make_simulator

        def traced_make_simulator(*args, **kwargs):
            before = plan_cache_stats()
            with self.span("dataflow.codegen"):
                sim = make_simulator(*args, **kwargs)
            after = plan_cache_stats()
            self.count("dataflow.plan_misses", after["misses"] - before["misses"])
            self.count("dataflow.plan_hits", after["hits"] - before["hits"])
            if sim.engine_name != "compiled":
                self.count("dataflow.fallback_results")
            sim.run = self._traced_run(sim, sim.run)
            return sim

        runner.make_simulator = traced_make_simulator
        self._undo.append(lambda: setattr(runner, "make_simulator", make_simulator))

        for pass_cls in all_passes():
            self._rebind(pass_cls, "run", f"analysis.lint_{pass_cls.layer}")

    def _traced_run(self, sim, run):
        def traced_run(done):
            try:
                with self.span("dataflow.simulate"):
                    return run(done)
            finally:
                stats = sim.stats
                self.count("dataflow.cycles", stats.cycles)
                self.count("dataflow.transfers", stats.transfers)
                self.count("dataflow.evals", stats.propagate_calls)

        return traced_run

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time (duration minus direct children)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _result in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _result) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def to_records(self) -> List[dict]:
        return [
            {"name": name, "start": start, "end": end,
             "parent": parent, "result": result}
            for name, start, end, parent, result in self.spans
        ]
