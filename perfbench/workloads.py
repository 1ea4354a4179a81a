"""The benchmark's workloads: inputs from a seed, fixed work, checked outputs.

Each workload turns a seed into a list of :class:`Task` during set-up,
then runs every task serially through the public entry points a user
calls (``run_kernel`` + ``clock_period`` + ``circuit_report`` for a
simulated result, ``lint_kernel`` or ``run_passes`` for a lint result).
Every task becomes one :class:`Outcome`; a failed task is recorded with
its kind and never dropped.

Why these three workloads (README.md has the measured shares):

* ``paper_grid`` — the paper's Tables I/II points; long simulations, so
  simulator-engine work dominates host time.  The seed does not alter
  it: the paper-fit metrics need the paper's own inputs.
* ``new_designs`` — fuzz-generated kernels nobody has compiled yet, so
  nearly every result is a plan-cache miss and codegen dominates: the
  compiled engine used the opposite way from ``paper_grid``.
* ``static_check`` — what CI lints; no simulation and no codegen, and
  PVPerf's max-cycle-ratio solver dominates.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.lint import LintContext, LintReport, lint_kernel, run_passes
from repro.area import circuit_report, clock_period, execution_time_us
from repro.compile import compile_function
from repro.config import HardwareConfig
from repro.dataflow import clear_plan_cache
from repro.errors import (
    CompileError,
    ConvergenceError,
    DeadlockError,
    SimulationError,
)
from repro.eval import run_kernel
from repro.eval.configs import ALL_CONFIGS, DYNAMATIC, prevv_with_depth
from repro.eval.stats import geomean, geomean_delta
from repro.eval.tables import PAPER_TABLE1, PAPER_TABLE2
from repro.fuzz import generate_spec, instruction_count, spec_to_kernel
from repro.kernels import PAPER_KERNELS, get_kernel, kernel_names

from spans import NULL_TRACER

#: registry (paper) sizes and the run_kernel default budget, as table2
PAPER_MAX_CYCLES = 2_000_000

#: new_designs: the LSQ baseline and a shallow PreVV queue, so PreVV
#: back-pressure is on the path
NEW_DESIGN_CONFIGS = (DYNAMATIC, prevv_with_depth(4))
#: generated kernels are taken in index order until their IR instruction
#: counts sum to this, which fixes the amount of work per seed (codegen
#: and simulation time track instruction count; ~85 kernels, whose
#: host-speed-scaled time varies by ~5% between seeds)
NEW_DESIGN_INSTRUCTIONS = 2_400
#: the same budget on both configs; every generated kernel seen so far
#: that completes does so in under 1,000 cycles, so a result that stops
#: making progress costs bounded time
NEW_DESIGN_MAX_CYCLES = 3_000

#: what ``python -m repro.lint all --config {prevv,dynamatic}`` lints
LINT_CONFIGS = (
    HardwareConfig(memory_style="prevv"),
    HardwareConfig(memory_style="dynamatic"),
)
#: generated kernels linted under PreVV, in index order until the sum of
#: cubed instruction counts reaches this (~6 kernels, ~2 s of lint work).
#: Lint cost grows as ~n^2.8, so kernels over LINT_GENERATED_MAX_N
#: instructions are skipped: one 66-instruction kernel alone takes 5 s and
#: would swing the whole run by a fifth.
LINT_GENERATED_SIZE = 80_000
LINT_GENERATED_MAX_N = 36

#: host-speed sampling: after each result, the reference loop runs for
#: this share of the result's time (at least REFERENCE_MIN_S)
REFERENCE_SHARE = 0.03
REFERENCE_MIN_S = 0.002
#: reference-loop iterations per second on the reference host (a
#: 2-vCPU Xeon VM); ``wall_ref_s`` is host time scaled to that speed
REFERENCE_RATE = 1e7

#: fields of a RunResult that the digest and the PreVV/LSQ counters read
RUN_COUNTERS = (
    "squashes", "squashed_iterations", "benign_reorders", "fake_tokens",
    "queue_full_stalls", "queue_max_occupancy", "lsq_alloc_stalls",
    "transfers",
)


@dataclass
class Task:
    """One unit of work: simulate or lint one kernel under one config."""

    index: int
    kernel: object  # a repro.kernels.Kernel
    config: HardwareConfig
    kind: str  # "simulate" | "lint_registered" | "lint_generated"
    #: ``generate_spec`` index of a generated kernel
    spec_index: Optional[int] = None
    max_cycles: int = PAPER_MAX_CYCLES
    #: a failure of this task makes the run's output check fail (as
    #: opposed to counting as a failed result of a known open class)
    must_pass: bool = True

    @property
    def config_name(self) -> str:
        # the lint CLI's configs are unnamed; name them by memory style
        if self.config.name == "default":
            return self.config.memory_style
        return self.config.name

    @property
    def label(self) -> str:
        return f"{self.kernel.name}[{self.config_name}]"


@dataclass
class Outcome:
    task: Task
    seconds: float
    #: ``None`` on success, else the failure kind
    failure: Optional[str] = None
    detail: str = ""
    #: deterministic outputs: what the digest covers
    record: Dict = field(default_factory=dict)
    cycles: int = 0
    period_ns: float = 0.0
    luts: float = 0.0
    ffs: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    warnings: int = 0


@dataclass
class Run:
    workload: str
    seed: int
    outcomes: List[Outcome]
    wall_s: float
    #: reference-loop iterations per second, sampled between results
    reference_rate: float

    @property
    def wall_ref_s(self) -> float:
        """``wall_s`` scaled to the reference host's speed.

        A shared host's speed drifts (by 10-20% over minutes on a 2-vCPU
        VM); sampling it between results and scaling cancels that drift."""
        return self.wall_s * self.reference_rate / REFERENCE_RATE

    @property
    def failures(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.failure is not None]

    @property
    def digest(self) -> str:
        text = json.dumps([o.record for o in self.outcomes], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    @property
    def correct(self) -> bool:
        """No failure outside the open-finding classes (Task.must_pass)."""
        return not any(o.task.must_pass for o in self.failures)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _generated(seed: int, budget: int, cost: Callable[[int], int], tracer,
               max_n: Optional[int] = None):
    """Generated kernels ``(index, kernel)``, taken in index order until
    ``cost(instruction count)`` summed over them reaches ``budget``;
    kernels over ``max_n`` instructions are skipped."""
    out, total, index = [], 0, 0
    while total < budget:
        with tracer.span("fuzz.generate"):
            spec = generate_spec(seed, index)
            n = instruction_count(spec)
            if max_n is None or n <= max_n:
                total += cost(n)
                out.append((index, spec_to_kernel(spec)))
        index += 1
    return out


def paper_grid_tasks(seed: int, tracer=NULL_TRACER) -> List[Task]:
    del seed, tracer  # the paper's own inputs, whatever the seed
    tasks = []
    for kname in PAPER_KERNELS:
        for cfg in ALL_CONFIGS:
            tasks.append(Task(len(tasks), get_kernel(kname), cfg, "simulate"))
    return tasks


def new_designs_tasks(seed: int, tracer=NULL_TRACER) -> List[Task]:
    kernels = _generated(seed, NEW_DESIGN_INSTRUCTIONS, lambda n: n, tracer)
    tasks = []
    for index, kernel in kernels:
        for cfg in NEW_DESIGN_CONFIGS:
            tasks.append(Task(
                len(tasks), kernel, cfg, "simulate", spec_index=index,
                max_cycles=NEW_DESIGN_MAX_CYCLES,
                # the LSQ baseline has never failed on a generated kernel;
                # PreVV failures there are the open findings (README.md)
                must_pass=cfg is DYNAMATIC,
            ))
    return tasks


def static_check_tasks(seed: int, tracer=NULL_TRACER) -> List[Task]:
    tasks = []
    for name in kernel_names():
        for cfg in LINT_CONFIGS:
            tasks.append(
                Task(len(tasks), get_kernel(name), cfg, "lint_registered")
            )
    kernels = _generated(seed, LINT_GENERATED_SIZE, lambda n: n ** 3, tracer,
                         max_n=LINT_GENERATED_MAX_N)
    for index, kernel in kernels:
        tasks.append(Task(
            len(tasks), kernel, LINT_CONFIGS[0], "lint_generated",
            spec_index=index, must_pass=False,
        ))
    return tasks


WORKLOADS = {
    "paper_grid": paper_grid_tasks,
    "new_designs": new_designs_tasks,
    "static_check": static_check_tasks,
}


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _simulate(task: Task, out: Outcome, tracer) -> None:
    try:
        result = run_kernel(
            task.kernel, task.config, max_cycles=task.max_cycles,
            keep_build=True,
        )
    except DeadlockError as exc:
        out.failure, out.detail = "deadlock", str(exc).splitlines()[0]
    except ConvergenceError as exc:
        out.failure, out.detail = "convergence", str(exc)
    except SimulationError as exc:  # the cycle budget ran out
        out.failure, out.detail = "cycle_budget", str(exc)
    except CompileError as exc:
        out.failure, out.detail = "compile", str(exc)
    except Exception as exc:  # any other raise is a failed result too
        out.failure, out.detail = f"error:{type(exc).__name__}", str(exc)
    if out.failure is not None:
        # the kind only: an exception's text may hold object addresses
        out.record = {"failure": out.failure}
        return

    circuit = result.build.circuit
    result.build = None  # drop the circuit once the area model has read it
    with tracer.span("area.model"):
        period = clock_period(circuit)
        area = circuit_report(circuit).total
    out.cycles, out.period_ns = result.cycles, period
    out.luts, out.ffs = area.luts, area.ffs
    out.counters = {name: getattr(result, name) for name in RUN_COUNTERS}
    out.record = {
        "cycles": result.cycles,
        "memory": result.memory,
        "violations": result.violations_by_kind,
        "period_ns": period,
        "luts": area.luts,
        "ffs": area.ffs,
        **out.counters,
    }
    if not result.verified:
        out.failure = "wrong_memory"
        out.detail = result.mismatch_summary.splitlines()[0]
        out.record["failure"] = out.failure


def _lint(task: Task, out: Outcome, tracer) -> None:
    try:
        if task.kind == "lint_registered":
            report = lint_kernel(task.kernel.name, task.config)
        else:
            kernel = task.kernel
            fn = kernel.build_ir()
            with tracer.span("compile.compile"):
                build = compile_function(fn, task.config, args=kernel.args)
            tracer.count("compile.components", len(build.circuit.components))
            ctx = LintContext(
                fn=fn, circuit=build.circuit, build=build,
                config=task.config, analysis=build.analysis, kernel=kernel,
                report=LintReport(subject=task.label),
            )
            report = run_passes(ctx)
    except Exception as exc:  # a raise is a failed lint result
        out.failure, out.detail = f"error:{type(exc).__name__}", str(exc)
        out.record = {"failure": out.failure}
        return
    out.warnings = len(report.warnings)
    out.record = {
        "subject": task.label,
        "diagnostics": sorted(
            [d.code, d.severity.value, d.location] for d in report.diagnostics
        ),
    }
    if report.errors:
        out.failure = "lint_error"
        out.detail = ",".join(sorted({d.code for d in report.errors}))
        out.record["failure"] = out.failure


def _reference_sample(seconds: float):
    """Run a fixed pure-Python loop for ``seconds``: (iterations, elapsed)."""
    iterations, started = 0, time.perf_counter()
    while True:
        total = 0
        for i in range(2_000):
            total += i * i % 7
        iterations += 2_000
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return iterations, elapsed


def run_tasks(workload: str, seed: int, tasks: List[Task], tracer=NULL_TRACER) -> Run:
    """Run ``tasks`` serially; ``wall_s`` is the sum of the results' times.

    The plan cache is emptied first, so a run in a warm process does
    the same codegen work as one in a fresh process.  After each result
    the reference loop samples how fast the host runs right now; that
    time is outside ``wall_s``.
    """
    clear_plan_cache()
    outcomes, iterations, sampled = [], 0, 0.0
    for task in tasks:
        out = Outcome(task, 0.0)
        started = time.perf_counter()
        with tracer.span("bench.result", result=task.index):
            if task.kind == "simulate":
                _simulate(task, out, tracer)
            else:
                _lint(task, out, tracer)
        out.seconds = time.perf_counter() - started
        outcomes.append(out)
        with tracer.span("bench.reference"):
            n, elapsed = _reference_sample(
                max(REFERENCE_MIN_S, REFERENCE_SHARE * out.seconds))
        iterations += n
        sampled += elapsed
    return Run(workload, seed, outcomes,
               sum(o.seconds for o in outcomes), iterations / sampled)


# ----------------------------------------------------------------------
# Metrics of a run
# ----------------------------------------------------------------------
def _pct(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def paper_fit(run: Run) -> Dict[str, float]:
    """``paper_*_err_pts``: |measured - paper| geomean delta vs fast_lsq.

    Rounded exactly as ``repro.eval.table1``/``table2`` round their
    cells, averaged over prevv16 and prevv64.  In-sample: DESIGN §4
    calibrates the area/CP constants against these same tables.
    """
    cell = {(o.task.kernel.name, o.task.config.name): o for o in run.outcomes}
    if run.failures or len(cell) != len(PAPER_KERNELS) * len(ALL_CONFIGS):
        return {}  # the fit needs the whole grid
    kernels = list(dict.fromkeys(k for k, _c in cell))  # PAPER_KERNELS order

    def err(value_of, paper_of) -> float:
        total = 0.0
        for cfg in ("prevv16", "prevv64"):
            measured = geomean_delta(
                (value_of(cell[(k, cfg)]), value_of(cell[(k, "fast_lsq")]))
                for k in kernels
            )
            paper = geomean_delta(
                (paper_of(k, cfg), paper_of(k, "fast_lsq")) for k in kernels
            )
            total += abs(measured - paper)
        return total / 2

    return {
        "paper_lut_err_pts": err(
            lambda o: round(o.luts), lambda k, c: PAPER_TABLE1[k][c][0]),
        "paper_ff_err_pts": err(
            lambda o: round(o.ffs), lambda k, c: PAPER_TABLE1[k][c][1]),
        "paper_exec_err_pts": err(
            lambda o: round(execution_time_us(o.cycles, o.period_ns), 2),
            lambda k, c: PAPER_TABLE2[k][c][2]),
    }


def end_to_end(runs: List[Run]) -> Dict[str, tuple]:
    """Every end-to-end metric that applies: name -> (value, unit).

    ``runs`` are passes over the same tasks; times are their medians.
    ``setup_s`` and ``peak_rss_mb`` are process-level and added by the
    caller.
    """
    run = runs[0]
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in runs), "s"),
        "wall_ref_s": (statistics.median(r.wall_ref_s for r in runs), "s"),
        "failed_frac": (len(run.failures) / len(run.outcomes), "frac"),
    }
    times = sorted(o.seconds for r in runs for o in r.outcomes)
    # a percentile is reported only with at least ten samples beyond it
    if len(times) - len(times) * 0.9 >= 10:
        metrics["result_p50_ms"] = (_pct(times, 50) * 1000, "ms")
        metrics["result_p90_ms"] = (_pct(times, 90) * 1000, "ms")
    model = model_metrics(run)
    if model:
        metrics["sim_cycles_per_s"] = (
            model["sim_cycles"][0] / metrics["wall_s"][0], "cycles/s")
        metrics.update(model)
    if run.workload == "paper_grid":
        metrics.update({k: (v, "pts") for k, v in paper_fit(run).items()})
    return metrics


def model_metrics(run: Run) -> Dict[str, tuple]:
    """The modelled design's results over the passing simulations: exact,
    identical on every host."""
    done = [o for o in run.outcomes
            if o.task.kind == "simulate" and o.failure is None]
    if not done:
        return {}
    return {
        "sim_cycles": (sum(o.cycles for o in done), "cycles"),
        "model_exec_us_geomean": (
            geomean([execution_time_us(o.cycles, o.period_ns) for o in done]),
            "us"),
        "model_luts_geomean": (geomean([o.luts for o in done]), "LUT"),
    }
