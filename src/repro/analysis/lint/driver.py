"""Lint driver: assemble a context, run the registered passes, report.

Entry points by granularity:

* :func:`lint_ir` — IR layer only (what ``repro.ir.verify`` now wraps);
* :func:`lint_circuit` — circuit layer over an already-built circuit;
* :func:`lint_build` — every layer over a finished
  :class:`~repro.compile.elastic.BuildResult`, auditing the analysis the
  circuit was actually built from;
* :func:`lint_kernel` — compile a kernel (registered name or
  :class:`~repro.kernels.Kernel`) under a config and lint the whole
  stack; stops after the IR layer when the IR itself is broken (nothing
  downstream is meaningful then).

``lint_kernel`` also runs the PVSan *sanitize* layer: the kernel
descriptor gives the sanitize passes the concrete scalar arguments and
the interpreter golden run they validate prover claims against.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ...config import HardwareConfig
from ...ir.function import Function
from .diagnostics import LintReport
from .registry import LAYERS, LintContext, passes_for_layer

# Importing the pass modules populates the registry as a side effect.
from . import ir_passes  # noqa: F401
from . import circuit_passes  # noqa: F401
from . import prevv_passes  # noqa: F401
from . import sanitizer_passes  # noqa: F401
from . import perf_passes  # noqa: F401
from . import occupancy_passes  # noqa: F401


def run_passes(
    ctx: LintContext, layers: Sequence[str] = LAYERS
) -> LintReport:
    """Run every applicable registered pass for ``layers``, in order.

    Each pass's wall time accumulates into ``ctx.report.timings`` (a
    pass run over several layers via repeated calls keeps one summed
    entry), so slow analyses are visible in both output formats.
    """
    for layer in layers:
        for pass_cls in passes_for_layer(layer):
            lint_pass = pass_cls()
            if not lint_pass.applicable(ctx):
                continue
            ctx._current_pass = lint_pass.name
            started = time.perf_counter()
            try:
                lint_pass.run(ctx)
            finally:
                ctx.report.record_timing(
                    lint_pass.name, time.perf_counter() - started
                )
    ctx._current_pass = ""
    return ctx.report


def lint_ir(
    fn: Function, config: Optional[HardwareConfig] = None
) -> LintReport:
    """IR-layer lint of a function (structure, phis, def-use, memory)."""
    ctx = LintContext(fn=fn, config=config, report=LintReport(subject=fn.name))
    return run_passes(ctx, layers=("ir",))


def lint_circuit(
    circuit,
    fn: Optional[Function] = None,
    build=None,
    config: Optional[HardwareConfig] = None,
) -> LintReport:
    """Circuit-layer lint of a (possibly hand-built) component graph."""
    ctx = LintContext(
        fn=fn,
        circuit=circuit,
        build=build,
        config=config,
        report=LintReport(subject=getattr(circuit, "name", "circuit")),
    )
    return run_passes(ctx, layers=("circuit",))


def lint_build(
    build,
    fn: Optional[Function] = None,
    config: Optional[HardwareConfig] = None,
) -> LintReport:
    """Every layer over a finished build.

    The PreVV layer audits ``build.analysis`` — the pair set the circuit
    was *actually* built from — against a freshly derived dependence set,
    so a stale or hand-edited analysis is caught here.
    """
    config = config if config is not None else build.config
    ctx = LintContext(
        fn=fn,
        circuit=build.circuit,
        build=build,
        config=config,
        analysis=build.analysis,
        report=LintReport(subject=fn.name if fn is not None else "build"),
    )
    return run_passes(ctx)


def lint_kernel(
    kernel,
    config: HardwareConfig,
    measured=None,
    occupancy_measured=None,
    layers: Optional[Sequence[str]] = None,
) -> LintReport:
    """Compile a kernel under ``config`` and lint every layer.

    ``kernel`` is a registered kernel name (instantiated at its default
    size) or a :class:`~repro.kernels.Kernel`.  When the IR layer reports errors the kernel is not compiled — the
    report carries the IR diagnostics only.  Otherwise the circuit is
    built exactly as ``run_pipeline`` would build it and the circuit,
    PreVV, sanitize, perf and occupancy layers run over the result.
    ``measured`` (a :class:`~repro.analysis.perf.measure.
    PerfMeasurement`) arms the PV404 static-vs-measured divergence
    check; ``occupancy_measured`` (an :class:`~repro.analysis.occupancy.
    measure.OccupancyMeasurement`) arms PV504 the same way.  ``layers``
    restricts the run to a subset of :data:`LAYERS` (the IR layer still
    gates compilation — broken IR never reaches a post-build layer).
    """
    from ...compile.elastic import compile_function
    from ...errors import CompileError
    from ...kernels import get_kernel

    selected = tuple(LAYERS) if layers is None else tuple(layers)
    for layer in selected:
        if layer not in LAYERS:
            raise ValueError(
                f"unknown lint layer {layer!r}; choose from {LAYERS}"
            )
    if isinstance(kernel, str):
        kernel = get_kernel(kernel)
    fn = kernel.build_ir()
    report = LintReport(subject=f"{kernel.name}[{config.memory_style}]")
    ctx = LintContext(
        fn=fn,
        config=config,
        report=report,
        kernel=kernel,
        measured=measured,
        occupancy_measured=occupancy_measured,
    )
    run_passes(ctx, layers=("ir",) if "ir" in selected else ())
    if not report.ok:
        return report
    post_ir = tuple(l for l in selected if l != "ir")
    if not post_ir:
        return report
    try:
        build = compile_function(fn, config, args=kernel.args)
    except CompileError:
        # The builder rejected the configuration outright (e.g. ambiguous
        # pairs under memory_style='none').  The PreVV-layer passes can
        # explain *why* without a circuit; re-raise if they cannot.
        run_passes(
            ctx, layers=tuple(l for l in ("prevv", "sanitize") if l in post_ir)
        )
        if report.ok:
            raise
        return report
    ctx.circuit = build.circuit
    ctx.build = build
    ctx._analysis = build.analysis
    return run_passes(ctx, layers=post_ir)
