"""Lint pass base class, context object and the pass registry.

A :class:`LintPass` inspects one layer of the compilation pipeline and
emits diagnostics through the shared :class:`LintContext`.  Passes are
registered with :func:`register_pass` and discovered per layer by the
driver, so adding a new check is: subclass, declare ``layer``/``codes``,
decorate.  The context lazily computes the expensive shared artefacts
(loops, dominators, memory analysis) so passes never duplicate them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from ...config import HardwareConfig
from ...ir.function import Function
from ...ir.loops import Loop, dominators, find_loops
from .diagnostics import Diagnostic, LintReport, Severity, make_diagnostic

#: analysis layers in the order the driver runs them.
LAYERS = ("ir", "circuit", "prevv", "sanitize", "perf", "occupancy")


class LintContext:
    """Everything a pass may inspect, plus the report it writes into.

    The attributes are optional by design: an IR-only lint run carries no
    circuit, a hand-built circuit carries no function.  Passes declare
    what they need via :attr:`LintPass.requires` and the driver skips
    passes whose requirements are absent.
    """

    def __init__(
        self,
        fn: Optional[Function] = None,
        circuit=None,
        build=None,
        config: Optional[HardwareConfig] = None,
        analysis=None,
        report: Optional[LintReport] = None,
        kernel=None,
        measured=None,
        occupancy_measured=None,
    ):
        self.fn = fn
        self.circuit = circuit
        self.build = build
        self.config = config
        #: Kernel descriptor (args + inputs + golden run) for sanitize-layer
        #: passes that validate static claims against the interpreter.
        self.kernel = kernel
        #: :class:`~repro.analysis.perf.measure.PerfMeasurement` of a
        #: simulated run, when the caller supplied one; gates the PV404
        #: static-vs-measured divergence pass.
        self.measured = measured
        #: :class:`~repro.analysis.occupancy.measure.OccupancyMeasurement`
        #: of a simulated run, when the caller supplied one; gates the
        #: PV504 occupancy-divergence pass.
        self.occupancy_measured = occupancy_measured
        #: scratch space shared across passes of one run (e.g. the prover's
        #: proofs, reused by the soundness cross-check).
        self.cache: Dict = {}
        self._golden = None
        #: MemoryAnalysis under audit.  For post-build linting this is the
        #: analysis the circuit was actually built from (``build.analysis``)
        #: so stale/doctored analyses are caught by the cross-check pass.
        self._analysis = analysis
        # Explicit None check: an empty LintReport is falsy (it has __len__).
        self.report = report if report is not None else LintReport()
        self._loops: Optional[List[Loop]] = None
        self._doms: Optional[Dict] = None
        self._current_pass = ""

    # ------------------------------------------------------------------
    # Lazy shared artefacts
    # ------------------------------------------------------------------
    @property
    def loops(self) -> List[Loop]:
        if self._loops is None:
            self._loops = (
                find_loops(self.fn, self.doms) if self.fn is not None else []
            )
        return self._loops

    @property
    def doms(self) -> Dict:
        if self._doms is None:
            self._doms = dominators(self.fn) if self.fn is not None else {}
        return self._doms

    @property
    def analysis(self):
        if self._analysis is None and self.fn is not None:
            from ..ambiguous_pairs import analyze_function

            self._analysis = analyze_function(self.fn, self.loops)
        return self._analysis

    @property
    def golden(self):
        """Interpreter run of :attr:`kernel` (lazy; None without a kernel).

        Interprets :attr:`fn` itself when present — trace events reference
        instructions by identity, so the run must use the very Function
        instance the passes inspect, not a rebuilt copy.
        """
        if self._golden is None and self.kernel is not None:
            if self.fn is not None:
                from ...ir.interpreter import run_golden

                self._golden = run_golden(
                    self.fn,
                    args=self.kernel.args,
                    memory=self.kernel.memory_init,
                )
            else:
                self._golden = self.kernel.golden()
        return self._golden

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self,
        code: str,
        message: str,
        location: str = "",
        hint: str = "",
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        return self.report.add(
            make_diagnostic(
                code,
                message,
                location=location,
                hint=hint,
                pass_name=self._current_pass,
                severity=severity,
            )
        )

    @property
    def has_ir_errors(self) -> bool:
        """True when an IR-layer error was already reported.

        Later passes that interpret the IR semantically (dependence
        analysis, dominance-derived properties) guard on this so they
        never crash on — or mis-diagnose — structurally broken input.
        """
        return any(
            d.severity is Severity.ERROR and d.code.startswith("PV0")
            for d in self.report.diagnostics
        )


class LintPass:
    """Base class: one focused check over one layer."""

    #: unique pass name (kebab-case), shown in diagnostics and --explain.
    name: str = ""
    #: one of :data:`LAYERS`.
    layer: str = ""
    #: diagnostic codes this pass may emit (documentation + test hook).
    codes: Sequence[str] = ()
    #: context attributes that must be non-None for the pass to run.
    requires: Sequence[str] = ("fn",)

    def applicable(self, ctx: LintContext) -> bool:
        return all(getattr(ctx, attr, None) is not None for attr in self.requires)

    def run(self, ctx: LintContext) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


_REGISTRY: List[Type[LintPass]] = []


def register_pass(cls: Type[LintPass]) -> Type[LintPass]:
    """Class decorator: validate the declaration and add it to the registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__}: lint pass needs a name")
    if cls.layer not in LAYERS:
        raise ValueError(
            f"{cls.__name__}: layer {cls.layer!r} not one of {LAYERS}"
        )
    if not cls.codes:
        raise ValueError(f"{cls.__name__}: lint pass must declare its codes")
    from .diagnostics import CODES

    for code in cls.codes:
        if code not in CODES:
            raise ValueError(f"{cls.__name__}: unknown code {code!r}")
    if any(existing.name == cls.name for existing in _REGISTRY):
        raise ValueError(f"duplicate lint pass name {cls.name!r}")
    _REGISTRY.append(cls)
    return cls


def all_passes() -> List[Type[LintPass]]:
    return list(_REGISTRY)


def passes_for_layer(layer: str) -> List[Type[LintPass]]:
    if layer not in LAYERS:
        raise ValueError(f"unknown lint layer {layer!r}; choose from {LAYERS}")
    return [p for p in _REGISTRY if p.layer == layer]
