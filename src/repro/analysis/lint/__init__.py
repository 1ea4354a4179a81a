"""Pluggable static analyzer for the PreVV flow.

Three layers of lint passes over the compilation pipeline — IR
well-formedness (``PV0xx``), circuit-graph structure including the
deadlock detector (``PV1xx``), and PreVV configuration audits
(``PV2xx``) — sharing one :class:`Diagnostic` model and pass registry.

Run it from the command line::

    python -m repro.lint <kernel>|all [--config prevv16] [--quick]

or programmatically via :func:`lint_ir` / :func:`lint_circuit` /
:func:`lint_build` / :func:`lint_kernel`.
"""

from .diagnostics import (
    CODES,
    Diagnostic,
    LintReport,
    Severity,
    make_diagnostic,
)
from .driver import lint_build, lint_circuit, lint_ir, lint_kernel, run_passes
from .registry import (
    LAYERS,
    LintContext,
    LintPass,
    all_passes,
    passes_for_layer,
    register_pass,
)

__all__ = [
    "CODES",
    "Diagnostic",
    "LintReport",
    "Severity",
    "make_diagnostic",
    "LAYERS",
    "LintContext",
    "LintPass",
    "all_passes",
    "passes_for_layer",
    "register_pass",
    "lint_build",
    "lint_circuit",
    "lint_ir",
    "lint_kernel",
    "run_passes",
]
