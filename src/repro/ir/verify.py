"""IR well-formedness verifier (compatibility wrapper).

The actual checks live in the lint framework's IR layer
(:mod:`repro.analysis.lint.ir_passes`, codes ``PV0xx``), which extends
the historical verifier with dominance checking and memory hygiene.
:func:`verify_function` keeps the raise-on-error contract the builder and
the tests rely on: run the IR lint passes, raise :class:`IRError` listing
every error-severity finding.  On success it returns the lint context,
so a caller can reuse the dominators, loops and memory analysis the
passes computed instead of deriving them again.
"""

from __future__ import annotations

from ..errors import IRError
from .function import Function


def verify_function(fn: Function):
    """Raise :class:`IRError` listing every problem found.

    Returns the :class:`~repro.analysis.lint.registry.LintContext` the
    IR passes ran in; its ``doms``, ``loops`` and ``analysis`` are
    computed at most once.
    """
    from ..analysis.lint import LintContext, LintReport, run_passes

    ctx = LintContext(fn=fn, report=LintReport(subject=fn.name))
    report = run_passes(ctx, layers=("ir",))
    if not report.ok:
        problems = "; ".join(d.message for d in report.errors)
        raise IRError(f"{fn.name}: {problems}")
    return ctx
