"""Command-line front end: ``python -m repro.lint <kernel> [options]``.

Runs the full six-layer analysis over one registered kernel (or every
kernel with ``all``) under a chosen hardware configuration and prints
the report.  Three flags arm the static-vs-measured cross-checks, each
by simulating the kernel once more:

* ``--sanitize`` runs the PVSan sequential-consistency oracle alongside
  the simulation and merges its findings into the same report;
* ``--perf`` measures the run and arms the PV404 divergence check of
  the PVPerf layer;
* ``--occupancy`` samples peak occupancies and arms the PV504
  divergence check of the PVBound layer.

``--layer`` restricts the run to named layers (for example ``--layer
occupancy``); ``--quick`` lints the paper kernels at their reduced
sizes (:data:`repro.kernels.QUICK_SIZES`).  CI runs the soundness grid
as one ``all --quick --layer X --X`` invocation per config.

Exit codes (stable; CI keys off them):

* ``0`` — clean: no diagnostic at warning severity or above;
* ``1`` — at least one error-severity diagnostic, or the invocation
  itself failed (unknown kernel or config, bad arguments);
* ``2`` — warnings only: something deserves a look, nothing is wrong
  enough to block.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ...config import HardwareConfig
from ...errors import ConfigError
from ...eval.configs import configs_from_names
from ...kernels import QUICK_SIZES, get_kernel, kernel_names
from .diagnostics import CODES, LintReport, Severity
from .driver import lint_kernel
from .registry import LAYERS, all_passes


class ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, not argparse's 2.

    Exit 2 means "warnings only" to every lint CLI, and CI accepts it;
    a mistyped flag must fail the step instead.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _config(name: str) -> HardwareConfig:
    try:
        return configs_from_names([name])[0]
    except (ValueError, ConfigError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(
        prog="python -m repro.lint",
        description="Static analyzer for PreVV dataflow kernels: IR "
        "well-formedness, circuit deadlock/token checks, PreVV "
        "configuration audits and the PVSan disambiguation prover. "
        "Exits 0 when clean, 1 on errors, 2 on warnings only.",
    )
    parser.add_argument(
        "kernel",
        nargs="?",
        help="registered kernel name, or 'all' for every kernel "
        f"(known: {', '.join(kernel_names())})",
    )
    parser.add_argument(
        "--config",
        type=_config,
        default="prevv",
        help="hardware config to compile under: a paper config "
        "(dynamatic, fast_lsq, prevv16, prevv64), prevv<N> for a "
        "depth-N premature queue, or a bare memory style (none, "
        "dynamatic, fast, prevv) with default parameters "
        "(default: prevv)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="lint the paper kernels at their reduced sizes "
        "(repro.kernels.QUICK_SIZES)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="also simulate under the PVSan sequential-consistency "
        "oracle and merge its findings into the report",
    )
    parser.add_argument(
        "--perf",
        action="store_true",
        help="also simulate the kernel, pair the PVPerf static bounds "
        "with their measured counterparts and arm the PV404 "
        "divergence check",
    )
    parser.add_argument(
        "--occupancy",
        action="store_true",
        help="also simulate the kernel under the peak-occupancy "
        "sampler, pair the PVBound static bounds with the measured "
        "peaks and arm the PV504 divergence check",
    )
    parser.add_argument(
        "--layer",
        dest="layers",
        action="append",
        choices=LAYERS,
        metavar="NAME",
        help="run only the named lint layer (repeatable; default: all "
        f"layers — {', '.join(LAYERS)})",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print per-pass wall times after each text report "
        "(always present in --json output)",
    )
    parser.add_argument(
        "--max-cycles",
        type=int,
        default=2_000_000,
        help="simulation budget for --sanitize, --perf and --occupancy "
        "(default: 2000000)",
    )
    parser.add_argument(
        "--min-severity",
        default="info",
        choices=[s.value for s in Severity],
        help="hide diagnostics below this severity (default: info)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=("text", "json"),
        help="output format: human-readable text, or JSON Lines with "
        "one diagnostic object per line (default: text)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full report(s) as one JSON document "
        "(legacy; prefer --format json)",
    )
    parser.add_argument(
        "--list-codes",
        action="store_true",
        help="print the diagnostic code table and exit",
    )
    parser.add_argument(
        "--list-passes",
        action="store_true",
        help="print the registered lint passes and exit",
    )
    parser.add_argument(
        "--list",
        dest="list_all",
        action="store_true",
        help="enumerate every registered pass (name, layer, worst "
        "severity, one-line doc) and exit",
    )
    return parser


def _list_codes() -> str:
    lines = ["code   severity  title"]
    for code, (severity, title) in sorted(CODES.items()):
        lines.append(f"{code}  {severity.value:<8}  {title}")
    return "\n".join(lines)


def _list_passes() -> str:
    lines = ["layer     pass                          codes"]
    for pass_cls in all_passes():
        codes = ", ".join(pass_cls.codes)
        lines.append(f"{pass_cls.layer:<8}  {pass_cls.name:<28}  {codes}")
    return "\n".join(lines)


def _pass_doc(pass_cls) -> str:
    """First line of the pass docstring, stripped of trailing period."""
    doc = (pass_cls.__doc__ or "").strip().splitlines()
    return doc[0].rstrip(".") if doc else ""


def _pass_severity(pass_cls) -> Severity:
    """Worst default severity among the codes a pass may emit."""
    return max(CODES[code][0] for code in pass_cls.codes)


def _list_all() -> str:
    """Full pass inventory: name, layer, worst severity, one-line doc.

    Sorted by (layer order, name) so the listing is stable however the
    pass modules happened to register.
    """
    order = {layer: i for i, layer in enumerate(LAYERS)}
    lines = ["pass                            layer     severity  summary"]
    for pass_cls in sorted(
        all_passes(), key=lambda p: (order[p.layer], p.name)
    ):
        lines.append(
            f"{pass_cls.name:<30}  {pass_cls.layer:<8}  "
            f"{_pass_severity(pass_cls).value:<8}  {_pass_doc(pass_cls)}"
        )
    return "\n".join(lines)


def _exit_code(reports: List[LintReport]) -> int:
    """0 clean / 1 errors / 2 warnings-only, over all reports."""
    if any(report.errors for report in reports):
        return 1
    if any(report.warnings for report in reports):
        return 2
    return 0


def _emit_jsonl(
    reports: List[LintReport],
    min_severity: Severity,
    armed_layers: Optional[List[str]] = None,
) -> None:
    """One JSON object per diagnostic — greppable, CI-artifact friendly.

    The first line is a run-metadata object carrying the armed-layer
    set (``{"meta": "lint-run", "armed_layers": [...]}``), so a
    consumer can tell "no PV5xx findings" apart from "occupancy layer
    never ran".  Diagnostic records follow, sorted by (subject, code,
    location, message, pass) so two runs over the same kernels diff
    cleanly even if pass execution order ever changes.
    """
    if armed_layers is not None:
        print(json.dumps(
            {"meta": "lint-run", "armed_layers": list(armed_layers)},
            sort_keys=True,
        ))
    records = []
    for report in reports:
        for diag in report.diagnostics:
            if diag.severity < min_severity:
                continue
            record = {"subject": report.subject}
            record.update(diag.to_dict())
            records.append(record)
    records.sort(
        key=lambda r: (
            r["subject"], r["code"], r["location"], r["message"], r["pass"]
        )
    )
    for record in records:
        print(json.dumps(record, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.list_codes:
        print(_list_codes())
        return 0
    if ns.list_passes:
        print(_list_passes())
        return 0
    if ns.list_all:
        print(_list_all())
        return 0
    if ns.kernel is None:
        parser.error("a kernel name (or 'all') is required")

    config = ns.config
    names = kernel_names() if ns.kernel == "all" else [ns.kernel]
    min_severity = Severity.parse(ns.min_severity)
    # keep driver order, drop duplicates
    layers = [l for l in LAYERS if l in ns.layers] if ns.layers else None

    reports = []
    for name in names:
        try:
            kernel = get_kernel(
                name, **(QUICK_SIZES.get(name, {}) if ns.quick else {})
            )
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        kwargs = {"measured": None}
        if ns.perf:
            from ..perf import measure_kernel

            _, kwargs["measured"] = measure_kernel(
                kernel, config, max_cycles=ns.max_cycles
            )
        if ns.occupancy:
            from ..occupancy import measure_kernel as measure_occupancy

            _, kwargs["occupancy_measured"] = measure_occupancy(
                kernel, config, max_cycles=ns.max_cycles
            )
        if layers is not None:
            kwargs["layers"] = layers
        report = lint_kernel(kernel, config, **kwargs)
        if ns.sanitize and report.ok:
            # lint_kernel already ran the static sanitize layer; append
            # only the dynamic oracle findings to the same report.
            from ..sanitizer import sanitize_run

            sanitize_run(
                kernel,
                config,
                max_cycles=ns.max_cycles,
                report=report,
                static=False,
            )
        reports.append(report)

    if ns.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    elif ns.fmt == "json":
        _emit_jsonl(
            reports, min_severity,
            armed_layers=list(layers) if layers is not None else list(LAYERS),
        )
    else:
        for report in reports:
            print(report.format(min_severity=min_severity))
            if ns.timings:
                print(report.format_timings())
    return _exit_code(reports)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
