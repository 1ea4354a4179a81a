"""``python -m repro.fuzz.lint_corpus`` — lint every committed corpus spec.

Every corpus entry is a shrunk, committed reproducer of a real past
divergence.  This CLI replays each one through the full static lint
stack — IR, circuit, PreVV, sanitize, perf and occupancy layers — under
the hardware configuration recorded in its provenance, arming the
measured occupancy cross-check (PV504) on ``guard`` entries (``open``
entries still crash at runtime by contract, so only the static layers
can speak about them).

Exit codes follow ``python -m repro.lint``:

* ``0`` — every entry clean (no warning-or-worse diagnostic);
* ``1`` — an error diagnostic anywhere: a guard regressed, or a static
  layer went unsound on a committed reproducer;
* ``2`` — warnings only.

Bad arguments exit ``1`` too, so a mistyped CI step cannot pass as
"warnings only".

With ``--out`` the diagnostics are also written as JSON Lines (one
run-metadata object, then one object per diagnostic), the CI artifact
format shared with the lint CLI.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from ..analysis.lint.cli import ArgumentParser
from ..analysis.lint.diagnostics import LintReport
from ..analysis.lint.driver import run_passes
from ..analysis.lint.registry import LAYERS, LintContext
from ..compile import compile_function
from ..eval.configs import configs_from_names
from .corpus import CorpusEntry, corpus_entries
from .spec import spec_to_kernel


def lint_entry(entry: CorpusEntry, max_cycles: int = 400_000) -> LintReport:
    """Full-stack lint of one corpus entry under its provenance config."""
    kernel = spec_to_kernel(entry.spec)
    fn = kernel.build_ir()
    config_name = str(entry.provenance.get("config", "prevv16"))
    config = configs_from_names([config_name])[0]
    build = compile_function(fn, config, args=kernel.args)

    occupancy_measured = None
    if entry.status == "guard":
        from ..analysis.occupancy import measure_kernel

        _, occupancy_measured = measure_kernel(
            kernel, config, max_cycles=max_cycles
        )

    ctx = LintContext(
        fn=fn,
        circuit=build.circuit,
        build=build,
        config=config,
        analysis=build.analysis,
        kernel=kernel,
        occupancy_measured=occupancy_measured,
        report=LintReport(
            subject=f"{entry.spec.name}[{config.name}:{entry.status}]"
        ),
    )
    return run_passes(ctx)


def _emit_jsonl(reports: List[LintReport], stream) -> None:
    stream.write(json.dumps(
        {"meta": "lint-corpus", "armed_layers": list(LAYERS)},
        sort_keys=True,
    ) + "\n")
    records = []
    for report in reports:
        for diag in report.diagnostics:
            record = {"subject": report.subject}
            record.update(diag.to_dict())
            records.append(record)
    records.sort(
        key=lambda r: (
            r["subject"], r["code"], r["location"], r["message"], r["pass"]
        )
    )
    for record in records:
        stream.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = ArgumentParser(
        prog="python -m repro.fuzz.lint_corpus",
        description="Replay every committed fuzz-corpus spec through the "
        "full lint stack (including the PVBound occupancy layer, with "
        "the measured PV504 cross-check armed on guard entries).",
    )
    parser.add_argument(
        "--corpus", default=None,
        help="corpus directory (default: tests/fuzz/corpus)",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=400_000,
        help="simulation budget for the measured occupancy run",
    )
    parser.add_argument(
        "--out", default=None,
        help="also write diagnostics as JSON Lines to this path",
    )
    ns = parser.parse_args(argv)

    entries = corpus_entries(ns.corpus)
    if not entries:
        print("no corpus entries found", file=sys.stderr)
        return 1

    reports = []
    for entry in entries:
        report = lint_entry(entry, max_cycles=ns.max_cycles)
        reports.append(report)
        print(report.format(), end="\n")

    if ns.out:
        with open(ns.out, "w") as fh:
            _emit_jsonl(reports, fh)

    if any(r.errors for r in reports):
        return 1
    if any(r.warnings for r in reports):
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
