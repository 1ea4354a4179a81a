"""Tests for the lint framework itself: model, registry, CLI, pipeline."""

import json

import pytest

from repro.analysis.lint import (
    CODES,
    LintContext,
    LintPass,
    LintReport,
    Severity,
    all_passes,
    make_diagnostic,
    passes_for_layer,
    register_pass,
)
from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.registry import LAYERS
from repro.compile.passes import run_pipeline
from repro.config import HardwareConfig
from repro.errors import CompileError
from repro.ir import Function, IRBuilder
from repro.kernels import get_kernel


def tiny_clean_fn():
    fn = Function("tiny")
    b = IRBuilder(fn)
    e = b.block("entry")
    b.at(e).ret()
    return fn


class TestDiagnosticModel:
    def test_severity_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert Severity.WARNING <= Severity.WARNING

    def test_severity_parse(self):
        assert Severity.parse("ERROR") is Severity.ERROR
        with pytest.raises(ValueError):
            Severity.parse("fatal")

    def test_make_diagnostic_defaults_severity_from_table(self):
        d = make_diagnostic("PV103", "cycle")
        assert d.severity is Severity.ERROR
        assert d.title == CODES["PV103"][1]

    def test_make_diagnostic_severity_override(self):
        d = make_diagnostic("PV202", "extra pair", severity=Severity.WARNING)
        assert d.severity is Severity.WARNING

    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError):
            make_diagnostic("PV999", "nope")

    def test_format_carries_code_location_and_hint(self):
        d = make_diagnostic("PV002", "no terminator", location="f:entry",
                            hint="add a ret")
        text = d.format()
        assert "error PV002" in text
        assert "[f:entry]" in text
        assert "hint: add a ret" in text

    def test_to_dict_round_trip(self):
        d = make_diagnostic("PV011", "pair", pass_name="p")
        assert d.to_dict()["code"] == "PV011"
        assert d.to_dict()["pass"] == "p"

    def test_code_table_layers(self):
        assert all(c.startswith("PV") for c in CODES)
        assert len(CODES) >= 15


class TestLintReport:
    def _report(self):
        r = LintReport(subject="s")
        r.add(make_diagnostic("PV103", "a"))
        r.add(make_diagnostic("PV201", "b"))
        r.add(make_diagnostic("PV011", "c"))
        return r

    def test_queries(self):
        r = self._report()
        assert len(r) == 3
        assert [d.code for d in r.errors] == ["PV103"]
        assert [d.code for d in r.warnings] == ["PV201"]
        assert [d.code for d in r.infos] == ["PV011"]
        assert not r.ok
        assert r.codes() == ["PV011", "PV103", "PV201"]
        assert len(r.by_code("PV103")) == 1

    def test_empty_report_is_ok_but_falsy_len(self):
        r = LintReport()
        assert r.ok
        assert len(r) == 0

    def test_format_min_severity_filters(self):
        r = self._report()
        full = r.format()
        errs = r.format(min_severity=Severity.ERROR)
        assert "PV011" in full and "PV011" not in errs
        assert "PV103" in errs

    def test_summary_counts(self):
        assert "1 error(s), 1 warning(s), 1 info(s)" in self._report().summary()

    def test_extend(self):
        r = LintReport()
        r.extend(self._report())
        assert len(r) == 3


class TestRegistry:
    def test_all_passes_cover_every_layer(self):
        layers = {p.layer for p in all_passes()}
        assert layers == set(LAYERS)

    def test_every_declared_code_exists(self):
        declared = {c for p in all_passes() for c in p.codes}
        assert declared <= set(CODES)
        assert len(declared) >= 8

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError):
            passes_for_layer("rtl")

    def test_register_validates_declaration(self):
        class NoName(LintPass):
            layer = "ir"
            codes = ("PV001",)

        with pytest.raises(ValueError):
            register_pass(NoName)

        class BadLayer(LintPass):
            name = "x-bad-layer"
            layer = "netlist"
            codes = ("PV001",)

        with pytest.raises(ValueError):
            register_pass(BadLayer)

        class BadCode(LintPass):
            name = "x-bad-code"
            layer = "ir"
            codes = ("PV999",)

        with pytest.raises(ValueError):
            register_pass(BadCode)

        class DupName(LintPass):
            name = "ir-cfg-structure"
            layer = "ir"
            codes = ("PV001",)

        with pytest.raises(ValueError):
            register_pass(DupName)

    def test_applicable_checks_requires(self):
        class Needy(LintPass):
            name = "x-needy"
            layer = "circuit"
            codes = ("PV101",)
            requires = ("circuit", "build")

        ctx = LintContext(fn=tiny_clean_fn())
        assert not Needy().applicable(ctx)
        ctx.circuit = object()
        ctx.build = object()
        assert Needy().applicable(ctx)


class TestLintContext:
    def test_lazy_analysis(self):
        ctx = LintContext(fn=tiny_clean_fn())
        assert ctx.analysis is not None
        assert ctx.analysis.pairs == []

    def test_has_ir_errors_only_counts_ir_layer_errors(self):
        ctx = LintContext(fn=tiny_clean_fn())
        assert not ctx.has_ir_errors
        ctx.emit("PV201", "sizing warning")
        ctx.emit("PV103", "circuit error")
        assert not ctx.has_ir_errors
        ctx.emit("PV002", "ir error")
        assert ctx.has_ir_errors

    def test_explicit_empty_report_is_kept(self):
        report = LintReport(subject="mine")
        ctx = LintContext(fn=tiny_clean_fn(), report=report)
        assert ctx.report is report


class TestCli:
    def test_list_codes_and_passes(self, capsys):
        assert lint_main(["--list-codes"]) == 0
        assert "PV103" in capsys.readouterr().out
        assert lint_main(["--list-passes"]) == 0
        assert "circuit-deadlock" in capsys.readouterr().out

    def test_clean_kernel_exits_zero(self, capsys):
        assert lint_main(["fig2a", "--config", "prevv"]) == 0
        out = capsys.readouterr().out
        assert "fig2a[prevv]" in out
        assert "0 error(s)" in out

    def test_unknown_kernel_exits_one(self, capsys):
        assert lint_main(["not-a-kernel"]) == 1

    def test_warnings_only_exits_two(self, capsys, monkeypatch):
        from repro.analysis.lint import cli as cli_mod

        warned = LintReport(subject="w")
        warned.add(make_diagnostic("PV201", "sizing nit"))
        monkeypatch.setattr(
            cli_mod,
            "lint_kernel",
            lambda name, config, measured=None: warned,
        )
        assert lint_main(["vadd", "--config", "prevv"]) == 2

    def test_format_json_emits_one_object_per_line(self, capsys):
        assert lint_main(["fig2b", "--config", "prevv",
                          "--format", "json"]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line
        ]
        assert lines[0].get("meta") == "lint-run"
        assert set(lines[0]["armed_layers"]) == set(LAYERS)
        records = [r for r in lines if "meta" not in r]
        assert records, "clean prevv lint still reports INFO diagnostics"
        for record in records:
            assert record["subject"] == "fig2b[prevv]"
            assert {"code", "severity", "message", "pass"} <= set(record)

    def test_sanitize_flag_checks_the_run(self, capsys):
        assert lint_main(["recurrence", "--config", "prevv",
                          "--sanitize"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_unsound_style_exits_one(self, capsys):
        assert lint_main(["fig2a", "--config", "none"]) == 1
        assert "PV204" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert lint_main(["vadd", "--config", "prevv", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["subject"] == "vadd[prevv]"

    def test_config_prevv_n_is_the_depth_n_style(self, capsys):
        # ``--config prevv1`` replaced ``--config prevv --depth 1``,
        # which built HardwareConfig(memory_style="prevv", prevv_depth=1).
        from repro.analysis.lint import cli as cli_mod

        assert lint_main(["fig2b", "--config", "prevv1",
                          "--format", "json"]) == 2
        got = capsys.readouterr().out
        report = cli_mod.lint_kernel(
            "fig2b", HardwareConfig(memory_style="prevv", prevv_depth=1)
        )
        cli_mod._emit_jsonl([report], Severity.INFO, armed_layers=LAYERS)
        assert got == capsys.readouterr().out
        codes = [json.loads(line).get("code") for line in got.splitlines()]
        assert codes == [
            None, "PV011", "PV011", "PV201", "PV302", "PV303", "PV403",
        ]

    def test_quick_lints_and_sanitizes_the_quick_sized_kernel(
        self, capsys, monkeypatch
    ):
        from repro.analysis import sanitizer
        from repro.analysis.lint import cli as cli_mod
        from repro.kernels import QUICK_SIZES

        seen = []
        monkeypatch.setattr(
            cli_mod, "lint_kernel",
            lambda kernel, config, measured=None: seen.append(kernel)
            or LintReport(subject="q"),
        )
        monkeypatch.setattr(
            sanitizer, "sanitize_run",
            lambda kernel, config, **kw: seen.append(kernel),
        )
        assert lint_main(["gaussian", "--quick", "--sanitize"]) == 0
        linted, sanitized = seen
        assert linted is sanitized
        assert linted.args["n"] == QUICK_SIZES["gaussian"]["n"]
        assert get_kernel("gaussian").args["n"] != linted.args["n"]

    @pytest.mark.parametrize("argv", [
        ["fig2b", "--config", "warp9"],
        ["fig2b", "--bogus"],
        ["fig2b", "--layer", "nope"],
    ], ids=["unknown-config", "unknown-flag", "unknown-layer"])
    def test_usage_errors_exit_one(self, capsys, argv):
        # Exit 2 means warnings-only, which CI accepts: a typo must not.
        with pytest.raises(SystemExit) as exc:
            lint_main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err


class TestPipelineIntegration:
    def test_pipeline_attaches_clean_lint_report(self):
        k = get_kernel("fig2a")
        report = run_pipeline(
            k.build_ir(), HardwareConfig(memory_style="prevv"), args=k.args
        )
        assert report.lint is not None
        assert report.lint.ok
        assert "error(s)" in report.summary()

    def test_pipeline_lint_can_be_disabled(self):
        k = get_kernel("vadd")
        report = run_pipeline(
            k.build_ir(), HardwareConfig(), args=k.args, lint=False
        )
        assert report.lint is None

    def test_pipeline_raises_on_lint_error(self, monkeypatch):
        import repro.compile.passes as passes_mod

        bad = LintReport(subject="forced")
        bad.add(make_diagnostic("PV103", "injected cycle"))
        monkeypatch.setattr(
            passes_mod, "lint_build", lambda build, fn, config: bad
        )
        k = get_kernel("vadd")
        with pytest.raises(CompileError, match="PV103"):
            run_pipeline(k.build_ir(), HardwareConfig(), args=k.args)
