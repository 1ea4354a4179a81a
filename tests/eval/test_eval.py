"""Tests for the evaluation harness (runner, tables, figures, stats)."""

import pytest

from repro.config import HardwareConfig
from repro.eval import (
    ALL_CONFIGS,
    DYNAMATIC,
    FAST_LSQ,
    PREVV16,
    PREVV64,
    configs_from_names,
    fig1_lsq_share,
    fig7_normalized,
    format_fig1,
    format_fig7,
    format_table1,
    format_table2,
    geomean,
    geomean_delta,
    percent_delta,
    prevv_with_depth,
    run_kernel,
    table1,
    table2,
)
from repro.kernels import get_kernel

SMALL = ["histogram"]
SMALL_SIZES = {"histogram": {"n": 16}}


def small_get_kernel(name, **kw):
    merged = dict(SMALL_SIZES.get(name, {}))
    merged.update(kw)
    return get_kernel(name, **merged)


@pytest.fixture(autouse=True)
def patch_sizes(monkeypatch):
    import repro.eval.figures as figures_mod
    import repro.eval.tables as tables_mod

    monkeypatch.setattr(tables_mod, "get_kernel", small_get_kernel)
    monkeypatch.setattr(figures_mod, "get_kernel", small_get_kernel)


class TestStats:
    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)

    def test_geomean_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_percent_delta(self):
        assert percent_delta(90, 100) == pytest.approx(-10.0)
        with pytest.raises(ValueError):
            percent_delta(1, 0)

    def test_geomean_delta(self):
        assert geomean_delta([(50, 100), (200, 100)]) == pytest.approx(0.0)


class TestConfigs:
    def test_paper_column_order(self):
        assert [c.name for c in ALL_CONFIGS] == [
            "dynamatic", "fast_lsq", "prevv16", "prevv64",
        ]
        assert PREVV16.prevv_depth == 16 and PREVV64.prevv_depth == 64
        assert DYNAMATIC.memory_style == "dynamatic"
        assert FAST_LSQ.memory_style == "fast"

    def test_prevv_with_depth(self):
        cfg = prevv_with_depth(32)
        assert cfg.prevv_depth == 32 and cfg.memory_style == "prevv"

    def test_configs_from_names_resolution_order(self):
        paper, deep, style = configs_from_names(
            ["dynamatic", "prevv8", "fast"]
        )
        assert paper is DYNAMATIC
        assert deep == prevv_with_depth(8)
        # a bare memory style gets every other parameter at its default
        assert style == HardwareConfig(memory_style="fast")


class TestRunner:
    def test_run_result_fields(self):
        result = run_kernel(get_kernel("histogram", n=16), PREVV16)
        assert result.verified
        assert result.cycles > 0
        assert result.transfers > 0
        assert result.mismatch_summary == "(no mismatch)"

    def test_mismatch_summary_reports_diffs(self):
        result = run_kernel(get_kernel("histogram", n=16), PREVV16)
        result.memory["hist"] = list(result.memory["hist"])
        result.memory["hist"][0] += 1
        assert "[0]" in result.mismatch_summary


class TestTables:
    def test_table1_rows_and_formatting(self):
        rows = table1(kernels=SMALL)
        assert rows[0].kernel == "histogram"
        assert rows[0].luts["prevv16"] < rows[0].luts["fast_lsq"]
        text = format_table1(rows)
        assert "histogram" in text and "geomean" in text

    def test_table2_rows_and_formatting(self):
        rows = table2(kernels=SMALL)
        row = rows[0]
        assert all(row.verified.values())
        assert row.exec_us["prevv16"] > 0
        text = format_table2(rows)
        assert "histogram" in text

    def test_table1_deltas_are_percentages(self):
        rows = table1(kernels=SMALL)
        delta = rows[0].delta("luts", "prevv16")
        assert -100 < delta < 0


class TestFigures:
    def test_fig1_shares_sum_to_one(self):
        rows = fig1_lsq_share(kernels=SMALL)
        row = rows[0]
        total = row.ordering_share + row.compute_share + row.other_share
        assert total == pytest.approx(1.0, abs=1e-6)
        assert "histogram" in format_fig1(rows)

    def test_fig7_normalized_to_dynamatic(self):
        series = fig7_normalized(kernels=SMALL)
        names = {s.config for s in series}
        assert names == {"fast_lsq", "prevv16", "prevv64"}
        for s in series:
            if s.config.startswith("prevv"):
                assert s.luts["histogram"] < 1.0
        assert "prevv16" in format_fig7(series)
