"""Evaluation harness: configs, runner, paper tables and figures."""

from .configs import (
    ALL_CONFIGS,
    BY_NAME,
    DYNAMATIC,
    FAST_LSQ,
    PREVV16,
    PREVV64,
    configs_from_names,
    prevv_with_depth,
)
from .runner import RunResult, make_done_condition, run_grid, run_kernel
from .stats import geomean, geomean_delta, percent_delta
from .tables import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    Table1Row,
    Table2Row,
    format_table1,
    format_table2,
    table1,
    table2,
)
from .figures import (
    Fig1Row,
    Fig7Series,
    fig1_lsq_share,
    fig7_normalized,
    format_fig1,
    format_fig7,
)

__all__ = [
    "ALL_CONFIGS",
    "BY_NAME",
    "DYNAMATIC",
    "FAST_LSQ",
    "PREVV16",
    "PREVV64",
    "configs_from_names",
    "prevv_with_depth",
    "RunResult",
    "make_done_condition",
    "run_grid",
    "run_kernel",
    "geomean",
    "geomean_delta",
    "percent_delta",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "Table1Row",
    "Table2Row",
    "format_table1",
    "format_table2",
    "table1",
    "table2",
    "Fig1Row",
    "Fig7Series",
    "fig1_lsq_share",
    "fig7_normalized",
    "format_fig1",
    "format_fig7",
]
