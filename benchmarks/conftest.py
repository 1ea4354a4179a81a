"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
heavy work (compile + cycle-accurate simulation) runs inside the
benchmarked callable; ``--benchmark-only`` therefore both times the
harness and prints the regenerated rows next to the paper's numbers.
"""

import pytest

from repro.kernels import QUICK_SIZES


def pytest_addoption(parser):
    parser.addoption(
        "--full-size",
        action="store_true",
        default=False,
        help="run benchmarks at full paper-scale kernel sizes "
        "(default: reduced sizes for quick regeneration)",
    )


@pytest.fixture(scope="session")
def full_size(request):
    return request.config.getoption("--full-size")


@pytest.fixture(scope="session")
def bench_kernel_sizes(full_size):
    """Kernel size overrides: paper-scale when --full-size, smaller sizes
    (same qualitative shape, ~10x faster) otherwise."""
    if full_size:
        return {}  # registry defaults are the paper-scale sizes
    return QUICK_SIZES
