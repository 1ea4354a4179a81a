"""Benchmark kernels: the paper's five evaluation kernels plus extras."""

from .base import Kernel, get_kernel, kernel_names, lcg_values, register_kernel
from .nest import NestBuilder
from . import polyn_mult  # noqa: F401  (registration side effects)
from . import matmul      # noqa: F401
from . import gaussian    # noqa: F401
from . import triangular  # noqa: F401
from . import misc        # noqa: F401

#: kernels evaluated in the paper's Tables I/II
PAPER_KERNELS = ["polyn_mult", "2mm", "3mm", "gaussian", "triangular"]

#: reduced sizes of the paper kernels (same qualitative shape, ~10x
#: faster): ``--quick`` in ``repro.bench`` and ``repro.lint``, and the
#: default size of the ``benchmarks/`` harness
QUICK_SIZES = {
    "polyn_mult": {"n": 20},
    "2mm": {"n": 5},
    "3mm": {"n": 5},
    "gaussian": {"n": 8},
    "triangular": {"n": 24},
}

__all__ = [
    "Kernel",
    "get_kernel",
    "kernel_names",
    "lcg_values",
    "register_kernel",
    "NestBuilder",
    "PAPER_KERNELS",
    "QUICK_SIZES",
]
