"""PVPerf: static throughput proofs for elaborated dataflow circuits.

The package answers "how fast can this circuit possibly go?" without
simulating it:

* :mod:`~repro.analysis.perf.mcr` — exact maximum cycle ratio over
  (latency, capacity)-weighted graphs;
* :mod:`~repro.analysis.perf.model` — elastic circuit -> ratio graph,
  via each component's :meth:`~repro.dataflow.component.Component.perf_model`;
* :mod:`~repro.analysis.perf.pressure` — PreVV validation-bandwidth and
  premature-queue-depth constraints;
* :mod:`~repro.analysis.perf.predict` — the bundled
  :class:`~repro.analysis.perf.predict.PerfPrediction` API;
* :mod:`~repro.analysis.perf.measure` — measured counterparts and the
  static-vs-measured soundness comparison (PV404's engine).

Every reported number is a provable *lower* bound on the initiation
interval / cycle count; the PV4xx lint layer (PV404 armed by
``python -m repro.lint --perf``) and the fuzz harness are the consumers.
"""

from .mcr import CriticalCycle, RatioEdge, max_cycle_ratio
from .measure import CheckRecord, PerfMeasurement, compare, measure_kernel
from .model import PerfGraph, cycle_report, perf_graph
from .predict import PerfPrediction, predict
from .pressure import (
    QueuePressure,
    ValidationPressure,
    queue_pressure,
    validation_pressure,
)

__all__ = [
    "CheckRecord",
    "CriticalCycle",
    "PerfGraph",
    "PerfMeasurement",
    "PerfPrediction",
    "QueuePressure",
    "RatioEdge",
    "ValidationPressure",
    "compare",
    "cycle_report",
    "max_cycle_ratio",
    "measure_kernel",
    "perf_graph",
    "predict",
    "queue_pressure",
    "validation_pressure",
]
