"""PVBound: static occupancy & liveness model checker.

Computes sound per-place upper bounds on worst-case token occupancy for
one compiled circuit — channels, buffers, memory-controller response
queues, arbiter reorder buffers, premature queues, LSQ partitions — and
proves (or refutes) that every premature queue stays within its
physical slack and that retirement cannot stall.  Surfaced as the
``occupancy`` lint layer (PV501–PV504; ``python -m repro.lint
--occupancy`` arms PV504) and the fuzz harness's occupancy-bound
differential oracle.
"""

from .domain import Interval, TripBudgets, min_bound
from .interp import solve
from .measure import (
    OccupancyCheck,
    OccupancyMeasurement,
    compare,
    measure_build,
    measure_kernel,
)
from .model import OccupancyPrediction, analyze_build
from .places import Place, PlaceGraph, extract_places
from .queue_model import (
    PRE_FIX,
    ArbiterPolicy,
    PortModel,
    QueueClaim,
    StallFinding,
    UnitModel,
    claim_for_unit,
)

__all__ = [
    "Interval",
    "TripBudgets",
    "min_bound",
    "solve",
    "OccupancyCheck",
    "OccupancyMeasurement",
    "compare",
    "measure_build",
    "measure_kernel",
    "OccupancyPrediction",
    "analyze_build",
    "Place",
    "PlaceGraph",
    "extract_places",
    "PRE_FIX",
    "ArbiterPolicy",
    "PortModel",
    "QueueClaim",
    "StallFinding",
    "UnitModel",
    "claim_for_unit",
]
