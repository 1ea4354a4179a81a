"""PVBound's front door: one compiled circuit in, one prediction out.

:func:`analyze_build` composes the pipeline —

1. abstract the circuit into a :class:`~.places.PlaceGraph`;
2. run the interval fixpoint (:func:`~.interp.solve`) to bound every
   backpressured / budgeted place;
3. bound each premature queue with the acceptance-policy transition
   model (:func:`~.queue_model.claim_for_unit`), which also yields the
   liveness verdict —

and packages the result as an :class:`OccupancyPrediction` the lint
passes and the fuzz oracle share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .domain import Interval
from .interp import solve
from .places import PlaceGraph, extract_places
from .queue_model import (
    ArbiterPolicy,
    QueueClaim,
    StallFinding,
    claim_for_unit,
)


@dataclass
class OccupancyPrediction:
    """Static occupancy bounds for one compiled (kernel, config)."""

    subject: str
    policy: ArbiterPolicy
    graph: PlaceGraph
    #: fixpoint interval per place name
    intervals: Dict[str, Interval] = field(default_factory=dict)
    #: derived upper bound per place name (None = no finite bound)
    bounds: Dict[str, Optional[int]] = field(default_factory=dict)
    claims: List[QueueClaim] = field(default_factory=list)
    stalls: List[StallFinding] = field(default_factory=list)

    @property
    def overflow_units(self) -> List[str]:
        """Units whose premature queue can overflow physically (PV502)."""
        return [c.unit for c in self.claims if c.overflow_reachable]

    @property
    def all_bounded(self) -> bool:
        return all(b is not None for b in self.bounds.values())


def analyze_build(
    build,
    fn,
    args: Optional[Dict[str, int]] = None,
    policy: Optional[ArbiterPolicy] = None,
) -> OccupancyPrediction:
    """Prove occupancy bounds for one :class:`BuildResult`."""
    policy = policy or ArbiterPolicy.implemented()
    graph = extract_places(build, fn, args)
    intervals = solve(graph)

    claims: List[QueueClaim] = []
    stalls: List[StallFinding] = []
    queue_bounds: Dict[str, Optional[int]] = {}
    for unit in graph.units:
        claim, stall = claim_for_unit(unit, policy)
        claims.append(claim)
        if stall is not None:
            stalls.append(stall)
        queue_bounds[f"queue:{unit.name}"] = claim.bound

    bounds: Dict[str, Optional[int]] = {}
    for name, interval in intervals.items():
        if name in queue_bounds:
            bounds[name] = queue_bounds[name]
        else:
            bounds[name] = interval.hi

    return OccupancyPrediction(
        subject=build.circuit.name,
        policy=policy,
        graph=graph,
        intervals=intervals,
        bounds=bounds,
        claims=claims,
        stalls=stalls,
    )
