"""Exact maximum cycle ratio over (latency, capacity)-weighted graphs.

The steady-state initiation interval of an elastic circuit is bounded
below by its *worst cycle*: a directed cycle of total latency ``L`` whose
storage can hold at most ``C`` tokens sustains at most ``C / L``
traversals per clock, so any computation that must send one token per
iteration around it has ``II >= L / C``.  Finding the binding constraint
is therefore a maximum-cycle-ratio problem over the token-flow graph.

The solver is Lawler-style iterative improvement with exact arithmetic:
starting from a ratio every cycle beats, repeatedly find a cycle whose
weight ``sum(L - lambda * C)`` is positive under the current candidate
``lambda`` (Bellman-Ford longest-path relaxation with positive-cycle
extraction), tighten ``lambda`` to that cycle's exact ratio, and stop
when no cycle beats it.  Each round strictly increases ``lambda`` within
the finite set of simple-cycle ratios, so termination is guaranteed, and
the final cycle — the *critical cycle* — is returned alongside the ratio.

Bellman-Ford runs on integers: for ``lambda = p/q`` each edge weighs
``L * q - p * C``, which is ``q > 0`` times its rational weight, so
every comparison — and with it the whole relaxation trace — is the one
rational weights would give.  ``Fraction`` appears only in ``lambda``
and the returned ratio.

Ties between equally critical cycles resolve deterministically:
``lambda`` only ever rises strictly, so the result is the first cycle
found at the maximum ratio — the lowest-index self-loop of that ratio
if there is one, otherwise the cycle the edge-index-order trace
extracts, rotated to start at its smallest edge index.  Howard's policy
iteration or early cycle detection would find the same ratio but may
pick a different cycle on ties, and the cycle's first channel is the
location PV401 reports.

Edges with ``capacity=None`` (components whose storage the model cannot
bound) are excluded: a cycle through unbounded storage imposes no
throughput constraint, so dropping those edges computes the exact
maximum over the *constrained* cycles only.  Cycles whose total capacity
is zero hold no token at all — a combinational cycle, the same structure
PV103 flags — and are reported as an infinite ratio (``ratio=None``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class RatioEdge:
    """One edge of the ratio graph: ``src -> dst`` with its traversal cost.

    ``capacity=None`` means unbounded storage (the edge constrains no
    cycle); ``capacity=0`` means the edge holds no token (a cycle of only
    such edges is combinational).
    """

    src: int
    dst: int
    latency: int
    capacity: Optional[int]
    #: opaque label carried through to the critical-cycle report
    tag: str = ""


@dataclass(frozen=True)
class CriticalCycle:
    """The binding cycle of a ratio graph.

    ``ratio`` is ``None`` for a combinational (zero-capacity) cycle —
    the II constraint is infinite because the cycle can never fire.
    """

    ratio: Optional[Fraction]
    latency: int
    capacity: int
    #: edge indices (into the input edge list) along the cycle, in order
    edges: Tuple[int, ...]

    @property
    def is_combinational(self) -> bool:
        return self.ratio is None


def _zero_capacity_cycle(
    n_nodes: int, edges: Sequence[RatioEdge]
) -> Optional[Tuple[int, ...]]:
    """A cycle made entirely of zero-capacity edges, if one exists.

    Iterative DFS with an explicit edge stack; deterministic for a given
    edge order (lowest edge index explored first).
    """
    out: Dict[int, List[int]] = {}
    for idx, edge in enumerate(edges):
        if edge.capacity == 0:
            out.setdefault(edge.src, []).append(idx)
    color: Dict[int, int] = {}  # 0/absent = white, 1 = on stack, 2 = done
    for root in sorted(out):
        if color.get(root):
            continue
        path: List[int] = []  # edge indices of the current DFS path
        stack: List[Tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            node, i = stack[-1]
            succs = out.get(node, [])
            if i < len(succs):
                stack[-1] = (node, i + 1)
                eidx = succs[i]
                nxt = edges[eidx].dst
                state = color.get(nxt, 0)
                if state == 1:  # back edge: close the cycle
                    cycle = [eidx]
                    for pidx in reversed(path):
                        if edges[cycle[-1]].src == nxt:
                            break
                        cycle.append(pidx)
                    cycle.reverse()
                    # rotate so the cycle starts at its smallest edge index
                    k = cycle.index(min(cycle))
                    return tuple(cycle[k:] + cycle[:k])
                if state == 0:
                    color[nxt] = 1
                    path.append(eidx)
                    stack.append((nxt, 0))
            else:
                color[node] = 2
                stack.pop()
                if path:
                    path.pop()
    return None


def _positive_cycle(
    n_nodes: int,
    edges: Sequence[RatioEdge],
    edge_indices: Sequence[int],
    lam: Fraction,
) -> Optional[List[int]]:
    """A cycle with ``sum(latency - lam * capacity) > 0``, or ``None``.

    Bellman-Ford longest-path relaxation from a virtual source connected
    to every node with weight 0, over the edges in ``edge_indices`` order
    with a strict ``>`` test.  For ``lam = p/q`` every edge weighs the
    integer ``latency * q - p * capacity``: scaling all weights by
    ``q > 0`` preserves every comparison, so ``dist``, ``pred`` and the
    witness evolve exactly as they would over rational weights.  If any
    edge still relaxes in round ``n_nodes + 1``, a positive cycle exists
    and is extracted by walking the predecessor chain.
    """
    p, q = lam.numerator, lam.denominator
    rows = [
        (idx, edges[idx].src, edges[idx].dst,
         edges[idx].latency * q - p * edges[idx].capacity)
        for idx in edge_indices
    ]
    dist = [0] * n_nodes
    pred = [-1] * n_nodes  # node -> edge index that last improved it

    for _ in range(n_nodes + 1):
        witness = -1
        for idx, src, dst, weight in rows:
            cand = dist[src] + weight
            if cand > dist[dst]:
                dist[dst] = cand
                pred[dst] = idx
                witness = dst
        if witness < 0:
            return None
    # ``witness`` was relaxed in the final round, so its value exceeds
    # every simple path's weight; an acyclic predecessor chain would
    # bound it by one, so the chain from it enters a positive cycle and
    # walking predecessors n steps lands inside it.  The ``-1`` guards
    # below are therefore unreachable; they keep a broken chain from
    # indexing ``edges[-1]``.
    node = witness
    for _ in range(n_nodes):
        eidx = pred[node]
        if eidx < 0:
            return None
        node = edges[eidx].src
    cycle: List[int] = []
    seen: Set[int] = set()
    while node not in seen:
        seen.add(node)
        eidx = pred[node]
        if eidx < 0:
            return None
        cycle.append(eidx)
        node = edges[eidx].src
    # The pred-walk collects edges dst->src order; keep only the simple
    # cycle closing at the revisited node, then restore forward order.
    start = node
    trimmed: List[int] = []
    for eidx in cycle:
        trimmed.append(eidx)
        if edges[eidx].src == start:
            break
    trimmed.reverse()
    k = trimmed.index(min(trimmed))
    return trimmed[k:] + trimmed[:k]


def max_cycle_ratio(
    n_nodes: int, edges: Sequence[RatioEdge]
) -> Optional[CriticalCycle]:
    """The maximum latency/capacity cycle ratio and its critical cycle.

    Returns ``None`` when the constrained subgraph is acyclic (no cycle
    bounds the II), a :class:`CriticalCycle` with ``ratio=None`` when a
    zero-capacity (combinational) cycle exists, and the exact maximum
    ratio as a :class:`~fractions.Fraction` otherwise.
    """
    combinational = _zero_capacity_cycle(n_nodes, edges)
    if combinational is not None:
        latency = sum(edges[i].latency for i in combinational)
        return CriticalCycle(
            ratio=None, latency=latency, capacity=0, edges=combinational
        )

    bounded = [i for i, e in enumerate(edges) if e.capacity is not None]
    if not bounded:
        return None

    # Self-loops short-circuit Bellman-Ford: their ratio is immediate.
    best: Optional[CriticalCycle] = None
    lam = Fraction(-1)
    for idx in bounded:
        edge = edges[idx]
        if edge.src == edge.dst:
            ratio = Fraction(edge.latency, edge.capacity)
            if best is None or ratio > best.ratio:
                best = CriticalCycle(
                    ratio=ratio,
                    latency=edge.latency,
                    capacity=edge.capacity,
                    edges=(idx,),
                )
    if best is not None:
        lam = best.ratio

    while True:
        cycle = _positive_cycle(n_nodes, edges, bounded, lam)
        if cycle is None:
            return best
        latency = sum(edges[i].latency for i in cycle)
        capacity = sum(edges[i].capacity for i in cycle)
        ratio = Fraction(latency, capacity)
        if best is not None and ratio <= best.ratio:
            # Numerically impossible (the cycle was strictly positive
            # under lam = best.ratio) but guards against livelock.
            return best
        best = CriticalCycle(
            ratio=ratio, latency=latency, capacity=capacity, edges=tuple(cycle)
        )
        lam = ratio
