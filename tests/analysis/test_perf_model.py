"""Unit tests for the PVPerf ratio graph and its exact MCR solver."""

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.perf import (
    CriticalCycle,
    PerfGraph,
    RatioEdge,
    cycle_report,
    max_cycle_ratio,
    perf_graph,
)
from repro.analysis.perf.mcr import _zero_capacity_cycle
from repro.compile import compile_function
from repro.eval.configs import configs_from_names
from repro.fuzz import generate_spec, spec_to_kernel
from repro.kernels import QUICK_SIZES, get_kernel, kernel_names
from repro.dataflow import (
    Circuit,
    Fifo,
    Fork,
    Join,
    Merge,
    OpaqueBuffer,
    Operator,
    Sink,
    Source,
    TransparentBuffer,
    TransparentFifo,
)


# ----------------------------------------------------------------------
# max_cycle_ratio
# ----------------------------------------------------------------------
class TestMaxCycleRatio:
    def test_acyclic_graph_has_no_constraint(self):
        edges = [
            RatioEdge(0, 1, latency=3, capacity=1),
            RatioEdge(1, 2, latency=5, capacity=1),
        ]
        assert max_cycle_ratio(3, edges) is None

    def test_self_loop_ratio_is_exact(self):
        edges = [RatioEdge(0, 0, latency=3, capacity=2)]
        cycle = max_cycle_ratio(1, edges)
        assert cycle.ratio == Fraction(3, 2)
        assert cycle.latency == 3
        assert cycle.capacity == 2
        assert cycle.edges == (0,)
        assert not cycle.is_combinational

    def test_two_edge_cycle(self):
        edges = [
            RatioEdge(0, 1, latency=2, capacity=3),
            RatioEdge(1, 0, latency=3, capacity=2),
        ]
        cycle = max_cycle_ratio(2, edges)
        assert cycle.ratio == Fraction(5, 5)
        assert cycle.latency == 5
        assert cycle.capacity == 5
        assert sorted(cycle.edges) == [0, 1]

    def test_competing_cycles_pick_the_maximum(self):
        # cycle A (nodes 0<->1): ratio 2/2 = 1; cycle B (self-loop on 2):
        # ratio 3/1 = 3 must win.
        edges = [
            RatioEdge(0, 1, latency=1, capacity=1),
            RatioEdge(1, 0, latency=1, capacity=1),
            RatioEdge(2, 2, latency=3, capacity=1),
        ]
        cycle = max_cycle_ratio(3, edges)
        assert cycle.ratio == Fraction(3)
        assert cycle.edges == (2,)

    def test_iterative_improvement_over_shared_nodes(self):
        # Two cycles through node 0: 0->1->0 with ratio 2/4 and 0->2->0
        # with ratio 7/3.  The solver must improve past the first cycle
        # it finds and settle on the exact maximum.
        edges = [
            RatioEdge(0, 1, latency=1, capacity=2),
            RatioEdge(1, 0, latency=1, capacity=2),
            RatioEdge(0, 2, latency=4, capacity=2),
            RatioEdge(2, 0, latency=3, capacity=1),
        ]
        cycle = max_cycle_ratio(3, edges)
        assert cycle.ratio == Fraction(7, 3)
        assert sorted(cycle.edges) == [2, 3]

    def test_zero_capacity_cycle_is_combinational(self):
        edges = [
            RatioEdge(0, 1, latency=0, capacity=0),
            RatioEdge(1, 0, latency=0, capacity=0),
            RatioEdge(2, 2, latency=1, capacity=1),
        ]
        cycle = max_cycle_ratio(3, edges)
        assert cycle.is_combinational
        assert cycle.ratio is None
        assert cycle.capacity == 0

    def test_unbounded_edge_excludes_its_cycle(self):
        # The only cycle runs through capacity=None storage: it imposes
        # no throughput constraint, so no critical cycle exists.
        edges = [
            RatioEdge(0, 1, latency=1, capacity=1),
            RatioEdge(1, 0, latency=1, capacity=None),
        ]
        assert max_cycle_ratio(2, edges) is None

    def test_unbounded_edge_does_not_mask_other_cycles(self):
        edges = [
            RatioEdge(0, 1, latency=9, capacity=None),
            RatioEdge(1, 0, latency=9, capacity=1),
            RatioEdge(2, 2, latency=1, capacity=4),
        ]
        cycle = max_cycle_ratio(3, edges)
        assert cycle.ratio == Fraction(1, 4)
        assert cycle.edges == (2,)

    def test_fractional_ratio_is_exact_not_floated(self):
        edges = [
            RatioEdge(0, 1, latency=1, capacity=3),
            RatioEdge(1, 2, latency=1, capacity=3),
            RatioEdge(2, 0, latency=3, capacity=1),
        ]
        cycle = max_cycle_ratio(3, edges)
        assert cycle.ratio == Fraction(5, 7)
        assert isinstance(cycle.ratio, Fraction)


# ----------------------------------------------------------------------
# perf_model defaults
# ----------------------------------------------------------------------
class TestPerfModels:
    def test_buffer_models(self):
        assert OpaqueBuffer("b").perf_model() == (1, 1)
        assert TransparentBuffer("b").perf_model() == (0, 1)
        assert Fifo("b", depth=4).perf_model() == (1, 4)
        assert TransparentFifo("b", depth=3).perf_model() == (0, 3)

    def test_operator_models(self):
        comb = Operator("op", lambda a: a, 1, latency=0)
        assert comb.perf_model() == (0, 0)
        piped = Operator("op", lambda a: a, 1, latency=3)
        assert piped.perf_model() == (3, 3)

    def test_combinational_routing_is_zero_zero(self):
        assert Merge("m", 2).perf_model() == (0, 0)
        assert Fork("f", 2).perf_model() == (0, 0)
        assert Join("j", 2).perf_model() == (0, 0)

    def test_decoupled_components_are_unbounded(self):
        # Sink is unconditionally ready (does not observe input valid):
        # the base model cannot bound its storage, so it must report
        # capacity=None rather than a fake constraint.
        assert Sink("s").perf_model()[1] is None


# ----------------------------------------------------------------------
# perf_graph over a hand-built circuit
# ----------------------------------------------------------------------
def _ring():
    """src -> merge -> oehb -> fork -> {sink, back to merge}."""
    circuit = Circuit("ring")
    src = circuit.add(Source("src", value=1, limit=1))
    merge = circuit.add(Merge("mrg", 2))
    buf = circuit.add(OpaqueBuffer("oehb"))
    fork = circuit.add(Fork("fk", 2))
    sink = circuit.add(Sink("snk"))
    circuit.connect(src, "out", merge, "in0")
    circuit.connect(merge, "out", buf, "in")
    circuit.connect(buf, "out", fork, "in")
    circuit.connect(fork, "out0", sink, "in")
    circuit.connect(fork, "out1", merge, "in1")
    return circuit


class TestPerfGraph:
    def test_one_edge_per_channel_weighted_by_consumer(self):
        circuit = _ring()
        graph = perf_graph(circuit)
        assert isinstance(graph, PerfGraph)
        assert graph.n_nodes == len(circuit.components)
        assert len(graph.edges) == len(graph.channels)
        by_tag = {e.tag: e for e in graph.edges}
        # merge -> oehb edge carries the buffer's (1, 1) model
        [into_buf] = [
            e for name, e in by_tag.items()
            if circuit.channels[graph.edges.index(e)].consumer.name == "oehb"
        ]
        assert (into_buf.latency, into_buf.capacity) == (1, 1)

    def test_critical_cycle_is_the_ring(self):
        graph = perf_graph(_ring())
        cycle = graph.critical_cycle()
        assert cycle is not None
        # ring storage: one opaque buffer -> latency 1, capacity 1
        assert cycle.ratio == Fraction(1, 1)
        assert cycle.latency == 1
        assert cycle.capacity == 1
        names = {ch.consumer.name for ch in graph.cycle_channels(cycle)}
        assert names == {"mrg", "oehb", "fk"}

    def test_cycle_report_shape(self):
        graph = perf_graph(_ring())
        cycle = graph.critical_cycle()
        report = cycle_report(graph, cycle)
        assert report["ratio"] == "1"
        assert report["latency"] == 1
        assert report["capacity"] == 1
        assert report["combinational"] is False
        assert len(report["channels"]) == len(cycle.edges)
        assert all(isinstance(n, str) for n in report["channels"])


# ----------------------------------------------------------------------
# Oracle: the same Lawler/Bellman-Ford solver over Fraction weights
# ----------------------------------------------------------------------
def _oracle_positive_cycle(n_nodes, edges, edge_indices, lam):
    dist: Dict[int, Fraction] = {}
    pred: Dict[int, int] = {}
    zero = Fraction(0)
    weights = {
        idx: Fraction(edges[idx].latency) - lam * edges[idx].capacity
        for idx in edge_indices
    }
    for node in range(n_nodes):
        dist[node] = zero
    witness: Optional[int] = None
    for _ in range(n_nodes + 1):
        changed = False
        for idx in edge_indices:
            edge = edges[idx]
            cand = dist[edge.src] + weights[idx]
            if cand > dist[edge.dst]:
                dist[edge.dst] = cand
                pred[edge.dst] = idx
                changed = True
                witness = edge.dst
        if not changed:
            return None
    node = witness
    for _ in range(n_nodes):
        eidx = pred.get(node)
        if eidx is None:
            return None
        node = edges[eidx].src
    cycle: List[int] = []
    seen: Set[int] = set()
    while node not in seen:
        seen.add(node)
        eidx = pred.get(node)
        if eidx is None:
            return None
        cycle.append(eidx)
        node = edges[eidx].src
    start = node
    trimmed: List[int] = []
    for eidx in cycle:
        trimmed.append(eidx)
        if edges[eidx].src == start:
            break
    trimmed.reverse()
    k = trimmed.index(min(trimmed))
    return trimmed[k:] + trimmed[:k]


def _oracle_max_cycle_ratio(n_nodes, edges) -> Optional[CriticalCycle]:
    combinational = _zero_capacity_cycle(n_nodes, edges)
    if combinational is not None:
        latency = sum(edges[i].latency for i in combinational)
        return CriticalCycle(
            ratio=None, latency=latency, capacity=0, edges=combinational
        )
    bounded = [i for i, e in enumerate(edges) if e.capacity is not None]
    if not bounded:
        return None
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
        cycle = _oracle_positive_cycle(n_nodes, edges, bounded, lam)
        if cycle is None:
            return best
        latency = sum(edges[i].latency for i in cycle)
        capacity = sum(edges[i].capacity for i in cycle)
        ratio = Fraction(latency, capacity)
        if best is not None and ratio <= best.ratio:
            return best
        best = CriticalCycle(
            ratio=ratio, latency=latency, capacity=capacity, edges=tuple(cycle)
        )
        lam = ratio


@lru_cache(maxsize=None)
def _oracle_cached(n_nodes, edges):
    """The oracle once per distinct graph (configs often share one)."""
    return _oracle_max_cycle_ratio(n_nodes, list(edges))


def _graphs(max_nodes):
    """Small multigraphs: self-loops, parallel edges and tied ratios are
    all common at these sizes, and capacities include 0 and ``None``."""
    return st.integers(1, max_nodes).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.builds(
                    RatioEdge,
                    src=st.integers(0, n - 1),
                    dst=st.integers(0, n - 1),
                    latency=st.integers(0, 4),
                    capacity=st.sampled_from([None, 0, 1, 1, 2, 3]),
                ),
                max_size=3 * n,
            ),
        )
    )


class TestAgainstRationalOracle:
    """The integer solver returns the oracle's ``CriticalCycle`` exactly:
    ratio, latency, capacity and the edge tuple, ties included."""

    @settings(max_examples=300, deadline=None)
    @given(_graphs(9))
    def test_random_graphs(self, graph):
        n_nodes, edges = graph
        assert max_cycle_ratio(n_nodes, edges) == _oracle_max_cycle_ratio(
            n_nodes, edges
        )

    @pytest.mark.parametrize(
        "config", ["dynamatic", "fast_lsq", "prevv4", "prevv16", "prevv64"]
    )
    @pytest.mark.parametrize("kernel_name", kernel_names())
    def test_registered_kernels(self, kernel_name, config):
        kernel = get_kernel(kernel_name, **QUICK_SIZES.get(kernel_name, {}))
        [hw] = configs_from_names([config])
        build = compile_function(kernel.build_ir(), hw, args=kernel.args)
        graph = perf_graph(build.circuit)
        assert graph.critical_cycle() == _oracle_cached(
            graph.n_nodes, tuple(graph.edges)
        )

    @pytest.mark.parametrize("config", ["dynamatic", "prevv4"])
    @pytest.mark.parametrize("index", range(25))
    def test_generated_kernels(self, index, config):
        kernel = spec_to_kernel(generate_spec(1, index))
        [hw] = configs_from_names([config])
        build = compile_function(kernel.build_ir(), hw, args=kernel.args)
        graph = perf_graph(build.circuit)
        assert graph.critical_cycle() == _oracle_cached(
            graph.n_nodes, tuple(graph.edges)
        )


# ----------------------------------------------------------------------
# Brute force: enumerate every simple cycle of a small graph
# ----------------------------------------------------------------------
def _simple_cycles(n_nodes, edges):
    """Every simple cycle as a list of edge indices, each listed once
    (rooted at its smallest node; parallel edges give distinct cycles)."""
    out: Dict[int, List[int]] = {}
    for idx, edge in enumerate(edges):
        out.setdefault(edge.src, []).append(idx)
    cycles = []

    def extend(root, node, path, on_path):
        for idx in out.get(node, []):
            nxt = edges[idx].dst
            if nxt == root:
                cycles.append(path + [idx])
            elif nxt > root and nxt not in on_path:
                extend(root, nxt, path + [idx], on_path | {nxt})

    for root in range(n_nodes):
        extend(root, root, [], {root})
    return cycles


def _is_cycle(edges, cycle):
    return all(
        edges[a].dst == edges[b].src
        for a, b in zip(cycle, cycle[1:] + cycle[:1])
    )


class TestBruteForceExactness:
    """``max_cycle_ratio`` against the true maximum over all constrained
    simple cycles — independent of the solver's relaxation trace, so
    this also covers the predecessor-walk guards that return early."""

    @settings(max_examples=400, deadline=None)
    @given(_graphs(7))
    def test_matches_enumeration(self, graph):
        n_nodes, edges = graph
        constrained = [
            c
            for c in _simple_cycles(n_nodes, edges)
            if all(edges[i].capacity is not None for i in c)
        ]
        result = max_cycle_ratio(n_nodes, edges)
        if not constrained:
            assert result is None
            return
        assert result is not None
        assert _is_cycle(edges, list(result.edges))
        assert all(edges[i].capacity is not None for i in result.edges)
        assert result.latency == sum(edges[i].latency for i in result.edges)
        assert result.capacity == sum(edges[i].capacity for i in result.edges)
        if any(sum(edges[i].capacity for i in c) == 0 for c in constrained):
            assert result.is_combinational
            assert result.capacity == 0
            return
        assert result.ratio == max(
            Fraction(
                sum(edges[i].latency for i in c),
                sum(edges[i].capacity for i in c),
            )
            for c in constrained
        )
