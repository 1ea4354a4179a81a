"""The levelized and compiled engines are bit-identical to the seed engine.

:class:`repro.dataflow.reference.ReferenceSimulator` preserves the seed
worklist algorithm verbatim; these tests pin the levelized
:class:`~repro.dataflow.Simulator` (both the instrumented path and the
stat-free path) and the code-generating
:class:`~repro.dataflow.CompiledSimulator` to it: same cycle counts,
same transfer counts, same squash behaviour, same final memory — on
every paper kernel under every hardware configuration, and on randomly
generated circuits.  A tiered ``engine="auto"`` run that hands off from
the levelized to the compiled engine mid-run must equal a whole run on
either engine, deadlocks and cycle budgets included.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import compile_function
from repro.dataflow import (
    Circuit,
    CompiledSimulator,
    Fifo,
    Fork,
    Join,
    OpaqueBuffer,
    Operator,
    ReferenceSimulator,
    Simulator,
    Sink,
    Source,
    TransparentBuffer,
    TransparentFifo,
    clear_plan_cache,
    make_simulator,
)
from repro.dataflow import simulator as simulator_mod
from repro.config import HardwareConfig
from repro.errors import DeadlockError, SimulationError
from repro.eval.configs import ALL_CONFIGS, DYNAMATIC, PREVV16, prevv_with_depth
from repro.eval.runner import make_done_condition
from repro.fuzz import generate_spec, spec_to_kernel
from repro.kernels import PAPER_KERNELS, QUICK_SIZES, get_kernel

SIZES = {
    "polyn_mult": {"n": 10},
    "2mm": {"n": 4},
    "3mm": {"n": 4},
    "gaussian": {"n": 6},
    "triangular": {"n": 12},
}


def _run(sim_cls, kernel_name, config, **sim_kwargs):
    kernel = get_kernel(kernel_name, **SIZES[kernel_name])
    build = compile_function(
        kernel.build_ir(), config, args=kernel.args
    )
    build.memory.initialize(kernel.memory_init)
    sim = sim_cls(build.circuit, max_cycles=500_000, **sim_kwargs)
    if build.squash_controller is not None:
        sim.end_of_cycle_hooks.append(build.squash_controller.end_of_cycle)
    stats = sim.run(make_done_condition(build))
    ctrl = build.squash_controller
    return {
        "cycles": stats.cycles,
        "transfers": stats.transfers,
        "squashes": ctrl.squashes if ctrl else 0,
        "squashed_iterations": ctrl.squashed_iterations if ctrl else 0,
        "memory": build.memory.snapshot(),
    }


@pytest.mark.parametrize("kernel_name", sorted(SIZES))
@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_kernel_grid_bit_identical(kernel_name, config):
    reference = _run(ReferenceSimulator, kernel_name, config)
    stats = _run(Simulator, kernel_name, config, collect_stats=True)
    stat_free = _run(Simulator, kernel_name, config, collect_stats=False)
    compiled = _run(CompiledSimulator, kernel_name, config)
    assert stats == reference
    assert stat_free == reference
    assert compiled == reference


# PreVV-specific stress points: a depth-1 queue maximizes backpressure
# and retirement churn, a single validation slot per cycle maximizes the
# arbiter's pending backlog, and gaussian/triangular are the high-squash
# kernels (real RAW violations -> squash/replay traffic).  These pin the
# PreVV fast paths (indexed arbiter search, decode cache, cached head
# candidate) bit-identically to the seed engine, including the
# *internal* validation verdict counters, not just the architectural
# outcome.
PREVV_STRESS_CONFIGS = [
    HardwareConfig(name="prevv_d1", memory_style="prevv", prevv_depth=1),
    HardwareConfig(
        name="prevv_v1",
        memory_style="prevv",
        prevv_depth=16,
        prevv_validations_per_cycle=1,
    ),
    HardwareConfig(
        name="prevv_d1_v1",
        memory_style="prevv",
        prevv_depth=1,
        prevv_validations_per_cycle=1,
    ),
]

PREVV_STRESS_KERNELS = ["gaussian", "triangular"]


def _run_prevv(sim_cls, kernel_name, config, **sim_kwargs):
    kernel = get_kernel(kernel_name, **SIZES[kernel_name])
    build = compile_function(
        kernel.build_ir(), config, args=kernel.args
    )
    build.memory.initialize(kernel.memory_init)
    sim = sim_cls(build.circuit, max_cycles=500_000, **sim_kwargs)
    sim.end_of_cycle_hooks.append(build.squash_controller.end_of_cycle)
    stats = sim.run(make_done_condition(build))
    ctrl = build.squash_controller
    violations = {"raw": 0, "war": 0, "waw": 0}
    benign = 0
    for unit in build.units:
        for kind, count in unit.violations_by_kind.items():
            violations[kind] += count
        benign += unit.benign_reorders
    return {
        "cycles": stats.cycles,
        "transfers": stats.transfers,
        "squashes": ctrl.squashes,
        "squashed_iterations": ctrl.squashed_iterations,
        "violations_by_kind": violations,
        "benign_reorders": benign,
        "memory": build.memory.snapshot(),
    }


@pytest.mark.parametrize("kernel_name", PREVV_STRESS_KERNELS)
@pytest.mark.parametrize(
    "config", PREVV_STRESS_CONFIGS, ids=lambda c: c.name
)
def test_prevv_stress_grid_bit_identical(kernel_name, config):
    reference = _run_prevv(ReferenceSimulator, kernel_name, config)
    stats = _run_prevv(Simulator, kernel_name, config, collect_stats=True)
    stat_free = _run_prevv(Simulator, kernel_name, config,
                           collect_stats=False)
    compiled = _run_prevv(CompiledSimulator, kernel_name, config)
    assert stats == reference
    assert stat_free == reference
    assert compiled == reference
    # The stress points must actually exercise the squash/replay path;
    # otherwise this grid silently tests nothing.
    if kernel_name == "gaussian":
        assert reference["squashes"] > 0


def _random_circuit(stages, fork_at, limit):
    """A linear elastic pipeline with one fork/join diamond.

    ``stages`` draws from a small component menu; the diamond at
    ``fork_at`` exercises eager-fork done bits and join synchronization
    under both engines.
    """
    circuit = Circuit("rand")
    source = circuit.add(Source("src", value=3, limit=limit))
    prev, prev_port = source, "out"
    for i, kind in enumerate(stages):
        if kind == 0:
            comp = circuit.add(OpaqueBuffer(f"oehb{i}"))
        elif kind == 1:
            comp = circuit.add(TransparentBuffer(f"tehb{i}"))
        elif kind == 2:
            comp = circuit.add(Fifo(f"fifo{i}", depth=2))
        elif kind == 3:
            comp = circuit.add(TransparentFifo(f"tfifo{i}", depth=2))
        elif kind == 4:
            comp = circuit.add(
                Operator(f"inc{i}", lambda a: a + 1, 1, latency=0)
            )
        else:
            comp = circuit.add(
                Operator(f"mul{i}", lambda a: a * 2, 1, latency=2)
            )
        circuit.connect(prev, prev_port, comp, "in" if kind < 4 else "in0")
        prev, prev_port = comp, "out"
    fork = circuit.add(Fork("fk", 2))
    circuit.connect(prev, prev_port, fork, "in")
    slow = circuit.add(OpaqueBuffer("slow"))
    circuit.connect(fork, "out0", slow, "in")
    join = circuit.add(Join("jn", 2))
    circuit.connect(slow, "out", join, "in0")
    circuit.connect(fork, "out1", join, "in1")
    sink = circuit.add(Sink("snk"))
    circuit.connect(join, "out", sink, "in")
    return circuit, sink


@settings(max_examples=30, deadline=None)
@given(
    stages=st.lists(st.integers(0, 5), min_size=1, max_size=6),
    limit=st.integers(1, 8),
    cycles=st.integers(1, 40),
)
def test_random_circuits_bit_identical(stages, limit, cycles):
    results = []
    for build_sim in (
        lambda c: ReferenceSimulator(c),
        lambda c: Simulator(c, collect_stats=True),
        lambda c: Simulator(c, collect_stats=False),
        lambda c: CompiledSimulator(c),
    ):
        circuit, sink = _random_circuit(stages, 0, limit)
        sim = build_sim(circuit)
        sim.run_cycles(cycles)
        results.append(
            (sim.stats.cycles, sim.stats.transfers, sink.values)
        )
    assert results[1] == results[0]
    assert results[2] == results[0]
    assert results[3] == results[0]


# ----------------------------------------------------------------------
# Tier handoff: an ``auto`` run that starts levelized and continues
# compiled equals a whole run on one engine
# ----------------------------------------------------------------------
HANDOFF_CYCLES = (1, 2, 17, simulator_mod.HANDOFF_CYCLE)
PREVV1 = HardwareConfig(name="prevv1", memory_style="prevv", prevv_depth=1)
HANDOFF_POINTS = [
    (kernel_name, config)
    for kernel_name in PAPER_KERNELS
    for config in (DYNAMATIC, prevv_with_depth(4), PREVV16)
] + [("gaussian", PREVV1)]


def _observe(kernel, config, engine, **sim_kwargs):
    """Build and run ``kernel`` under ``config``; (observables, sim)."""
    build = compile_function(kernel.build_ir(), config, args=kernel.args)
    build.memory.initialize(kernel.memory_init)
    if engine == "auto":
        clear_plan_cache()  # a plan-cache miss: the run starts levelized
    sim = make_simulator(build.circuit, engine=engine, **sim_kwargs)
    if build.squash_controller is not None:
        sim.end_of_cycle_hooks.append(build.squash_controller.end_of_cycle)
    stats = sim.run(make_done_condition(build))
    ctrl = build.squash_controller
    violations = {}
    for unit in build.units:
        for kind, count in unit.violations_by_kind.items():
            violations[kind] = violations.get(kind, 0) + count
    observed = {
        "cycles": stats.cycles,
        "transfers": stats.transfers,
        "squashes": ctrl.squashes if ctrl else 0,
        "squashed_iterations": ctrl.squashed_iterations if ctrl else 0,
        "violations_by_kind": violations,
        "memory": build.memory.snapshot(),
    }
    if sim_kwargs.get("count_transfers"):
        observed["channel_transfers"] = {
            ch.name: ch.transfers for ch in build.circuit.channels
        }
    return observed, sim


@lru_cache(maxsize=None)
def _whole_runs(kernel_name, config):
    """(compiled, reference) observables of one quick-size point."""
    kernel = get_kernel(kernel_name, **QUICK_SIZES[kernel_name])
    return tuple(
        _observe(kernel, config, engine, max_cycles=500_000)[0]
        for engine in ("compiled", "reference")
    )


@pytest.mark.parametrize("handoff", HANDOFF_CYCLES)
@pytest.mark.parametrize(
    "kernel_name,config", HANDOFF_POINTS,
    ids=[f"{k}-{c.name}" for k, c in HANDOFF_POINTS],
)
def test_handoff_equals_whole_runs(kernel_name, config, handoff,
                                   monkeypatch):
    monkeypatch.setattr(simulator_mod, "HANDOFF_CYCLE", handoff)
    kernel = get_kernel(kernel_name, **QUICK_SIZES[kernel_name])
    tiered, sim = _observe(kernel, config, "auto", max_cycles=500_000)
    compiled, reference = _whole_runs(kernel_name, config)
    assert tiered == compiled
    assert tiered == reference
    if tiered["cycles"] > handoff:
        assert sim.engine_name == "compiled"
        assert sim.engine_reason == f"handoff at cycle {handoff}"
    else:
        assert sim.engine_name == "levelized"
    if (kernel_name, config.name) == ("gaussian", "prevv1"):
        assert tiered["squashes"] > 0  # the squash-heavy point squashes


def _deadlock_kernel():
    """A generated kernel that deadlocks under prevv4 (an open PreVV
    finding, kept here as a fixed deadlocking circuit)."""
    return spec_to_kernel(generate_spec(2, 59))


def _raised(kernel, config, engine, exc_type, **sim_kwargs):
    with pytest.raises(exc_type) as info:
        _observe(kernel, config, engine, **sim_kwargs)
    return str(info.value)


def test_handoff_inside_the_quiet_window_reports_the_same_deadlock(
    monkeypatch,
):
    """The deadlock detector's quiet-cycle count crosses the handoff: a
    handoff after the last transfer must not delay the report."""
    kernel, config = _deadlock_kernel(), prevv_with_depth(4)
    window = 256  # the default deadlock_window
    want = _raised(kernel, config, "reference", DeadlockError)
    assert _raised(kernel, config, "compiled", DeadlockError) == want
    deadlock_at = int(want.split(" at cycle ")[1].split(";")[0])
    quiet_from = deadlock_at - window
    assert 2 < quiet_from < simulator_mod.HANDOFF_CYCLE < deadlock_at
    for handoff in (1, quiet_from + 1, simulator_mod.HANDOFF_CYCLE,
                    deadlock_at - 1):
        monkeypatch.setattr(simulator_mod, "HANDOFF_CYCLE", handoff)
        assert _raised(kernel, config, "auto", DeadlockError) == want, (
            handoff
        )


@pytest.mark.parametrize("handoff", [17, 120])
def test_handoff_keeps_the_cycle_budget(handoff, monkeypatch):
    """Budget 100: a handoff at 17 runs out compiled, one at 120 never
    happens — the same error either way."""
    monkeypatch.setattr(simulator_mod, "HANDOFF_CYCLE", handoff)
    kernel = get_kernel("gaussian", **QUICK_SIZES["gaussian"])
    want = _raised(kernel, PREVV16, "reference", SimulationError,
                   max_cycles=100)
    assert "exceeded 100 cycles" in want
    assert _raised(kernel, PREVV16, "compiled", SimulationError,
                   max_cycles=100) == want
    assert _raised(kernel, PREVV16, "auto", SimulationError,
                   max_cycles=100) == want


@pytest.mark.parametrize("config", [DYNAMATIC, PREVV16],
                         ids=lambda c: c.name)
def test_handoff_keeps_per_channel_transfer_counts(config, monkeypatch):
    monkeypatch.setattr(simulator_mod, "HANDOFF_CYCLE", 17)
    kernel = get_kernel("polyn_mult", n=6)
    tiered, sim = _observe(kernel, config, "auto", count_transfers=True)
    compiled, _ = _observe(kernel, config, "compiled", count_transfers=True)
    reference, _ = _observe(kernel, config, "reference",
                            count_transfers=True)
    assert sim.engine_reason == "handoff at cycle 17"
    assert tiered == compiled
    assert tiered == reference
    assert sum(tiered["channel_transfers"].values()) == tiered["transfers"]
