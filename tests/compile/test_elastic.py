"""Tests for the elastic circuit builder."""

import pytest

from repro.compile import compile_function
from repro.config import HardwareConfig
from repro.dataflow import Fork, Simulator
from repro.errors import CompileError, ConfigError
from repro.eval.runner import make_done_condition
from repro.ir import Function, IRBuilder, run_golden
from repro.kernels import NestBuilder, get_kernel

NONE_CFG = HardwareConfig(name="none", memory_style="none")
DYN = HardwareConfig(name="dyn", memory_style="dynamatic")
PREVV = HardwareConfig(name="pv", memory_style="prevv", prevv_depth=8)


def build_vadd(n_elems=8):
    fn = Function("vadd")
    b = IRBuilder(fn)
    n = b.arg("n")
    a, bb, c = b.array("a", n_elems), b.array("b", n_elems), b.array("c", n_elems)
    b.at(b.block("entry"))
    nest = NestBuilder(b)
    i = nest.open_loop("i", n).iv
    b.store(c, i, b.add(b.load(a, i), b.load(bb, i)))
    nest.close_loop()
    b.ret()
    return fn


def simulate(build, memory_init, max_cycles=50_000):
    build.memory.initialize(memory_init)
    sim = Simulator(build.circuit, max_cycles=max_cycles, deadlock_window=128)
    if build.squash_controller is not None:
        sim.end_of_cycle_hooks.append(build.squash_controller.end_of_cycle)
    sim.run(make_done_condition(build))
    return sim


class TestBuilderBasics:
    def test_vadd_compiles_and_validates(self):
        build = compile_function(build_vadd(), NONE_CFG, args={"n": 4})
        assert build.circuit.components
        assert build.controllers and not build.lsqs and not build.units

    def test_unbound_argument_rejected(self):
        with pytest.raises(CompileError, match="must be bound"):
            compile_function(build_vadd(), NONE_CFG, args={})

    def test_none_style_refuses_hazards(self):
        kernel = get_kernel("histogram", n=8)
        with pytest.raises(CompileError, match="unsound"):
            compile_function(kernel.build_ir(), NONE_CFG, args=kernel.args)

    def test_hazard_free_kernel_gets_no_lsq_under_dynamatic(self):
        build = compile_function(build_vadd(), DYN, args={"n": 4})
        assert not build.lsqs  # vadd has no conflicted arrays

    def test_conflicted_array_gets_lsq(self):
        kernel = get_kernel("histogram", n=8)
        build = compile_function(kernel.build_ir(), DYN, args=kernel.args)
        assert len(build.lsqs) == 1
        assert build.lsqs[0].array == "hist"

    def test_prevv_style_creates_unit_and_gate(self):
        kernel = get_kernel("histogram", n=8)
        build = compile_function(kernel.build_ir(), PREVV, args=kernel.args)
        assert len(build.units) == 1
        assert build.units[0].queue.depth == 8
        assert build.gates  # one domain gate for the loop
        assert build.squash_controller is not None

    def test_every_port_connected(self):
        kernel = get_kernel("gaussian", n=4)
        build = compile_function(kernel.build_ir(), PREVV, args=kernel.args)
        for comp in build.circuit.components:
            for port in comp.expected_inputs():
                assert port in comp.inputs, (comp.name, port)

    def test_forks_inserted_for_fanout(self):
        build = compile_function(build_vadd(), NONE_CFG, args={"n": 4})
        assert build.circuit.components_of(Fork)

    def test_backedge_channels_marked(self):
        build = compile_function(build_vadd(), NONE_CFG, args={"n": 4})
        backedges = [c for c in build.circuit.channels if c.is_backedge]
        assert backedges


class TestEndToEnd:
    def test_vadd_matches_golden(self):
        fn = build_vadd()
        init = {"a": [1, 2, 3, 4], "b": [9, 8, 7, 6]}
        golden = run_golden(fn, args={"n": 4}, memory=init)
        build = compile_function(build_vadd(), NONE_CFG, args={"n": 4})
        simulate(build, init)
        assert build.memory.snapshot()["c"] == golden.memory["c"]

    @pytest.mark.parametrize("style", ["dynamatic", "fast", "prevv"])
    def test_histogram_all_styles(self, style):
        kernel = get_kernel("histogram", n=16)
        cfg = HardwareConfig(name=style, memory_style=style, prevv_depth=8)
        build = compile_function(kernel.build_ir(), cfg, args=kernel.args)
        simulate(build, kernel.memory_init)
        golden = kernel.golden()
        assert build.memory.snapshot()["hist"] == golden.memory["hist"]

    def test_conditional_kernel_fake_tokens_flow(self):
        kernel = get_kernel("triangular", n=6)
        build = compile_function(kernel.build_ir(), PREVV, args=kernel.args)
        simulate(build, kernel.memory_init)
        assert sum(u.fake_tokens for u in build.units) > 0

    def test_multi_nest_kernel_cross_phase(self):
        kernel = get_kernel("2mm", n=4)
        build = compile_function(kernel.build_ir(), PREVV, args=kernel.args)
        phases = {
            cfg.phase for unit in build.units for cfg in unit.ports
        }
        assert len(phases) == 2  # producer nest and consumer nest
        simulate(build, kernel.memory_init)
        golden = kernel.golden()
        assert build.memory.snapshot()["D"] == golden.memory["D"]


class TestConfig:
    def test_unknown_style_rejected(self):
        with pytest.raises(ConfigError):
            HardwareConfig(memory_style="magic")

    def test_alloc_latency_defaults(self):
        assert HardwareConfig(memory_style="dynamatic").effective_alloc_latency == 3
        assert HardwareConfig(memory_style="fast").effective_alloc_latency == 1

    def test_with_override(self):
        cfg = HardwareConfig(memory_style="prevv").with_(prevv_depth=64)
        assert cfg.prevv_depth == 64


def test_loop_analysis_runs_once_per_compile(monkeypatch):
    """compile_function derives loops once (in the IR lint it runs first)
    and reuses them everywhere, and never scans blocks per predecessor
    query: the builder reads ``Function.predecessor_map``."""
    import sys

    from repro.ir import loops as loops_mod
    from repro.ir.function import Function as FunctionCls
    from repro.kernels import kernel_names

    calls = {"find_loops": 0, "predecessors": 0}
    find_loops = loops_mod.find_loops

    def counted_find_loops(*args, **kwargs):
        calls["find_loops"] += 1
        return find_loops(*args, **kwargs)

    def counted_predecessors(self, block):
        calls["predecessors"] += 1
        return [b for b in self.blocks if block in b.successors]

    # Callers bind find_loops by name at import: patch every binding.
    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro")
            and getattr(module, "find_loops", None) is find_loops
        ):
            monkeypatch.setattr(module, "find_loops", counted_find_loops)
    monkeypatch.setattr(FunctionCls, "predecessors", counted_predecessors)

    names = kernel_names()
    for name in names:
        kernel = get_kernel(name)
        compile_function(kernel.build_ir(), PREVV, args=kernel.args)
    assert calls == {"find_loops": len(names), "predecessors": 0}
