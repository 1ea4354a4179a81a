"""Elastic circuit synthesis: IR functions -> dataflow circuits.

This is the reproduction of Dynamatic's netlist generation [15] plus the
paper's LLVM pass that swaps the LSQ for PreVV components:

* every basic block gets a control token stream (Entry for the entry
  block, ControlMerge at multi-predecessor joins);
* SSA values are routed along CFG edges: Branch components at conditional
  exits, Mux components (driven by the ControlMerge index) at joins;
* OEHB+TEHB buffer pairs on back-edges give loops their token storage;
* memory accesses attach to a per-array interface:

  - hazard-free arrays        -> plain :class:`MemoryController`;
  - conflicted arrays (LSQ)   -> :class:`LoadStoreQueue` with per-block
    allocation groups;
  - conflicted arrays (PreVV) -> plain controller (premature execution)
    **plus** a :class:`PreVVUnit` observing packed ``(index, value)``
    copies of every member operation, with ReplayGates tagging loop-body
    iterations, fake-token generators on skipped conditional paths
    (Sec. V-C) and done-token generators on nest exits.

The builder enforces the structural restrictions stated in DESIGN.md:
PreVV member operations must live in innermost loop bodies of (possibly
imperfect) nests, and conditional members must be guarded by a single
if-branch whose skip edge can trigger the fake token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis import MemoryAnalysis, PreVVGroup, reduce_pairs
from ..config import HardwareConfig
from ..dataflow import (
    Branch,
    Circuit,
    Constant,
    ControlMerge,
    Entry,
    Fifo,
    Fork,
    Mux,
    OpaqueBuffer,
    Operator,
    Select,
    Sink,
    TransparentBuffer,
    TransparentFifo,
)
from ..errors import CompileError
from ..ir import (
    Argument,
    BasicBlock,
    BinaryInst,
    BranchInst,
    ConstInt,
    Function,
    Instruction,
    JumpInst,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    Value,
    back_edges,
    innermost_loop_of,
    verify_function,
)
from ..lsq import GroupSpec, LoadStoreQueue
from ..memory import Memory, MemoryController
from ..prevv import (
    DoneTokenGenerator,
    FakeTokenGenerator,
    PairPacker,
    PortConfig,
    PreVVUnit,
    ReplayGate,
    SquashController,
)

Endpoint = Tuple[object, str]  # (component, output port)


@dataclass
class BuildResult:
    """Everything the runner needs to simulate and measure a kernel."""

    circuit: Circuit
    memory: Memory
    config: HardwareConfig
    exit_sink: Sink
    ret_sink: Optional[Sink]
    controllers: List[MemoryController] = field(default_factory=list)
    lsqs: List[LoadStoreQueue] = field(default_factory=list)
    units: List[PreVVUnit] = field(default_factory=list)
    gates: List[ReplayGate] = field(default_factory=list)
    squash_controller: Optional[SquashController] = None
    analysis: Optional[MemoryAnalysis] = None
    groups: List[PreVVGroup] = field(default_factory=list)

    @property
    def memory_interfaces(self):
        return list(self.controllers) + list(self.lsqs)


def compile_function(
    fn: Function,
    config: HardwareConfig,
    args: Optional[Dict[str, int]] = None,
) -> BuildResult:
    """Compile ``fn`` into an elastic circuit under ``config``.

    ``args`` binds scalar arguments to constants (the evaluation fixes
    kernel sizes at synthesis time, exactly like the paper's HLS flow).
    """
    return _Builder(fn, config, args or {}).build()


class _Builder:
    def __init__(self, fn: Function, config: HardwareConfig, args: Dict[str, int]):
        # The IR lint passes already computed the loop analysis: reuse it.
        ir = verify_function(fn)
        self.fn = fn
        self.config = config
        self.args = args
        for arg in fn.args:
            if arg.name not in args:
                raise CompileError(
                    f"{fn.name}: argument {arg.name!r} must be bound at compile "
                    "time (pass args={...})"
                )
        self.circuit = Circuit(f"{fn.name}_{config.name}")
        self.memory = Memory({n: d.size for n, d in fn.arrays.items()})
        self.doms = ir.doms
        self.loops = ir.loops
        self._back_edges = back_edges(fn, self.doms)
        self.backedges = set((id(a), id(b)) for a, b in self._back_edges)
        self._preds = fn.predecessor_map()
        self.analysis = ir.analysis
        self.groups = reduce_pairs(self.analysis)
        if config.memory_style == "none" and self.analysis.pairs:
            raise CompileError(
                f"{fn.name}: kernel has ambiguous pairs; memory_style='none' "
                "would be unsound"
            )
        # Bookkeeping
        self._uid = 0
        self._demands: Dict[Tuple[int, str], List[Tuple[object, str]]] = {}
        self._endpoint_owner: Dict[Tuple[int, str], object] = {}
        self._val_points: Dict[Tuple[int, int], Endpoint] = {}  # (bb, value)
        self._ctrl_points: Dict[int, Endpoint] = {}
        self._bb_consts: Dict[Tuple[int, int], Endpoint] = {}
        self._edge_gates: List[ReplayGate] = []
        self._domain_gates: Dict[int, ReplayGate] = {}
        self._domain_of_loop: Dict[int, int] = {}
        self._live_in: Dict[int, Set[Value]] = {}
        self._phase_of_loop: Dict[int, int] = {}
        self._op_port: Dict[int, Tuple[object, int]] = {}
        self._packer_feeds: List = []
        self.result: Optional[BuildResult] = None

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def _name(self, prefix: str) -> str:
        self._uid += 1
        return f"{prefix}_{self._uid}"

    def _demand(self, src: Endpoint, dst_comp, dst_port: str) -> None:
        comp, port = src
        key = (id(comp), port)
        self._demands.setdefault(key, []).append((dst_comp, dst_port))
        self._endpoint_owner[key] = comp

    def _finalize_demands(self) -> None:
        """Insert forks for fan-out, sinks for dangling outputs.

        Every fork output gets a transparent slack FIFO: an eager fork
        cannot accept its next token until the slowest consumer took the
        current one, so without slack one slow consumer (say, an operator
        waiting on a multiplier) serializes every sibling path.  This is
        the role of Dynamatic's buffer-placement pass.
        """
        slack_depth = max(2, self.config.mem_port_slack)
        for (comp_id, port), consumers in list(self._demands.items()):
            comp = self._endpoint_owner[(comp_id, port)]
            if len(consumers) == 1:
                dst, dport = consumers[0]
                self.circuit.connect(comp, port, dst, dport)
            else:
                fork = self.circuit.add(
                    Fork(self._name(f"fork_{comp.name}"), len(consumers))
                )
                self.circuit.connect(comp, port, fork, "in")
                for k, (dst, dport) in enumerate(consumers):
                    slack = self.circuit.add(
                        TransparentFifo(
                            self._name(f"slk_{comp.name}_{k}"), slack_depth
                        )
                    )
                    self.circuit.connect(fork, f"out{k}", slack, "in")
                    self.circuit.connect(slack, "out", dst, dport)
        # Dangling outputs -> sinks (e.g. unused branch sides).
        for comp in list(self.circuit.components):
            for port in list(getattr(comp, "_declared_outputs", [])):
                if port not in comp.outputs:
                    sink = self.circuit.add(
                        Sink(self._name(f"sink_{comp.name}"), record=False)
                    )
                    self.circuit.connect(comp, port, sink, "in")

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def _compute_liveness(self) -> None:
        fn = self.fn

        def trackable(v: Value) -> bool:
            return isinstance(v, (Instruction, Argument))

        uses: Dict[int, Set[Value]] = {}
        defs: Dict[int, Set[Value]] = {}
        for block in fn.blocks:
            u: Set[Value] = set()
            d: Set[Value] = set(block.phis)
            for inst in block.instructions:
                for op in inst.operands:
                    if trackable(op):
                        u.add(op)
                d.add(inst)
            uses[id(block)] = u
            defs[id(block)] = d
        # Arguments are defined in entry.
        defs[id(fn.entry)] |= set(fn.args)

        live_in: Dict[int, Set[Value]] = {id(b): set() for b in fn.blocks}
        changed = True
        while changed:
            changed = False
            for block in reversed(fn.blocks):
                out: Set[Value] = set()
                for succ in block.successors:
                    out |= live_in[id(succ)] - set(succ.phis)
                    for phi in succ.phis:
                        inc = phi.incoming_for(block)
                        if trackable(inc):
                            out.add(inc)
                new_in = (uses[id(block)] | out) - defs[id(block)]
                new_in -= set(block.phis)
                if new_in != live_in[id(block)]:
                    live_in[id(block)] = new_in
                    changed = True
        self._live_in = live_in

    def _routed_values(self, block: BasicBlock) -> List[Value]:
        """Values that must arrive at ``block`` per activation (sorted)."""
        values = set(self._live_in[id(block)]) | set(block.phis)
        return sorted(values, key=lambda v: v.name)

    # ------------------------------------------------------------------
    # Build phases
    # ------------------------------------------------------------------
    def build(self) -> BuildResult:
        self._compute_liveness()
        self._assign_domains_and_phases()
        interfaces = self._create_memory_interfaces()
        self._create_block_components()
        self._wire_edges()
        self._wire_instructions()
        self._wire_memory(interfaces)
        exit_sink, ret_sink = self._wire_exit()
        squash_ctrl = self._wire_prevv_support(interfaces)
        self._finalize_demands()
        self.circuit.validate()
        result = BuildResult(
            circuit=self.circuit,
            memory=self.memory,
            config=self.config,
            exit_sink=exit_sink,
            ret_sink=ret_sink,
            controllers=[
                c for c in interfaces.values()
                if isinstance(c, MemoryController)
            ],
            lsqs=[
                c for c in interfaces.values()
                if isinstance(c, LoadStoreQueue)
            ],
            units=list(self._units),
            gates=list(self._edge_gates),
            squash_controller=squash_ctrl,
            analysis=self.analysis,
            groups=self.groups,
        )
        self.result = result
        return result

    # ------------------------------------------------------------------
    # Domains and phases (PreVV only)
    # ------------------------------------------------------------------
    def _block_of(self, inst: Instruction) -> BasicBlock:
        return inst.parent

    def _top_loop_of(self, loop):
        while loop.parent is not None:
            loop = loop.parent
        return loop

    def _assign_domains_and_phases(self) -> None:
        if self.config.memory_style != "prevv" or not self.groups:
            return
        # Phases: top-level loops in program order.
        top_loops = [l for l in self.loops if l.parent is None]
        top_loops.sort(key=lambda l: self.fn.blocks.index(l.header))
        for phase, loop in enumerate(top_loops):
            self._phase_of_loop[id(loop)] = phase
        # Every loop gets a squash domain: a violation in an inner loop
        # cascades to enclosing/related loops (their tokens are derived
        # from squashed iterations), so every loop needs replay gates.
        for op in (
            op for group in self.groups
            for op in list(group.loads) + list(group.stores)
        ):
            if innermost_loop_of(self.loops, self._block_of(op)) is None:
                raise CompileError(
                    f"{self.fn.name}: PreVV operation {op.name} is not "
                    "inside any loop"
                )
        for next_domain, loop in enumerate(self.loops):
            self._domain_of_loop[id(loop)] = next_domain

    # ------------------------------------------------------------------
    # Memory interfaces
    # ------------------------------------------------------------------
    def _mem_ops_in_program_order(self, array: str):
        ops = []
        for block in self.fn.blocks:
            for inst in block.memory_ops():
                if inst.array.name == array:
                    ops.append(inst)
        return ops

    def _create_memory_interfaces(self) -> Dict[str, object]:
        cfg = self.config
        interfaces: Dict[str, object] = {}
        self._units: List[PreVVUnit] = []
        for array in sorted(self.fn.arrays):
            ops = self._mem_ops_in_program_order(array)
            if not ops:
                continue
            loads = [o for o in ops if isinstance(o, LoadInst)]
            stores = [o for o in ops if isinstance(o, StoreInst)]
            conflicted = array in self.analysis.conflicted_arrays
            use_lsq = conflicted and cfg.memory_style in ("dynamatic", "fast")
            if use_lsq:
                groups = self._lsq_groups(array, loads, stores)
                lsq = LoadStoreQueue(
                    self._name(f"lsq_{array}"),
                    self.memory,
                    array,
                    n_loads=len(loads),
                    n_stores=len(stores),
                    groups=groups,
                    depth_loads=cfg.lsq_depth_loads,
                    depth_stores=cfg.lsq_depth_stores,
                    alloc_latency=cfg.effective_alloc_latency,
                    load_latency=cfg.load_latency,
                    loads_per_cycle=cfg.loads_per_cycle,
                    stores_per_cycle=cfg.stores_per_cycle,
                    style=cfg.memory_style,
                    addr_width=cfg.addr_width,
                    data_width=cfg.data_width,
                )
                self.circuit.add(lsq)
                interfaces[array] = lsq
            else:
                mc = MemoryController(
                    self._name(f"mc_{array}"),
                    self.memory,
                    array,
                    n_loads=len(loads),
                    n_stores=len(stores),
                    load_latency=cfg.load_latency,
                    loads_per_cycle=cfg.loads_per_cycle,
                    stores_per_cycle=cfg.stores_per_cycle,
                    addr_width=cfg.addr_width,
                    data_width=cfg.data_width,
                )
                self.circuit.add(mc)
                interfaces[array] = mc
            for i, op in enumerate(loads):
                self._op_port[id(op)] = (interfaces[array], i)
                self._val_points[(id(op.parent), id(op))] = (
                    interfaces[array],
                    f"ld{i}_data",
                )
            for j, op in enumerate(stores):
                self._op_port[id(op)] = (interfaces[array], j)
        return interfaces

    def _lsq_groups(self, array, loads, stores) -> List[GroupSpec]:
        load_index = {id(op): i for i, op in enumerate(loads)}
        store_index = {id(op): j for j, op in enumerate(stores)}
        groups = []
        self._lsq_group_blocks: Dict[str, List[BasicBlock]] = getattr(
            self, "_lsq_group_blocks", {}
        )
        blocks = []
        for block in self.fn.blocks:
            ops = [o for o in block.memory_ops() if o.array.name == array]
            if not ops:
                continue
            spec = []
            for op in ops:
                if isinstance(op, LoadInst):
                    spec.append(("load", load_index[id(op)]))
                else:
                    spec.append(("store", store_index[id(op)]))
            groups.append(GroupSpec(spec))
            blocks.append(block)
        self._lsq_group_blocks[array] = blocks
        return groups

    # ------------------------------------------------------------------
    # Pass 1: per-block components
    # ------------------------------------------------------------------
    def _create_block_components(self) -> None:
        fn = self.fn
        self._muxes: Dict[Tuple[int, int], Mux] = {}
        self._cmerges: Dict[int, ControlMerge] = {}
        for block in fn.blocks:
            preds = self._preds.get(block, [])
            if block is fn.entry:
                entry = self.circuit.add(Entry(f"entry_{block.name}"))
                self._ctrl_points[id(block)] = (entry, "out")
            elif len(preds) >= 2:
                cmerge = self.circuit.add(
                    ControlMerge(f"cmerge_{block.name}", len(preds))
                )
                self._cmerges[id(block)] = cmerge
                self._ctrl_points[id(block)] = (cmerge, "out")
                routed = self._routed_values(block)
                if routed:
                    for value in routed:
                        mux = self.circuit.add(
                            Mux(self._name(f"mux_{block.name}_{value.name}"),
                                len(preds))
                        )
                        self._muxes[(id(block), id(value))] = mux
                        self._demand((cmerge, "index"), mux, "select")
                else:
                    sink = self.circuit.add(
                        Sink(self._name(f"sink_idx_{block.name}"), record=False)
                    )
                    self._demand((cmerge, "index"), sink, "in")
            # single-pred blocks: control point set during edge wiring
            # Instruction components
            for inst in block.instructions:
                self._create_instruction_component(block, inst)
        # Argument constants in entry.
        for arg in fn.args:
            const = self.circuit.add(
                Constant(self._name(f"arg_{arg.name}"), self.args[arg.name])
            )
            self._demand(self._ctrl_points[id(fn.entry)], const, "ctrl")
            self._val_points[(id(fn.entry), id(arg))] = (const, "out")

    def _create_instruction_component(self, block, inst) -> None:
        if isinstance(inst, BinaryInst):
            comp = self.circuit.add(
                Operator.from_opcode(
                    self._name(f"{inst.opcode}_{inst.name}"), inst.opcode,
                    width=self.config.data_width,
                )
            )
            self._val_points[(id(block), id(inst))] = (comp, "out")
        elif isinstance(inst, SelectInst):
            comp = self.circuit.add(Select(self._name(f"select_{inst.name}")))
            self._val_points[(id(block), id(inst))] = (comp, "out")
        elif isinstance(inst, LoadInst):
            pass  # endpoint resolved via the memory interface in _wire_memory
        elif isinstance(inst, (StoreInst, BranchInst, JumpInst, RetInst)):
            pass
        elif isinstance(inst, PhiInst):
            pass  # muxes created with the block
        else:  # pragma: no cover - defensive
            raise CompileError(f"cannot synthesize {inst!r}")

    # ------------------------------------------------------------------
    # Value resolution
    # ------------------------------------------------------------------
    def _const_endpoint(self, block, value: int) -> Endpoint:
        key = (id(block), value)
        if key not in self._bb_consts:
            const = self.circuit.add(
                Constant(self._name(f"const_{block.name}_{value}"), value)
            )
            self._demand(self._ctrl_points[id(block)], const, "ctrl")
            self._bb_consts[key] = (const, "out")
        return self._bb_consts[key]

    def _value_endpoint(self, block, value: Value) -> Endpoint:
        if isinstance(value, ConstInt):
            return self._const_endpoint(block, value.value)
        key = (id(block), id(value))
        point = self._val_points.get(key)
        if point is None:
            raise CompileError(
                f"{self.fn.name}: no endpoint for {value.short()} in block "
                f"{block.name} (liveness/routing bug)"
            )
        return point

    # ------------------------------------------------------------------
    # Pass 2: edge wiring
    # ------------------------------------------------------------------
    def _gated_edges(self) -> Set[Tuple[int, int]]:
        gated = set()
        for loop_id, _domain in self._domain_of_loop.items():
            loop = next(l for l in self.loops if id(l) == loop_id)
            for succ in loop.header.successors:
                if succ in loop.blocks and succ is not loop.header:
                    gated.add((id(loop.header), id(succ)))
        return gated

    def _wire_edges(self) -> None:
        fn = self.fn
        gated = self._gated_edges()
        self._edge_ctrl: Dict[Tuple[int, int], Endpoint] = {}
        # Branch components per (block, source-key); created lazily.
        branch_cache: Dict[Tuple[int, object], Branch] = {}

        order = fn.reachable_blocks()
        for block in order:
            term = block.terminator
            succs = block.successors
            if not succs:
                continue
            cond_ep = None
            if isinstance(term, BranchInst):
                cond_ep = self._value_endpoint(block, term.cond)

            for succ in succs:
                routed = self._routed_values(succ)
                pred_list = self._preds[succ]
                pred_idx = next(
                    k for k, p in enumerate(pred_list) if p is block
                )
                items: List[Tuple[object, Endpoint]] = []
                # control token
                items.append(("ctrl", self._ctrl_points[id(block)]))
                for value in routed:
                    if isinstance(value, PhiInst) and value.parent is succ:
                        source = value.incoming_for(block)
                    else:
                        source = value
                    items.append((value, self._value_endpoint(block, source)))

                for target, src_ep in items:
                    ep = src_ep
                    if isinstance(term, BranchInst):
                        skey = (id(block), self._source_key(target, src_ep))
                        branch = branch_cache.get(skey)
                        if branch is None:
                            branch = self.circuit.add(
                                Branch(self._name(f"br_{block.name}"))
                            )
                            branch._declared_outputs = ["true", "false"]
                            self._demand(ep, branch, "data")
                            self._demand(cond_ep, branch, "cond")
                            branch_cache[skey] = branch
                        side = "true" if succ is term.if_true else "false"
                        branch._declared_outputs = [
                            p for p in branch._declared_outputs if p != side
                        ]
                        ep = (branch, side)
                    ep = self._buffer_edge(block, succ, ep, gated, target)
                    self._attach_edge_value(
                        block, succ, pred_idx, target, ep, len(pred_list)
                    )

    def _source_key(self, target, src_ep):
        if target == "ctrl":
            return "ctrl"
        comp, port = src_ep
        return (id(comp), port)

    def _buffer_edge(self, block, succ, ep, gated, target) -> Endpoint:
        """Back-edge storage and replay-gate insertion on one edge value."""
        comp, port = ep
        if (id(block), id(succ)) in self.backedges:
            tehb = self.circuit.add(TransparentBuffer(self._name("tehb")))
            oehb = self.circuit.add(OpaqueBuffer(self._name("oehb")))
            self._demand(ep, tehb, "in")
            chan = self.circuit.connect(tehb, "out", oehb, "in")
            chan.is_backedge = True
            ep = (oehb, "out")
        if (id(block), id(succ)) in gated:
            loop = next(
                l for l in self.loops
                if id(l.header) == id(block) and id(l) in self._domain_of_loop
            )
            domain = self._domain_of_loop[id(loop)]
            gate = self._domain_gates.get(domain)
            if gate is None:
                gate = self.circuit.add(
                    ReplayGate(f"gate_d{domain}", domain)
                )
                self._domain_gates[domain] = gate
                self._edge_gates.append(gate)
            k = gate.add_channel()
            self._demand(ep, gate, gate.in_port(k))
            ep = (gate, gate.out_port(k))
        return ep

    def _attach_edge_value(self, block, succ, pred_idx, target, ep, n_preds):
        if target == "ctrl":
            self._edge_ctrl[(id(block), id(succ))] = ep
        if n_preds >= 2:
            if target == "ctrl":
                cmerge = self._cmerges[id(succ)]
                self._demand(ep, cmerge, f"in{pred_idx}")
            else:
                mux = self._muxes[(id(succ), id(target))]
                self._demand(ep, mux, f"in{pred_idx}")
                self._val_points[(id(succ), id(target))] = (mux, "out")
        else:
            if target == "ctrl":
                self._ctrl_points[id(succ)] = ep
            else:
                self._val_points[(id(succ), id(target))] = ep

    # ------------------------------------------------------------------
    # Pass 3: in-block instruction operands
    # ------------------------------------------------------------------
    def _wire_instructions(self) -> None:
        for block in self.fn.blocks:
            for inst in block.instructions:
                if isinstance(inst, BinaryInst):
                    comp, _ = self._val_points[(id(block), id(inst))]
                    self._demand(
                        self._value_endpoint(block, inst.lhs), comp, "in0"
                    )
                    self._demand(
                        self._value_endpoint(block, inst.rhs), comp, "in1"
                    )
                elif isinstance(inst, SelectInst):
                    comp, _ = self._val_points[(id(block), id(inst))]
                    self._demand(
                        self._value_endpoint(block, inst.cond), comp, "cond"
                    )
                    self._demand(
                        self._value_endpoint(block, inst.if_true), comp, "a"
                    )
                    self._demand(
                        self._value_endpoint(block, inst.if_false), comp, "b"
                    )

    # ------------------------------------------------------------------
    # Pass 4: memory wiring
    # ------------------------------------------------------------------
    def _port_slack(self, src: Endpoint, interface, port: str) -> None:
        """Demand ``src`` into ``interface.port`` through a slack FIFO.

        The transparent FIFO decouples the producing fork from the port's
        grant condition (e.g. a store address must not block its producer
        while the store data is still being computed) — the role of
        Dynamatic's buffer placement in front of memory interfaces.
        """
        fifo = self.circuit.add(
            TransparentFifo(
                self._name(f"slack_{interface.name}_{port}"),
                self.config.mem_port_slack,
            )
        )
        self._demand(src, fifo, "in")
        self.circuit.connect(fifo, "out", interface, port)

    def _wire_memory(self, interfaces: Dict[str, object]) -> None:
        prevv_ops: Set[int] = set()
        if self.config.memory_style == "prevv":
            for group in self.groups:
                prevv_ops.update(id(op) for op in group.loads + group.stores)

        for block in self.fn.blocks:
            for inst in block.memory_ops():
                interface, port = self._op_port[id(inst)]
                if isinstance(inst, LoadInst):
                    self._port_slack(
                        self._value_endpoint(block, inst.index),
                        interface,
                        f"ld{port}_addr",
                    )
                else:
                    self._port_slack(
                        self._value_endpoint(block, inst.index),
                        interface,
                        f"st{port}_addr",
                    )
                    self._port_slack(
                        self._value_endpoint(block, inst.value),
                        interface,
                        f"st{port}_data",
                    )
        # LSQ group allocation tokens come from the owning block's control.
        for array, lsq in interfaces.items():
            if isinstance(lsq, LoadStoreQueue):
                for g, block in enumerate(self._lsq_group_blocks[array]):
                    self._demand(
                        self._ctrl_points[id(block)], lsq, f"group{g}"
                    )

    # ------------------------------------------------------------------
    # Pass 5: exits
    # ------------------------------------------------------------------
    def _exit_block(self) -> BasicBlock:
        exits = [
            b for b in self.fn.blocks
            if isinstance(b.terminator, RetInst)
        ]
        if len(exits) != 1:
            raise CompileError(
                f"{self.fn.name}: expected exactly one return block, "
                f"found {len(exits)}"
            )
        return exits[0]

    def _wire_exit(self) -> Tuple[Sink, Optional[Sink]]:
        block = self._exit_block()
        exit_sink = self.circuit.add(Sink("exit_ctrl"))
        self._demand(self._ctrl_points[id(block)], exit_sink, "in")
        ret_sink = None
        term = block.terminator
        if term.value is not None:
            ret_sink = self.circuit.add(Sink("ret_value"))
            self._demand(
                self._value_endpoint(block, term.value), ret_sink, "in"
            )
        # Any remaining unused loads etc. are handled by demand finalization.
        return exit_sink, ret_sink

    # ------------------------------------------------------------------
    # Pass 6: PreVV units, fakes, dones, controller
    # ------------------------------------------------------------------
    def _needs_fake(self, op) -> bool:
        """True when the op's block is skipped on some loop iterations."""
        block = self._block_of(op)
        loop = innermost_loop_of(self.loops, block)
        # The block executes every iteration iff it dominates every
        # back-edge tail of its loop.
        tails = [
            tail for tail, header in self._back_edges
            if header is loop.header
        ]
        return not all(block in self.doms.get(t, set()) for t in tails)

    def _skip_edge_ctrl(self, op) -> Endpoint:
        """Control endpoint of the edge taken when the op's block is skipped."""
        block = self._block_of(op)
        preds = self._preds.get(block, [])
        if len(preds) != 1 or not isinstance(preds[0].terminator, BranchInst):
            raise CompileError(
                f"{self.fn.name}: conditional PreVV op {op.name} must sit in "
                "a block with a single conditionally-branching predecessor"
            )
        guard = preds[0]
        term = guard.terminator
        other = term.if_false if term.if_true is block else term.if_true
        ep = self._edge_ctrl.get((id(guard), id(other)))
        if ep is None:
            raise CompileError(
                f"{self.fn.name}: cannot locate skip edge control for "
                f"{op.name} ({guard.name} -> {other.name}); the skip target "
                "must be a single-predecessor block"
            )
        return ep

    def _nest_exit_ctrl(self, op) -> Endpoint:
        """Control endpoint of the op's top-level-loop exit edge."""
        loop = self._top_loop_of(
            innermost_loop_of(self.loops, self._block_of(op))
        )
        header = loop.header
        term = header.terminator
        if not isinstance(term, BranchInst):
            raise CompileError(
                f"{self.fn.name}: loop header {header.name} must end in a "
                "conditional branch"
            )
        exit_succ = (
            term.if_false if term.if_true in loop.blocks else term.if_true
        )
        ep = self._edge_ctrl.get((id(header), id(exit_succ)))
        if ep is None:
            raise CompileError(
                f"{self.fn.name}: cannot locate nest exit control "
                f"({header.name} -> {exit_succ.name}); the exit target must "
                "be a single-predecessor block"
            )
        return ep

    def _wire_prevv_support(self, interfaces) -> Optional[SquashController]:
        if self.config.memory_style != "prevv" or not self.groups:
            return None
        controller = SquashController(self.circuit, self.memory)
        for gate in self._edge_gates:
            controller.register_gate(gate)

        all_mem_ops = list(self.fn.memory_ops())
        rom_pos = {id(op): k for k, op in enumerate(all_mem_ops)}

        for group in self.groups:
            ops = sorted(
                group.loads + group.stores, key=lambda o: rom_pos[id(o)]
            )
            ports = []
            for op in ops:
                block = self._block_of(op)
                loop = innermost_loop_of(self.loops, block)
                domain = self._domain_of_loop[id(loop)]
                phase = self._phase_of_loop[id(self._top_loop_of(loop))]
                ports.append(
                    PortConfig(
                        kind="load" if isinstance(op, LoadInst) else "store",
                        array=group.array,
                        domain=domain,
                        phase=phase,
                        rom_pos=rom_pos[id(op)],
                    )
                )
            unit = self.circuit.add(
                PreVVUnit(
                    self._name(f"prevv_{group.array}"),
                    self.memory,
                    controller,
                    ports,
                    queue_depth=self.config.prevv_depth,
                    validations_per_cycle=(
                        self.config.prevv_validations_per_cycle
                    ),
                    reorder_window=self.config.prevv_reorder_window,
                    addr_width=self.config.addr_width,
                    data_width=self.config.data_width,
                )
            )
            self._units.append(unit)
            for k, op in enumerate(ops):
                self._wire_prevv_port(unit, k, op, interfaces[group.array])
        return controller

    def _wire_prevv_port(self, unit, port_idx, op, mc) -> None:
        block = self._block_of(op)
        iface, mc_port_idx = self._op_port[id(op)]
        unit.attach_mc_port(
            port_idx,
            iface,
            "load" if isinstance(op, LoadInst) else "store",
            mc_port_idx,
        )
        fifo_depth = self.config.prevv_fifo_depth
        packer = self.circuit.add(PairPacker(self._name(f"pack_{op.name}")))
        idx_fifo = self.circuit.add(
            Fifo(self._name(f"pfifo_idx_{op.name}"), fifo_depth)
        )
        val_fifo = self.circuit.add(
            Fifo(self._name(f"pfifo_val_{op.name}"), fifo_depth)
        )
        out_fifo = self.circuit.add(
            Fifo(self._name(f"pfifo_out_{op.name}"), fifo_depth)
        )
        self.circuit.connect(idx_fifo, "out", packer, "index")
        self.circuit.connect(val_fifo, "out", packer, "value")
        self.circuit.connect(packer, "out", out_fifo, "in")

        # Tap the index (both kinds) and the value (response or store data).
        self._demand(self._value_endpoint(block, op.index), idx_fifo, "in")
        if isinstance(op, LoadInst):
            self._demand((iface, f"ld{mc_port_idx}_data"), val_fifo, "in")
        else:
            self._demand(self._value_endpoint(block, op.value), val_fifo, "in")

        # Real, fake and done packets use separate unit channels so the
        # fast fake path can never head-of-line-block slow real packets.
        self.circuit.connect(out_fifo, "out", unit, unit.port_name(port_idx))
        if self._needs_fake(op):
            fake = self.circuit.add(
                FakeTokenGenerator(self._name(f"fake_{op.name}"))
            )
            self._demand(self._skip_edge_ctrl(op), fake, "in")
            self.circuit.connect(
                fake, "out", unit, unit.fake_port_name(port_idx)
            )
        done = self.circuit.add(
            DoneTokenGenerator(self._name(f"done_{op.name}"))
        )
        self._demand(self._nest_exit_ctrl(op), done, "in")
        self.circuit.connect(
            done, "out", unit, unit.done_port_name(port_idx)
        )
