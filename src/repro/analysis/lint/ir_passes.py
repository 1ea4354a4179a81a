"""IR-layer lint passes (PV0xx).

These absorb the historical ``repro.ir.verify`` checks (structure, phis,
def-before-use, arrays, reachability), strengthen them with a dominance
check, and add memory-hygiene diagnostics that feed the PreVV story: a
store to a loop-invariant constant address conflicts with *every* access
of its array, and the loop-carried may-conflict summary is the linter's
view of the paper's Definition 1 pair set.
"""

from __future__ import annotations

from typing import Dict, Set

from ...ir.basicblock import BasicBlock
from ...ir.instructions import (
    Instruction,
    LoadInst,
    PhiInst,
    StoreInst,
)
from ...ir.loops import innermost_loop_of
from ...ir.values import Argument, ConstInt
from .registry import LintContext, LintPass, register_pass


def _loc(ctx: LintContext, block: BasicBlock, inst: Instruction = None) -> str:
    parts = [ctx.fn.name, block.name]
    if inst is not None:
        parts.append(inst.name)
    return ":".join(parts)


@register_pass
class CfgStructurePass(LintPass):
    """PV001-PV004: blocks exist, terminate once, and branch in-function."""

    name = "ir-cfg-structure"
    layer = "ir"
    codes = ("PV001", "PV002", "PV003", "PV004")
    requires = ("fn",)

    def run(self, ctx: LintContext) -> None:
        fn = ctx.fn
        if not fn.blocks:
            ctx.emit(
                "PV001",
                "function has no blocks",
                location=fn.name,
                hint="add an entry block before verifying or compiling",
            )
            return
        block_ids = {id(b) for b in fn.blocks}
        for block in fn.blocks:
            term = block.terminator
            if term is None:
                ctx.emit(
                    "PV002",
                    f"block {block.name}: missing terminator",
                    location=_loc(ctx, block),
                    hint="end the block with br/jmp/ret",
                )
            else:
                for succ in term.successors:
                    if id(succ) not in block_ids:
                        ctx.emit(
                            "PV004",
                            f"block {block.name}: successor {succ.name} "
                            "not in function",
                            location=_loc(ctx, block),
                            hint="add the block to the function before "
                            "branching to it",
                        )
            for i, inst in enumerate(block.instructions[:-1]):
                if inst.is_terminator:
                    ctx.emit(
                        "PV003",
                        f"block {block.name}: terminator not last "
                        f"(position {i})",
                        location=_loc(ctx, block, inst),
                        hint="move the terminator to the end of the block",
                    )


@register_pass
class PhiCoherencePass(LintPass):
    """PV005: phi incomings must match the block's predecessors exactly."""

    name = "ir-phi-coherence"
    layer = "ir"
    codes = ("PV005",)
    requires = ("fn",)

    def run(self, ctx: LintContext) -> None:
        fn = ctx.fn
        preds_of = fn.predecessor_map()
        for block in fn.blocks:
            preds = preds_of.get(block, [])
            pred_ids = {id(p) for p in preds}
            for phi in block.phis:
                incoming_ids = {id(b) for b, _ in phi.incomings}
                if incoming_ids != pred_ids:
                    pred_names = sorted(p.name for p in preds)
                    inc_names = sorted(b.name for b, _ in phi.incomings)
                    ctx.emit(
                        "PV005",
                        f"phi {phi.name} in {block.name}: incomings "
                        f"{inc_names} != predecessors {pred_names}",
                        location=_loc(ctx, block, phi),
                        hint="add one incoming per predecessor edge",
                    )


@register_pass
class DefUsePass(LintPass):
    """PV006/PV007/PV010: operands defined, arrays declared, defs dominate uses."""

    name = "ir-def-use"
    layer = "ir"
    codes = ("PV006", "PV007", "PV010")
    requires = ("fn",)

    def run(self, ctx: LintContext) -> None:
        fn = ctx.fn
        if not fn.blocks:
            return
        defined: Set[int] = {id(a) for a in fn.args}
        position: Dict[int, int] = {}
        block_of: Dict[int, BasicBlock] = {}
        for block in fn.blocks:
            for phi in block.phis:
                defined.add(id(phi))
                block_of[id(phi)] = block
                position[id(phi)] = -1  # phis define at the block top
            for i, inst in enumerate(block.instructions):
                defined.add(id(inst))
                block_of[id(inst)] = block
                position[id(inst)] = i

        doms = ctx.doms
        reachable = {id(b) for b in fn.reachable_blocks()}

        for block in fn.blocks:
            for inst in block.all_instructions():
                for op in inst.operands:
                    if isinstance(op, ConstInt) or isinstance(op, Argument):
                        if isinstance(op, Argument) and op not in fn.args:
                            ctx.emit(
                                "PV006",
                                f"{block.name}/{inst.name}: operand "
                                f"{op.short()} is not defined in this "
                                "function",
                                location=_loc(ctx, block, inst),
                            )
                        continue
                    if id(op) not in defined:
                        ctx.emit(
                            "PV006",
                            f"{block.name}/{inst.name}: operand {op.short()} "
                            "is not defined in this function",
                            location=_loc(ctx, block, inst),
                            hint="every operand must be an argument, "
                            "constant, or instruction of this function",
                        )
                        continue
                    self._check_dominance(
                        ctx, block, inst, op, block_of, position, doms,
                        reachable,
                    )
                if isinstance(inst, (LoadInst, StoreInst)):
                    if inst.array.name not in fn.arrays:
                        ctx.emit(
                            "PV007",
                            f"{block.name}/{inst.name}: unknown array "
                            f"{inst.array.name!r}",
                            location=_loc(ctx, block, inst),
                            hint="declare the array on the function "
                            "before accessing it",
                        )

    def _check_dominance(
        self, ctx, block, inst, op, block_of, position, doms, reachable
    ) -> None:
        def_block = block_of.get(id(op))
        if def_block is None:
            return
        if id(block) not in reachable:
            return  # PV008 already covers the use site
        if isinstance(inst, PhiInst):
            # A phi reads its operand on the incoming edge: the def must
            # dominate (or live in) the matching predecessor block.
            for pred, value in inst.incomings:
                if value is not op:
                    continue
                if id(pred) not in reachable:
                    continue
                if def_block is pred or def_block in doms.get(pred, set()):
                    continue
                ctx.emit(
                    "PV010",
                    f"{block.name}/{inst.name}: incoming {op.short()} from "
                    f"{pred.name} is not dominated by its definition in "
                    f"{def_block.name}",
                    location=_loc(ctx, block, inst),
                    hint="route the value through a phi on every path",
                )
            return
        if def_block is block:
            if position[id(op)] >= position.get(id(inst), 0):
                ctx.emit(
                    "PV010",
                    f"{block.name}/{inst.name}: operand {op.short()} is "
                    "defined after its use in the same block",
                    location=_loc(ctx, block, inst),
                    hint="reorder the block so definitions precede uses",
                )
            return
        if def_block not in doms.get(block, set()):
            ctx.emit(
                "PV010",
                f"{block.name}/{inst.name}: use of {op.short()} is not "
                f"dominated by its definition in {def_block.name}",
                location=_loc(ctx, block, inst),
                hint="route the value through a phi on every path",
            )


@register_pass
class ReachabilityPass(LintPass):
    """PV008: every block must be reachable from the entry."""

    name = "ir-reachability"
    layer = "ir"
    codes = ("PV008",)
    requires = ("fn",)

    def run(self, ctx: LintContext) -> None:
        fn = ctx.fn
        if not fn.blocks:
            return
        reachable = {id(b) for b in fn.reachable_blocks()}
        for block in fn.blocks:
            if id(block) not in reachable:
                ctx.emit(
                    "PV008",
                    f"block {block.name}: unreachable from entry",
                    location=_loc(ctx, block),
                    hint="delete the block or branch to it",
                )


@register_pass
class MemoryHygienePass(LintPass):
    """PV009: a store to a constant address inside a loop.

    Every iteration rewrites the same cell, so the store forms an
    always-conflicting pair with every access of its array — the worst
    case for any ordering structure (LSQ or PreVV).
    """

    name = "ir-memory-hygiene"
    layer = "ir"
    codes = ("PV009",)
    requires = ("fn",)

    def run(self, ctx: LintContext) -> None:
        if ctx.has_ir_errors:
            return
        from ..polyhedral import AffineAnalyzer

        fn = ctx.fn
        analyzer = AffineAnalyzer(fn, ctx.loops)
        for block in fn.blocks:
            if innermost_loop_of(ctx.loops, block) is None:
                continue
            for inst in block.memory_ops():
                if not isinstance(inst, StoreInst):
                    continue
                expr = analyzer.analyze(inst.index)
                if expr is not None and expr.is_constant:
                    ctx.emit(
                        "PV009",
                        f"{block.name}/{inst.name}: store to constant "
                        f"address {expr.const} inside a loop",
                        location=_loc(ctx, block, inst),
                        hint="accumulate in a scalar and store once "
                        "after the loop",
                    )


@register_pass
class LoopCarriedDependencePass(LintPass):
    """PV011: summarize the may-conflict (Definition 1) pair set.

    Informational: this is what decides whether the kernel needs an LSQ
    or PreVV unit, surfaced per pair so a surprising entry can be traced
    back to its subscripts.
    """

    name = "ir-loop-carried-deps"
    layer = "ir"
    codes = ("PV011",)
    requires = ("fn",)

    def run(self, ctx: LintContext) -> None:
        if ctx.has_ir_errors:
            return
        analysis = ctx.analysis
        if analysis is None:
            return
        for pair in analysis.pairs:
            block = pair.store.parent
            loop = innermost_loop_of(ctx.loops, block)
            where = f" in loop {loop.header.name}" if loop else ""
            ctx.emit(
                "PV011",
                f"ambiguous pair Am{{{pair.load.name}, {pair.store.name}}} "
                f"on array {pair.array!r}{where}",
                location=_loc(ctx, block, pair.store),
                hint="ordered by LSQ or PreVV depending on memory_style",
            )
