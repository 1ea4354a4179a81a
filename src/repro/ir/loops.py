"""Natural-loop detection over the CFG.

The memory analysis needs to know which loop each memory operation lives
in (ambiguous pairs form between accesses of the same loop nest), and the
elastic builder needs back-edges to know where to place the OEHB+TEHB
storage that lets tokens circulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .basicblock import BasicBlock
from .function import Function


def dominators(fn: Function) -> Dict[BasicBlock, Set[BasicBlock]]:
    """Classic iterative dominator computation over reachable blocks."""
    blocks = fn.reachable_blocks()
    entry = fn.entry
    dom: Dict[BasicBlock, Set[BasicBlock]] = {b: set(blocks) for b in blocks}
    dom[entry] = {entry}
    preds_of = fn.predecessor_map()
    changed = True
    while changed:
        changed = False
        for block in blocks:
            if block is entry:
                continue
            preds = [p for p in preds_of.get(block, ()) if p in dom]
            if not preds:
                continue
            new = set.intersection(*[dom[p] for p in preds]) | {block}
            if new != dom[block]:
                dom[block] = new
                changed = True
    return dom


def back_edges(
    fn: Function, dom: Optional[Dict[BasicBlock, Set[BasicBlock]]] = None
) -> List[Tuple[BasicBlock, BasicBlock]]:
    """Edges (tail -> header) where the header dominates the tail.

    ``dom`` is ``dominators(fn)`` when the caller already has it.
    """
    if dom is None:
        dom = dominators(fn)
    edges = []
    for block in fn.reachable_blocks():
        for succ in block.successors:
            if succ in dom.get(block, set()):
                edges.append((block, succ))
    return edges


@dataclass
class Loop:
    """A natural loop: header plus the body blocks reaching the back-edge."""

    header: BasicBlock
    blocks: Set[BasicBlock] = field(default_factory=set)
    parent: Optional["Loop"] = None
    children: List["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        d, cur = 1, self.parent
        while cur is not None:
            d += 1
            cur = cur.parent
        return d

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def __repr__(self) -> str:  # pragma: no cover
        names = sorted(b.name for b in self.blocks)
        return f"Loop(header={self.header.name}, blocks={names})"


def _natural_loop(
    preds_of: Dict[BasicBlock, List[BasicBlock]],
    tail: BasicBlock,
    header: BasicBlock,
) -> Set[BasicBlock]:
    body = {header, tail}
    stack = [tail]
    while stack:
        block = stack.pop()
        if block is header:
            continue
        for pred in preds_of.get(block, ()):
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def find_loops(
    fn: Function, dom: Optional[Dict[BasicBlock, Set[BasicBlock]]] = None
) -> List[Loop]:
    """All natural loops, innermost-last, with parent/child nesting links.

    Loops sharing a header are merged (single Loop per header).  ``dom``
    is ``dominators(fn)`` when the caller already has it.
    """
    by_header: Dict[BasicBlock, Loop] = {}
    preds_of = fn.predecessor_map()
    for tail, header in back_edges(fn, dom):
        body = _natural_loop(preds_of, tail, header)
        loop = by_header.get(header)
        if loop is None:
            by_header[header] = Loop(header, body)
        else:
            loop.blocks |= body

    loops = list(by_header.values())
    # Nest: parent = smallest enclosing loop.
    for loop in loops:
        candidates = [
            other
            for other in loops
            if other is not loop and loop.blocks < other.blocks
        ]
        if candidates:
            loop.parent = min(candidates, key=lambda l: len(l.blocks))
            loop.parent.children.append(loop)
    loops.sort(key=lambda l: l.depth)
    return loops


def innermost_loop_of(loops: List[Loop], block: BasicBlock) -> Optional[Loop]:
    """Deepest loop containing ``block``; ``None`` when not in any loop."""
    best: Optional[Loop] = None
    for loop in loops:
        if loop.contains(block) and (best is None or loop.depth > best.depth):
            best = loop
    return best
