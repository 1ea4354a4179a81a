"""Functions: argument list, array declarations, CFG of basic blocks."""

from __future__ import annotations

from typing import Dict, Iterator, List

from ..errors import IRError
from .basicblock import BasicBlock
from .instructions import Instruction
from .values import Argument, ArrayDecl


class Function:
    """One HLS kernel: scalars in, arrays as the memory interface."""

    def __init__(self, name: str):
        self.name = name
        self.args: List[Argument] = []
        self.arrays: Dict[str, ArrayDecl] = {}
        self.blocks: List[BasicBlock] = []
        self._block_names: Dict[str, BasicBlock] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_arg(self, arg: Argument) -> Argument:
        self.args.append(arg)
        return arg

    def add_array(self, decl: ArrayDecl) -> ArrayDecl:
        if decl.name in self.arrays:
            raise IRError(f"duplicate array {decl.name!r}")
        self.arrays[decl.name] = decl
        return decl

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.name in self._block_names:
            raise IRError(f"duplicate block {block.name!r}")
        self.blocks.append(block)
        self._block_names[block.name] = block
        block.parent = self
        return block

    def block(self, name: str) -> BasicBlock:
        try:
            return self._block_names[name]
        except KeyError:
            raise IRError(f"no block named {name!r}") from None

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    # ------------------------------------------------------------------
    # CFG queries
    # ------------------------------------------------------------------
    def predecessors(self, block: BasicBlock) -> List[BasicBlock]:
        return [b for b in self.blocks if block in b.successors]

    def predecessor_map(self) -> Dict[BasicBlock, List[BasicBlock]]:
        """``predecessors(b)`` for every block at once, in one CFG pass.

        Each list is in block order without duplicates, exactly as
        :meth:`predecessors` returns it; a block with no predecessor has
        no entry.
        """
        preds: Dict[BasicBlock, List[BasicBlock]] = {}
        for block in self.blocks:
            for succ in block.successors:
                into = preds.setdefault(succ, [])
                if not into or into[-1] is not block:
                    into.append(block)
        return preds

    def all_instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.all_instructions()

    def memory_ops(self):
        for block in self.blocks:
            yield from block.memory_ops()

    def reachable_blocks(self) -> List[BasicBlock]:
        seen = []
        seen_set = set()
        stack = [self.entry]
        while stack:
            block = stack.pop()
            if id(block) in seen_set:
                continue
            seen_set.add(id(block))
            seen.append(block)
            stack.extend(reversed(block.successors))
        return seen

    def __repr__(self) -> str:  # pragma: no cover
        return f"Function({self.name}, {len(self.blocks)} blocks)"
