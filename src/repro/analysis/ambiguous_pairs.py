"""Ambiguous-pair extraction (Definition 1) and per-array grouping.

An *ambiguous pair* ``Am{C^m, C^n}`` is a load and a store on the same
array whose subscripts may conflict across iterations (Sec. III,
Definition 1).  The extraction runs the affine dependence analysis over
every (load, store) combination per array, then refines the subscript
verdict with loop context (:func:`classify_with_loops`): equal subscripts
only mean *same iteration* when every surrounding loop level actually
advances the subscript — ``A[i]`` accessed inside an inner ``j`` loop
conflicts with itself across ``j`` iterations.

:func:`analyze_function` returns a :class:`MemoryAnalysis` that the
compiler uses to decide, per array, whether a plain memory controller
suffices or an ordering structure (LSQ baseline / PreVV unit) is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..ir.function import Function
from ..ir.instructions import Instruction, LoadInst, StoreInst
from ..ir.loops import Loop, find_loops, innermost_loop_of
from .polyhedral import AffineAnalyzer, Dependence, classify_dependence


@dataclass
class AmbiguousPair:
    """Definition 1: a load/store pair that may conflict across iterations."""

    load: LoadInst
    store: StoreInst
    array: str

    def shares_op_with(self, other: "AmbiguousPair") -> bool:
        """Overlap in the sense of Definition 3 (shared component)."""
        return (
            self.load is other.load
            or self.store is other.store
            or self.load is other.store
            or self.store is other.load
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"Am{{{self.load.name}, {self.store.name}}}@{self.array}"


@dataclass
class MemoryAnalysis:
    """Per-function disambiguation summary."""

    function: Function
    pairs: List[AmbiguousPair] = field(default_factory=list)
    #: arrays with at least one ambiguous pair
    conflicted_arrays: Set[str] = field(default_factory=set)
    #: dependence class for every (load, store) combination examined
    classifications: Dict[tuple, Dependence] = field(default_factory=dict)

    def pairs_for_array(self, array: str) -> List[AmbiguousPair]:
        return [p for p in self.pairs if p.array == array]

    @property
    def hazard_free_arrays(self) -> Set[str]:
        return set(self.function.arrays) - self.conflicted_arrays


def _refine_same_iteration(
    loops: List[Loop],
    a: Instruction,
    b: Instruction,
    ivs,
) -> Dependence:
    """Demote SAME_ITERATION to MAY_CONFLICT when loop context breaks it.

    ``classify_dependence`` decides SAME_ITERATION from the subscripts
    alone — equal affine forms over a single IV.  That verdict implicitly
    assumes "one iteration" is well defined for both accesses: they must
    sit in the same innermost loop, and every loop level surrounding them
    must advance the subscript.  If an enclosing loop contributes no IV
    (``A[i]`` under an inner ``j`` loop), the same address is re-touched
    on every iteration of that loop — a genuine cross-iteration conflict.
    """
    loop_a = innermost_loop_of(loops, a.parent)
    loop_b = innermost_loop_of(loops, b.parent)
    if loop_a is not loop_b:
        return Dependence.MAY_CONFLICT
    iv_set = set(ivs)
    loop: Optional[Loop] = loop_a
    while loop is not None:
        if not (set(loop.header.phis) & iv_set):
            return Dependence.MAY_CONFLICT
        loop = loop.parent
    return Dependence.SAME_ITERATION


def classify_with_loops(
    analyzer: AffineAnalyzer,
    loops: List[Loop],
    a: Instruction,
    b: Instruction,
) -> Dependence:
    """Loop-aware dependence class between two accesses of one array.

    Runs the subscript-level :func:`classify_dependence`, then applies
    :func:`_refine_same_iteration` — the sound entry point the analysis
    and the linter's cross-check both use.
    """
    expr_a = analyzer.analyze(a.index)
    expr_b = analyzer.analyze(b.index)
    kind = classify_dependence(expr_a, expr_b)
    if kind is Dependence.SAME_ITERATION:
        kind = _refine_same_iteration(loops, a, b, expr_a.iv_coeffs)
    return kind


def analyze_function(
    fn: Function, loops: Optional[List[Loop]] = None
) -> MemoryAnalysis:
    """Run the dependence analysis and collect every ambiguous pair.

    ``loops`` is ``find_loops(fn)`` when the caller already has it.
    """
    if loops is None:
        loops = find_loops(fn)
    analyzer = AffineAnalyzer(fn, loops)
    analysis = MemoryAnalysis(fn)
    by_array: Dict[str, Dict[str, list]] = {}
    for block in fn.blocks:
        for inst in block.memory_ops():
            slot = by_array.setdefault(
                inst.array.name, {"loads": [], "stores": []}
            )
            if isinstance(inst, LoadInst):
                slot["loads"].append(inst)
            else:
                slot["stores"].append(inst)

    for array, ops in by_array.items():
        for load in ops["loads"]:
            for store in ops["stores"]:
                kind = classify_with_loops(analyzer, loops, load, store)
                analysis.classifications[(id(load), id(store))] = kind
                if kind is Dependence.MAY_CONFLICT:
                    analysis.pairs.append(AmbiguousPair(load, store, array))
                    analysis.conflicted_arrays.add(array)
    return analysis
