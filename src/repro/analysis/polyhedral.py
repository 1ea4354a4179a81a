"""Affine access analysis and dependence testing.

This is the reproduction's stand-in for the Polly polyhedral analysis the
paper invokes ("Using Polyhedral analysis, we can easily find the
ambiguous pairs", Sec. V-A).  For each load/store index expression we try
to derive an affine form over the loop induction variables::

    index = sum(coeff_k * iv_k) + sum(scoeff_j * sym_j) + const

where ``iv_k`` are loop-header phis and ``sym_j`` are function arguments
(runtime-constant unknowns).  Expressions that read memory or mix
non-linear terms — the ``f(x)``/``g(x)`` subscripts of Fig. 2(b) — are
*non-affine* and force a conservative may-conflict answer.

Dependence classification between two accesses of the same array:

* ``INDEPENDENT`` — a GCD test proves the subscript equation has no
  solution (accesses can never touch the same element);
* ``SAME_ITERATION`` — solutions exist only when both accesses are in the
  same loop iteration (intra-iteration ordering — plain dataflow data
  dependences — already serializes them, so no LSQ/PreVV is needed);
* ``MAY_CONFLICT`` — a cross-iteration conflict may exist: the pair is an
  *ambiguous pair* in the paper's Definition 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set

from ..ir.function import Function
from ..ir.instructions import BinaryInst, LoadInst, PhiInst, SelectInst
from ..ir.loops import Loop, find_loops
from ..ir.values import Argument, ConstInt, Value


@dataclass
class AffineExpr:
    """Affine combination of induction variables and symbolic arguments."""

    iv_coeffs: Dict[PhiInst, int] = field(default_factory=dict)
    sym_coeffs: Dict[Argument, int] = field(default_factory=dict)
    const: int = 0

    def scaled(self, factor: int) -> "AffineExpr":
        return AffineExpr(
            {iv: c * factor for iv, c in self.iv_coeffs.items()},
            {s: c * factor for s, c in self.sym_coeffs.items()},
            self.const * factor,
        )

    def plus(self, other: "AffineExpr", sign: int = 1) -> "AffineExpr":
        iv = dict(self.iv_coeffs)
        for k, c in other.iv_coeffs.items():
            iv[k] = iv.get(k, 0) + sign * c
        sym = dict(self.sym_coeffs)
        for k, c in other.sym_coeffs.items():
            sym[k] = sym.get(k, 0) + sign * c
        return AffineExpr(
            {k: c for k, c in iv.items() if c != 0},
            {k: c for k, c in sym.items() if c != 0},
            self.const + sign * other.const,
        )

    @property
    def is_constant(self) -> bool:
        return not self.iv_coeffs and not self.sym_coeffs

    def __repr__(self) -> str:  # pragma: no cover
        parts = [f"{c}*{iv.name}" for iv, c in self.iv_coeffs.items()]
        parts += [f"{c}*{s.name}" for s, c in self.sym_coeffs.items()]
        parts.append(str(self.const))
        return " + ".join(parts)


class Dependence(Enum):
    INDEPENDENT = "independent"
    SAME_ITERATION = "same_iteration"
    MAY_CONFLICT = "may_conflict"


def _induction_phis(fn: Function, loops: List[Loop]) -> Set[PhiInst]:
    """Phis sitting in loop headers: the iteration-space variables."""
    headers = {loop.header for loop in loops}
    ivs: Set[PhiInst] = set()
    for block in fn.blocks:
        if block in headers:
            ivs.update(block.phis)
    return ivs


class AffineAnalyzer:
    """Derives affine forms for index expressions of one function."""

    def __init__(self, fn: Function, loops: Optional[List[Loop]] = None):
        """``loops`` is ``find_loops(fn)`` when the caller already has it."""
        self.fn = fn
        self.ivs = _induction_phis(
            fn, find_loops(fn) if loops is None else loops
        )
        self._cache: Dict[int, Optional[AffineExpr]] = {}

    def analyze(self, value: Value) -> Optional[AffineExpr]:
        """Affine form of ``value``, or ``None`` when non-affine."""
        key = id(value)
        if key in self._cache:
            return self._cache[key]
        # Break cycles through non-IV phis conservatively.
        self._cache[key] = None
        result = self._analyze(value)
        self._cache[key] = result
        return result

    def _analyze(self, value: Value) -> Optional[AffineExpr]:
        if isinstance(value, ConstInt):
            return AffineExpr(const=value.value)
        if isinstance(value, Argument):
            return AffineExpr(sym_coeffs={value: 1})
        if isinstance(value, PhiInst):
            if value in self.ivs:
                return AffineExpr(iv_coeffs={value: 1})
            return None  # non-induction phi: data-dependent
        if isinstance(value, LoadInst):
            return None  # memory-dependent subscript (Fig. 2(b))
        if isinstance(value, SelectInst):
            return None
        if isinstance(value, BinaryInst):
            return self._analyze_binary(value)
        return None

    def _analyze_binary(self, inst: BinaryInst) -> Optional[AffineExpr]:
        lhs = self.analyze(inst.lhs)
        rhs = self.analyze(inst.rhs)
        if inst.opcode == "add" and lhs and rhs:
            return lhs.plus(rhs)
        if inst.opcode == "sub" and lhs and rhs:
            return lhs.plus(rhs, sign=-1)
        if inst.opcode == "mul" and lhs and rhs:
            if rhs.is_constant and not rhs.sym_coeffs:
                return lhs.scaled(rhs.const)
            if lhs.is_constant and not lhs.sym_coeffs:
                return rhs.scaled(lhs.const)
            return None
        if inst.opcode == "shl" and lhs and rhs and rhs.is_constant:
            return lhs.scaled(1 << rhs.const)
        return None


def classify_dependence(
    a: Optional[AffineExpr], b: Optional[AffineExpr]
) -> Dependence:
    """Dependence class between two subscripts of the same array.

    ``None`` (non-affine) forces MAY_CONFLICT.  Both expressions range over
    independent copies of the induction variables (distinct dynamic
    iterations), so the conflict equation is ``a(i) - b(i') == 0``.
    """
    if a is None or b is None:
        return Dependence.MAY_CONFLICT

    # Symbolic coefficients must cancel exactly; otherwise the difference
    # contains an unknown runtime constant and we must be conservative
    # (unless the unknown part can never vanish — which we cannot prove).
    diff_syms = a.plus(b, sign=-1).sym_coeffs
    if diff_syms:
        return Dependence.MAY_CONFLICT

    # Identical affine parts: conflicts need iv_k == iv'_k for the single
    # IV case; with >= 2 IVs (or flattened 2-D subscripts) distinct
    # iteration vectors can produce equal addresses, so be conservative.
    if a.iv_coeffs == b.iv_coeffs and a.const == b.const:
        if not a.iv_coeffs:
            return Dependence.MAY_CONFLICT  # same constant address always
        if len(a.iv_coeffs) == 1:
            return Dependence.SAME_ITERATION
        return Dependence.MAY_CONFLICT

    # GCD test over i and i' treated as independent integer unknowns:
    # sum(ca_k i_k) - sum(cb_k i'_k) = b.const - a.const
    coeffs = list(a.iv_coeffs.values()) + list(b.iv_coeffs.values())
    rhs = b.const - a.const
    if not coeffs:
        return Dependence.INDEPENDENT if rhs != 0 else Dependence.MAY_CONFLICT
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    if g == 0:
        return Dependence.INDEPENDENT if rhs != 0 else Dependence.MAY_CONFLICT
    if rhs % g != 0:
        return Dependence.INDEPENDENT
    return Dependence.MAY_CONFLICT
