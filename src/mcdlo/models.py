"""Concrete structures: MSO(n) on the powerset of a finite order, W(I) on
finite rational sets, L(I) on interval unions, and the element restriction of
W(I) to the subsets of a finite set.

Quantifier evaluation lives in `semantics`; this module only interprets terms
and atomic formulas, which is exact on all three structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .order import FinSet, IntervalUnion
from .syntax import (ATOM_TYPES, And, App, Const, Eq, EvalError, Implies,
                     LtEAtom, Not, Or, SubsetAtom, Term, Var)


@dataclass(frozen=True)
class MsoFin:
    """MSO(n): all subsets of {0..n-1}, as frozensets of ints.

    For n = 0 the constants 0 and 0* are interpreted as the empty set,
    the only element available in the degenerate algebra.
    """

    n: int

    def universe(self):
        for mask in range(1 << self.n):
            yield frozenset(i for i in range(self.n) if mask >> i & 1)

    def constant(self, name: str) -> frozenset:
        if name == "bot":
            return frozenset()
        if name == "zero":
            return frozenset({0}) if self.n else frozenset()
        if name == "zerostar":
            return frozenset({self.n - 1}) if self.n else frozenset()
        if name == "top":
            return frozenset(range(self.n))
        raise EvalError(f"unknown constant {name!r} in MSO({self.n})")

    def apply(self, op: str, *args: frozenset) -> frozenset:
        if op == "union":
            return args[0] | args[1]
        if op == "inter":
            return args[0] & args[1]
        if op == "setminus":
            return args[0] - args[1]
        if op == "delta":
            return args[0] ^ args[1]
        if op == "compl":
            return frozenset(range(self.n)) - args[0]
        if op == "sinv":
            return frozenset(i for i in range(self.n - 1) if i + 1 in args[0])
        raise EvalError(f"function {op!r} undefined in MSO({self.n})")

    def rel_subset(self, a: frozenset, b: frozenset) -> bool:
        return a <= b

    def rel_ltE(self, a: frozenset, b: frozenset) -> bool:
        return bool(a) and bool(b) and min(a) < max(b)


@dataclass(frozen=True)
class WsoStructure:
    """W(I): all finite subsets of I = [0,1) over Q, as FinSet values."""

    def constant(self, name: str) -> FinSet:
        if name == "bot":
            return FinSet()
        if name == "zero":
            return FinSet.of(0)
        raise EvalError(f"unknown constant {name!r} in W(I)")

    def apply(self, op: str, *args: FinSet) -> FinSet:
        if op == "union":
            return args[0].union(args[1])
        if op == "inter":
            return args[0].inter(args[1])
        if op == "setminus":
            return args[0].minus(args[1])
        if op == "delta":
            return args[0].delta(args[1])
        if op == "min":
            return args[0].min_set()
        if op == "max":
            return args[0].max_set()
        if op == "msinv":
            return args[0].sinv(args[1])
        raise EvalError(f"function {op!r} undefined in W(I)")

    def rel_subset(self, a: FinSet, b: FinSet) -> bool:
        return a.issubset(b)

    def rel_ltE(self, a: FinSet, b: FinSet) -> bool:
        return (not a.is_empty() and not b.is_empty()
                and a.points[0] < b.points[-1])


@dataclass(frozen=True)
class LciStructure:
    """L(I): finite unions of closed intervals of I, as IntervalUnion values."""

    def constant(self, name: str) -> IntervalUnion:
        if name == "bot":
            return IntervalUnion()
        if name == "zero":
            return IntervalUnion.of_points([Fraction(0)])
        raise EvalError(f"unknown constant {name!r} in L(I)")

    def apply(self, op: str, *args: IntervalUnion) -> IntervalUnion:
        if op == "union":
            return args[0].union(args[1])
        if op == "inter":
            return args[0].inter(args[1])
        if op == "min":
            return args[0].min_set()
        if op == "max":
            return args[0].max_set()
        if op == "l":
            return IntervalUnion.from_finset(args[0].left_endpoints())
        if op == "r":
            return IntervalUnion.from_finset(args[0].right_endpoints())
        raise EvalError(f"function {op!r} undefined in L(I)")

    def rel_subset(self, a: IntervalUnion, b: IntervalUnion) -> bool:
        return a.subset(b)

    def rel_ltE(self, a: IntervalUnion, b: IntervalUnion) -> bool:
        if a.is_empty() or b.is_empty():
            return False
        if not b.is_bounded():
            # b reaches towards 1 with no maximum, so some j in b exceeds any i
            return True
        return a.intervals[0][0] < b.max_set().intervals[0][0]


Structure = Union[MsoFin, WsoStructure, LciStructure]


def eval_term(structure: Structure, t: Term, assignment: dict):
    if isinstance(t, Var):
        if t.name not in assignment:
            raise EvalError(f"unbound variable {t.name!r}")
        return assignment[t.name]
    if isinstance(t, Const):
        if t.name in assignment:
            return assignment[t.name]
        return structure.constant(t.name)
    if isinstance(t, App):
        args = [eval_term(structure, a, assignment) for a in t.args]
        return structure.apply(t.op, *args)
    raise EvalError(f"not a term: {t!r}")


def eval_atomic(structure: Structure, f, assignment: dict) -> bool:
    left = eval_term(structure, f.left, assignment)
    right = eval_term(structure, f.right, assignment)
    if isinstance(f, Eq):
        return left == right
    if isinstance(f, SubsetAtom):
        return structure.rel_subset(left, right)
    if isinstance(f, LtEAtom):
        return structure.rel_ltE(left, right)
    raise EvalError(f"not an atomic formula: {f!r}")


def eval_qf(structure: Structure, f, assignment: dict) -> bool:
    """Exact truth of a quantifier-free formula: the reference the
    quantifier searches are checked against."""
    if isinstance(f, Not):
        return not eval_qf(structure, f.body, assignment)
    if isinstance(f, And):
        return (eval_qf(structure, f.left, assignment)
                and eval_qf(structure, f.right, assignment))
    if isinstance(f, Or):
        return (eval_qf(structure, f.left, assignment)
                or eval_qf(structure, f.right, assignment))
    if isinstance(f, Implies):
        return (not eval_qf(structure, f.left, assignment)
                or eval_qf(structure, f.right, assignment))
    if isinstance(f, ATOM_TYPES):
        return eval_atomic(structure, f, assignment)
    raise EvalError(f"not a quantifier-free formula: {f!r}")


# ---------------------------------------------------------------------------
# The element restriction

@dataclass(frozen=True)
class ElementRestriction:
    """W(I) restricted to the subsets of a fixed finite set, with the order
    isomorphism onto MSO(n) (k-th smallest point maps to k)."""

    region: FinSet

    def msofin(self) -> MsoFin:
        return MsoFin(len(self.region))

    def to_msofin(self, a: FinSet) -> frozenset:
        index = {p: k for k, p in enumerate(self.region.points)}
        try:
            return frozenset(index[p] for p in a.points)
        except KeyError as exc:
            raise EvalError(f"{a} is not a subset of the region {self.region}") from exc


def restrict(structure: WsoStructure, region: FinSet) -> ElementRestriction:
    """The restriction of W(I) to the subsets of a finite set."""
    if not isinstance(region, FinSet):
        raise TypeError(f"a restriction region is a FinSet, got {region!r}")
    return ElementRestriction(region)
