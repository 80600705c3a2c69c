"""Quantifier evaluation: exact brute force on finite powerset structures and
budgeted grid semantics on W(I) / L(I), plus relativisation transformers.

The grid semantics is a witness-search procedure: quantified set variables
range over subsets of a finite grid grown from the assignment's points (W),
or over canonical interval unions with endpoints in the grid, including
unbounded variants (L).  Both, and the subsets of MSO(n), are bitmasks
searched by one quantifier loop; the value-level structures of `models` stay
as exact references.  The loop prunes each quantified variable by the
conjuncts of its quantifier's body; a quantifier block (∃X∃Y… or ∀X∀Y…) is
split at its first visit so that each conjunct sits under the last block
variable it mentions.  Verdicts carry a stabilization flag comparing budgets
k and k+1; stability is a heuristic, evidence but not proof of the true
verdict (the three-atoms sentence of the tests stabilizes on a wrong false).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .order import FinSet, IntervalUnion
from .syntax import (ATOM_TYPES, FO_CONNECTIVES, And, App, Const, Eq, Exists,
                     ExistsPartition, Forall, FreshVars, Formula, Implies,
                     LtEAtom, Not, Or, SubsetAtom, Term, Var, all_vars,
                     and_all, conjuncts, free_vars, map_children, substitute,
                     term_vars)
from .models import EvalError, MsoFin

DEFAULT_GRID_CAP = 14
DEFAULT_MSOFIN_CAP = 16


def grid_cap() -> int:
    return int(os.environ.get("MCDLO_GRID_CAP", DEFAULT_GRID_CAP))


class GridCapError(EvalError):
    pass


@dataclass(frozen=True)
class EvalReport:
    verdict: bool
    budget_used: int
    stabilized: bool

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "budget_used": self.budget_used,
                "stabilized": self.stabilized}


# ---------------------------------------------------------------------------
# Quantifier pruning shared by the bitmask evaluators
#
# Witness variables introduced by the rewriting layer always come with
# lattice constraints among the top-level conjuncts of the quantified body
# (v contained in t or containing it, v disjoint from t, union with t
# prescribed).  Reading those constraints off syntactically confines the
# witness search to an interval of the subset lattice instead of the whole
# powerset.


def _mask_bounds(term_eval, var: str, conjs, env: dict, top: int):
    """(lower, upper, singleton) constraints every satisfying value of var
    must respect; singleton means var is empty or a single point."""
    upper, lower = top, 0
    singleton = False
    vt = Var(var)
    for c in conjs:
        if (isinstance(c, Eq)
                and ((c.left == vt and c.right == App("min", (vt,)))
                     or (c.right == vt and c.left == App("min", (vt,))))):
            singleton = True
        if (isinstance(c, SubsetAtom) and c.left == vt
                and var not in term_vars(c.right)):
            upper &= term_eval(c.right, env)
            continue
        if not isinstance(c, Eq):
            continue
        for a, b in ((c.left, c.right), (c.right, c.left)):
            if (not isinstance(a, App) or a.op not in ("inter", "union")
                    or vt not in a.args):
                continue
            other = a.args[0] if a.args[1] == vt else a.args[1]
            if other == vt or var in term_vars(other):
                continue
            if a.op == "inter":
                if b == vt:
                    upper &= term_eval(other, env)
                elif b == other:
                    lower |= term_eval(other, env)
                elif var not in term_vars(b) and term_eval(b, env) == 0:
                    upper &= top & ~term_eval(other, env)
            elif a.op == "union" and var not in term_vars(b):
                u = term_eval(b, env)
                upper &= u
                lower |= u & ~term_eval(other, env)
    return lower, upper, singleton


def _quantified_conjuncts(body: Formula, antecedent_only: bool) -> list:
    """Conjuncts that constrain a quantified variable; for universal
    quantifiers only the antecedent of an implication may constrain (other
    values hold vacuously)."""
    if not antecedent_only:
        return list(conjuncts(body))
    return list(conjuncts(body.left)) if isinstance(body, Implies) else []


def _bounded_masks(term_eval, var: str, body: Formula, env: dict, top: int,
                   antecedent_only: bool = False):
    """Candidate masks for a quantified variable over a powerset."""
    conjs = _quantified_conjuncts(body, antecedent_only)
    return _submasks(*_mask_bounds(term_eval, var, conjs, env, top))


def _submasks(lower: int, upper: int, singleton: bool):
    """Masks between lower and upper; only the empty and one-bit ones when
    singleton is set."""
    if lower & ~upper:
        return
    if singleton:
        if lower == 0:
            yield 0
        rest = upper
        while rest:
            bit = rest & -rest
            if lower | bit == bit or lower == bit:
                yield bit
            rest &= rest - 1
        return
    # smallest first: the rewriting layer's witnesses are mostly small sets
    free = upper & ~lower
    sub = 0
    while True:
        yield sub | lower
        sub = (sub - free) & free
        if sub == 0:
            return


# ---------------------------------------------------------------------------
# Quantifier blocks
#
# The pruning reads a quantifier's immediate body only, so in a block
# ∃X∃Y∃Z φ the outer variables X and Y would range over every mask.
# Splitting the block pushes each conjunct of φ (of φ's antecedent, for a ∀
# block over an implication) to just inside the quantifier of the last block
# variable it mentions, and the conjuncts that mention none out of the block.
# Over a non-empty domain the result is the same formula, and every
# evaluator's domain contains the empty mask.

def split_block(f: Formula) -> Formula:
    """f with its quantifier block split, or f itself when no conjunct
    moves."""
    quant = type(f)
    prefix = []
    matrix = f
    while type(matrix) is quant:
        prefix.append(matrix.var)
        matrix = matrix.body
    if quant is Forall:
        if not isinstance(matrix, Implies):
            return f
        guards, inner = matrix.left, matrix.right
    else:
        guards, inner = matrix, None
    last = {v: i for i, v in enumerate(prefix, 1)}  # a repeated name shadows
    levels: list[list] = [[] for _ in range(len(prefix) + 1)]  # 0: outside
    for c in conjuncts(guards):
        levels[max((last[v] for v in free_vars(c) if v in last),
                   default=0)].append(c)
    if not any(levels[:-1]):
        return f
    for i in range(len(prefix), 0, -1):
        inner = _guarded(quant, levels[i], inner)
        if inner is not None:
            inner = quant(prefix[i - 1], inner)
    return _guarded(quant, levels[0], inner)


def _guarded(quant, guards: list, inner: Optional[Formula]):
    """The body of one block level: its guards and the inner levels; an
    existential level with neither is dropped (None)."""
    if quant is Forall:
        return Implies(and_all(guards), inner) if guards else inner
    parts = guards + ([] if inner is None else [inner])
    return and_all(parts) if parts else None


# ---------------------------------------------------------------------------
# One quantifier search over masks, shared by MSO(n), W(I) and L(I)

def _grid_formula(self, f: Formula, env: dict) -> bool:
    """Truth over an evaluator's masks: atoms compare term masks (every
    encoding is a lattice embedding whose least set bit is the minimum and
    whose highest one decides the order atom), quantified variables range
    over the evaluator's witness masks, and partition quantifiers go to its
    partition search.  A quantifier block is split once per evaluator, in its
    `blocks` dict, keyed by node identity: hashing a node walks its subtree."""
    if isinstance(f, Eq):
        return self.term(f.left, env) == self.term(f.right, env)
    if isinstance(f, SubsetAtom):
        a, b = self.term(f.left, env), self.term(f.right, env)
        return a | b == b
    if isinstance(f, LtEAtom):
        a, b = self.term(f.left, env), self.term(f.right, env)
        if not a or not b:
            return False
        return (a & -a).bit_length() < b.bit_length()
    if isinstance(f, Not):
        return not self.formula(f.body, env)
    if isinstance(f, And):
        return self.formula(f.left, env) and self.formula(f.right, env)
    if isinstance(f, Or):
        return self.formula(f.left, env) or self.formula(f.right, env)
    if isinstance(f, Implies):
        return (not self.formula(f.left, env)) or self.formula(f.right, env)
    if isinstance(f, (Exists, Forall)) and type(f.body) is type(f):
        hit = self.blocks.get(id(f))
        if hit is None or hit[0] is not f:
            hit = self.blocks[id(f)] = (f, split_block(f))
        if hit[1] is not f:
            return self.formula(hit[1], env)
    if isinstance(f, Exists):
        env = dict(env)
        for mask in self.witnesses(f.var, f.body, env):
            env[f.var] = mask
            if self.formula(f.body, env):
                return True
        return False
    if isinstance(f, Forall):
        env = dict(env)
        for mask in self.witnesses(f.var, f.body, env, antecedent_only=True):
            env[f.var] = mask
            if not self.formula(f.body, env):
                return False
        return True
    if isinstance(f, ExistsPartition):
        return self.exists_partition(f, env)
    raise EvalError(f"cannot evaluate {f!r}")


# ---------------------------------------------------------------------------
# Exact evaluation on MSO(n), bitmask-based

class BruteForceEvaluator:
    """Exact truth in MSO(n); subsets are encoded as n-bit masks."""

    def __init__(self, n: int, cap: int = DEFAULT_MSOFIN_CAP,
                 constants: Optional[dict] = None):
        if n > cap:
            raise EvalError(f"MSO({n}) exceeds brute-force cap {cap}")
        self.n = n
        self.top = (1 << n) - 1
        self.constants = dict(constants or {})
        self.blocks: dict = {}

    def encode(self, s) -> int:
        mask = 0
        for i in s:
            if not 0 <= i < self.n:
                raise EvalError(f"element {i} outside MSO({self.n})")
            mask |= 1 << i
        return mask

    def decode(self, mask: int) -> frozenset:
        return frozenset(i for i in range(self.n) if mask >> i & 1)

    def term(self, t: Term, env: dict) -> int:
        if isinstance(t, Var):
            try:
                return env[t.name]
            except KeyError:
                raise EvalError(f"unbound variable {t.name!r}") from None
        if isinstance(t, Const):
            if t.name in env:
                return env[t.name]
            if t.name in self.constants:
                return self.constants[t.name]
            if t.name == "bot":
                return 0
            if t.name == "top":
                return self.top
            if t.name == "zero":
                return 1 if self.n else 0
            if t.name == "zerostar":
                return 1 << (self.n - 1) if self.n else 0
            raise EvalError(f"unknown constant {t.name!r}")
        op = t.op
        if op == "union":
            return self.term(t.args[0], env) | self.term(t.args[1], env)
        if op == "inter":
            return self.term(t.args[0], env) & self.term(t.args[1], env)
        if op == "setminus":
            return self.term(t.args[0], env) & ~self.term(t.args[1], env)
        if op == "delta":
            return self.term(t.args[0], env) ^ self.term(t.args[1], env)
        if op == "compl":
            return self.top & ~self.term(t.args[0], env)
        if op == "sinv":
            return self.term(t.args[0], env) >> 1
        raise EvalError(f"function {op!r} undefined in MSO({self.n})")

    def witnesses(self, var: str, body: Formula, env: dict,
                  antecedent_only: bool = False):
        return _bounded_masks(self.term, var, body, env, self.top,
                              antecedent_only)

    formula = _grid_formula

    def exists_partition(self, f: ExistsPartition, env: dict) -> bool:
        """Search for a labelling of index points by blocks.  Top-level
        conjuncts of shape (subset Z t), with Z a block variable and t free of
        block variables, prune the per-point block choices."""
        blocks = f.block_vars
        bset = set(blocks)
        bounds: dict[str, int] = {}
        rest: list[Formula] = []

        for c in conjuncts(f.body):
            if (isinstance(c, SubsetAtom) and isinstance(c.left, Var)
                    and c.left.name in bset and c.left.name not in bounds
                    and not (term_vars(c.right) & bset)):
                bounds[c.left.name] = self.term(c.right, env)
            else:
                rest.append(c)

        allowed_per_point = []
        for i in range(self.n):
            allowed = [z for z in blocks
                       if z not in bounds or bounds[z] >> i & 1]
            if not allowed:
                return False
            allowed_per_point.append(allowed)

        env = dict(env)
        for labelling in itertools.product(*allowed_per_point):
            for z in blocks:
                env[z] = 0
            for i, z in enumerate(labelling):
                env[z] |= 1 << i
            if all(self.formula(c, env) for c in rest):
                return True
        return False


def bruteforce_eval(m: MsoFin, f: Formula, assignment: Optional[dict] = None,
                    cap: int = DEFAULT_MSOFIN_CAP,
                    constants: Optional[dict] = None) -> bool:
    """Exact truth of f in MSO(n); assignment maps variables to frozensets of
    ints (or bitmask ints)."""
    ev = BruteForceEvaluator(m.n, cap=cap)

    def encode(values: Optional[dict]) -> dict:
        return {name: v if isinstance(v, int) else ev.encode(v)
                for name, v in (values or {}).items()}

    ev.constants = encode(constants)
    return ev.formula(f, encode(assignment))


# ---------------------------------------------------------------------------
# Grids

@dataclass(frozen=True)
class GridSpec:
    """Witness pool: the seeds plus k mean-generated points inside every gap
    between consecutive seeds and k points above the greatest seed."""

    seeds: FinSet
    budget: int

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if Fraction(0) not in set(self.seeds.points):
            object.__setattr__(self, "seeds", self.seeds.union(FinSet.of(0)))

    def points(self) -> FinSet:
        pts = list(self.seeds.points)
        out = set(pts)
        gaps = list(zip(pts, pts[1:])) + [(pts[-1], Fraction(1))]
        for a, b in gaps:
            lo = a
            for _ in range(self.budget):
                lo = (lo + b) / 2
                out.add(lo)
        return FinSet.from_iterable(out)


def make_grid(seed_points, budget: int, cap: Optional[int] = None) -> FinSet:
    grid = GridSpec(FinSet.from_iterable(seed_points), budget).points()
    limit = grid_cap() if cap is None else cap
    if len(grid) > limit:
        raise GridCapError(f"grid of {len(grid)} points exceeds cap {limit}")
    return grid


def _w_seed_points(assignment: dict) -> set:
    pts = {Fraction(0)}
    for v in assignment.values():
        if isinstance(v, FinSet):
            pts.update(v.points)
        elif isinstance(v, IntervalUnion):
            pts.update(v.endpoints("both").points)
        else:
            raise EvalError(f"bad assignment value {v!r}")
    return pts


# ---------------------------------------------------------------------------
# Grid evaluation on W(I)

class _GridEvaluator:
    """Base of the W(I) and L(I) grid evaluators: no partition quantifiers."""

    def exists_partition(self, f: ExistsPartition, env: dict) -> bool:
        raise EvalError(f"cannot evaluate {f!r} on the grid")


class GridWEvaluator(_GridEvaluator):
    """Subsets of the grid as bitmasks; term/atomic layers are exact."""

    def __init__(self, grid: FinSet):
        self.grid = grid
        self.index = {p: i for i, p in enumerate(grid.points)}
        self.size = len(grid.points)
        self.full = (1 << self.size) - 1
        self.blocks: dict = {}

    def encode(self, a: FinSet) -> int:
        mask = 0
        for p in a.points:
            if p not in self.index:
                raise EvalError(f"point {p} outside the grid")
            mask |= 1 << self.index[p]
        return mask

    def decode(self, mask: int) -> FinSet:
        return FinSet.from_iterable(self.grid.points[i]
                                    for i in range(self.size) if mask >> i & 1)

    def term(self, t: Term, env: dict) -> int:
        if isinstance(t, Var):
            try:
                return env[t.name]
            except KeyError:
                raise EvalError(f"unbound variable {t.name!r}") from None
        if isinstance(t, Const):
            if t.name in env:
                return env[t.name]
            if t.name == "bot":
                return 0
            if t.name == "zero":
                return 1  # grid point 0 is always present and is the least
            raise EvalError(f"unknown constant {t.name!r} in W(I)")
        op = t.op
        if op == "union":
            return self.term(t.args[0], env) | self.term(t.args[1], env)
        if op == "inter":
            return self.term(t.args[0], env) & self.term(t.args[1], env)
        if op == "setminus":
            return self.term(t.args[0], env) & ~self.term(t.args[1], env)
        if op == "delta":
            return self.term(t.args[0], env) ^ self.term(t.args[1], env)
        if op == "min":
            a = self.term(t.args[0], env)
            return a & -a
        if op == "max":
            a = self.term(t.args[0], env)
            return 1 << (a.bit_length() - 1) if a else 0
        if op == "msinv":
            a = self.term(t.args[0], env)
            b = self.term(t.args[1], env)
            out = 0
            prev = -1
            rest = a
            while rest:
                low = rest & -rest
                if prev >= 0 and low & b:
                    out |= 1 << prev
                prev = low.bit_length() - 1
                rest &= rest - 1
            return out
        raise EvalError(f"function {op!r} undefined in W(I)")

    def witnesses(self, var: str, body: Formula, env: dict,
                  antecedent_only: bool = False):
        return _bounded_masks(self.term, var, body, env, self.full,
                              antecedent_only)

    formula = _grid_formula


# ---------------------------------------------------------------------------
# Grid evaluation on L(I)

class GridLEvaluator(_GridEvaluator):
    """Interval unions with endpoints in the grid as cell masks: bit 2i is
    grid point i, bit 2i+1 the open gap above it; the last gap is the
    unbounded tail.  A gap bit is set only with the points around it (the
    tail only with the last point).  Term and atomic layers are exact."""

    def __init__(self, grid: FinSet):
        self.index = {p: i for i, p in enumerate(grid.points)}
        self.size = len(grid.points)
        self.full = (1 << 2 * self.size) - 1
        self.points = self.full // 3  # the even bits
        self.tail = 1 << 2 * self.size - 1
        self.blocks: dict = {}

    @cached_property
    def candidates(self) -> tuple:
        """Every valid mask; the evaluator itself never lists them."""
        return tuple(self.valid_masks(0, self.full))

    def encode(self, u: IntervalUnion) -> int:
        mask = 0
        for left, right in u.intervals:
            if left not in self.index or not (right is None
                                              or right in self.index):
                raise EvalError(f"endpoint of {u} outside the grid")
            hi = (self.full if right is None
                  else (2 << 2 * self.index[right]) - 1)
            mask |= hi & ~((1 << 2 * self.index[left]) - 1)
        return mask

    def term(self, t: Term, env: dict) -> int:
        if isinstance(t, Var):
            try:
                return env[t.name]
            except KeyError:
                raise EvalError(f"unbound variable {t.name!r}") from None
        if isinstance(t, Const):
            if t.name in env:
                return env[t.name]
            if t.name == "bot":
                return 0
            if t.name == "zero":
                return 1
            raise EvalError(f"unknown constant {t.name!r} in L(I)")
        op = t.op
        a = self.term(t.args[0], env)
        if op == "union":
            return a | self.term(t.args[1], env)
        if op == "inter":
            return a & self.term(t.args[1], env)
        if op == "min":
            return a & -a
        if op == "max":
            return 0 if a & self.tail or not a else 1 << (a.bit_length() - 1)
        if op == "l":
            return a & self.points & ~(a << 1)
        if op == "r":
            return a & self.points & ~(a >> 1)
        raise EvalError(f"function {op!r} undefined in L(I)")

    def valid_masks(self, lower: int, upper: int):
        """Valid masks between lower and upper, lazily: each point set first,
        then the gap sets its points allow."""
        low_gaps = lower & ~self.points
        # a gap in lower forces the points around it
        low_points = (lower | low_gaps >> 1 | low_gaps << 1) & self.points
        for chosen in _submasks(low_points, upper & self.points, False):
            allowed = chosen << 1 & (chosen >> 1 | self.tail) & upper
            for gaps in _submasks(low_gaps, allowed, False):
                yield chosen | gaps

    def _from_endpoints(self, lefts: int, rights: int) -> tuple:
        """The at most one valid mask with these left and right endpoints:
        the cells where more left than right endpoints have been passed."""
        if (lefts | rights) & ~self.points:
            return ()
        mask = depth = 0
        for i in range(2 * self.size):
            depth += lefts >> i & 1
            if depth > 0:
                mask |= 1 << i
            depth -= rights >> i & 1
        points = mask & self.points
        if points & ~(mask << 1) == lefts and points & ~(mask >> 1) == rights:
            return (mask,)
        return ()

    def witnesses(self, var: str, body: Formula, env: dict,
                  antecedent_only: bool = False):
        """Masks for a quantified variable: the one an equation fixes, the
        one its left and right endpoints fix together, else the valid masks
        within its lattice bounds (empty or unbounded when its maximum is
        empty)."""
        conjs = _quantified_conjuncts(body, antecedent_only)
        vt = Var(var)
        lefts = rights = None
        unbounded = False
        for c in conjs:
            if not isinstance(c, Eq):
                continue
            for a, b in ((c.left, c.right), (c.right, c.left)):
                if var in term_vars(b):
                    continue
                if a == vt:
                    return (self.term(b, env),)
                if isinstance(a, App) and a.args == (vt,):
                    if a.op == "l":
                        lefts = self.term(b, env)
                    elif a.op == "r":
                        rights = self.term(b, env)
                    elif a.op == "max" and self.term(b, env) == 0:
                        unbounded = True
        if lefts is not None and rights is not None:
            return self._from_endpoints(lefts, rights)
        lower, upper, singleton = _mask_bounds(self.term, var, conjs, env,
                                               self.full)
        if singleton:
            return _submasks(lower, 0 if unbounded else upper & self.points,
                             True)
        if unbounded:
            return itertools.chain((0,) if lower == 0 else (),
                                   self.valid_masks(lower | self.tail, upper))
        return self.valid_masks(lower, upper)

    formula = _grid_formula


def _verdict_at(kind: str, f: Formula, assignment: dict, k: int,
                cap: Optional[int]) -> bool:
    grid = make_grid(_w_seed_points(assignment), k, cap=cap)
    if kind == "w":
        ev = GridWEvaluator(grid)
    elif kind == "l":
        ev = GridLEvaluator(grid)
    else:
        raise ValueError(f"unknown structure kind {kind!r}")
    return ev.formula(f, {name: ev.encode(v) for name, v in assignment.items()})


def grid_eval(kind: str, f: Formula, assignment: Optional[dict] = None,
              k: int = 1, cap: Optional[int] = None) -> EvalReport:
    """Budgeted witness-search truth value over W(I) (kind='w') or L(I)
    (kind='l').  Reports whether the verdicts at budgets k and k+1 agree."""
    assignment = dict(assignment or {})
    v1 = _verdict_at(kind, f, assignment, k, cap)
    v2 = _verdict_at(kind, f, assignment, k + 1, cap)
    return EvalReport(verdict=v1, budget_used=k, stabilized=(v1 == v2))


def stabilize(kind: str, f: Formula, assignment: Optional[dict] = None,
              kmax: int = 4, cap: Optional[int] = None) -> EvalReport:
    """Verdict at the least budget k <= kmax whose verdict agrees with k+1,
    else the kmax verdict flagged as not stabilized."""
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    assignment = dict(assignment or {})
    verdicts: dict[int, bool] = {}

    def v(k: int) -> bool:
        if k not in verdicts:
            verdicts[k] = _verdict_at(kind, f, assignment, k, cap)
        return verdicts[k]

    for k in range(1, kmax):
        if v(k) == v(k + 1):
            return EvalReport(verdict=v(k), budget_used=k, stabilized=True)
    return EvalReport(verdict=v(kmax), budget_used=kmax, stabilized=False)


# ---------------------------------------------------------------------------
# Relativisation

def at_mo(var: str, fresh: FreshVars) -> Formula:
    """MO formula defining the atoms (minimal nonempty sets)."""
    w = fresh.fresh("W")
    return And(Not(Eq(Var(var), Const("bot"))),
               Forall(w, Implies(SubsetAtom(Var(w), Var(var)),
                                 Or(Eq(Var(w), Const("bot")),
                                    Eq(Var(w), Var(var))))))


def relativize(f: Formula, mode, fresh: Optional[FreshVars] = None) -> Formula:
    """Quantifier relativisation of an MO formula.

    mode = ("element", Y): restriction to the subsets of Y; quantifiers are
    guarded with X being a subset of Y.

    mode = ("interval", I, J): restriction to finite sets inside the window
    [i, j), where I and J are atom-valued variables naming the endpoints;
    quantifiers are guarded by every atom of X lying in the window.
    """
    kind = mode[0]
    params = mode[1:]
    if fresh is None:
        fresh = FreshVars(all_vars(f) | set(params))
    clash = set(params) & all_vars(f)
    if clash:
        for name in clash:
            # the guard variables must be fresh for f; rename bound uses
            f = _rename_bound(f, name, fresh.fresh(name))

    if kind == "element":
        yvar = params[0]

        def guard(x: str) -> Formula:
            return SubsetAtom(Var(x), Var(yvar))
    elif kind == "interval":
        ivar, jvar = params

        def guard(x: str) -> Formula:
            z = fresh.fresh("Z")
            window = And(Or(LtEAtom(Var(ivar), Var(z)), Eq(Var(ivar), Var(z))),
                         LtEAtom(Var(z), Var(jvar)))
            return Forall(z, Implies(And(at_mo(z, fresh),
                                         SubsetAtom(Var(z), Var(x))),
                                     window))
    else:
        raise ValueError(f"unknown relativisation mode {kind!r}")

    def go(g: Formula) -> Formula:
        if isinstance(g, Exists):
            return Exists(g.var, And(guard(g.var), go(g.body)))
        if isinstance(g, Forall):
            return Forall(g.var, Implies(guard(g.var), go(g.body)))
        if isinstance(g, ATOM_TYPES + (Not, And, Or, Implies)):
            return map_children(g, go)
        raise EvalError(f"cannot relativize {g!r}")

    return go(f)


def _rename_bound(f: Formula, old: str, new: str) -> Formula:
    if isinstance(f, (Exists, Forall)) and f.var == old:
        body = _rename_bound(f.body, old, new)
        return type(f)(new, substitute(body, {old: Var(new)}))
    if isinstance(f, ATOM_TYPES + FO_CONNECTIVES):
        return map_children(f, lambda g: _rename_bound(g, old, new))
    raise EvalError(f"cannot rename in {f!r}")
