"""Quantifier evaluation: exact brute force on finite powerset structures and
budgeted grid semantics on W(I) / L(I).

The grid semantics is a witness-search procedure: quantified set variables
range over subsets of a finite grid grown from the assignment's points (W),
or over canonical interval unions with endpoints in the grid, including
unbounded variants (L).  The grid of budget k (`make_grid`) is a tuple of
points in increasing order: 0 and the assignment's points (the seeds), each
followed by k mean points that halve the way to the next seed (to 1 after
the last).  Only the order of the grid matters to the search, so a query
builds no grid: it sorts the seeds once, and in the budget-k grid seed j is
bit j(k+1).  Grid sets, interval unions and the subsets of MSO(n) are all
bitmasks of one evaluator class (`_MaskEvaluator`): a structure is a
constant table (the masks of its constants) and an op table (its function
symbols as functions on masks), searched by one quantifier loop; the
value-level structures of `models` stay as exact references.  One plan
(`_plan`) reads a quantifier's guards (`_guards`: the conjuncts of an ∃
body, of a ∀ body's antecedent): an equation fixes its variable in every
structure, lattice constraints bound it, and in L(I) endpoint equations
fix it too.  A block (∃X∃Y… or ∀X∀Y…) is split by the same reading, so
that each guard sits under the last block variable it mentions and a
block variable that nothing mentions is dropped.  The split and the plan
depend on the formula alone, so one query (`grid_eval`, `stabilize`)
analyses each quantifier node and ranks each value's points among the
seeds once for all its budgets: a budget's masks are shifts of the ranks.
Verdicts carry a stabilization flag comparing budgets k and k+1.  The
budget-k structure is a substructure of the budget-(k+1) one, so a
verdict that transfers upward (true and existential, or false with an
existential negation) stands for k+1 without a search.  For the others
stability is a heuristic, evidence but not proof of the true verdict
(the three-atoms sentence of the tests stabilizes on a wrong false).
"""

from __future__ import annotations

import itertools
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .order import ZERO, FinSet, IntervalUnion, check_point
from .syntax import (And, App, Eq, Exists, ExistsPartition, Forall, Formula,
                     Implies, LtEAtom, Not, Or, SubsetAtom, Term, Var,
                     and_all, conjuncts, free_vars, is_existential,
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
# equations or lattice constraints among the top-level conjuncts of the
# quantified body (v equal to t, v contained in t or containing it, v
# disjoint from t, union with t prescribed).  Reading them off fixes the
# witness, or confines its search to an interval of the subset lattice.
# The reading is a plan made once per quantifier node: which conjuncts fix
# or bound the variable, and how; a visit evaluates its terms only.


# the steps of a plan: each names the terms a visit evaluates
_EQUAL, _UPPER, _LOWER, _EMPTY_MEET, _UNION, _LEFTS, _RIGHTS, _MAX = range(8)
_ENDPOINTS = {"l": _LEFTS, "r": _RIGHTS, "max": _MAX}


def _plan(var: str, conjs) -> tuple:
    """(steps, singleton): what the conjuncts say of var, read off once per
    quantifier node.  An equation var = t, t free of var, fixes var and is
    the only step; (l var), (r var) and (max var) equal to such a t give
    the endpoint steps, and the lattice steps bound var (`_mask_bounds`).
    Singleton means var is empty or a single point."""
    steps = []
    singleton = False
    vt = Var(var)
    least = App("min", (vt,))
    for c in conjs:
        kind = type(c)
        if (kind is SubsetAtom and c.left == vt
                and var not in term_vars(c.right)):
            steps.append((_UPPER, c.right, None))
            continue
        if kind is not Eq:
            continue
        for a, b in ((c.left, c.right), (c.right, c.left)):
            free = var not in term_vars(b)
            if a == vt:
                if free:
                    return ((_EQUAL, b, None),), False
                singleton = singleton or b == least
                continue
            if type(a) is not App or vt not in a.args:
                continue
            if a.op in _ENDPOINTS and free:
                steps.append((_ENDPOINTS[a.op], b, None))
            if a.op not in ("inter", "union"):
                continue
            other = a.args[0] if a.args[1] == vt else a.args[1]
            if other == vt or var in term_vars(other):
                continue
            if a.op == "inter":
                if b == vt:
                    steps.append((_UPPER, other, None))
                elif b == other:
                    steps.append((_LOWER, other, None))
                elif free:
                    # b empty: var is disjoint from other
                    steps.append((_EMPTY_MEET, b, other))
            elif free:
                steps.append((_UNION, b, other))
    return tuple(steps), singleton


def _mask_bounds(term, steps, env: dict, top: int) -> tuple:
    """(lower, upper): the bounds a plan's lattice steps put on every
    satisfying value, with their terms evaluated in env."""
    upper, lower = top, 0
    for code, a, b in steps:
        if code == _UPPER:
            upper &= term(a, env)
        elif code == _LOWER:
            lower |= term(a, env)
        elif code == _EMPTY_MEET:
            if term(a, env) == 0:
                upper &= top & ~term(b, env)
        elif code == _UNION:
            u = term(a, env)
            upper &= u
            lower |= u & ~term(b, env)
    return lower, upper


def _guards(quant, matrix: Formula) -> tuple:
    """(guards, inner) of a quantifier body: the conjuncts that may bound
    its variable, and what else a ∀ checks.  Under ∃ every conjunct guards
    (inner None); under ∀ only the antecedent of an implication does (other
    values hold vacuously), and any other body is all inner."""
    if quant is Exists:
        return list(conjuncts(matrix)), None
    if type(matrix) is Implies:
        return list(conjuncts(matrix.left)), matrix.right
    return [], matrix


def _partition_plan(f: ExistsPartition) -> tuple:
    """(bounded, rest) of a partition quantifier's body: for each block
    variable Z, its first conjunct (subset Z t) with t free of block
    variables, as (Z, t); and the other conjuncts."""
    bset = set(f.block_vars)
    bounded: dict = {}
    rest = []
    for c in conjuncts(f.body):
        if (type(c) is SubsetAtom and type(c.left) is Var
                and c.left.name in bset and c.left.name not in bounded
                and not (term_vars(c.right) & bset)):
            bounded[c.left.name] = c.right
        else:
            rest.append(c)
    return tuple(bounded.items()), tuple(rest)


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
# Splitting the block pushes each guard of φ (`_guards`) to just inside the
# quantifier of the last block variable it mentions, and the guards that
# mention none out of the block; a block variable that no part of φ
# mentions (or that an inner one of the same name shadows) loses its
# quantifier.  Over a non-empty domain the result is the same formula, and
# every evaluator's domain contains the empty mask.

def split_block(f: Formula) -> Formula:
    """f with its quantifier block split, or f itself when no guard moves
    and every block variable is kept."""
    quant = type(f)
    prefix = []
    matrix = f
    while type(matrix) is quant:
        prefix.append(matrix.var)
        matrix = matrix.body
    guards, inner = _guards(quant, matrix)
    last = {v: i for i, v in enumerate(prefix, 1)}  # a repeated name shadows
    levels: list[list] = [[] for _ in range(len(prefix) + 1)]  # 0: outside
    kept = set() if inner is None else {last[v] for v in free_vars(inner)
                                        if v in last}
    for c in guards:
        mentioned = [last[v] for v in free_vars(c) if v in last]
        kept.update(mentioned)
        levels[max(mentioned, default=0)].append(c)
    if len(kept) == len(prefix) and not any(levels[:-1]):
        return f
    for i in range(len(prefix), -1, -1):
        if levels[i]:
            guard = and_all(levels[i])
            inner = (Implies(guard, inner) if quant is Forall
                     else guard if inner is None else And(guard, inner))
        if i in kept:
            inner = quant(prefix[i - 1], inner)
    return inner


# ---------------------------------------------------------------------------
# One quantifier search over masks, shared by MSO(n), W(I) and L(I)

def _grid_formula(self, f: Formula, env: dict) -> bool:
    """Truth over an evaluator's masks: atoms compare term masks (every
    encoding is a lattice embedding whose least set bit is the minimum and
    whose highest one decides the order atom), quantified variables range
    over the evaluator's witness masks, and partition quantifiers go to its
    partition search.  Each quantifier node is analysed once per `analysed`
    cache (see `_MaskEvaluator.analyse`)."""
    kind = type(f)
    if kind is Eq:
        return self.term(f.left, env) == self.term(f.right, env)
    if kind is And:
        return self.formula(f.left, env) and self.formula(f.right, env)
    if kind is Not:
        return not self.formula(f.body, env)
    if kind is SubsetAtom:
        a, b = self.term(f.left, env), self.term(f.right, env)
        return a | b == b
    if kind is LtEAtom:
        a, b = self.term(f.left, env), self.term(f.right, env)
        if not a or not b:
            return False
        return (a & -a).bit_length() < b.bit_length()
    if kind is Or:
        return self.formula(f.left, env) or self.formula(f.right, env)
    if kind is Implies:
        return (not self.formula(f.left, env)) or self.formula(f.right, env)
    if kind is Exists or kind is Forall:
        hit = self.analysed.get(id(f))
        if hit is None:
            hit = self.analyse(f)
        _, split, plan = hit
        if split is not None:
            return self.formula(split, env)
        env = dict(env)
        var, body, formula = f.var, f.body, self.formula
        if kind is Exists:
            for mask in self.witnesses(plan, env):
                env[var] = mask
                if formula(body, env):
                    return True
            return False
        for mask in self.witnesses(plan, env):
            env[var] = mask
            if not formula(body, env):
                return False
        return True
    if kind is ExistsPartition:
        return self.exists_partition(f, env)
    raise EvalError(f"cannot evaluate {f!r}")


# ---------------------------------------------------------------------------
# The mask kernel shared by MSO(n), W(I) and L(I)
#
# A structure is a constant table and an op table: the masks of its
# constants, and its function symbols as functions on masks.

_LATTICE_OPS = {"union": operator.or_, "inter": operator.and_}
_BOOLEAN_OPS = {**_LATTICE_OPS, "setminus": lambda a, b: a & ~b,
                "delta": operator.xor}
# point 0 is always the first point of a grid, so bit 0 is the set {0}
_GRID_CONSTS = {"bot": 0, "zero": 1}


def _least(a: int) -> int:
    return a & -a


def _greatest(a: int) -> int:
    return 1 << (a.bit_length() - 1) if a else 0


def _msinv(a: int, b: int) -> int:
    """The points of a whose successor in a lies in b."""
    out = 0
    prev = -1
    while a:
        low = a & -a
        if prev >= 0 and low & b:
            out |= 1 << prev
        prev = low.bit_length() - 1
        a &= a - 1
    return out


class _MaskEvaluator:
    """Truth over masks of points given in increasing order: the whole
    domain (budget 0), or the sorted seeds of the budget-k grid, seed j at
    bit j(k+1).  `analysed` may be shared by the evaluators of one query.
    A subclass supplies `name`, `consts` and `ops`, and may replace
    `ranks`, `mask`, `witnesses` and `exists_partition`."""

    def __init__(self, points: Sequence, budget: int = 0,
                 analysed: Optional[dict] = None):
        self.given, self.step = points, budget + 1
        self.size = len(points) * self.step
        self.full = (1 << self.size) - 1
        self.analysed = {} if analysed is None else analysed

    @property
    def index(self) -> dict:
        """The bit of each given point; a query ranks its values itself."""
        return {p: i * self.step for i, p in enumerate(self.given)}

    def encode(self, value, index: Optional[dict] = None) -> int:
        """The mask of a value whose points are given points; a caller that
        encodes many values passes `index` once built."""
        index = self.index if index is None else index
        try:
            return self.mask(self.ranks(value, index), 1)
        except KeyError as missing:
            raise EvalError(f"point {missing.args[0]} outside the "
                            f"{self.name} grid") from None

    @staticmethod
    def ranks(points, index: dict) -> tuple:
        return tuple(index[p] for p in points)

    def mask(self, ranks: tuple, scale: int) -> int:
        """The mask of the points of these ranks: bit r·scale each."""
        mask = 0
        for r in ranks:
            mask |= 1 << r * scale
        return mask

    def term(self, t: Term, env: dict) -> int:
        kind = type(t)
        if kind is Var:
            try:
                return env[t.name]
            except KeyError:
                raise EvalError(f"unbound variable {t.name!r}") from None
        if kind is App:
            fn = self.ops.get(t.op)
            if fn is None:
                raise EvalError(f"function {t.op!r} undefined in {self.name}")
            args = t.args
            if len(args) == 1:
                return fn(self.term(args[0], env))
            return fn(self.term(args[0], env), self.term(args[1], env))
        if t.name in env:
            return env[t.name]
        try:
            return self.consts[t.name]
        except KeyError:
            raise EvalError(f"unknown constant {t.name!r} in "
                            f"{self.name}") from None

    def analyse(self, q: Formula) -> tuple:
        """(q, split, plan) for a quantifier node, stored in `analysed` under
        q's identity (hashing a node walks its subtree).  The entry holds q
        and so keeps it alive: no other live node can share its id, and a
        hit on id(q) is always q's own entry.  A block that its split changes
        gets the split and no plan, any other quantifier its pruning plan
        and no split.  The dict may be shared by the evaluators of every
        budget of one query, since none of this depends on the grid."""
        if type(q) is ExistsPartition:
            entry = (q, None, _partition_plan(q))
        else:
            split = split_block(q) if type(q.body) is type(q) else q
            entry = ((q, split, None) if split is not q else
                     (q, None, _plan(q.var, _guards(type(q), q.body)[0])))
        self.analysed[id(q)] = entry
        return entry

    def witnesses(self, plan, env: dict):
        """The mask an equation of the plan fixes its variable to, else the
        masks between the lattice bounds the plan puts on it."""
        steps, singleton = plan
        if steps and steps[0][0] == _EQUAL:
            return (self.term(steps[0][1], env),)
        lower, upper = _mask_bounds(self.term, steps, env, self.full)
        return _submasks(lower, upper, singleton)

    def exists_partition(self, f: ExistsPartition, env: dict) -> bool:
        raise EvalError(f"cannot evaluate {f!r} on the grid")


# ---------------------------------------------------------------------------
# Exact evaluation on MSO(n)

class BruteForceEvaluator(_MaskEvaluator):
    """Exact truth in MSO(n); subsets of {0..n-1} are n-bit masks."""

    def __init__(self, n: int):
        if n < 0:
            raise EvalError(f"MSO({n}) needs n >= 0")
        if n > DEFAULT_MSOFIN_CAP:
            raise EvalError(f"MSO({n}) exceeds brute-force cap "
                            f"{DEFAULT_MSOFIN_CAP}")
        super().__init__(range(n))
        self.name = f"MSO({n})"
        full = self.full
        self.consts = {"bot": 0, "top": full, "zero": 1 if n else 0,
                       "zerostar": 1 << (n - 1) if n else 0}
        self.ops = {**_BOOLEAN_OPS, "compl": lambda a: full & ~a,
                    "sinv": lambda a: a >> 1}

    formula = _grid_formula

    def exists_partition(self, f: ExistsPartition, env: dict) -> bool:
        """Search for a labelling of index points by blocks.  Top-level
        conjuncts of shape (subset Z t), with Z a block variable and t free of
        block variables, prune the per-point block choices; the body is split
        into those bounds and the rest once per node (`analyse`)."""
        hit = self.analysed.get(id(f))
        if hit is None:
            hit = self.analyse(f)
        bounded, rest = hit[2]
        blocks = f.block_vars
        bounds = {z: self.term(t, env) for z, t in bounded}

        allowed_per_point = []
        for i in range(self.size):
            bit = 1 << i
            allowed = [(z, bit) for z in blocks
                       if z not in bounds or bounds[z] & bit]
            if not allowed:
                return False
            allowed_per_point.append(allowed)

        env = dict(env)
        formula = self.formula
        for labelling in itertools.product(*allowed_per_point):
            for z in blocks:
                env[z] = 0
            for z, bit in labelling:
                env[z] |= bit
            for c in rest:
                if not formula(c, env):
                    break
            else:
                return True
        return False


def bruteforce_eval(m: MsoFin, f: Formula,
                    assignment: Optional[dict] = None) -> bool:
    """Exact truth of f in MSO(n); assignment maps variables to frozensets of
    ints (or bitmask ints below 2**n)."""
    ev = BruteForceEvaluator(m.n)
    index = ev.index
    env = {name: v if isinstance(v, int) else ev.encode(v, index)
           for name, v in (assignment or {}).items()}
    for name, v in env.items():
        if not 0 <= v <= ev.full:
            raise EvalError(f"{name} = {v}: not a mask of {ev.name}")
    return _search(ev, f, env)


def _search(ev: _MaskEvaluator, f: Formula, env: dict) -> bool:
    """The evaluator's truth of f; the search recurses once per nesting
    level, so a formula nested past the interpreter's limit is an
    EvalError."""
    try:
        return ev.formula(f, env)
    except RecursionError:
        raise EvalError("formula nested too deeply") from None


# ---------------------------------------------------------------------------
# Grids

def _sorted_seeds(seed_points) -> list:
    """0 and the seed points in increasing order, each once; all of them
    must lie in [0, 1)."""
    seeds = sorted({ZERO, *seed_points})
    if len(seeds) > 1:
        check_point(seeds[0])
        check_point(seeds[-1])
    return seeds


def _check_size(seed_count: int, budget: int, limit: int) -> None:
    size = seed_count * (budget + 1)
    if size > limit:
        raise GridCapError(f"grid of {size} points exceeds cap {limit}")


def make_grid(seed_points, budget: int, cap: Optional[int] = None) -> tuple:
    """The grid of a budget, in increasing order: 0 and each seed, each
    followed by `budget` points that halve the way to the next seed (to 1
    after the greatest).  Seed j is point j(budget+1): the bit the grid
    evaluators give it, so a query needs the sorted seeds only."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    seeds = _sorted_seeds(seed_points)
    _check_size(len(seeds), budget, grid_cap() if cap is None else cap)
    grid = []
    for a, b in zip(seeds, seeds[1:] + [Fraction(1)]):
        grid.append(a)
        for _ in range(budget):
            a = (a + b) / 2
            grid.append(a)
    return tuple(grid)


def _w_seed_points(assignment: dict) -> set:
    """The points of the assignment's values: the members of finite sets and
    the finite endpoints of interval unions."""
    pts = set()
    for v in assignment.values():
        if isinstance(v, FinSet):
            pts.update(v.points)
        elif isinstance(v, IntervalUnion):
            pts.update(p for iv in v.intervals for p in iv if p is not None)
        else:
            raise EvalError(f"bad assignment value {v!r}")
    return pts


# ---------------------------------------------------------------------------
# Grid evaluation on W(I)

class GridWEvaluator(_MaskEvaluator):
    """Subsets of the grid as bitmasks, bit i the i-th grid point."""

    name = "W(I)"
    value_type = FinSet
    consts = _GRID_CONSTS
    ops = {**_BOOLEAN_OPS, "min": _least, "max": _greatest, "msinv": _msinv}
    formula = _grid_formula


# ---------------------------------------------------------------------------
# Grid evaluation on L(I)

class GridLEvaluator(_MaskEvaluator):
    """Interval unions with endpoints in the grid as cell masks: bit 2i is
    grid point i, bit 2i+1 the open gap above it; the last gap is the
    unbounded tail.  A gap bit is set only with the points around it (the
    tail only with the last point).  The grid is given as for
    `_MaskEvaluator`."""

    name = "L(I)"
    value_type = IntervalUnion
    consts = _GRID_CONSTS

    def __init__(self, points: Sequence[Fraction], budget: int = 0,
                 analysed: Optional[dict] = None):
        super().__init__(points, budget, analysed)
        self.full = (1 << 2 * self.size) - 1
        points = self.points = self.full // 3  # the even bits
        tail = self.tail = 1 << 2 * self.size - 1
        self.ops = {**_LATTICE_OPS, "min": _least,
                    "max": lambda a: 0 if a & tail else _greatest(a),
                    "l": lambda a: a & points & ~(a << 1),
                    "r": lambda a: a & points & ~(a >> 1)}

    @staticmethod
    def ranks(u: IntervalUnion, index: dict) -> tuple:
        return tuple((index[left], None if right is None else index[right])
                     for left, right in u.intervals)

    def mask(self, ranks: tuple, scale: int) -> int:
        """The cells from 2·left·scale to 2·right·scale (or to the tail) of
        intervals whose endpoints have these ranks."""
        mask = 0
        for left, right in ranks:
            hi = self.full if right is None else (2 << 2 * right * scale) - 1
            mask |= hi & ~((1 << 2 * left * scale) - 1)
        return mask

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

    def witnesses(self, plan, env: dict):
        """Masks for a quantified variable: the one an equation fixes, the
        one its left and right endpoints fix together, else the valid masks
        within its lattice bounds (empty or unbounded when its maximum is
        empty)."""
        steps, singleton = plan
        lefts = rights = None
        unbounded = False
        for code, t, _ in steps:
            if code == _EQUAL:
                return (self.term(t, env),)
            if code == _LEFTS:
                lefts = self.term(t, env)
            elif code == _RIGHTS:
                rights = self.term(t, env)
            elif code == _MAX and self.term(t, env) == 0:
                unbounded = True
        if lefts is not None and rights is not None:
            return self._from_endpoints(lefts, rights)
        lower, upper = _mask_bounds(self.term, steps, env, self.full)
        if singleton:
            return _submasks(lower, 0 if unbounded else upper & self.points,
                             True)
        if unbounded:
            return itertools.chain((0,) if lower == 0 else (),
                                   self.valid_masks(lower | self.tail, upper))
        return self.valid_masks(lower, upper)

    formula = _grid_formula


_GRID_EVALUATORS = {"w": GridWEvaluator, "l": GridLEvaluator}


def _budget_verdicts(kind: str, f: Formula, assignment: dict,
                     cap: Optional[int]):
    """verdict(k): the truth of f under the assignment at budget k, each
    computed once, or the k-1 verdict when it transfers (module docstring).
    Done once for all budgets: the values' types checked, the seeds sorted,
    the values ranked, the cap read, and each quantifier node analysed."""
    evaluator = _GRID_EVALUATORS.get(kind)
    if evaluator is None:
        raise ValueError(f"unknown structure kind {kind!r}")
    for name, v in assignment.items():
        if not isinstance(v, evaluator.value_type):
            raise EvalError(f"{name} = {v!r}: {evaluator.name} takes "
                            f"{evaluator.value_type.__name__} values")
    seeds = _sorted_seeds(_w_seed_points(assignment))
    rank = {p: j for j, p in enumerate(seeds)}
    ranks = {name: evaluator.ranks(v, rank) for name, v in assignment.items()}
    limit = grid_cap() if cap is None else cap
    analysed: dict = {}
    verdicts: dict[int, bool] = {}
    transfers: dict[bool, bool] = {}

    def verdict(k: int) -> bool:
        if k in verdicts:
            return verdicts[k]
        if k < 1:
            raise ValueError("budget must be >= 1")
        _check_size(len(seeds), k, limit)
        below = verdicts.get(k - 1)
        if below is not None and below not in transfers:
            try:
                transfers[below] = is_existential(f, below)
            except RecursionError:
                raise EvalError("formula nested too deeply") from None
        if transfers.get(below):
            verdicts[k] = below
            return below
        ev = evaluator(seeds, k, analysed)
        verdicts[k] = _search(ev, f, {name: ev.mask(r, ev.step)
                                      for name, r in ranks.items()})
        return verdicts[k]

    return verdict


def grid_eval(kind: str, f: Formula, assignment: Optional[dict] = None,
              k: int = 1, cap: Optional[int] = None) -> EvalReport:
    """Budgeted witness-search truth value over W(I) (kind='w') or L(I)
    (kind='l').  Reports whether the verdicts at budgets k and k+1 agree;
    a budget-k verdict that transfers stands for k+1 without a search."""
    assignment = dict(assignment or {})
    verdict = _budget_verdicts(kind, f, assignment, cap)
    v1 = verdict(k)
    v2 = verdict(k + 1)
    return EvalReport(verdict=v1, budget_used=k, stabilized=(v1 == v2))


def stabilize(kind: str, f: Formula, assignment: Optional[dict] = None,
              kmax: int = 4, cap: Optional[int] = None) -> EvalReport:
    """Verdict at the least budget k <= kmax whose verdict agrees with k+1,
    else the kmax verdict flagged as not stabilized.  A verdict that
    transfers stands for k+1 without a search, so it stops here; for any
    other verdict, agreement is a heuristic."""
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    verdict = _budget_verdicts(kind, f, dict(assignment or {}), cap)
    for k in range(1, kmax):
        if verdict(k) == verdict(k + 1):
            return EvalReport(verdict=verdict(k), budget_used=k,
                              stabilized=True)
    return EvalReport(verdict=verdict(kmax), budget_used=kmax,
                      stabilized=False)
