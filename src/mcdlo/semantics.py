"""Quantifier evaluation: exact brute force on finite powerset structures and
budgeted grid semantics on W(I) / L(I), plus relativisation transformers.

The grid semantics is a witness-search procedure: quantified set variables
range over subsets of a finite grid grown from the assignment's points (W),
or over canonical interval unions with endpoints in the grid, including
unbounded variants (L).  The grid of budget k is a tuple of points in
increasing order: 0 and the assignment's points (the seeds), each followed
by k mean points that halve the way to the next seed (to 1 after the last).
Only the order of the grid matters to the search; the rationals serve to
place the assignment's points in it.  Grid sets, interval unions and the
subsets of MSO(n) are all bitmasks, and one mask kernel evaluates all three:
a structure is a constant table (the masks of its constants) and an op
table (its function symbols as functions on masks), searched by one
quantifier loop; the value-level structures of `models` stay as exact
references.  The loop prunes each quantified variable by the conjuncts of
its quantifier's body; a quantifier block (∃X∃Y… or ∀X∀Y…) is split at its
first visit so that each conjunct sits under the last block variable it
mentions.  Verdicts carry a stabilization flag comparing budgets k and k+1;
stability is a heuristic, evidence but not proof of the true verdict (the
three-atoms sentence of the tests stabilizes on a wrong false).
"""

from __future__ import annotations

import itertools
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .order import FinSet, IntervalUnion, check_point
from .syntax import (ATOM_TYPES, FO_CONNECTIVES, And, App, Eq, Exists,
                     ExistsPartition, Forall, FreshVars, Formula, Implies,
                     LtEAtom, Not, Or, SubsetAtom, Term, Var, all_vars,
                     and_all, conjuncts, free_vars, map_children, substitute,
                     term_vars)
from .models import EvalError, MsoFin
from .rewriting import at_mo

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
    """Truth over masks: a subclass supplies `name`, `consts`, `ops`, `full`
    (the mask of everything) and `encode`, and may replace `witnesses` and
    `exists_partition`."""

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

    def witnesses(self, var: str, body: Formula, env: dict,
                  antecedent_only: bool = False):
        """The masks between the lattice bounds the body puts on var."""
        conjs = _quantified_conjuncts(body, antecedent_only)
        return _submasks(*_mask_bounds(self.term, var, conjs, env, self.full))

    def exists_partition(self, f: ExistsPartition, env: dict) -> bool:
        raise EvalError(f"cannot evaluate {f!r} on the grid")


def _point_mask(self, points) -> int:
    """The mask of a set of the evaluator's points (`self.index` gives each
    point's bit)."""
    mask = 0
    for p in points:
        if p not in self.index:
            raise EvalError(f"point {p} outside the {self.name} grid")
        mask |= 1 << self.index[p]
    return mask


# ---------------------------------------------------------------------------
# Exact evaluation on MSO(n)

class BruteForceEvaluator(_MaskEvaluator):
    """Exact truth in MSO(n); subsets of {0..n-1} are n-bit masks.  Extra
    constants are masks or sets of points."""

    def __init__(self, n: int, cap: int = DEFAULT_MSOFIN_CAP,
                 constants: Optional[dict] = None):
        if n > cap:
            raise EvalError(f"MSO({n}) exceeds brute-force cap {cap}")
        self.n = n
        self.name = f"MSO({n})"
        self.index = {i: i for i in range(n)}
        full = self.full = (1 << n) - 1
        self.consts = {"bot": 0, "top": full, "zero": 1 if n else 0,
                       "zerostar": 1 << (n - 1) if n else 0,
                       **self.masks(constants)}
        self.ops = {**_BOOLEAN_OPS, "compl": lambda a: full & ~a,
                    "sinv": lambda a: a >> 1}
        self.blocks: dict = {}

    encode = _point_mask

    def masks(self, values: Optional[dict]) -> dict:
        """values with every set of points encoded; ints are masks already."""
        return {name: v if isinstance(v, int) else self.encode(v)
                for name, v in (values or {}).items()}

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
    ev = BruteForceEvaluator(m.n, cap=cap, constants=constants)
    return ev.formula(f, ev.masks(assignment))


# ---------------------------------------------------------------------------
# Grids

def make_grid(seed_points, budget: int, cap: Optional[int] = None) -> tuple:
    """The grid of a budget, in increasing order: 0 and each seed, each
    followed by `budget` points that halve the way to the next seed (to 1
    after the greatest)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    seeds = sorted({Fraction(0), *seed_points})
    check_point(seeds[0])
    check_point(seeds[-1])
    size = len(seeds) * (budget + 1)
    limit = grid_cap() if cap is None else cap
    if size > limit:
        raise GridCapError(f"grid of {size} points exceeds cap {limit}")
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
    """Subsets of the grid (its points in increasing order) as bitmasks,
    bit i the i-th grid point."""

    name = "W(I)"
    consts = _GRID_CONSTS
    ops = {**_BOOLEAN_OPS, "min": _least, "max": _greatest, "msinv": _msinv}

    def __init__(self, grid: Sequence[Fraction]):
        self.index = {p: i for i, p in enumerate(grid)}
        self.size = len(grid)
        self.full = (1 << self.size) - 1
        self.blocks: dict = {}

    encode = _point_mask

    formula = _grid_formula


# ---------------------------------------------------------------------------
# Grid evaluation on L(I)

class GridLEvaluator(_MaskEvaluator):
    """Interval unions with endpoints in the grid as cell masks: bit 2i is
    grid point i, bit 2i+1 the open gap above it; the last gap is the
    unbounded tail.  A gap bit is set only with the points around it (the
    tail only with the last point)."""

    name = "L(I)"
    consts = _GRID_CONSTS

    def __init__(self, grid: Sequence[Fraction]):
        self.index = {p: i for i, p in enumerate(grid)}
        self.size = len(grid)
        self.full = (1 << 2 * self.size) - 1
        points = self.points = self.full // 3  # the even bits
        tail = self.tail = 1 << 2 * self.size - 1
        self.ops = {**_LATTICE_OPS, "min": _least,
                    "max": lambda a: 0 if a & tail else _greatest(a),
                    "l": lambda a: a & points & ~(a << 1),
                    "r": lambda a: a & points & ~(a >> 1)}
        self.blocks: dict = {}

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
            return Forall(z, Implies(And(at_mo(Var(z), fresh),
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
