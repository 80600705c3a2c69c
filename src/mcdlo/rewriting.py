"""Formula translators between the four signatures.

Five families of rewriting live here:

* `defeq_translate` — the definitional equivalences between the relational
  order signature (subset / order-between-members) and the two functional
  signatures (finite-powerset and finite-subsets-of-I).
* `qf_positive_rewrite` — quantifier-free formulas over W(I) become positive
  existential formulas: the difference operators are eliminated through
  their lattice characterisations, and negated equations are then replaced
  by a nonemptiness witness inside the symmetric difference.
* `w_in_l_translate` / `l_in_w_translate` — the two-way interpretation
  between W(I) and the interval-union structure L(I), via the finite-set
  predicate l(X) = r(X) in one direction and endpoint codes in the other.
* `lci_existential_rewrite` — quantifier-free L(I) formulas become
  existential ones by routing each negated equation through endpoint codes
  and the positive rewriting of W(I).
* `relativize` — quantifiers of an MO formula are guarded to range over the
  subsets of a set or the finite sets inside a window.

The quantifier-free rewriters map literals: `_literals` is the one polarity
walk, and `_unfold_differences` the one term map for differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from .order import FinSet, IntervalUnion
from .syntax import (ATOM_TYPES, And, App, Const, Eq, EvalError, Exists,
                     Forall, Formula, FreshVars, Implies, LtEAtom, Not, Or,
                     SignatureError, SubsetAtom, Term, Var, all_vars, and_all,
                     formula_ops, is_existential, is_positive_existential,
                     is_quantifier_free, map_atoms, or_all, substitute,
                     unnest)


# ---------------------------------------------------------------------------
# Term/formula shorthands

BOT = Const("bot")
ZERO = Const("zero")


def _union(*ts: Term) -> Term:
    out = ts[0]
    for t in ts[1:]:
        out = App("union", (out, t))
    return out


def _inter(a: Term, b: Term) -> Term:
    return App("inter", (a, b))


def _min(a: Term) -> Term:
    return App("min", (a,))


def _max(a: Term) -> Term:
    return App("max", (a,))


def _msinv(a: Term, b: Term) -> Term:
    return App("msinv", (a, b))


def _subset_eq(a: Term, b: Term) -> Formula:
    """a is contained in b, expressed in the functional signatures."""
    return Eq(_inter(a, b), a)


def _nonempty(t: Term) -> Formula:
    return Not(Eq(t, BOT))


# ---------------------------------------------------------------------------
# Nonemptiness, positively

def notbot_formula(t: Term) -> Formula:
    """Positive formula equivalent over W(I) to t != bot: either t is the
    zero singleton or zero lies in the successor-preimage of t within
    t-with-zero (so t has a member above zero)."""
    return Or(Eq(t, ZERO),
              Eq(_inter(ZERO, _msinv(_union(t, ZERO), t)), ZERO))


# ---------------------------------------------------------------------------
# Literals: negation normal form, with each literal mapped on the way

_DUAL = {And: Or, Or: And, Exists: Forall, Forall: Exists}


def _literals(f: Formula, literal) -> Formula:
    """f with negations pushed down to the atoms and implications expanded,
    each atom a replaced by literal(a, negated), left to right; quantifiers
    pass through, dualised under a negation."""
    def walk(g: Formula, negated: bool) -> Formula:
        kind = type(g)
        if kind in ATOM_TYPES:
            return literal(g, negated)
        if kind is Not:
            return walk(g.body, not negated)
        if kind is Implies:  # (not a) or b
            return (And if negated else Or)(walk(g.left, not negated),
                                            walk(g.right, negated))
        if kind in (And, Or):
            return (_DUAL[kind] if negated else kind)(walk(g.left, negated),
                                                      walk(g.right, negated))
        if kind in (Exists, Forall):
            return (_DUAL[kind] if negated else kind)(g.var,
                                                      walk(g.body, negated))
        raise EvalError(f"cannot normalise {g!r}")

    return walk(f, False)


# ---------------------------------------------------------------------------
# Positive existential rewriting over W(I)

def _setminus_witness(a: Term, b: Term, c: Term) -> Formula:
    """c = a minus b, characterised without difference: c fills a up from
    a n b and avoids b.  Valid in any lattice of sets."""
    return And(Eq(_union(_inter(a, b), c), a), Eq(_inter(b, c), BOT))


def _unfold_differences(literal: Formula, fresh: FreshVars) -> Formula:
    """literal, an atom or a negated atom, with its differences unfolded:
    each symmetric difference becomes two differences, and each difference,
    innermost and leftmost first, an existential witness C shared by equal
    differences.  The first witness is the outermost, and each wraps the
    whole literal, since it is functionally determined."""
    atom = literal.body if type(literal) is Not else literal
    witnesses: dict[tuple[Term, Term], str] = {}

    def minus(a: Term, b: Term) -> Term:
        c = witnesses.get((a, b))
        if c is None:
            c = witnesses[a, b] = fresh.fresh("C")
        return Var(c)

    def term(t: Term) -> Term:
        if type(t) is not App:
            return t
        args = tuple([term(a) for a in t.args])
        if t.op == "setminus":
            return minus(*args)
        if t.op == "delta":
            a, b = args
            return _union(minus(a, b), minus(b, a))
        return App(t.op, args)

    out: Formula = type(atom)(term(atom.left), term(atom.right))
    if atom is not literal:
        out = Not(out)
    for (a, b), c in reversed(witnesses.items()):
        out = Exists(c, And(_setminus_witness(a, b, Var(c)), out))
    return out


def qf_positive_rewrite(f: Formula) -> Formula:
    """Positive existential equivalent over W(I) of a quantifier-free formula
    (difference and symmetric-difference extensions allowed in the input).

    The differences of each literal are first unfolded into their existential
    lattice witnesses, each quantifier carrying its defining constraints as
    top-level conjuncts; then a negated equation becomes the existence of a
    nonempty subset of the symmetric difference of its sides.  Quantifiers
    of an existential input pass through."""
    if not is_existential(f):
        raise EvalError(f"not existential over W(I): {f!r}")
    fresh = FreshVars(all_vars(f))
    unfolded = _literals(f, lambda a, negated: _unfold_differences(
        Not(a) if negated else a, fresh))

    def positive(a: Formula, negated: bool) -> Formula:
        if type(a) is not Eq:
            raise EvalError(f"W(I) formulas have equational atoms, got {a!r}")
        if not negated:
            return a
        c1, c2, y = fresh.fresh("C"), fresh.fresh("C"), fresh.fresh("Y")
        inhabit = And(notbot_formula(Var(y)),
                      Eq(_inter(Var(y), _union(Var(c1), Var(c2))), Var(y)))
        return Exists(c1, And(_setminus_witness(a.left, a.right, Var(c1)),
                              Exists(c2, And(_setminus_witness(a.right, a.left,
                                                               Var(c2)),
                                             Exists(y, inhabit)))))

    # two passes, so every difference witness is named before the first
    # negated equation's
    return _literals(unfolded, positive)


def is_positive_wso(f: Formula) -> bool:
    """Syntactic check: no negation, implication, universal, difference or
    symmetric difference anywhere."""
    return (is_positive_existential(f)
            and not formula_ops(f) & {"setminus", "delta"})


# ---------------------------------------------------------------------------
# Definitional equivalences

def at_mo(t: Term, fresh: FreshVars) -> Formula:
    """t is an atom: nonempty with no proper nonempty part."""
    w = fresh.fresh("W")
    return And(_nonempty(t),
               Forall(w, Implies(SubsetAtom(Var(w), t),
                                 Or(Eq(Var(w), BOT), Eq(Var(w), t)))))


def _no_atoms(fresh: FreshVars) -> Formula:
    w = fresh.fresh("W")
    return Not(Exists(w, at_mo(Var(w), fresh)))


def _end_atom_mo(t: Term, fresh: FreshVars, least: bool) -> Formula:
    """t is the least (else the greatest) atom, or bot in the degenerate
    empty order."""
    w = fresh.fresh("W")
    beyond = LtEAtom(Var(w), t) if least else LtEAtom(t, Var(w))
    end = And(at_mo(t, fresh),
              Forall(w, Implies(at_mo(Var(w), fresh), Not(beyond))))
    return Or(end, And(_no_atoms(fresh), Eq(t, BOT)))


def _succ_mo(z: Term, zp: Term, fresh: FreshVars,
             within: Optional[Term] = None) -> Formula:
    """Atom zp is the immediate successor of atom z in the whole order, or
    inside `within` when it is given."""
    w = fresh.fresh("W")
    inside = [] if within is None else [SubsetAtom(Var(w), within)]
    return And(LtEAtom(z, zp),
               Not(Exists(w, and_all([at_mo(Var(w), fresh), *inside,
                                      LtEAtom(z, Var(w)),
                                      LtEAtom(Var(w), zp)]))))


def _lattice_mo(u1: Term, u2: Term, v: Term, fresh: FreshVars,
                join: bool) -> Formula:
    """v is the union (else the intersection) of u1 and u2: their least
    upper (else greatest lower) bound under inclusion."""
    w = fresh.fresh("W")

    def below(a: Term, b: Term) -> Formula:
        return SubsetAtom(a, b) if join else SubsetAtom(b, a)

    return and_all([below(u1, v), below(u2, v),
                    Forall(w, Implies(And(below(u1, Var(w)),
                                          below(u2, Var(w))),
                                      below(v, Var(w))))])


def _extreme_mo(u: Term, v: Term, fresh: FreshVars, least: bool) -> Formula:
    """v is min(u) (else max(u)): bot for bot, else the atom of u with no
    atom of u below (else above) it."""
    w = fresh.fresh("W")
    beyond = LtEAtom(Var(w), v) if least else LtEAtom(v, Var(w))
    proper = and_all([at_mo(v, fresh), SubsetAtom(v, u),
                      Forall(w, Implies(And(at_mo(Var(w), fresh),
                                            SubsetAtom(Var(w), u)),
                                        Not(beyond)))])
    return Or(And(Eq(u, BOT), Eq(v, BOT)), proper)


def _preimage_mo(u: Term, v: Term, fresh: FreshVars,
                 within: Optional[Term] = None) -> Formula:
    """v = preimage of u under the successor, atom by atom: the global one,
    or the successor inside `within` among the members of `within`."""
    z = fresh.fresh("Z")
    zp = fresh.fresh("Z")
    inside = [] if within is None else [SubsetAtom(Var(zp), within)]
    member = Exists(zp, and_all([at_mo(Var(zp), fresh), *inside,
                                 SubsetAtom(Var(zp), u),
                                 _succ_mo(Var(z), Var(zp), fresh, within)]))
    if within is not None:
        member = And(SubsetAtom(Var(z), within), member)
    return Forall(z, Implies(at_mo(Var(z), fresh),
                             And(Implies(SubsetAtom(Var(z), v), member),
                                 Implies(member, SubsetAtom(Var(z), v)))))


def _init_msofin(a: Term) -> Formula:
    """a is an initial segment: empty, or contains zero and is closed under
    the successor preimage."""
    return Or(Eq(a, BOT),
              And(_subset_eq(ZERO, a),
                  _subset_eq(App("sinv", (a,)), a)))


def _compl_msofin(a: Term, b: Term, fresh: FreshVars) -> Formula:
    """b is the complement of a: disjoint, and jointly absorbing."""
    c = fresh.fresh("C")
    return And(Eq(_inter(a, b), BOT),
               Forall(c, Eq(_inter(Var(c), _union(a, b)), Var(c))))


def _lte_to_msofin(x: Term, y: Term, fresh: FreshVars) -> Formula:
    """Some member of x below some member of y: an initial segment meets x
    while its complement meets y."""
    a = fresh.fresh("A")
    b = fresh.fresh("B")
    return Exists(a, and_all([
        _init_msofin(Var(a)),
        _nonempty(_inter(x, Var(a))),
        Exists(b, And(_compl_msofin(Var(a), Var(b), fresh),
                      _nonempty(_inter(y, Var(b)))))]))


def _lte_to_wso(x: Term, y: Term) -> Formula:
    """min(x) < max(y), expressed with the min/max operations."""
    return and_all([_nonempty(x), _nonempty(y),
                    Not(Eq(_min(x), _max(y))),
                    Eq(_min(_union(_min(x), _max(y))), _min(x))])


def _mo_to_functional(f: Formula, dst: str, fresh: FreshVars) -> Formula:
    def atom(g: Formula) -> Formula:
        if isinstance(g, SubsetAtom):
            return _subset_eq(g.left, g.right)
        if isinstance(g, LtEAtom):
            if dst == "wso":
                return _lte_to_wso(g.left, g.right)
            return _lte_to_msofin(g.left, g.right, fresh)
        return g

    return map_atoms(f, atom)


def _app_side(g: Eq) -> tuple:
    """(app, other) of an unnested equation: the side that applies a
    function and the other side, or (None, None) when neither does."""
    for app, other in ((g.left, g.right), (g.right, g.left)):
        if isinstance(app, App):
            return app, other
    return None, None


def _functional_atom_to_mo(g: Formula, src: str, fresh: FreshVars) -> Formula:
    if not isinstance(g, Eq):
        raise EvalError(f"relational atom {g!r} not part of {src}")
    app, other = _app_side(g)

    hoists: list[tuple[str, Formula]] = []

    def leaf(t: Term) -> Term:
        if isinstance(t, Var) or (isinstance(t, Const) and t.name == "bot"):
            return t
        if isinstance(t, Const) and t.name in ("zero", "zerostar"):
            u = fresh.fresh("U")
            definition = _end_atom_mo(Var(u), fresh, t.name == "zero")
            hoists.append((u, definition))
            return Var(u)
        raise EvalError(f"atom not unnested: {t!r}")

    if app is None:
        core: Formula = Eq(leaf(g.left), leaf(g.right))
    else:
        args = [leaf(a) for a in app.args]
        v = leaf(other)
        if app.op in ("union", "inter"):
            core = _lattice_mo(args[0], args[1], v, fresh, app.op == "union")
        elif app.op in ("min", "max"):
            core = _extreme_mo(args[0], v, fresh, app.op == "min")
        elif app.op == "sinv" and src == "msofin":
            core = _preimage_mo(args[0], v, fresh)
        elif app.op == "msinv" and src == "wso":
            core = _preimage_mo(args[1], v, fresh, args[0])
        else:
            raise EvalError(f"function {app.op!r} not part of {src}")
    for u, definition in reversed(hoists):
        core = Exists(u, And(definition, core))
    return core


def _functional_to_mo(f: Formula, src: str, fresh: FreshVars) -> Formula:
    return map_atoms(unnest(f, fresh),
                     lambda g: _functional_atom_to_mo(g, src, fresh))


def defeq_translate(f: Formula, src: str, dst: str) -> Formula:
    """Truth-preserving translation along one of the definitional
    equivalences: relational <-> finite-powerset, relational <-> W(I).
    src and dst are signature tags."""
    fresh = FreshVars(all_vars(f))
    if src == "mo" and dst in ("msofin", "wso"):
        return _mo_to_functional(f, dst, fresh)
    if src in ("msofin", "wso") and dst == "mo":
        if src == "wso":  # W(I) text may use the difference extensions
            f = map_atoms(f, lambda a: _unfold_differences(a, fresh))
        return _functional_to_mo(f, src, fresh)
    raise SignatureError(f"no definitional translation {src} -> {dst}")


# ---------------------------------------------------------------------------
# Relativisation

def _guarded(quant, var: str, guard: Formula, body: Formula) -> Formula:
    """∃var (guard ∧ body) or ∀var (guard → body), as quant is Exists or
    Forall: the quantifier restricted to the values the guard admits."""
    if quant is Exists:
        return Exists(var, And(guard, body))
    return Forall(var, Implies(guard, body))


def relativize(f: Formula, mode) -> Formula:
    """Quantifier relativisation of an MO formula.

    mode = ("element", Y): restriction to the subsets of Y; quantifiers are
    guarded with X being a subset of Y.

    mode = ("interval", I, J): restriction to finite sets inside the window
    [i, j), where I and J are atom-valued variables naming the endpoints;
    quantifiers are guarded by every atom of X lying in the window.
    """
    kind = mode[0]
    params = mode[1:]
    fresh = FreshVars(all_vars(f) | set(params))
    for name in sorted(set(params) & all_vars(f)):
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

    def quantifier(q: Formula, go) -> Formula:
        # the guard draws its fresh names before the body is relativized
        return _guarded(type(q), q.var, guard(q.var), go(q.body))

    return map_atoms(f, lambda g: g, quantifier)


def _rename_bound(f: Formula, old: str, new: str) -> Formula:
    def quantifier(q: Formula, go) -> Formula:
        body = go(q.body)
        if q.var != old:
            return type(q)(q.var, body)
        return type(q)(new, substitute(body, {old: Var(new)}))

    return map_atoms(f, lambda g: g, quantifier)


# ---------------------------------------------------------------------------
# W(I) inside L(I)

def finite_set_formula(t: Term) -> Formula:
    """The finite elements of L(I): left and right endpoints coincide."""
    return Eq(App("l", (t,)), App("r", (t,)))


def _sinv_witness_lci(a: Term, b: Term, c: Term, fresh: FreshVars) -> Formula:
    """Existential interval-union characterisation of the successor-preimage
    equation sinv(a, b) = c for finite a, b, c."""
    bp = fresh.fresh("B")
    d = fresh.fresh("D")
    e = fresh.fresh("E")
    bpv, dv, ev = Var(bp), Var(d), Var(e)
    degenerate = And(Or(Eq(a, BOT), Eq(bpv, BOT)), Eq(c, BOT))
    # D must be unbounded: a bounded witness could end at max(a) and admit
    # it as a spurious right endpoint even though it has no successor
    shared = [Eq(App("r", (dv,)), c),
              _subset_eq(c, a),
              _subset_eq(a, dv),
              Eq(_max(dv), BOT)]
    # e = bp minus its minimum, as the unique disjoint complement
    e_def = And(Eq(_union(ev, _min(bpv)), bpv), Eq(_inter(ev, _min(bpv)), BOT))
    case_min_in = And(
        Eq(_inter(_min(a), bpv), _min(a)),
        Exists(e, And(e_def,
                      Exists(d, and_all([Eq(App("l", (dv,)),
                                            _union(ev, ZERO))] + shared)))))
    case_min_out = And(Not(Eq(_inter(_min(a), bpv), _min(a))),
                       Exists(d, and_all([Eq(App("l", (dv,)),
                                             _union(bpv, ZERO))] + shared)))
    proper = and_all([Not(Eq(a, BOT)), Not(Eq(bpv, BOT)),
                      Or(case_min_in, case_min_out)])
    return Exists(bp, And(Eq(bpv, _inter(a, b)), Or(degenerate, proper)))


def w_in_l_translate(f: Formula) -> Formula:
    """Interpret a W(I) formula in L(I): quantifiers relativise to the
    finite sets, shared operations pass through, and the successor-preimage
    compiles to its existential interval-union characterisation.  A
    quantifier-free input with a negation or a difference operator is first
    brought to positive existential form, so its image is existential."""
    if is_quantifier_free(f) and not is_positive_wso(f):
        f = qf_positive_rewrite(f)
    fresh = FreshVars(all_vars(f))
    f = unnest(f, fresh)

    def atom(g: Formula) -> Formula:
        if not isinstance(g, Eq):
            raise EvalError(f"W(I) formulas have equational atoms, got {g!r}")
        for side, other in ((g.left, g.right), (g.right, g.left)):
            if isinstance(side, App) and side.op == "msinv":
                a, b = side.args
                return _sinv_witness_lci(a, b, other, fresh)
            if isinstance(side, App) and side.op in ("setminus", "delta"):
                raise EvalError(
                    "difference operators have no L(I) image; only a "
                    "quantifier-free input is positivised before translation")
        return g

    def quantifier(q: Formula, go) -> Formula:
        return _guarded(type(q), q.var, finite_set_formula(Var(q.var)),
                        go(q.body))

    return map_atoms(f, atom, quantifier)


# ---------------------------------------------------------------------------
# Endpoint codes

@dataclass(frozen=True)
class CodePair:
    """Left/right endpoint sets identifying an interval union injectively."""

    left: FinSet
    right: FinSet

    def __post_init__(self):
        if self.left.is_empty() and self.right.is_empty():
            return
        if not code_domain(self.left, self.right):
            raise ValueError(
                f"({self.left}, {self.right}) codes no interval union")

    @classmethod
    def of(cls, u: IntervalUnion) -> "CodePair":
        return cls(u.left_endpoints(), u.right_endpoints())

    def to_interval_union(self) -> IntervalUnion:
        return code_to_interval_union(self.left, self.right)

    def to_json(self) -> dict:
        return {"l": self.left.to_json(), "r": self.right.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "CodePair":
        return cls(FinSet.from_json(data["l"]), FinSet.from_json(data["r"]))


def code_domain(b: FinSet, c: FinSet) -> bool:
    """True when some nonempty interval union has left endpoints b and right
    endpoints c: endpoints alternate correctly, possibly with a trailing
    unbounded interval."""
    if b.is_empty():
        return False
    both = b.union(c)
    if not both.min_set().issubset(b):
        return False
    b_only = b.minus(c)
    c_only = c.minus(b)
    paired = both.sinv(c_only)
    bounded = both.max_set().issubset(c) and paired == b_only
    unbounded = (both.max_set().issubset(b_only)
                 and paired.union(both.max_set()) == b_only)
    return bounded or unbounded


def code_to_interval_union(b: FinSet, c: FinSet) -> IntervalUnion:
    """Rebuild the interval union from its endpoint code."""
    if b.is_empty() and c.is_empty():
        return IntervalUnion()
    if not code_domain(b, c):
        raise ValueError(f"({b}, {c}) codes no interval union")
    lefts = list(b.points)
    rights: list = list(c.points)
    if len(rights) == len(lefts) - 1:
        rights.append(None)  # trailing unbounded interval
    intervals = tuple(zip(lefts, rights))
    u = IntervalUnion(intervals)
    assert u.left_endpoints() == b and u.right_endpoints() == c
    return u


# ---------------------------------------------------------------------------
# L(I) inside W(I), on endpoint codes

def phi_mem(xl: Term, xr: Term, z: Term) -> Formula:
    """Membership of the singleton z in the interval union coded by
    (xl, xr), expressed over W(I) with the difference extension."""
    bdr = _union(xl, xr)
    bz = _union(bdr, z)
    between = And(_subset_eq(_msinv(bz, z), App("setminus", (xl, xr))),
                  _nonempty(_inter(_msinv(bz, App("setminus", (xr, xl))), z)))
    unbounded = _subset_eq(_max(bdr), App("setminus", (xl, xr)))
    tail = And(unbounded, Eq(z, _max(bz)))
    return And(_nonempty(bdr),
               or_all([_subset_eq(z, bdr), between, tail]))


def at_formula(t: Term) -> Formula:
    """t is a singleton: nonempty and equal to its own minimum."""
    return And(_nonempty(t), Eq(t, _min(t)))


def phi_subset(xl: Term, xr: Term, yl: Term, yr: Term,
               fresh: FreshVars) -> Formula:
    """Inclusion of coded interval unions: every singleton member of the
    first is a member of the second."""
    z = fresh.fresh("Z")
    return Forall(z, Implies(at_formula(Var(z)),
                             Implies(phi_mem(xl, xr, Var(z)),
                                     phi_mem(yl, yr, Var(z)))))


def code_domain_formula(b: Term, c: Term) -> Formula:
    """The endpoint-code realizability condition as a W(I) formula."""
    both = _union(b, c)
    b_only = App("setminus", (b, c))
    c_only = App("setminus", (c, b))
    paired = _msinv(both, c_only)
    bounded = And(_subset_eq(_max(both), c), Eq(paired, b_only))
    unbounded = And(_subset_eq(_max(both), b_only),
                    Eq(_union(paired, _max(both)), b_only))
    return and_all([_nonempty(b), _subset_eq(_min(both), b),
                    Or(bounded, unbounded)])


def code_ok_formula(b: Term, c: Term) -> Formula:
    """(b, c) is the code of some interval union, the empty one included."""
    return Or(And(Eq(b, BOT), Eq(c, BOT)), code_domain_formula(b, c))


def _max_code_formula(xl: Term, xr: Term, zl: Term, zr: Term) -> Formula:
    """Graph of max on codes: bot for empty or unbounded input, else the
    singleton on the largest endpoint."""
    bdr = _union(xl, xr)
    unbounded_or_empty = Or(Eq(xl, BOT),
                            _subset_eq(_max(bdr), App("setminus", (xl, xr))))
    m = _max(bdr)
    return Or(And(unbounded_or_empty, And(Eq(zl, BOT), Eq(zr, BOT))),
              And(Not(unbounded_or_empty), And(Eq(zl, m), Eq(zr, m))))


def _pair_names(name: str) -> tuple[str, str]:
    return f"{name}_l", f"{name}_r"


def _code_terms(t: Term) -> tuple[Term, Term]:
    if isinstance(t, Var):
        l, r = _pair_names(t.name)
        return Var(l), Var(r)
    if isinstance(t, Const) and t.name == "bot":
        return BOT, BOT
    if isinstance(t, Const) and t.name == "zero":
        return ZERO, ZERO
    raise EvalError(f"atom not unnested: {t!r}")


def l_in_w_translate(f: Formula) -> Formula:
    """Interpret an L(I) formula in W(I): each variable X becomes the pair of
    endpoint sets (X_l, X_r), quantifiers are guarded by code realizability,
    and operations become code-level graph formulas."""
    fresh = FreshVars(set().union(*[set(_pair_names(v)) for v in all_vars(f)]
                                  or [set()]) | all_vars(f))
    f = unnest(f, fresh)

    def lattice_atom(op: str, x: Term, y: Term, z: Term) -> Formula:
        """z = x op y by membership extensionality over singleton probes."""
        xl, xr = _code_terms(x)
        yl, yr = _code_terms(y)
        zl, zr = _code_terms(z)
        w = fresh.fresh("Z")
        in_x = phi_mem(xl, xr, Var(w))
        in_y = phi_mem(yl, yr, Var(w))
        in_z = phi_mem(zl, zr, Var(w))
        combo = Or(in_x, in_y) if op == "union" else And(in_x, in_y)
        return Forall(w, Implies(at_formula(Var(w)),
                                 And(Implies(in_z, combo),
                                     Implies(combo, in_z))))

    def atom(g: Formula) -> Formula:
        if isinstance(g, SubsetAtom):
            xl, xr = _code_terms(g.left)
            yl, yr = _code_terms(g.right)
            return phi_subset(xl, xr, yl, yr, fresh)
        if not isinstance(g, Eq):
            raise EvalError(f"L(I) formulas have equational atoms, got {g!r}")
        app, other = _app_side(g)
        if app is None:
            xl, xr = _code_terms(g.left)
            yl, yr = _code_terms(g.right)
            return And(Eq(xl, yl), Eq(xr, yr))
        zl, zr = _code_terms(other)
        if app.op in ("union", "inter"):
            return lattice_atom(app.op, app.args[0], app.args[1], other)
        xl, xr = _code_terms(app.args[0])
        if app.op == "l":
            return And(Eq(zl, xl), Eq(zr, xl))
        if app.op == "r":
            return And(Eq(zl, xr), Eq(zr, xr))
        if app.op == "min":
            empty = And(Eq(xl, BOT), And(Eq(zl, BOT), Eq(zr, BOT)))
            proper = And(Not(Eq(xl, BOT)),
                         And(Eq(zl, _min(xl)), Eq(zr, _min(xl))))
            return Or(empty, proper)
        if app.op == "max":
            return _max_code_formula(xl, xr, zl, zr)
        raise EvalError(f"function {app.op!r} not part of L(I)")

    def quantifier(q: Formula, go) -> Formula:
        l, r = _pair_names(q.var)
        guard = code_ok_formula(Var(l), Var(r))
        return type(q)(l, _guarded(type(q), r, guard, go(q.body)))

    return map_atoms(f, atom, quantifier)


# ---------------------------------------------------------------------------
# Existential rewriting for quantifier-free L(I) formulas

@cache
def _neq_template() -> Formula:
    """Existential L(I) formula in variables Uneq, Vneq expressing that two
    finite sets differ, via positive W(I) rewriting of the inequation; built
    once per process."""
    base = Not(Eq(Var("Uneq"), Var("Vneq")))
    positive = qf_positive_rewrite(base)
    return w_in_l_translate(positive)


def lci_existential_rewrite(f: Formula) -> Formula:
    """Existential equivalent over L(I) of a quantifier-free formula: positive
    atoms pass through, and each negated equation becomes the statement that
    the endpoint codes differ, routed through the positive W(I) rewriting."""
    if not is_quantifier_free(f):
        raise EvalError(f"not quantifier-free over L(I): {f!r}")
    template = _neq_template()

    def differ(s: Term, t: Term) -> Formula:
        return substitute(template, {"Uneq": s, "Vneq": t})

    def literal(a: Formula, negated: bool) -> Formula:
        if type(a) is not Eq:
            raise EvalError(f"L(I) formulas have equational atoms, got {a!r}")
        if not negated:
            return a
        # interval unions differ exactly when their endpoint codes differ
        return Or(differ(App("l", (a.left,)), App("l", (a.right,))),
                  differ(App("r", (a.left,)), App("r", (a.right,))))

    return _literals(f, literal)
