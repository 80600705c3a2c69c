"""Generalised powers and the Feferman-Vaught reduction.

An acceptable sequence pairs an index-algebra formula over support variables
with a list of component formulas of shared arity.  `fv_reduce` folds an
arbitrary power-signature formula into a single acceptable sequence; the
existential step uses the classical partition construction, realised as an
`ExistsPartition` node whose semantics is a search over labellings of index
points by component patterns.

`translate_with_parameters` instantiates the machinery for W(I) decomposed
around a parameter tuple: truth of an MO formula at the parameters reduces
to truth of an index-algebra formula in the restriction to the parameter
hull, gated by oracle-decided component sentences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .order import FinSet, Rat
from .syntax import (ATOM_TYPES, FO_CONNECTIVES, And, App, Const, Eq, Exists,
                     ExistsPartition, Forall, Formula, FreshVars, Implies,
                     LtEAtom, Not, Or, RAtom, SubsetAtom, Var, all_vars,
                     and_all, conjuncts, free_vars, map_children,
                     print_formula, subformulas, substitute, subterms)
from .models import EvalError, MsoFin, WsoStructure, restrict
from .semantics import (BruteForceEvaluator, EvalReport, bruteforce_eval,
                        stabilize)


class ThetaOverflowError(EvalError):
    pass


DEFAULT_THETA_CAP = 4096


@dataclass(frozen=True)
class AcceptableSequence:
    """zeta = (Phi(Y_1..Y_m); theta_1..theta_m) with shared arity x-bar."""

    index_formula: Formula
    support_vars: tuple[str, ...]
    thetas: tuple[Formula, ...]
    arity: tuple[str, ...]

    def __post_init__(self):
        if len(self.support_vars) != len(self.thetas):
            raise ValueError("support variables and component formulas must align")
        for theta in self.thetas:
            extra = free_vars(theta) - set(self.arity)
            if extra:
                raise ValueError(f"component formula has stray variables {extra}")


@dataclass(frozen=True)
class PowerElement:
    """A function from a finite index set into component values."""

    index: FinSet
    components: tuple

    def __post_init__(self):
        if len(self.components) != len(self.index):
            raise ValueError("one component per index point required")

    def component(self, i: Rat):
        return self.components[self.index.points.index(Fraction(i))]


# ---------------------------------------------------------------------------
# Atomic sequences for the W(I) power: one per relational atom, plus equality

def _sv(n: int) -> tuple[str, ...]:
    return tuple(f"Ys{i}" for i in range(1, n + 1))


def atomic_sequences() -> dict:
    """Acceptable sequences interpreting the MO atoms and named parameter
    constants in the generalised power."""
    x1, x2 = "Xc1", "Xc2"
    subset_seq = AcceptableSequence(
        index_formula=Eq(Var("Ys1"), Const("top")),
        support_vars=_sv(1),
        thetas=(SubsetAtom(Var(x1), Var(x2)),),
        arity=(x1, x2))
    eq_seq = AcceptableSequence(
        index_formula=Eq(Var("Ys1"), Const("top")),
        support_vars=_sv(1),
        thetas=(Eq(Var(x1), Var(x2)),),
        arity=(x1, x2))
    lte_seq = AcceptableSequence(
        index_formula=Or(Not(Eq(Var("Ys1"), Const("bot"))),
                         LtEAtom(Var("Ys2"), Var("Ys3"))),
        support_vars=_sv(3),
        thetas=(LtEAtom(Var(x1), Var(x2)),
                Not(Eq(Var(x1), Const("bot"))),
                Not(Eq(Var(x2), Const("bot")))),
        arity=(x1, x2))
    return {"subset": subset_seq, "=": eq_seq, "ltE": lte_seq,
            "constant": constant_sequence}


def constant_sequence(name: str) -> AcceptableSequence:
    """Sequence pinning a power element to the named parameter constant: the
    support of x = 0 must be the constant's index set, and the support of
    x = bot its complement."""
    return AcceptableSequence(
        index_formula=And(Eq(Var("Ys1"), Const(name)),
                          Eq(Var("Ys2"), App("compl", (Const(name),)))),
        support_vars=_sv(2),
        thetas=(Eq(Var("Xc1"), Const("zero")),
                Eq(Var("Xc1"), Const("bot"))),
        arity=("Xc1",))


# ---------------------------------------------------------------------------
# The reduction

def _instantiate(seq: AcceptableSequence, args: Sequence[str],
                 context: tuple[str, ...]) -> AcceptableSequence:
    actuals = {formal: Var(actual) for formal, actual in zip(seq.arity, args)}
    return AcceptableSequence(seq.index_formula, seq.support_vars,
                              tuple(substitute(theta, actuals)
                                    for theta in seq.thetas), context)


def _dedup(seq: AcceptableSequence) -> AcceptableSequence:
    """Merge syntactically identical component formulas, rewriting the index
    formula's support variables accordingly."""
    seen: dict[Formula, str] = {}
    merged: dict[str, Var] = {}
    kept_vars: list[str] = []
    kept_thetas: list[Formula] = []
    for y, theta in zip(seq.support_vars, seq.thetas):
        if theta in seen:
            merged[y] = Var(seen[theta])
        else:
            seen[theta] = y
            kept_vars.append(y)
            kept_thetas.append(theta)
    return AcceptableSequence(substitute(seq.index_formula, merged),
                              tuple(kept_vars), tuple(kept_thetas), seq.arity)


def fv_reduce(phi: Formula, context: Optional[Sequence[str]] = None,
              theta_cap: int = DEFAULT_THETA_CAP) -> AcceptableSequence:
    """Fold a power-signature formula into one acceptable sequence whose
    relation is equivalent to the formula over every generalised power."""
    if context is None:
        context = tuple(sorted(free_vars(phi)))
    context = tuple(context)
    # support and block names share one generator, so every partition block
    # is named apart from every other, across nesting levels too
    fresh = FreshVars(context, prefix="Ys")

    def rename_supports(seq: AcceptableSequence) -> AcceptableSequence:
        renamed = [fresh.fresh("Ys") for _ in seq.support_vars]
        phi2 = substitute(seq.index_formula,
                          {y: Var(new) for y, new in zip(seq.support_vars,
                                                          renamed)})
        return AcceptableSequence(phi2, tuple(renamed), seq.thetas, seq.arity)

    def go(g: Formula, ctx: tuple[str, ...]) -> AcceptableSequence:
        if isinstance(g, RAtom):
            return rename_supports(_instantiate(g.seq, g.args, ctx))
        if isinstance(g, Not):
            sub = go(g.body, ctx)
            return AcceptableSequence(Not(sub.index_formula), sub.support_vars,
                                      sub.thetas, ctx)
        if isinstance(g, (And, Or, Implies)):
            left = go(g.left, ctx)
            right = go(g.right, ctx)
            combined = AcceptableSequence(
                type(g)(left.index_formula, right.index_formula),
                left.support_vars + right.support_vars,
                left.thetas + right.thetas, ctx)
            return _dedup(combined)
        if isinstance(g, Forall):
            return go(Not(Exists(g.var, Not(g.body))), ctx)
        if isinstance(g, Exists):
            sub = _dedup(go(g.body, ctx + (g.var,)))
            m = len(sub.thetas)
            if 1 << m > theta_cap:
                raise ThetaOverflowError(
                    f"existential step needs 2^{m} component patterns "
                    f"(cap {theta_cap})")
            patterns = [frozenset(s) for r in range(m + 1)
                        for s in itertools.combinations(range(m), r)]
            new_vars = []
            new_thetas = []
            block_of: dict[frozenset, str] = {}
            for sigma in patterns:
                literals = [sub.thetas[j] if j in sigma else Not(sub.thetas[j])
                            for j in range(m)]
                eta = Exists(g.var, and_all(literals)) if literals \
                    else Exists(g.var, Eq(Const("bot"), Const("bot")))
                new_vars.append(fresh.fresh("Ys"))
                new_thetas.append(eta)
                block_of[sigma] = fresh.fresh("Zp")
            unions = {}
            for j, y in enumerate(sub.support_vars):
                union_term: object = None
                for sigma in patterns:
                    if j in sigma:
                        z = Var(block_of[sigma])
                        union_term = z if union_term is None else App(
                            "union", (union_term, z))
                unions[y] = Const("bot") if union_term is None else union_term
            inner = substitute(sub.index_formula, unions)
            guards = [SubsetAtom(Var(block_of[sigma]), Var(y))
                      for sigma, y in zip(patterns, new_vars)]
            body = and_all(guards + [inner])
            phi_new = ExistsPartition(tuple(block_of[s] for s in patterns), body)
            return _dedup(AcceptableSequence(phi_new, tuple(new_vars),
                                             tuple(new_thetas), ctx))
        raise EvalError(f"not a power-signature formula: {g!r}")

    return go(phi, context)


# ---------------------------------------------------------------------------
# Power structures over a finite component structure (desk-scale oracle)

class PowerStructure:
    """Fully enumerable generalised power M^I for finite M = MSO(n) and a
    finite index set of order points."""

    def __init__(self, m: MsoFin, index_points: Sequence,
                 index_constants: Optional[dict] = None):
        self.m = m
        self.points = tuple(sorted(Fraction(p) for p in index_points))
        self.size = len(self.points)
        constants = {}
        for name, value in (index_constants or {}).items():
            constants[name] = self._index_mask(value)
        self.algebra = BruteForceEvaluator(self.size, constants=constants)
        self.component_universe = [self._enc_component(s) for s in m.universe()]

    def _enc_component(self, s) -> int:
        mask = 0
        for i in s:
            mask |= 1 << i
        return mask

    def _index_mask(self, value) -> int:
        pts = value.points if isinstance(value, FinSet) else value
        mask = 0
        for p in pts:
            mask |= 1 << self.points.index(Fraction(p))
        return mask

    def elements(self):
        """All functions from the index set into M, as component tuples."""
        return itertools.product(self.component_universe, repeat=self.size)

    def component_truth(self, theta: Formula, arity: Sequence[str],
                        values: Sequence[int]) -> bool:
        assignment = dict(zip(arity, values))
        return bruteforce_eval(self.m, theta, assignment)

    def support_mask(self, theta: Formula, arity: Sequence[str],
                     fs: Sequence[Sequence[int]]) -> int:
        mask = 0
        for i in range(self.size):
            if self.component_truth(theta, arity, [f[i] for f in fs]):
                mask |= 1 << i
        return mask

    def r_atom(self, seq: AcceptableSequence, fs: Sequence[Sequence[int]]) -> bool:
        env = {}
        for y, theta in zip(seq.support_vars, seq.thetas):
            env[y] = self.support_mask(theta, seq.arity, fs)
        return self.algebra.formula(seq.index_formula, env)

    def eval(self, phi: Formula, env: Optional[dict] = None) -> bool:
        """Direct truth of a power-signature formula, quantifiers enumerating
        all |M|^|I| power elements."""
        env = dict(env or {})
        if isinstance(phi, RAtom):
            fs = [env[a] for a in phi.args]
            seq = _instantiate(phi.seq, phi.args, tuple(phi.args))
            return self.r_atom(seq, fs)
        if isinstance(phi, Not):
            return not self.eval(phi.body, env)
        if isinstance(phi, And):
            return self.eval(phi.left, env) and self.eval(phi.right, env)
        if isinstance(phi, Or):
            return self.eval(phi.left, env) or self.eval(phi.right, env)
        if isinstance(phi, Implies):
            return (not self.eval(phi.left, env)) or self.eval(phi.right, env)
        if isinstance(phi, Exists):
            for f in self.elements():
                env[phi.var] = f
                if self.eval(phi.body, env):
                    return True
            return False
        if isinstance(phi, Forall):
            for f in self.elements():
                env[phi.var] = f
                if not self.eval(phi.body, env):
                    return False
            return True
        raise EvalError(f"not a power-signature formula: {phi!r}")


# ---------------------------------------------------------------------------
# Supports and decomposition over W(I)

def support(theta: Formula, fs: Sequence[PowerElement],
            budget: int = 4) -> tuple[FinSet, bool]:
    """Index points whose component values satisfy theta in W(I); second
    component reports whether every grid verdict stabilized."""
    if not fs:
        raise ValueError("at least one power element required")
    index = fs[0].index
    names = [f"Xc{t + 1}" for t in range(len(fs))]
    hits = []
    all_stable = True
    for i in index.points:
        assignment = {nm: f.component(i) for nm, f in zip(names, fs)}
        report = stabilize("w", theta, assignment, kmax=budget)
        all_stable = all_stable and report.stabilized
        if report.verdict:
            hits.append(i)
    return FinSet.from_iterable(hits), all_stable


def funky(As: Sequence[FinSet]) -> FinSet:
    """The parameter hull: {0} together with the union of the tuple."""
    out = FinSet.of(0)
    for a in As:
        out = out.union(a)
    return out


def decompose(As: Sequence[FinSet], b: FinSet) -> PowerElement:
    """Split b over the windows between consecutive hull points, pulling each
    window back to W(I) through the affine isomorphism."""
    index = funky(As)
    components = []
    for i in index.points:
        j = index.successor(i)
        window = restrict(WsoStructure(), (i, j))
        lo, hi = i, Fraction(1) if j is None else j
        part = FinSet.from_iterable(p for p in b.points if lo <= p < hi)
        components.append(window.project(part))
    return PowerElement(index=index, components=tuple(components))


def reassemble(pe: PowerElement) -> FinSet:
    out = FinSet()
    for i, comp in zip(pe.index.points, pe.components):
        j = pe.index.successor(i)
        window = restrict(WsoStructure(), (i, j))
        out = out.union(window.embed(comp))
    return out


# ---------------------------------------------------------------------------
# Parameters over W(I)

@dataclass
class ParameterTranslation:
    psi: Formula
    sentences: list[Formula]
    reports: list[EvalReport]
    stabilized: bool
    blocks_kept: int      # partition blocks left in psi
    blocks_dropped: int   # dead blocks removed from psi
    psi_nodes: int        # formula and term nodes of psi

    def to_json(self) -> dict:
        return {"psi": print_formula(self.psi),
                "sentences": [print_formula(s) for s in self.sentences],
                "stabilized": self.stabilized}


def _power_formula(phi: Formula) -> Formula:
    """Replace MO atoms by power atoms; terms must be variables (constants
    are pre-normalised away by the caller)."""
    seqs = atomic_sequences()
    names = {Eq: "=", SubsetAtom: "subset", LtEAtom: "ltE"}

    def term_name(t) -> str:
        if isinstance(t, Var):
            return t.name
        raise EvalError(f"parameter pipeline needs variable atoms, got {t!r}")

    def go(g: Formula) -> Formula:
        if isinstance(g, ATOM_TYPES):
            return RAtom(seqs[names[type(g)]],
                         (term_name(g.left), term_name(g.right)))
        if isinstance(g, FO_CONNECTIVES):
            return map_children(g, go)
        raise EvalError(f"not an MO formula: {g!r}")

    return go(phi)


def _strip_constants(phi: Formula, fresh: FreshVars):
    """Replace bot/zero constants in atoms by pseudo-parameter variables with
    known index values (bot -> empty set, zero -> {0})."""
    pseudo: dict[str, tuple[str, FinSet]] = {}

    def handle_term(t):
        if isinstance(t, Const):
            if t.name not in ("bot", "zero"):
                raise EvalError(f"constant {t.name!r} unsupported here")
            if t.name not in pseudo:
                value = FinSet() if t.name == "bot" else FinSet.of(0)
                pseudo[t.name] = (fresh.fresh("Xp"), value)
            return Var(pseudo[t.name][0])
        return t

    def go(g: Formula) -> Formula:
        if isinstance(g, ATOM_TYPES):
            return type(g)(handle_term(g.left), handle_term(g.right))
        if isinstance(g, FO_CONNECTIVES):
            return map_children(g, go)
        raise EvalError(f"not an MO formula: {g!r}")

    return go(phi), pseudo


BOT = Const("bot")


def _fold_bot(t):
    """Simplify union and inter with the empty set."""
    if not isinstance(t, App):
        return t
    args = tuple(_fold_bot(a) for a in t.args)
    if t.op == "union" and BOT in args:
        return args[1] if args[0] == BOT else args[0]
    if t.op == "inter" and BOT in args:
        return BOT
    return App(t.op, args)


def drop_dead_blocks(f: Formula) -> tuple[Formula, int, int]:
    """Remove every partition block whose guard, a top-level conjunct of its
    partition body, is (subset Z bot): the guard goes, bot takes the block's
    place, and union/inter fold with bot.  Exact, because a dead block is
    empty in every satisfying labelling.  Works top-down, so a block that
    dies once an enclosing partition's dead blocks are gone is dropped too.
    Returns the formula and the numbers of blocks kept and dropped."""
    kept = dropped = 0

    def go(g: Formula) -> Formula:
        nonlocal kept, dropped
        if isinstance(g, ATOM_TYPES):
            return type(g)(_fold_bot(g.left), _fold_bot(g.right))
        if isinstance(g, ExistsPartition):
            def is_dead_guard(c: Formula) -> bool:
                return (isinstance(c, SubsetAtom) and isinstance(c.left, Var)
                        and c.left.name in g.block_vars
                        and _fold_bot(c.right) == BOT)

            parts = list(conjuncts(g.body))
            dead = {c.left.name for c in parts if is_dead_guard(c)}
            live = tuple(z for z in g.block_vars if z not in dead)
            kept += len(live)
            dropped += len(dead)
            body = substitute(and_all(c for c in parts if not is_dead_guard(c)),
                              {z: BOT for z in dead})
            return ExistsPartition(live, go(body))
        return map_children(g, go)

    out = go(f)
    return out, kept, dropped


def _node_count(f: Formula) -> int:
    """Formula and term nodes of a formula."""
    count = 0
    for g in subformulas(f):
        count += 1
        if isinstance(g, ATOM_TYPES):
            count += sum(1 for side in (g.left, g.right) for _ in subterms(side))
    return count


def default_sentence_oracle(sentence: Formula, kmax: int = 4) -> EvalReport:
    return stabilize("w", sentence, {}, kmax=kmax)


def translate_with_parameters(
        phi: Formula, params: Sequence[str],
        oracle: Optional[Callable[[Formula], EvalReport]] = None,
        theta_cap: int = DEFAULT_THETA_CAP) -> ParameterTranslation:
    """Produce psi with W(I) |= phi(A-bar) iff the restriction to the hull of
    A-bar satisfies psi(A-bar), consulting a W(I)-sentence oracle for the
    component truth values.  Every gated support term goes into psi in one
    substitution, and partition blocks the oracle gates to bot are dropped."""
    params = tuple(params)
    if set(free_vars(phi)) - set(params):
        raise EvalError("free variables of phi must be among the parameters")
    if oracle is None:
        oracle = default_sentence_oracle
    fresh = FreshVars(all_vars(phi) | set(params), prefix="Xp")
    stripped, pseudo = _strip_constants(phi, fresh)
    pseudo_vars = [v for v, _val in pseudo.values()]
    all_params = params + tuple(pseudo_vars)
    phi_pi = _power_formula(stripped)
    seq = fv_reduce(phi_pi, context=all_params, theta_cap=theta_cap)

    sentences: list[Formula] = []
    reports: list[EvalReport] = []
    cache: dict[Formula, bool] = {}
    all_stable = True

    def consult(sentence: Formula) -> bool:
        nonlocal all_stable
        if sentence not in cache:
            report = oracle(sentence)
            sentences.append(sentence)
            reports.append(report)
            all_stable = all_stable and report.stabilized
            cache[sentence] = report.verdict
        return cache[sentence]

    patterns = [frozenset(s) for r in range(len(all_params) + 1)
                for s in itertools.combinations(range(len(all_params)), r)]

    # pseudo-parameters denote definable index elements
    index_term = {name: Var(name) for name in params}
    index_term.update({vname: Const(cname)
                       for cname, (vname, _value) in pseudo.items()})

    def region_term(pattern: frozenset):
        term = Const("top")
        for l, name in enumerate(all_params):
            piece = index_term[name]
            if l not in pattern:
                piece = App("compl", (piece,))
            term = App("inter", (term, piece))
        return term

    gates = {}
    for y, theta in zip(seq.support_vars, seq.thetas):
        gated = None
        for pattern in patterns:
            inst = substitute(theta, {
                name: Const("zero") if l in pattern else Const("bot")
                for l, name in enumerate(all_params)})
            if consult(inst):
                reg = region_term(pattern)
                gated = reg if gated is None else App("union", (gated, reg))
        gates[y] = gated if gated is not None else BOT
    psi, kept, dropped = drop_dead_blocks(substitute(seq.index_formula, gates))
    return ParameterTranslation(psi=psi, sentences=sentences, reports=reports,
                                stabilized=all_stable, blocks_kept=kept,
                                blocks_dropped=dropped,
                                psi_nodes=_node_count(psi))
