"""Generalised powers and the Feferman-Vaught reduction.

An acceptable sequence pairs an index-algebra formula over support variables
with a list of component formulas of shared arity.  `fv_reduce` folds an
arbitrary power-signature formula into a single acceptable sequence; the
existential step uses the classical partition construction, realised as an
`ExistsPartition` node whose semantics is a search over labellings of index
points by component patterns.  Its walk carries a support map from support
variables to component formulas, and names each component formula once per
call, so equal formulas share one support variable at every level.  Every
support still draws a fresh name, because partition blocks draw theirs from
the same counter and the block names of psi stay as they were.

The existential step builds only the sign patterns of its component formulas
that some component can realise: it backtracks over the component formulas
and cuts a partial pattern as soon as a `realizable` callback says that
`exists x (partial literals)` holds nowhere.  Every extension of a cut pattern
is a stronger formula, so its block would be empty in every labelling and
leaving it out is exact.  The blocks are live by construction: no later pass
removes any.  Without a callback every one of the 2^m patterns is kept.

`translate_with_parameters` instantiates the machinery for W(I) decomposed
around a parameter tuple: truth of an MO formula at the parameters reduces
to truth of an index-algebra formula in the restriction to the parameter
hull, gated by oracle-decided component sentences.  In each window between
hull points a parameter's component is `zero` or `bot`, so a parameter
region is a choice of one of the two per parameter.  Its callback asks the
oracle, region by region, for `exists x (partial literals)` with the
parameters set to `zero`/`bot` and the other context variables closed
existentially.  A pattern false in every region, for every value of the
bound context, is empty in every labelling; cutting on an oracle "false"
places the same trust in the oracle that the gates do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .order import FinSet
from .syntax import (ATOM_TYPES, And, App, Const, Eq, Exists, ExistsPartition,
                     Forall, Formula, FreshVars, Implies, LtEAtom, Not, Or,
                     RAtom, SubsetAtom, Var, all_vars, and_all, conjuncts,
                     free_vars, map_atoms, print_formula, subformulas,
                     substitute, subterms)
from .models import EvalError, MsoFin
from .semantics import (BruteForceEvaluator, EvalReport, bruteforce_eval,
                        stabilize)


class ThetaOverflowError(EvalError):
    """An existential step of `fv_reduce` has more realizable sign patterns
    than its theta cap allows (every pattern, without a callback)."""


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


# ---------------------------------------------------------------------------
# Atomic sequences for the W(I) power: one per relational atom, plus equality

def _sv(n: int) -> tuple[str, ...]:
    return tuple(f"Ys{i}" for i in range(1, n + 1))


def atomic_sequences() -> dict:
    """Acceptable sequences interpreting the MO atoms in the generalised
    power."""
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
    return {"subset": subset_seq, "=": eq_seq, "ltE": lte_seq}


# ---------------------------------------------------------------------------
# The reduction

def fv_reduce(phi: Formula, context: Optional[Sequence[str]] = None,
              theta_cap: int = DEFAULT_THETA_CAP,
              realizable: Optional[Callable[[Formula, Any], Any]] = None
              ) -> AcceptableSequence:
    """Fold a power-signature formula into one acceptable sequence whose
    relation is equivalent to the formula over every generalised power.

    The walk returns each subformula's index formula and its supports, a
    map from support variables to component formulas in first-occurrence
    order.  One dict per call gives each component formula one name, the
    first drawn for it: an atom substitutes its actuals into its thetas and
    renames its index formula once, a connective merges its two maps, and
    equal thetas share a name with no merging pass.  Each support still
    draws a name, used or not, since block names share the counter.  This
    is sound: an existential step substitutes its body's names only inside
    the body's own index formula, where its variable is bound, and a leaf
    eta contains every body theta, so it never equals one; a name free
    anywhere else keeps its meaning there.

    The existential step searches the sign patterns of its m component
    formulas depth first, deciding one formula per level, and asks
    `realizable(eta, within)` about each partial pattern, with eta the
    sentence `exists x (partial literals)` and `within` the callback's own
    answer for the shorter prefix (None at the root).  A falsy answer cuts
    the pattern: every extension implies it, so if it holds in no component
    for any value of the context, each extension's block is empty in every
    labelling and dropping the whole subtree leaves the relation unchanged.
    Only the leaves, the full patterns left, get partition blocks, eta
    sentences and union terms, so every block is live by construction.  A
    partition body is the blocks' guards followed by the conjuncts of the
    substituted index formula.  Without a callback every pattern is kept,
    which is the classical 2^m construction.  More than `theta_cap` leaves in
    one step raise `ThetaOverflowError`."""
    if realizable is None:
        def realizable(eta: Formula, within: Any) -> bool:
            return True
    if context is None:
        context = tuple(sorted(free_vars(phi)))
    # support and block names share one generator, so every partition block
    # is named apart from every other, across nesting levels too
    fresh = FreshVars(context)
    names: dict[Formula, str] = {}

    def name(theta: Formula, supports: dict) -> Var:
        # a name is drawn even for a formula named already: the block names
        # share the counter, and test_nested_psi_text_is_pinned pins them
        y = names.setdefault(theta, fresh.fresh("Ys"))
        supports[y] = theta
        return Var(y)

    def go(g: Formula) -> tuple[Formula, dict]:
        if isinstance(g, RAtom):
            seq, supports = g.seq, {}
            actuals = {formal: Var(actual)
                       for formal, actual in zip(seq.arity, g.args)}
            renamed = {y: name(substitute(theta, actuals), supports)
                       for y, theta in zip(seq.support_vars, seq.thetas)}
            return substitute(seq.index_formula, renamed), supports
        if isinstance(g, Not):
            body, supports = go(g.body)
            return Not(body), supports
        if isinstance(g, (And, Or, Implies)):
            left, supports = go(g.left)
            right, more = go(g.right)
            return type(g)(left, right), {**supports, **more}
        if isinstance(g, Forall):
            return go(Not(Exists(g.var, Not(g.body))))
        if isinstance(g, Exists):
            body, body_supports = go(g.body)
            thetas = list(body_supports.values())
            m = len(thetas)
            # each leaf: the indices of its positive literals and its eta
            leaves: list[tuple[frozenset, Formula]] = []

            def search(j: int, literals: tuple, positive: frozenset,
                       eta: Formula, within: Any) -> None:
                if j == m:
                    if len(leaves) == theta_cap:
                        raise ThetaOverflowError(
                            f"existential step has more than {theta_cap} "
                            f"realizable patterns of {m} component formulas")
                    leaves.append((positive, eta))
                    return
                theta = thetas[j]
                for lit, pos in ((theta, positive | {j}), (Not(theta), positive)):
                    lits = literals + (lit,)
                    child = Exists(g.var, and_all(lits))
                    where = realizable(child, within)
                    if where:
                        search(j + 1, lits, pos, child, where)

            search(0, (), frozenset(),
                   Exists(g.var, Eq(Const("bot"), Const("bot"))), None)
            supports: dict = {}
            new_vars = [name(eta, supports) for _sigma, eta in leaves]
            blocks = [fresh.fresh("Zp") for _ in leaves]
            unions = {}
            for j, y in enumerate(body_supports):
                union_term: object = None
                for (sigma, _eta), z in zip(leaves, blocks):
                    if j in sigma:
                        union_term = Var(z) if union_term is None else App(
                            "union", (union_term, Var(z)))
                unions[y] = Const("bot") if union_term is None else union_term
            inner = substitute(body, unions)
            guards = [SubsetAtom(Var(z), y) for z, y in zip(blocks, new_vars)]
            return ExistsPartition(tuple(blocks), and_all(
                guards + list(conjuncts(inner)))), supports
        raise EvalError(f"not a power-signature formula: {g!r}")

    index_formula, supports = go(phi)
    return AcceptableSequence(index_formula, tuple(supports),
                              tuple(supports.values()), tuple(context))


# ---------------------------------------------------------------------------
# Power structures over a finite component structure (desk-scale oracle)

class PowerStructure:
    """Fully enumerable generalised power M^I for finite M = MSO(n) and a
    finite index set of order points."""

    def __init__(self, m: MsoFin, index_points: Sequence):
        self.m = m
        self.size = len(index_points)  # only the number of points matters
        self.algebra = BruteForceEvaluator(self.size)
        # the subsets of M as masks, in the order of m.universe()
        self.component_universe = range(1 << m.n)

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
            return self.r_atom(phi.seq, [env[a] for a in phi.args])
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
# The parameter hull

def funky(As: Sequence[FinSet]) -> FinSet:
    """The parameter hull: {0} together with the union of the tuple."""
    out = FinSet.of(0)
    for a in As:
        out = out.union(a)
    return out


# ---------------------------------------------------------------------------
# Parameters over W(I)

@dataclass
class ParameterTranslation:
    psi: Formula
    sentences: list[Formula]
    stabilized: bool
    blocks_kept: int      # partition blocks of psi
    psi_nodes: int        # formula and term nodes of psi
    patterns_pruned: int  # partial sign patterns the oracle cut
    oracle_cache_hits: int  # repeated sentences answered from the cache

    def to_json(self) -> dict:
        return {"psi": print_formula(self.psi),
                "sentences": [print_formula(s) for s in self.sentences],
                "stabilized": self.stabilized}


def _power_formula(phi: Formula, fresh: FreshVars) -> tuple[Formula, dict]:
    """Replace MO atoms by power atoms, and the bot/zero constants in them by
    pseudo-parameter variables, the parameters whose index values are bot
    and zero; returns the formula and the map from constant names to
    variable names."""
    seqs = atomic_sequences()
    names = {Eq: "=", SubsetAtom: "subset", LtEAtom: "ltE"}
    pseudo: dict[str, str] = {}

    def term_name(t) -> str:
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Const):
            if t.name not in ("bot", "zero"):
                raise EvalError(f"constant {t.name!r} unsupported here")
            if t.name not in pseudo:
                pseudo[t.name] = fresh.fresh("Xp")
            return pseudo[t.name]
        raise EvalError(f"parameter pipeline needs variable atoms, got {t!r}")

    return map_atoms(phi, lambda g: RAtom(seqs[names[type(g)]],
                                          (term_name(g.left),
                                           term_name(g.right)))), pseudo


def _psi_counts(f: Formula) -> tuple[int, int]:
    """(nodes, blocks): the formula and term nodes of a formula, and the
    block variables of its partition quantifiers."""
    nodes = blocks = 0
    for g in subformulas(f):
        nodes += 1
        if isinstance(g, ATOM_TYPES):
            nodes += sum(1 for side in (g.left, g.right) for _ in subterms(side))
        elif isinstance(g, ExistsPartition):
            blocks += len(g.block_vars)
    return nodes, blocks


def default_sentence_oracle(sentence: Formula) -> EvalReport:
    return stabilize("w", sentence, {}, kmax=4)


def translate_with_parameters(
        phi: Formula, params: Sequence[str],
        oracle: Optional[Callable[[Formula], EvalReport]] = None
        ) -> ParameterTranslation:
    """Produce psi with W(I) |= phi(A-bar) iff the restriction to the hull of
    A-bar satisfies psi(A-bar), consulting a W(I)-sentence oracle for the
    component truth values.

    A region is a choice of `zero` or `bot` for each parameter, the two
    values a parameter's component takes in a window.  The reduction's
    `realizable` callback answers with the regions, among those where the
    shorter prefix held, in which the oracle finds the pattern's sentence
    true, with the other context variables closed existentially.  A region
    outside them is one where a weaker formula already failed, so each answer
    is the formula's full region set, and for a top-level component formula
    it is the gate: the union of its regions' index terms.  Every gated
    support term goes into psi in one substitution.  A block's gate is never
    bot, since its pattern was realized in some region, so psi keeps every
    block `fv_reduce` built; `patterns_pruned` counts the patterns it cut.
    Were an inconsistent oracle to leave a guard (subset Z bot), psi would
    still be exact, as Z must then be empty."""
    params = tuple(params)
    if set(free_vars(phi)) - set(params):
        raise EvalError("free variables of phi must be among the parameters")
    if oracle is None:
        oracle = default_sentence_oracle
    fresh = FreshVars(all_vars(phi) | set(params))
    phi_pi, pseudo = _power_formula(phi, fresh)
    all_params = params + tuple(pseudo.values())

    sentences: list[Formula] = []
    cache: dict[Formula, bool] = {}
    all_stable = True
    cache_hits = pruned = 0

    def consult(sentence: Formula) -> bool:
        nonlocal all_stable, cache_hits
        verdict = cache.get(sentence)
        if verdict is not None:
            cache_hits += 1
            return verdict
        report = oracle(sentence)
        sentences.append(sentence)
        all_stable = all_stable and report.stabilized
        cache[sentence] = report.verdict
        return report.verdict

    # the pseudo-parameter of bot is bot in every window, so no region
    # sets it to zero
    bot_var = pseudo.get("bot")
    open_params = [l for l, name in enumerate(all_params) if name != bot_var]
    regions = [frozenset(s) for r in range(len(open_params) + 1)
               for s in itertools.combinations(open_params, r)]
    values = {region: {name: Const("zero") if l in region else Const("bot")
                       for l, name in enumerate(all_params)}
              for region in regions}
    where: dict[Formula, frozenset] = {}

    def holds_in(f: Formula, within) -> frozenset:
        """The regions among `within` where the oracle says f holds for some
        value of its non-parameter variables."""
        found = where.get(f)
        if found is None:
            closed = f
            for name in sorted(free_vars(f) - set(all_params)):
                closed = Exists(name, closed)
            found = where[f] = frozenset(
                region for region in within
                if consult(substitute(closed, values[region])))
        return found

    def realizable(eta: Formula, within) -> frozenset:
        nonlocal pruned
        out = holds_in(eta, regions if within is None else within)
        pruned += not out
        return out

    seq = fv_reduce(phi_pi, context=all_params, realizable=realizable)

    # pseudo-parameters denote definable index elements
    index_term = {name: Var(name) for name in params}
    index_term.update({vname: Const(cname) for cname, vname in pseudo.items()})

    def region_term(region: frozenset):
        term = Const("top")
        for l, name in enumerate(all_params):
            piece = index_term[name]
            if l not in region:
                piece = App("compl", (piece,))
            term = App("inter", (term, piece))
        return term

    gates = {}
    for y, theta in zip(seq.support_vars, seq.thetas):
        gated = None
        held = holds_in(theta, regions)
        for region in regions:
            if region in held:
                reg = region_term(region)
                gated = reg if gated is None else App("union", (gated, reg))
        gates[y] = gated if gated is not None else Const("bot")
    psi = substitute(seq.index_formula, gates)
    nodes, blocks = _psi_counts(psi)
    return ParameterTranslation(psi=psi, sentences=sentences,
                                stabilized=all_stable, blocks_kept=blocks,
                                psi_nodes=nodes, patterns_pruned=pruned,
                                oracle_cache_hits=cache_hits)
