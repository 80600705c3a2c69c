import itertools
import os
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mcdlo.models import (EvalError, LciStructure, MsoFin, WsoStructure,
                          eval_atomic, eval_term)
from mcdlo.order import FinSet, IntervalUnion, enumerate_interval_unions
from mcdlo.semantics import (BruteForceEvaluator, EvalReport, GridCapError,
                             GridLEvaluator, GridWEvaluator, _w_seed_points,
                             bruteforce_eval, grid_eval, make_grid,
                             split_block, stabilize)
from mcdlo.rewriting import relativize
from mcdlo.syntax import (ARITY, And, App, Const, Eq, Exists,
                          ExistsPartition, Forall, Implies, LtEAtom, Not, Or,
                          SIGNATURES, SubsetAtom, Var, and_all, free_vars,
                          is_existential, parse, print_formula, subformulas)

from conftest import THREE_ATOMS_MINISCOPED, THREE_ATOMS_PRENEX, subsets_of

WSO = SIGNATURES["wso"]
MO = SIGNATURES["mo"]


# -- an independent reference evaluator, no witness pruning ------------------

def naive_msofin(m: MsoFin, f, asg):
    from mcdlo.models import eval_atomic
    if isinstance(f, Not):
        return not naive_msofin(m, f.body, asg)
    if isinstance(f, And):
        return naive_msofin(m, f.left, asg) and naive_msofin(m, f.right, asg)
    if isinstance(f, Or):
        return naive_msofin(m, f.left, asg) or naive_msofin(m, f.right, asg)
    if isinstance(f, Implies):
        return (not naive_msofin(m, f.left, asg)) or naive_msofin(m, f.right, asg)
    if isinstance(f, Exists):
        return any(naive_msofin(m, f.body, {**asg, f.var: u})
                   for u in m.universe())
    if isinstance(f, Forall):
        return all(naive_msofin(m, f.body, {**asg, f.var: u})
                   for u in m.universe())
    return eval_atomic(m, f, asg)


var_names = st.sampled_from(["X", "Y"])
msofin_terms = st.recursive(
    st.one_of(var_names.map(Var),
              st.sampled_from([Const("bot"), Const("zero")])),
    lambda inner: st.tuples(st.sampled_from(["union", "inter", "setminus"]),
                            inner, inner)
    .map(lambda t: App(t[0], (t[1], t[2]))),
    max_leaves=4)


def equation_guarded(terms, inner):
    """∃X (X = t ∧ φ) and ∀X (X = t → φ): quantifiers that an equation
    fixes when t is free of X."""
    def build(drawn):
        quant, var, t, body = drawn
        guard = Eq(Var(var), t)
        if quant is Exists:
            return Exists(var, And(guard, body))
        return Forall(var, Implies(guard, body))

    return st.tuples(st.sampled_from([Exists, Forall]), var_names, terms,
                     inner).map(build)


msofin_formulas = st.recursive(
    st.one_of(
        st.tuples(msofin_terms, msofin_terms).map(lambda t: Eq(t[0], t[1])),
        st.tuples(msofin_terms, msofin_terms)
        .map(lambda t: SubsetAtom(t[0], t[1]))),
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda t: And(*t)),
        st.tuples(inner, inner).map(lambda t: Implies(*t)),
        st.tuples(var_names, inner).map(lambda t: Exists(*t)),
        st.tuples(var_names, inner).map(lambda t: Forall(*t)),
        equation_guarded(msofin_terms, inner)),
    max_leaves=6)


@settings(max_examples=60, deadline=None)
@given(msofin_formulas)
def test_bruteforce_matches_naive_reference(f):
    m = MsoFin(3)
    names = sorted(free_vars(f))
    for vals in itertools.product(m.universe(), repeat=len(names)):
        asg = dict(zip(names, vals))
        assert bruteforce_eval(m, f, asg) == naive_msofin(m, f, asg)


@pytest.mark.parametrize("mask", [0b1000, -1])
def test_bruteforce_rejects_masks_outside_msofin(mask):
    """An int mask must be below 2**n and not negative."""
    f = Eq(App("inter", (Var("X"), Const("top"))), Var("X"))
    assert bruteforce_eval(MsoFin(2), f, {"X": 0b11}) is True
    with pytest.raises(EvalError, match=f"^X = {mask}: not a mask of MSO"):
        bruteforce_eval(MsoFin(2), f, {"X": mask})


def naive_gridw(ev, f, env):
    if isinstance(f, Not):
        return not naive_gridw(ev, f.body, env)
    if isinstance(f, And):
        return naive_gridw(ev, f.left, env) and naive_gridw(ev, f.right, env)
    if isinstance(f, Or):
        return naive_gridw(ev, f.left, env) or naive_gridw(ev, f.right, env)
    if isinstance(f, Implies):
        return (not naive_gridw(ev, f.left, env)) or naive_gridw(ev, f.right, env)
    if isinstance(f, Exists):
        return any(naive_gridw(ev, f.body, {**env, f.var: m})
                   for m in range(ev.full + 1))
    if isinstance(f, Forall):
        return all(naive_gridw(ev, f.body, {**env, f.var: m})
                   for m in range(ev.full + 1))
    return ev.formula(f, env)


wso_terms = st.recursive(
    st.one_of(var_names.map(Var),
              st.sampled_from([Const("bot"), Const("zero")])),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["union", "inter", "msinv"]), inner, inner)
        .map(lambda t: App(t[0], (t[1], t[2]))),
        st.tuples(st.sampled_from(["min", "max"]), inner)
        .map(lambda t: App(t[0], (t[1],)))),
    max_leaves=4)
wso_formulas = st.recursive(
    st.tuples(wso_terms, wso_terms).map(lambda t: Eq(t[0], t[1])),
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda t: And(*t)),
        st.tuples(inner, inner).map(lambda t: Implies(*t)),
        st.tuples(var_names, inner).map(lambda t: Exists(*t)),
        st.tuples(var_names, inner).map(lambda t: Forall(*t)),
        equation_guarded(wso_terms, inner)),
    max_leaves=6)


@settings(max_examples=40, deadline=None)
@given(wso_formulas)
def test_gridw_pruning_sound(f):
    """The witness-pruned quantifier search agrees with full enumeration."""
    grid = make_grid([Fraction(0), Fraction(1, 2)], 1)
    ev = GridWEvaluator(grid)
    names = sorted(free_vars(f))
    for vals in itertools.product(range(ev.full + 1), repeat=len(names)):
        env = dict(zip(names, vals))
        assert ev.formula(f, env) == naive_gridw(ev, f, dict(env))


def naive_gridl(ev, f, env):
    if isinstance(f, Not):
        return not naive_gridl(ev, f.body, env)
    if isinstance(f, And):
        return naive_gridl(ev, f.left, env) and naive_gridl(ev, f.right, env)
    if isinstance(f, Or):
        return naive_gridl(ev, f.left, env) or naive_gridl(ev, f.right, env)
    if isinstance(f, Implies):
        return (not naive_gridl(ev, f.left, env)) or naive_gridl(ev, f.right, env)
    if isinstance(f, Exists):
        return any(naive_gridl(ev, f.body, {**env, f.var: c})
                   for c in ev.valid_masks(0, ev.full))
    if isinstance(f, Forall):
        return all(naive_gridl(ev, f.body, {**env, f.var: c})
                   for c in ev.valid_masks(0, ev.full))
    return ev.formula(f, env)


lci_terms = st.recursive(
    st.one_of(var_names.map(Var),
              st.sampled_from([Const("bot"), Const("zero")])),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["union", "inter"]), inner, inner)
        .map(lambda t: App(t[0], (t[1], t[2]))),
        st.tuples(st.sampled_from(["min", "max", "l", "r"]), inner)
        .map(lambda t: App(t[0], (t[1],)))),
    max_leaves=3)
lci_formulas = st.recursive(
    st.tuples(lci_terms, lci_terms).map(lambda t: Eq(t[0], t[1])),
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda t: And(*t)),
        st.tuples(var_names, inner).map(lambda t: Exists(*t)),
        st.tuples(var_names, inner).map(lambda t: Forall(*t))),
    max_leaves=4)


@settings(max_examples=25, deadline=None)
@given(lci_formulas, st.data())
def test_gridl_pruning_sound(f, data):
    grid = make_grid([Fraction(0), Fraction(1, 2)], 1)
    ev = GridLEvaluator(grid)
    names = sorted(free_vars(f))
    masks = tuple(ev.valid_masks(0, ev.full))
    env = {name: data.draw(st.sampled_from(masks), label=name)
           for name in names}
    assert ev.formula(f, env) == naive_gridl(ev, f, dict(env))


# -- the L(I) cell-mask kernel against the IntervalUnion reference ----------

def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_gridl_valid_masks_are_the_interval_unions():
    for n in range(1, 9):
        points = [Fraction(i, n) for i in range(n)]
        ev = GridLEvaluator(FinSet.from_iterable(points))
        masks = list(ev.valid_masks(0, ev.full))
        assert len(set(masks)) == len(masks) == fibonacci(2 * n + 2)
        assert sorted(masks) == sorted(
            ev.encode(u) for u in enumerate_interval_unions(points))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, (1 << 10) - 1), st.integers(0, (1 << 10) - 1))
def test_gridl_bounded_masks_are_the_filtered_set(lower, upper):
    ev = GridLEvaluator(FinSet.from_iterable(Fraction(i, 5) for i in range(5)))
    want = sorted(m for m in ev.valid_masks(0, ev.full)
                  if not lower & ~m and not m & ~upper)
    assert sorted(ev.valid_masks(lower, upper)) == want


grids = st.sets(st.integers(1, 11), max_size=4).map(
    lambda ks: FinSet.from_iterable([0] + [Fraction(k, 12) for k in ks]))


# (binary ops, unary ops, constants, an op and a constant outside the
# signature) of each mask evaluator
KERNEL_SIGNATURES = {
    "msofin": (("union", "inter", "setminus", "delta"), ("compl", "sinv"),
               ("bot", "zero", "top", "zerostar"), "min", "c"),
    "w": (("union", "inter", "setminus", "delta", "msinv"), ("min", "max"),
          ("bot", "zero"), "l", "top"),
    "l": (("union", "inter"), ("min", "max", "l", "r"), ("bot", "zero"),
          "setminus", "top"),
}


@pytest.mark.parametrize("kind", sorted(KERNEL_SIGNATURES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mask_kernel_matches_reference_structure(kind, data):
    """Every op, constant and atom of each mask evaluator agrees with the
    value-level structure of `models` on random values (MSO(0) included);
    a symbol outside the signature raises the structure's own error."""
    binary, unary, consts, bad_op, bad_const = KERNEL_SIGNATURES[kind]
    if kind == "msofin":
        n = data.draw(st.integers(0, 4), label="n")
        ev, structure = BruteForceEvaluator(n), MsoFin(n)
        values = list(structure.universe())
    else:
        grid = data.draw(grids, label="grid")
        if kind == "w":
            ev, structure = GridWEvaluator(grid), WsoStructure()
            values = subsets_of(grid.points)
        else:
            ev, structure = GridLEvaluator(grid), LciStructure()
            values = enumerate_interval_unions(grid.points)
    asg = {n: data.draw(st.sampled_from(values), label=n) for n in "XY"}
    env = {n: ev.encode(v) for n, v in asg.items()}
    x, y = Var("X"), Var("Y")
    terms = [App(op, (x, y)) for op in binary]
    terms += [App(op, (x,)) for op in unary]
    terms += [Const(c) for c in consts]
    for t in terms:
        assert ev.term(t, env) == ev.encode(eval_term(structure, t, asg)), t
    for atom in (Eq, SubsetAtom, LtEAtom):
        for a, b in ((x, y), (y, x)):
            assert ev.formula(atom(a, b), env) == \
                eval_atomic(structure, atom(a, b), asg)
    for bad in (App(bad_op, (x, y)[:ARITY[bad_op]]), Const(bad_const)):
        with pytest.raises(EvalError) as got:
            ev.term(bad, env)
        with pytest.raises(EvalError) as want:
            eval_term(structure, bad, asg)
        assert str(got.value) == str(want.value)


def test_queries_reject_values_of_the_other_structure():
    """W(I) takes finite sets and L(I) interval unions; a value of the other
    kind is an EvalError that names it."""
    f = parse("(= A A)", WSO)
    iu = IntervalUnion(((Fraction(0), Fraction(1, 2)),))
    for kind, value, want in (
            ("w", iu, "A = IU([0, 1/2]): W(I) takes FinSet values"),
            ("l", FinSet.of(0), "A = {0}: L(I) takes IntervalUnion values")):
        for query in (stabilize, grid_eval):
            with pytest.raises(EvalError) as got:
                query(kind, f, {"A": value})
            assert str(got.value) == want


def test_gridl_encode_rejects_endpoints_off_the_grid():
    ev = GridLEvaluator(FinSet.of(0, Fraction(1, 2)))
    for u in (IntervalUnion(((Fraction(1, 4), Fraction(1, 2)),)),
              IntervalUnion(((Fraction(0), Fraction(1, 4)),)),
              IntervalUnion(((Fraction(3, 4), None),))):
        with pytest.raises(EvalError):
            ev.encode(u)


@pytest.mark.parametrize("text", [
    "(exists X (and (= (l X) A) (= (r X) B)))",
    "(exists X (and (= (max X) bot) (= (l X) A)))",
    "(forall X (implies (= (max X) bot) (= (min X) (l X))))",
    "(exists X (and (= (inter X A) A) (= (union X B) (union A B))))",
])
def test_gridl_narrowed_witnesses_match_naive_search(text):
    """Each narrowing of the witness search agrees with a search over all
    masks, for every pair of finite point sets (coding an interval union or
    not)."""
    ev = GridLEvaluator(FinSet.of(0, Fraction(1, 3), Fraction(2, 3)))
    f = parse(text, SIGNATURES["lci"])
    point_sets = [m for m in range(ev.full + 1) if not m & ~ev.points]
    for a in point_sets:
        for b in point_sets:
            env = {"A": a, "B": b}
            assert ev.formula(f, env) == naive_gridl(ev, f, env), (a, b)


@pytest.mark.parametrize("text", [
    "(exists U (and (= (inter U A) A) (= U (union A zero))))",
    "(forall U (implies (= (union A zero) U) (not (= U bot))))",
])
def test_equation_guard_fixes_the_witness(text):
    """A quantifier guarded by U = t, t free of U, tries the value of t
    only, on every mask evaluator."""
    q = parse(text, WSO)
    for ev, a in ((BruteForceEvaluator(3), 0b100),
                  (GridWEvaluator(make_grid([Fraction(1, 2)], 1)), 0b100),
                  (GridLEvaluator(make_grid([Fraction(1, 2)], 1)), 0b10000)):
        witnesses = ev.witnesses(ev.analyse(q)[2], {"A": a})
        assert list(witnesses) == [a | 1], type(ev).__name__


# -- quantifier blocks --------------------------------------------------------

def block_evaluators():
    """(name, evaluate, reference, values) for each mask evaluator: the
    evaluator itself, its unpruned reference search, and assignment values."""
    m = MsoFin(3)
    w = GridWEvaluator(FinSet.of(0, Fraction(1, 3), Fraction(2, 3)))
    lev = GridLEvaluator(FinSet.of(0, Fraction(1, 2)))
    return [
        ("msofin", lambda f, a: bruteforce_eval(m, f, a),
         lambda f, a: naive_msofin(m, f, a), m.universe()),
        ("w", w.formula, lambda f, a: naive_gridw(w, f, dict(a)),
         range(w.full + 1)),
        ("l", lev.formula, lambda f, a: naive_gridl(lev, f, dict(a)),
         tuple(lev.valid_masks(0, lev.full))),
    ]


@pytest.mark.parametrize("block,nested", [
    ("(forall X (forall Y (= (union X Y) (union Y X))))", None),
    ("(forall X (forall Y (= (inter X (union X Y)) X)))", None),
    ("(exists X (exists Y (and (= (inter X Y) X) (= (inter Y A) Y))))",
     None),
    ("(exists X (exists X (and (= (inter X A) X) (not (= X bot)))))",
     "(exists X (and (= (inter X A) X) (not (= X bot))))"),
    ("(forall X (forall X (implies (= (inter A X) A) (= (inter X A) X))))",
     "(forall X (implies (= (inter A X) A) (= (inter X A) X)))"),
])
def test_blocks_the_split_leaves_alone_terminate(block, nested):
    """A block none of whose guards moves is evaluated by the plain
    quantifier loop, after the shadowed binder of a repeated name is
    dropped: same verdict as the hand-nested form and the unpruned search,
    on MSO(n), W and L."""
    f = parse(block, WSO)
    g = parse(nested or block, WSO)
    if nested is None:
        assert split_block(f) is f
    else:
        assert split_block(f) == g
    for name, evaluate, reference, values in block_evaluators():
        for a in values:
            want = reference(g, {"A": a})
            assert evaluate(f, {"A": a}) == evaluate(g, {"A": a}) == want, \
                (name, a)


def test_split_block_moves_each_conjunct_to_its_last_variable():
    f = parse("(exists X (exists Y (exists Z (and (= (inter X A) X) (and "
              "(= (inter Y B) Y) (and (= (inter Z A) Z) (and (= X Y) "
              "(= A B))))))))", WSO)
    assert split_block(f) == parse(
        "(and (= A B) (exists X (and (= (inter X A) X) (exists Y (and (and "
        "(= (inter Y B) Y) (= X Y)) (exists Z (= (inter Z A) Z)))))))", WSO)
    f = parse("(forall X (forall Y (implies (and (= (inter X A) X) (and "
              "(= (inter Y X) Y) (= A B))) (= X Y))))", WSO)
    assert split_block(f) == parse(
        "(implies (= A B) (forall X (implies (= (inter X A) X) (forall Y "
        "(implies (= (inter Y X) Y) (= X Y))))))", WSO)


def test_split_block_drops_binders_nothing_mentions():
    f = parse("(forall Y (forall X (subset B B)))", MO)
    assert split_block(f) == parse("(subset B B)", MO)
    f = parse("(exists X (exists U (exists Y (and (= (inter Y A) Y) "
              "(and (= A B) (= (inter X Y) X))))))", WSO)
    assert split_block(f) == parse(
        "(and (= A B) (exists X (exists Y (and (= (inter Y A) Y) "
        "(= (inter X Y) X)))))", WSO)
    f = parse("(forall X (forall Y (forall X (= (union X A) X))))", WSO)
    assert split_block(f) == parse("(forall X (= (union X A) X))", WSO)


def test_vacuous_block_is_not_searched(time_limit):
    """A universal block over a body that mentions none of its variables
    takes no search at all; trying every pair of masks would take seconds
    at budget 2."""
    f = parse("(forall Y (forall X (subset B B)))", MO)
    asg = {"A": FinSet.of(Fraction(1, 2)),
           "B": FinSet.of(Fraction(1, 4), Fraction(3, 4))}
    time_limit(1)
    assert stabilize("w", f, asg) == EvalReport(True, 1, True)


def block_sentences(ops1, ops2, guard_min):
    """Prenex blocks of 2-3 binders over parameter A: an existential block
    over a conjunction, a universal one over an implication with a
    conjunctive antecedent, or a universal one over a conjunction (which
    guards nothing).  A binder may repeat an earlier name, and the binder U
    is never mentioned.  The conjuncts are guards on one block variable,
    conjuncts free of every block variable, and cross conjuncts between two
    block variables."""
    def terms(leaves):
        def extend(inner):
            apps = [st.tuples(st.sampled_from(ops2), inner, inner)
                    .map(lambda t: App(t[0], (t[1], t[2])))]
            if ops1:
                apps.append(st.tuples(st.sampled_from(ops1), inner)
                            .map(lambda t: App(t[0], (t[1],))))
            return st.one_of(apps)
        return st.recursive(st.sampled_from(leaves), extend, max_leaves=3)

    atom_kinds = st.sampled_from([Eq, SubsetAtom])

    @st.composite
    def sentence(draw):
        prefix = draw(st.lists(st.sampled_from("XYZU"), min_size=2,
                               max_size=3))
        names = sorted(set(prefix) - {"U"})
        outer = [Var("A"), Const("bot"), Const("zero")]
        everything = [Var(n) for n in names] + outer
        kinds = ["outer", "guard", "cross"][:len(names) + 1]
        parts = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(kinds))
            if kind == "guard":
                v = Var(draw(st.sampled_from(names)))
                if guard_min and draw(st.booleans()):
                    parts.append(Eq(App("min", (v,)), v))
                else:
                    t = draw(terms(everything))
                    parts.append(Eq(App("inter", (v, t)), v))
            elif kind == "outer":
                parts.append(draw(atom_kinds)(draw(terms(outer)),
                                              draw(terms(outer))))
            else:
                u, v = draw(st.permutations(names))[:2]
                left = App(draw(st.sampled_from(ops2)),
                           (Var(u), draw(terms(everything))))
                atom = draw(atom_kinds)(left, Var(v))
                parts.append(Not(atom) if draw(st.booleans()) else atom)
        shape = draw(st.sampled_from(["exists", "implies", "forall"]))
        quant, body = (Exists if shape == "exists" else Forall), and_all(parts)
        if shape == "implies":
            body = Implies(body, draw(atom_kinds)(draw(terms(everything)),
                                                  draw(terms(everything))))
        for n in reversed(prefix):
            body = quant(n, body)
        return body

    return sentence()


@pytest.mark.parametrize("kind", ["msofin", "w", "l"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_split_blocks_match_unpruned_search(kind, data):
    """Prenex blocks, split by the evaluator, agree with the unpruned
    reference search on every value of the parameter."""
    ops = {"msofin": ((), ("union", "inter")),
           "w": (("min", "max"), ("union", "inter")),
           "l": (("min", "max", "l", "r"), ("union", "inter"))}[kind]
    f = data.draw(block_sentences(*ops, guard_min=kind != "msofin"))
    [(_, evaluate, reference, values)] = [
        e for e in block_evaluators() if e[0] == kind]
    for a in values:
        assert evaluate(f, {"A": a}) == reference(f, {"A": a}), a


def test_prenex_three_atoms_matches_miniscoped(time_limit):
    """ROADMAP item 4: the prenex form gets the miniscoped form's verdict at
    every budget, well within the time limit."""
    asg = {"A": FinSet.of(Fraction(1, 3)), "B": FinSet.of(Fraction(2, 3))}
    prenex = parse(THREE_ATOMS_PRENEX, WSO)
    miniscoped = parse(THREE_ATOMS_MINISCOPED, WSO)
    time_limit(5)
    for k in (1, 2, 3):
        # budget 4 has 15 grid points, one over the default cap
        assert (grid_eval("w", prenex, asg, k, cap=15)
                == grid_eval("w", miniscoped, asg, k, cap=15)), k


def test_make_grid_pins_seeds_and_mean_points():
    def points(*texts):
        return tuple(Fraction(t) for t in texts)

    half = Fraction(1, 2)
    assert make_grid([half], 2) == points("0", "1/4", "3/8", "1/2", "3/4",
                                          "7/8")
    assert make_grid([], 1) == points("0", "1/2")
    # a repeated seed, or a seed of 0, gives no duplicate point
    assert make_grid([half, Fraction(0), half], 1) == points("0", "1/4",
                                                            "1/2", "3/4")
    with pytest.raises(ValueError):
        make_grid([Fraction(1)], 1)
    # an unbounded interval seeds its left endpoint only
    u = IntervalUnion.normalize([(Fraction(1, 4), half),
                                 (Fraction(3, 4), None)])
    assert _w_seed_points({"X": u, "Y": FinSet.of(Fraction(1, 8))}) == set(
        points("1/8", "1/4", "1/2", "3/4"))
    tail = IntervalUnion(((half, None),))
    assert make_grid(_w_seed_points({"X": tail}), 1) == points("0", "1/4",
                                                               "1/2", "3/4")


def test_make_grid_puts_seed_j_at_bit_j_times_budget_plus_one():
    """The grid evaluators of a query take the sorted seeds only: seed j is
    bit j(k+1) of the budget-k grid."""
    for seeds in ([], [Fraction(1, 2)], [Fraction(3, 4), Fraction(1, 8)],
                  [Fraction(1, 3), Fraction(2, 3), Fraction(1, 9)]):
        ordered = sorted({Fraction(0), *seeds})
        for k in (1, 2, 3):
            grid = make_grid(seeds, k, cap=64)
            assert len(grid) == len(ordered) * (k + 1)
            for j, seed in enumerate(ordered):
                assert grid[j * (k + 1)] == seed
            for ev in (GridWEvaluator(ordered, k), GridLEvaluator(ordered, k)):
                assert ev.size == len(grid)
                assert ev.index == {p: i for i, p in enumerate(grid)
                                    if p in ordered}


def reference_verdicts(kind, f, asg, budgets):
    """f's verdict at each budget on the evaluator built over the whole
    grid `make_grid` gives."""
    out = {}
    for k in budgets:
        grid = make_grid(_w_seed_points(asg), k)
        ev = (GridWEvaluator if kind == "w" else GridLEvaluator)(grid)
        out[k] = ev.formula(f, {n: ev.encode(v) for n, v in asg.items()})
    return out


# one non-zero seed at most keeps the budget-2 grid at 6 points
SEED_POOL = (Fraction(1, 3), Fraction(1, 2))


@pytest.mark.parametrize("kind", ["w", "l"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_query_verdicts_match_evaluators_on_make_grid(kind, data):
    """The seed-rank evaluators of grid_eval and stabilize give, at every
    budget, the verdict of an evaluator built on the make_grid grid, and
    stabilize reports the least budget whose verdict the next one keeps."""
    f = data.draw(wso_formulas if kind == "w" else lci_formulas, label="f")
    seed = data.draw(st.sampled_from(SEED_POOL), label="seed")
    values = ([FinSet(), FinSet.of(seed)] if kind == "w"
              else enumerate_interval_unions([Fraction(0), seed]))
    asg = {n: data.draw(st.sampled_from(values), label=n)
           for n in sorted(free_vars(f))}
    want = reference_verdicts(kind, f, asg, (1, 2))
    cls = GridWEvaluator if kind == "w" else GridLEvaluator
    seeds = sorted({Fraction(0), seed})
    for k in (1, 2):
        by_rank = cls(seeds, k)
        on_grid = cls(make_grid([seed], k))
        assert by_rank.full == on_grid.full
        for v in values:
            assert by_rank.encode(v) == on_grid.encode(v)
    got = grid_eval(kind, f, asg, k=1)
    assert got.verdict == want[1]
    assert got.stabilized == (want[1] == want[2])
    assert stabilize(kind, f, asg, kmax=2) == EvalReport(
        verdict=want[1] if want[1] == want[2] else want[2],
        budget_used=1 if want[1] == want[2] else 2,
        stabilized=want[1] == want[2])


def reference_reports(verdicts, k, kmax):
    """The grid_eval(k) and stabilize(kmax) reports that verdicts, one per
    budget, give."""
    grid = EvalReport(verdicts[k], k, verdicts[k] == verdicts[k + 1])
    for j in range(1, kmax):
        if verdicts[j] == verdicts[j + 1]:
            return grid, EvalReport(verdicts[j], j, True)
    return grid, EvalReport(verdicts[kmax], kmax, False)


# Sentences whose verdict changes from budget 1 to budget 2 when the only
# seed is 0 (2 grid points, then 3): "some set has 3 points" is false, then
# true, and its universal negation is true, then false.
_THIRD_POINT = ("(and (= (min {0}) {0}) (and (not (= {0} bot)) "
                "(not (= {0} zero))))")
BUDGET_SENSITIVE = {
    "w": [parse(t, WSO) for t in (
        "(exists X (not (= (msinv (msinv X X) X) bot)))",
        "(forall X (= (msinv (msinv X X) X) bot))")],
    "l": [parse(t, SIGNATURES["lci"]) for t in (
        f"(exists X (and {_THIRD_POINT.format('X')} (exists Y (and "
        f"{_THIRD_POINT.format('Y')} (not (= X Y))))))",
        f"(forall X (implies {_THIRD_POINT.format('X')} (forall Y (implies "
        f"{_THIRD_POINT.format('Y')} (= X Y)))))")],
}


@pytest.mark.parametrize("kind", ["w", "l"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reports_match_a_fresh_search_at_every_budget(kind, data):
    """grid_eval and stabilize, which let a verdict that transfers stand for
    the next budget, report what a search of every budget on its own
    evaluator gives.  L stops at budget 2 to keep its searches small."""
    f = data.draw(st.one_of(
        st.sampled_from(BUDGET_SENSITIVE[kind]),
        wso_formulas if kind == "w" else lci_formulas), label="f")
    seed = Fraction(data.draw(st.integers(1, 11), label="seed"), 12)
    values = ([FinSet(), FinSet.of(seed)] if kind == "w"
              else enumerate_interval_unions([Fraction(0), seed]))
    asg = {n: data.draw(st.sampled_from(values), label=n)
           for n in sorted(free_vars(f))}
    top = 3 if kind == "w" else 2
    want = reference_verdicts(kind, f, asg, range(1, top + 1))
    for k in range(1, top):
        grid, stable = reference_reports(want, k, k + 1)
        assert grid_eval(kind, f, asg, k=k) == grid, k
        assert stabilize(kind, f, asg, kmax=k + 1) == stable, k


def count_analyses(monkeypatch, cls):
    """Counter of `analyse` calls by quantifier node, and of evaluators
    built, for every evaluator of class cls."""
    analysed, built = Counter(), Counter()
    analyse, init = cls.analyse, cls.__init__

    def counting_analyse(self, q):
        analysed[id(q)] += 1
        return analyse(self, q)

    def counting_init(self, *args, **kwargs):
        built[cls] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "analyse", counting_analyse)
    monkeypatch.setattr(cls, "__init__", counting_init)
    return analysed, built


@pytest.mark.parametrize("kind,text", [
    # false at every budget: an existential false verdict does not transfer,
    # so budget 2 is searched too
    ("w", "(exists X (exists Y (and (= (inter X A) X) (and (= (inter Y X) Y) "
          "(and (not (= Y bot)) (not (= Y X)))))))"),
    ("w", "(forall X (implies (= (inter X A) X) (exists Y (and "
          "(= (inter Y X) Y) (= (min Y) Y)))))"),
    ("l", "(forall X (implies (= (max X) bot) (exists Y (= (l Y) (l X)))))"),
])
def test_each_quantifier_is_analysed_once_per_query(monkeypatch, kind, text):
    """stabilize evaluates several budgets but splits each block and plans
    each quantifier once."""
    f = parse(text, WSO if kind == "w" else SIGNATURES["lci"])
    cls = GridWEvaluator if kind == "w" else GridLEvaluator
    analysed, built = count_analyses(monkeypatch, cls)
    half = Fraction(1, 2)
    value = (FinSet.of(half) if kind == "w"
             else IntervalUnion(((half, None),)))
    report = stabilize(kind, f, {"A": value}, kmax=3)
    assert built[cls] >= 2
    quantifiers = [g for g in subformulas(f)
                   if isinstance(g, (Exists, Forall))]
    assert analysed and set(analysed.values()) == {1}
    assert len(analysed) >= len(quantifiers)
    # the same verdict on an evaluator per budget that analyses afresh
    want = reference_verdicts(kind, f, {"A": value}, (1, 2, 3))
    assert report.verdict == want[report.budget_used]


@pytest.mark.parametrize("kind,text,verdict,searched", [
    ("w", "(exists X (and (= (inter X A) X) (not (= X bot))))", True, 1),
    ("l", "(exists X (and (= (inter X A) X) (not (= X bot))))", True, 1),
    ("w", "(forall X (implies (= (inter X A) X) (= X bot)))", False, 1),
    ("l", "(forall X (= (min X) X))", False, 1),
    ("w", "(exists X (and (= (inter X A) X) (and (not (= X bot)) "
          "(not (= X A)))))", False, 2),
    ("l", "(exists X (and (= (inter X A) X) (and (not (= X bot)) "
          "(= (max X) bot))))", False, 2),
])
def test_a_verdict_that_transfers_is_not_searched_again(monkeypatch, kind,
                                                        text, verdict,
                                                        searched):
    """An existential formula true at budget 1, or a universal one false
    there, holds its verdict at budget 2 without a second evaluator; an
    existential formula false at budgets 1 and 2 is searched at both."""
    f = parse(text, WSO if kind == "w" else SIGNATURES["lci"])
    cls = GridWEvaluator if kind == "w" else GridLEvaluator
    _, built = count_analyses(monkeypatch, cls)
    half = Fraction(1, 2)
    value = (FinSet.of(half) if kind == "w"
             else IntervalUnion(((half, half),)))
    report = stabilize(kind, f, {"A": value})
    assert built[cls] == searched
    want = reference_verdicts(kind, f, {"A": value}, (1, 2))
    assert want[1] == want[2] == verdict
    assert report == EvalReport(verdict, 1, True)


def existential_at(f, positive):
    """Whether f, read at this polarity, has no universal quantifier and no
    existential quantifier at the other one."""
    if isinstance(f, Not):
        return existential_at(f.body, not positive)
    if isinstance(f, Implies):
        return (existential_at(f.left, not positive)
                and existential_at(f.right, positive))
    if isinstance(f, (And, Or)):
        return (existential_at(f.left, positive)
                and existential_at(f.right, positive))
    if isinstance(f, (Exists, Forall)):
        return (positive == isinstance(f, Exists)
                and existential_at(f.body, positive))
    return isinstance(f, (Eq, SubsetAtom, LtEAtom))


@settings(max_examples=100, deadline=None)
@given(st.one_of(wso_formulas, lci_formulas))
def test_is_existential_reads_either_polarity(f):
    """The transfer test of a false verdict asks is_existential(f, False),
    which answers for (not f)."""
    assert is_existential(f) == existential_at(f, True)
    assert (is_existential(f, False) == is_existential(Not(f))
            == existential_at(f, False))


def test_partition_body_is_split_once_per_node(monkeypatch):
    """A nested partition quantifier is searched once per labelling of the
    enclosing one (all of them: the inner body is false), and its body is
    split into bounds and rest once."""
    analysed, _ = count_analyses(monkeypatch, BruteForceEvaluator)
    visits = Counter()
    search = BruteForceEvaluator.exists_partition

    def counting_search(self, f, env):
        visits[id(f)] += 1
        return search(self, f, env)

    monkeypatch.setattr(BruteForceEvaluator, "exists_partition",
                        counting_search)
    inner = ExistsPartition(("Z3", "Z4"), and_all([
        SubsetAtom(Var("Z3"), Var("Z1")), SubsetAtom(Var("Z4"), Var("A")),
        Eq(App("inter", (Var("Z3"), Var("Z2"))), Const("bot")),
        Not(Eq(Var("Z4"), Var("Z4")))]))
    outer = ExistsPartition(("Z1", "Z2"), and_all([
        SubsetAtom(Var("Z1"), Var("A")), Not(Eq(Var("Z1"), Var("A"))),
        inner]))
    assert bruteforce_eval(MsoFin(3), outer, {"A": 0b111}) is False
    assert visits[id(inner)] > 1
    assert analysed[id(outer)] == analysed[id(inner)] == 1


def test_grid_cap_enforced(monkeypatch):
    with pytest.raises(GridCapError):
        make_grid([Fraction(i, 10) for i in range(8)], 3, cap=10)
    monkeypatch.setenv("MCDLO_GRID_CAP", "4")
    with pytest.raises(GridCapError):
        make_grid([Fraction(0), Fraction(1, 2)], 2)
    monkeypatch.setenv("MCDLO_GRID_CAP", "30")
    make_grid([Fraction(0), Fraction(1, 2)], 2)


def test_queries_raise_the_grid_cap_error_of_make_grid(monkeypatch):
    """A query builds no grid but stops at the size make_grid refuses, with
    the same message, and reads MCDLO_GRID_CAP once."""
    f = parse("(exists X (= (inter X A) X))", WSO)
    asg = {"A": FinSet.of(Fraction(1, 3), Fraction(2, 3))}
    with pytest.raises(GridCapError) as want:
        make_grid(_w_seed_points(asg), 4)
    with pytest.raises(GridCapError) as got:
        grid_eval("w", f, asg, k=4)
    assert str(got.value) == str(want.value)
    assert str(got.value) == "grid of 15 points exceeds cap 14"
    with pytest.raises(GridCapError, match="grid of 12 points exceeds cap 11"):
        grid_eval("w", f, asg, k=3, cap=11)
    reads = Counter()
    environ_get = os.environ.get

    def counting_get(key, default=None):
        reads[key] += 1
        return environ_get(key, default)

    monkeypatch.setattr(os.environ, "get", counting_get)
    assert stabilize("w", f, {"A": FinSet.of(Fraction(1, 2))}).verdict
    assert reads["MCDLO_GRID_CAP"] == 1


def test_grid_eval_reports():
    f = parse("(exists X (not (= X bot)))", WSO)
    rep = grid_eval("w", f, {}, k=1)
    assert rep == EvalReport(verdict=True, budget_used=1, stabilized=True)


def test_stabilize_requires_budget_headroom():
    f = parse("(= bot bot)", WSO)
    with pytest.raises(ValueError):
        stabilize("w", f, {}, kmax=1)


def test_deeply_nested_formula_is_an_eval_error():
    """The searches, the transfer test between budgets, the printer and
    free_vars recurse once per nesting level; past the interpreter's limit
    each of them says so as an EvalError."""
    depth = sys.getrecursionlimit() + 200
    f = parse("(not " * depth + "(= bot bot)" + ")" * depth, WSO)
    # budget 1 answers by short-circuit; the transfer test for budget 2
    # then walks the deep arm
    d = parse("(not " * depth + "(= X bot)" + ")" * depth, WSO)
    arm = Or(Eq(Const("bot"), Const("bot")), d)
    for call in (lambda: grid_eval("w", f), lambda: stabilize("l", f),
                 lambda: bruteforce_eval(MsoFin(2), f),
                 lambda: print_formula(f), lambda: free_vars(f),
                 lambda: stabilize("w", arm, {}),
                 lambda: grid_eval("w", arm, {}, k=1),
                 lambda: stabilize("l", arm, {}),
                 lambda: grid_eval("l", arm, {}, k=1)):
        with pytest.raises(EvalError, match="^formula nested too deeply$"):
            call()


def test_stabilize_on_assignments():
    f = parse("(= (min X) Y)", WSO)
    x = FinSet.of(Fraction(1, 4), Fraction(1, 2))
    rep = stabilize("w", f, {"X": x, "Y": FinSet.of(Fraction(1, 4))})
    assert rep.verdict and rep.stabilized


def test_stabilize_lci():
    f = parse("(exists X (and (= (min X) zero) (= (max X) bot)))",
              SIGNATURES["lci"])
    rep = stabilize("l", f, {})
    assert rep.verdict and rep.stabilized  # [0, END) is such a set


def test_relativize_element_mode():
    f = parse("(forall X (exists Y (subset X Y)))", MO)
    g = relativize(f, ("element", "W"))
    # the guard is inserted on both quantifiers
    assert isinstance(g, Forall)
    assert isinstance(g.body, Implies)
    assert g.body.left == SubsetAtom(Var("X"), Var("W"))
    inner = g.body.right
    assert isinstance(inner, Exists)
    assert inner.body.left == SubsetAtom(Var("Y"), Var("W"))
    assert "W" in free_vars(g)


def test_relativize_renames_clashing_bound_variable():
    f = parse("(exists W (= W bot))", MO)
    g = relativize(f, ("element", "W"))
    assert isinstance(g, Exists)
    assert g.var != "W"
    assert free_vars(g) == {"W"}


def test_relativize_interval_mode_pins_fresh_names():
    # each guard draws Z then at_mo's W before its body is relativized
    f = parse("(forall X (exists Y (and (subset Y X) (ltE X Y))))", MO)

    def guard(z, w, x):
        atom = (f"(and (not (= {z} bot)) (forall {w} (implies (subset {w} {z})"
                f" (or (= {w} bot) (= {w} {z})))))")
        return (f"(forall {z} (implies (and {atom} (subset {z} {x}))"
                f" (and (or (ltE I {z}) (= I {z})) (ltE {z} J))))")

    assert print_formula(relativize(f, ("interval", "I", "J"))) == (
        f"(forall X (implies {guard('Z1', 'W2', 'X')} (exists Y (and "
        f"{guard('Z3', 'W4', 'Y')} (and (subset Y X) (ltE X Y))))))")
    # a bound use of a guard variable is renamed before any guard is drawn
    f = parse("(exists J (forall X (subset X J)))", MO)
    assert print_formula(relativize(f, ("interval", "I", "J"))) == (
        f"(exists J1 (and {guard('Z2', 'W3', 'J1')} (forall X (implies "
        f"{guard('Z4', 'W5', 'X')} (subset X J1)))))")


def test_relativized_sentence_truth():
    # "some nonempty set exists" restricted to subsets of W
    f = parse("(exists X (not (= X bot)))", MO)
    g = relativize(f, ("element", "W"))
    assert stabilize("w", g, {"W": FinSet.of(Fraction(1, 2))}).verdict
    assert not stabilize("w", g, {"W": FinSet()}).verdict
