import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from mcdlo.fefvau import translate_with_parameters
from mcdlo.models import (EvalError, LciStructure, MsoFin, WsoStructure,
                          eval_atomic, eval_qf)
from mcdlo.order import FinSet, IntervalUnion, enumerate_interval_unions
from mcdlo.rewriting import (CodePair, code_domain, code_to_interval_union,
                             defeq_translate, is_positive_wso,
                             l_in_w_translate, lci_existential_rewrite,
                             notbot_formula,
                             phi_mem, qf_positive_rewrite,
                             relativize, w_in_l_translate)
from mcdlo.rewriting import _neq_template
from mcdlo.semantics import bruteforce_eval, stabilize
from mcdlo.syntax import (And, App, Const, Eq, Not, Or,
                          SIGNATURES, Var, formula_ops, free_vars,
                          is_existential, is_positive_existential, parse,
                          print_formula, substitute)

from conftest import POOL3, subsets_of

W = WsoStructure()
L = LciStructure()


# -- nonempty characterisation ----------------------------------------------

def test_notbot_formula_semantics(subs4):
    f = notbot_formula(Var("A"))
    for a in subs4:
        assert eval_qf(W, f, {"A": a}) == (not a.is_empty())


# -- endpoint codes ----------------------------------------------------------

def test_code_domain_examples():
    q = Fraction(1, 4)
    assert code_domain(FinSet.of(0), FinSet.of(0))       # singleton {0}
    assert code_domain(FinSet.of(q), FinSet())           # [1/4, END)
    assert not code_domain(FinSet.of(Fraction(1, 2)), FinSet.of(q))


def test_code_to_interval_union_examples():
    q = Fraction(1, 4)
    assert code_to_interval_union(FinSet.of(q), FinSet()) == \
        IntervalUnion(((q, None),))
    with pytest.raises(ValueError):
        code_to_interval_union(FinSet.of(Fraction(1, 2)), FinSet.of(q))


points = st.fractions(min_value=0, max_value=Fraction(15, 16),
                      max_denominator=16)
interval_unions = st.lists(
    st.tuples(points, st.one_of(st.none(), points))
    .filter(lambda iv: iv[1] is None or iv[0] <= iv[1]),
    max_size=3).map(IntervalUnion.normalize)


@given(interval_unions)
def test_code_pair_roundtrip(u):
    pair = CodePair.of(u)
    assert pair.to_interval_union() == u


def test_code_pair_rejects_unrealizable():
    with pytest.raises(ValueError):
        CodePair(FinSet.of(Fraction(1, 2)), FinSet.of(Fraction(1, 4)))


# -- positive existential rewriting -----------------------------------------

def test_positive_rewrite_atom_passthrough():
    f = parse("(= X Y)", SIGNATURES["wso"])
    assert qf_positive_rewrite(f) == f


def test_positive_rewrite_negation_becomes_witness():
    f = parse("(not (= X bot))", SIGNATURES["wso"])
    out = qf_positive_rewrite(f)
    assert is_positive_existential(out)
    ops = formula_ops(out)
    assert not ops & {"setminus", "delta"}
    for x in subsets_of(POOL3):
        rep = stabilize("w", out, {"X": x}, kmax=3)
        assert rep.stabilized and rep.verdict == (not x.is_empty())


def test_positive_rewrite_handles_extensions():
    sig = SIGNATURES["wso"].with_extensions(setminus=True, delta=True)
    f = parse("(not (= (setminus X Y) (delta X Y)))", sig)
    out = qf_positive_rewrite(f)
    assert is_positive_existential(out)
    assert not formula_ops(out) & {"setminus", "delta"}
    for x in subsets_of(POOL3)[:6]:
        for y in subsets_of(POOL3)[:6]:
            asg = {"X": x, "Y": y}
            rep = stabilize("w", out, asg, kmax=3)
            assert rep.stabilized
            assert rep.verdict == (x.minus(y) != x.delta(y)), asg


def test_positive_rewrite_pins_witness_order_and_sharing():
    """Differences get their witnesses C innermost and leftmost first, one
    per distinct difference of a literal, in every literal before the first
    negated equation's C, C, Y; each literal's witnesses wrap it, the first
    outermost.  The text was printed by the rewriter before it became a map
    over literals."""
    sig = SIGNATURES["wso"].with_extensions(setminus=True, delta=True)
    f = parse("(and (not (= (setminus (setminus X Y) Z) (delta X Y))) "
              "(= (setminus X Y) (inter (setminus X Y) Z)))", sig)
    assert print_formula(qf_positive_rewrite(f)) == (
        "(and (exists C1 (and (and (= (union (inter X Y) C1) X) "
        "(= (inter Y C1) bot)) (exists C2 (and (and (= (union (inter C1 Z) "
        "C2) C1) (= (inter Z C2) bot)) (exists C3 (and (and (= (union "
        "(inter Y X) C3) Y) (= (inter X C3) bot)) (exists C5 (and (and "
        "(= (union (inter C2 (union C1 C3)) C5) C2) (= (inter (union C1 C3) "
        "C5) bot)) (exists C6 (and (and (= (union (inter (union C1 C3) C2) "
        "C6) (union C1 C3)) (= (inter C2 C6) bot)) (exists Y7 (and (or "
        "(= Y7 zero) (= (inter zero (msinv (union Y7 zero) Y7)) zero)) "
        "(= (inter Y7 (union C5 C6)) Y7))))))))))))) (exists C4 (and (and "
        "(= (union (inter X Y) C4) X) (= (inter Y C4) bot)) "
        "(= C4 (inter C4 Z)))))")


# inputs outside each rewriter's fragment: a universal quantifier, a negated
# existential, subset atoms of either polarity, and for the L(I) rewriter,
# which takes quantifier-free input only, an existential quantifier
OUTSIDE_FRAGMENT = [
    ("qf_positive_rewrite", "(forall X (= X Y))"),
    ("qf_positive_rewrite", "(not (exists X (= X Y)))"),
    ("qf_positive_rewrite", "(subset X Y)"),
    ("qf_positive_rewrite", "(not (subset X Y))"),
    ("lci_existential_rewrite", "(forall X (= X Y))"),
    ("lci_existential_rewrite", "(not (exists X (= X Y)))"),
    ("lci_existential_rewrite", "(subset X Y)"),
    ("lci_existential_rewrite", "(not (subset X Y))"),
    ("lci_existential_rewrite", "(exists X (= X Y))"),
]


@pytest.mark.parametrize("name,text", OUTSIDE_FRAGMENT)
def test_rewriters_reject_input_outside_their_fragment(name, text):
    rewrite = {"qf_positive_rewrite": qf_positive_rewrite,
               "lci_existential_rewrite": lci_existential_rewrite}[name]
    with pytest.raises(EvalError):
        rewrite(parse(text, SIGNATURES["mo"]))


# -- definitional equivalences -----------------------------------------------

def test_defeq_subset_is_lattice_inclusion():
    f = parse("(subset X Y)", SIGNATURES["mo"])
    out = defeq_translate(f, "mo", "wso")
    for x in subsets_of(POOL3):
        for y in subsets_of(POOL3):
            assert eval_qf(W, out, {"X": x, "Y": y}) == x.issubset(y)


def test_defeq_lte_to_msofin():
    f = parse("(ltE X Y)", SIGNATURES["mo"])
    out = defeq_translate(f, "mo", "msofin")
    m = MsoFin(3)
    for x in m.universe():
        for y in m.universe():
            assert bruteforce_eval(m, out, {"X": x, "Y": y}) == m.rel_ltE(x, y)


def test_defeq_rejects_unsupported_pair():
    f = parse("(= X Y)", SIGNATURES["wso"])
    from mcdlo.models import EvalError
    with pytest.raises((EvalError, ValueError)):
        defeq_translate(f, "wso", "lci")


# -- W(I) inside L(I) --------------------------------------------------------

def test_w_in_l_shared_atom_passes_through():
    f = parse("(= (union X Y) Z)", SIGNATURES["wso"])
    out = w_in_l_translate(f)
    assert "union" in formula_ops(out)
    assert "msinv" not in formula_ops(out)


def test_w_in_l_is_existential_on_positive_input():
    f = parse("(exists X (= (msinv A X) B))", SIGNATURES["wso"])
    out = w_in_l_translate(f)
    assert is_existential(out)
    assert "msinv" not in formula_ops(out)


def test_w_in_l_empty_first_argument_guard():
    f = parse("(= (msinv A B) C)", SIGNATURES["wso"])
    out = w_in_l_translate(f)
    bot = IntervalUnion()
    b = IntervalUnion.of_points([Fraction(1, 2)])
    assert stabilize("l", out, {"A": bot, "B": b, "C": bot}).verdict
    assert not stabilize("l", out,
                         {"A": bot, "B": b,
                          "C": IntervalUnion.of_points([0])}).verdict


@pytest.mark.parametrize("text", ["(= (setminus X Y) bot)",
                                  "(= (delta X Y) Z)"])
def test_w_in_l_positivises_difference_operators(text):
    wso_ext = SIGNATURES["wso"].with_extensions(setminus=True, delta=True)
    f = parse(text, wso_ext)
    out = w_in_l_translate(f)
    assert is_existential(out)
    names = sorted(free_vars(f))
    sets = subsets_of([Fraction(0), Fraction(1, 2)])
    for vals in itertools.product(sets, repeat=len(names)):
        asg = dict(zip(names, vals))
        rep = stabilize("l", out, {n: IntervalUnion.from_finset(v)
                                   for n, v in asg.items()}, kmax=3)
        assert rep.verdict == eval_qf(W, f, asg), asg


def test_w_in_l_sinv_small_sample():
    f = parse("(= (msinv A B) C)", SIGNATURES["wso"])
    out = w_in_l_translate(f)
    pool = [Fraction(0), Fraction(1, 2)]
    sets = subsets_of(pool)
    for a in sets:
        for b in sets:
            for c in sets:
                asg = {"A": IntervalUnion.from_finset(a),
                       "B": IntervalUnion.from_finset(b),
                       "C": IntervalUnion.from_finset(c)}
                rep = stabilize("l", out, asg, kmax=3)
                assert rep.stabilized
                assert rep.verdict == (a.sinv(b) == c), (a, b, c)


# -- L(I) inside W(I) --------------------------------------------------------

CORPUS3 = enumerate_interval_unions(POOL3, include_end=True)


def pair_env(asg):
    env = {}
    for name, iu in asg.items():
        cp = CodePair.of(iu)
        env[f"{name}_l"] = cp.left
        env[f"{name}_r"] = cp.right
    return env


@pytest.mark.parametrize("src", ["(= (l A) B)", "(= (r A) B)",
                                 "(= (min A) B)", "(= (max A) B)",
                                 "(= A B)"])
def test_l_in_w_unary_graph_atoms(src):
    f = parse(src, SIGNATURES["lci"])
    out = l_in_w_translate(f)
    for a in CORPUS3:
        for b in CORPUS3:
            asg = {"A": a, "B": b}
            want = eval_atomic(L, f, asg)
            rep = stabilize("w", out, pair_env(asg), kmax=3)
            assert rep.stabilized and rep.verdict == want, asg


@pytest.mark.parametrize("op", ["union", "inter"])
def test_l_in_w_lattice_atoms_sampled(op):
    rng = random.Random(5)
    f = parse(f"(= ({op} A B) C)", SIGNATURES["lci"])
    out = l_in_w_translate(f)
    trials = [tuple(rng.choice(CORPUS3) for _ in range(3)) for _ in range(30)]
    trials += [(a, b, L.apply(op, a, b))
               for a, b in [(rng.choice(CORPUS3), rng.choice(CORPUS3))
                            for _ in range(15)]]
    for a, b, c in trials:
        asg = {"A": a, "B": b, "C": c}
        want = eval_atomic(L, f, asg)
        rep = stabilize("w", out, pair_env(asg), kmax=3)
        assert rep.stabilized and rep.verdict == want, asg


def test_membership_and_inclusion_formulas_spot():
    mem = phi_mem(Var("Xl"), Var("Xr"), Var("Z"))
    u = IntervalUnion(((Fraction(0), Fraction(1, 3)), (Fraction(2, 3), None)))
    pair = CodePair.of(u)
    for z, want in [(Fraction(1, 6), True), (Fraction(1, 2), False),
                    (Fraction(5, 6), True)]:
        asg = {"Xl": pair.left, "Xr": pair.right, "Z": FinSet.of(z)}
        assert eval_qf(W, mem, asg) == want, z


# -- quantifier-free L(I) to existential L(I) --------------------------------

def test_lci_existential_rewrite_positive_passthrough():
    f = parse("(= X Y)", SIGNATURES["lci"])
    assert lci_existential_rewrite(f) == f


def test_lci_existential_rewrite_nonempty():
    f = parse("(not (= X bot))", SIGNATURES["lci"])
    out = lci_existential_rewrite(f)
    assert is_existential(out)
    pool = [Fraction(0), Fraction(1, 2)]
    for x in enumerate_interval_unions(pool, include_end=True):
        rep = stabilize("l", out, {"X": x}, kmax=3)
        assert rep.stabilized and rep.verdict == (not x.is_empty()), x


def test_lci_existential_rewrite_is_the_same_on_every_call():
    """The inequation template is built once; each call still gives the
    same formula, and the template is never rewritten in place."""
    f = parse("(or (not (= X Y)) (not (= (l X) bot)))", SIGNATURES["lci"])
    first = print_formula(lci_existential_rewrite(f))
    assert _neq_template() is _neq_template()
    assert print_formula(lci_existential_rewrite(f)) == first
    assert free_vars(_neq_template()) == {"Uneq", "Vneq"}


def test_lci_existential_rewrite_pins_implications():
    """An implication's antecedent flips polarity: a negated one passes
    through as an equation, a positive one becomes the code inequation.  The
    first text was printed by the rewriter before it became a map over
    literals."""
    f = parse("(implies (not (= (min X) Y)) (= (l X) (r Y)))",
              SIGNATURES["lci"])
    assert print_formula(lci_existential_rewrite(f)) == \
        "(or (= (min X) Y) (= (l X) (r Y)))"
    f = parse("(implies (= X Y) (= (l X) bot))", SIGNATURES["lci"])

    def differ(end):
        return substitute(_neq_template(), {"Uneq": App(end, (Var("X"),)),
                                            "Vneq": App(end, (Var("Y"),))})
    assert lci_existential_rewrite(f) == Or(
        Or(differ("l"), differ("r")),
        Eq(App("l", (Var("X"),)), Const("bot")))


def test_lci_existential_rewrite_inequation_sampled():
    f = parse("(not (= X Y))", SIGNATURES["lci"])
    out = lci_existential_rewrite(f)
    assert is_existential(out)
    rng = random.Random(9)
    corpus = enumerate_interval_unions([Fraction(0), Fraction(1, 2)],
                                       include_end=True)
    pairs = [(rng.choice(corpus), rng.choice(corpus)) for _ in range(8)]
    pairs += [(u, u) for u in corpus[:4]]
    for x, y in pairs:
        rep = stabilize("l", out, {"X": x, "Y": y}, kmax=3)
        assert rep.stabilized and rep.verdict == (x != y), (x, y)


def test_lci_existential_rewrite_syntactic_on_random_input():
    rng = random.Random(13)

    def rand_term(d):
        if d == 0:
            return rng.choice([Var("X"), Var("Y"), Const("bot"), Const("zero")])
        if rng.random() < 0.5:
            return App(rng.choice(["union", "inter"]),
                       (rand_term(d - 1), rand_term(d - 1)))
        return App(rng.choice(["min", "max", "l", "r"]), (rand_term(d - 1),))

    def rand_formula(d):
        if d == 0:
            return Eq(rand_term(rng.randint(0, 2)), rand_term(rng.randint(0, 2)))
        c = rng.random()
        if c < 0.3:
            return Not(rand_formula(d - 1))
        if c < 0.65:
            return And(rand_formula(d - 1), rand_formula(d - 1))
        return Or(rand_formula(d - 1), rand_formula(d - 1))

    for _ in range(50):
        f = rand_formula(rng.randint(1, 3))
        assert is_existential(lci_existential_rewrite(f))


# -- partition quantifiers are outside every translator's input ---------------

PARTITION = "(exists-partition (Z) (= Z bot))"
REJECTS_PARTITION = {
    "qf_positive_rewrite": qf_positive_rewrite,
    "w_in_l_translate": w_in_l_translate,
    "l_in_w_translate": l_in_w_translate,
    "lci_existential_rewrite": lci_existential_rewrite,
    "mo>msofin": lambda f: defeq_translate(f, "mo", "msofin"),
    "mo>wso": lambda f: defeq_translate(f, "mo", "wso"),
    "msofin>mo": lambda f: defeq_translate(f, "msofin", "mo"),
    "wso>mo": lambda f: defeq_translate(f, "wso", "mo"),
    "relativize-element": lambda f: relativize(f, "Y"),
    "translate_with_parameters": lambda f: translate_with_parameters(f, ()),
    "stabilize-w": lambda f: stabilize("w", f),
    "stabilize-l": lambda f: stabilize("l", f),
}


@pytest.mark.parametrize("name", sorted(REJECTS_PARTITION))
def test_partition_quantifier_raises_eval_error(name):
    # every signature parses it to this same node
    f = parse(PARTITION, SIGNATURES["mo"])
    with pytest.raises(EvalError):
        REJECTS_PARTITION[name](f)


def test_is_positive_wso_rejects_partition_quantifier():
    assert is_positive_wso(parse("(exists X (= X bot))", SIGNATURES["wso"]))
    assert not is_positive_wso(parse(PARTITION, SIGNATURES["wso"]))


# -- relativisation -----------------------------------------------------------

RELATIVIZE_SCRIPT = """
from mcdlo.rewriting import relativize
from mcdlo.syntax import SIGNATURES, parse, print_formula
f = parse("(exists X (and (subset A X) (subset X B)))", SIGNATURES["mo"])
print(print_formula(relativize(f, "X")))
"""


def test_relativize_names_do_not_depend_on_the_hash_seed():
    """A bound variable that clashes with the set is renamed to a fresh
    name that string hashing (randomised per process) cannot change."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", RELATIVIZE_SCRIPT],
                             env=env, capture_output=True, text=True,
                             check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("(exists X1 ")
