import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mcdlo.fefvau import (AcceptableSequence, PowerElement, PowerStructure,
                          ThetaOverflowError, atomic_sequences,
                          constant_sequence, decompose, drop_dead_blocks,
                          funky, fv_reduce, reassemble, support,
                          translate_with_parameters)
from mcdlo.models import MsoFin, WsoStructure, restrict
from mcdlo.order import FinSet
from mcdlo.semantics import BruteForceEvaluator, bruteforce_eval, stabilize
from mcdlo.syntax import (And, App, Const, Eq, Exists, ExistsPartition, Forall,
                          Implies, Not, Or, RAtom, SubsetAtom, Var, and_all,
                          free_vars, parse, SIGNATURES)

from conftest import PARAM_CORPUS

MO = SIGNATURES["mo"]

points = st.fractions(min_value=0, max_value=Fraction(15, 16),
                      max_denominator=16)
finsets = st.lists(points, max_size=5).map(FinSet.from_iterable)


def rand_power_formula(rng, names, depth):
    seqs = atomic_sequences()
    if depth == 0:
        kind = rng.choice(["subset", "=", "ltE"])
        return RAtom(seqs[kind], (rng.choice(names), rng.choice(names)))
    c = rng.random()
    if c < 0.25:
        return Not(rand_power_formula(rng, names, depth - 1))
    if c < 0.5:
        return And(rand_power_formula(rng, names, depth - 1),
                   rand_power_formula(rng, names, depth - 1))
    if c < 0.7:
        return Or(rand_power_formula(rng, names, depth - 1),
                  rand_power_formula(rng, names, depth - 1))
    q = rng.choice([Exists, Forall])
    return q(rng.choice(names), rand_power_formula(rng, names, depth - 1))


def test_fv_reduce_equivalent_on_enumerable_power():
    """The folded acceptable sequence defines the same relation as the
    original formula on every element of a small generalised power."""
    rng = random.Random(11)
    ps = PowerStructure(MsoFin(2), [Fraction(0), Fraction(1, 2)])
    elements = list(ps.elements())
    for _ in range(15):
        phi = rand_power_formula(rng, ["U", "V"], rng.randint(1, 2))
        ctx = ("U", "V")
        seq = fv_reduce(phi, context=ctx)
        for fu in elements:
            for fv in elements:
                env = {"U": fu, "V": fv}
                direct = ps.eval(phi, env)
                via_seq = ps.r_atom(seq, [env[n] for n in seq.arity])
                assert direct == via_seq, (phi, fu, fv)


def test_fv_reduce_respects_theta_cap():
    rng = random.Random(3)
    phi = rand_power_formula(rng, ["U", "V"], 2)
    while not any(isinstance(phi, t) for t in (Exists, Forall, And, Or, Not)):
        phi = rand_power_formula(rng, ["U", "V"], 2)
    big = Exists("U", Exists("V", And(phi, Not(phi))))
    with pytest.raises(ThetaOverflowError):
        fv_reduce(big, context=(), theta_cap=1)


def test_acceptable_sequence_validation():
    seqs = atomic_sequences()
    good = seqs["subset"]
    with pytest.raises(ValueError):
        AcceptableSequence(good.index_formula, good.support_vars + ("Ys9",),
                           good.thetas, good.arity)
    with pytest.raises(ValueError):
        AcceptableSequence(good.index_formula, good.support_vars,
                           (Eq(Var("Stray"), Var("Stray")),), good.arity)


def test_constant_sequence_shape():
    seq = constant_sequence("zero")
    assert len(seq.support_vars) == len(seq.thetas) == 2
    assert set(free_vars(seq.thetas[0])) <= set(seq.arity)


def test_power_element_component_lookup():
    pe = PowerElement(index=FinSet.of(0, Fraction(1, 2)),
                      components=(FinSet.of(0), FinSet()))
    assert pe.component(0) == FinSet.of(0)
    assert pe.component(Fraction(1, 2)) == FinSet()
    with pytest.raises(ValueError):
        PowerElement(index=FinSet.of(0), components=())


@given(st.lists(points, min_size=0, max_size=4).map(FinSet.from_iterable),
       finsets)
def test_decompose_reassemble_roundtrip(a, b):
    pe = decompose([a], b)
    assert reassemble(pe) == b
    assert pe.index == funky([a])


def test_funky_contains_zero_and_union():
    a = FinSet.of(Fraction(1, 2))
    b = FinSet.of(Fraction(1, 4), Fraction(3, 4))
    hull = funky([a, b])
    assert Fraction(0) in hull
    assert set(a.points) | set(b.points) <= set(hull.points)


def test_support_reports_hits():
    theta = parse("(not (= Xc1 bot))", MO)
    index = FinSet.of(0, Fraction(1, 2))
    pe = PowerElement(index=index, components=(FinSet.of(0), FinSet()))
    hits, stable = support(theta, [pe])
    assert stable
    assert hits == FinSet.of(0)


def _check_parameter_translation(phi_text, param_sets):
    phi = parse(phi_text, MO)
    params = tuple(sorted(free_vars(phi)))
    out = translate_with_parameters(phi, params)
    assert out.stabilized
    for values in param_sets:
        asg = dict(zip(params, values))
        hull = funky(list(asg.values()))
        er = restrict(WsoStructure(), hull)
        index_asg = {name: er.to_msofin(v) for name, v in asg.items()}
        direct = stabilize("w", phi, asg)
        assert direct.stabilized
        got = bruteforce_eval(er.msofin(), out.psi, index_asg)
        assert got == direct.verdict, (phi_text, asg)


def test_translate_with_parameters_small_cases():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    tuples = [
        (FinSet(),),
        (FinSet.of(0),),
        (FinSet.of(half),),
        (FinSet.of(quarter, half),),
    ]
    _check_parameter_translation("(exists X (and (subset X A) (not (= X bot))))",
                                 tuples)
    _check_parameter_translation("(forall X (implies (subset X A) (= X bot)))",
                                 tuples)
    pairs = [
        (FinSet.of(0), FinSet.of(half)),
        (FinSet.of(half), FinSet.of(half)),
        (FinSet(), FinSet.of(quarter)),
        (FinSet.of(quarter, half), FinSet.of(half)),
    ]
    _check_parameter_translation("(ltE A B)", pairs)
    _check_parameter_translation("(not (subset A B))", pairs)
    _check_parameter_translation(
        "(or (= A bot) (exists X (and (subset X A) (= X B))))", pairs)


def test_translate_with_parameters_rejects_stray_vars():
    phi = parse("(subset A B)", MO)
    from mcdlo.models import EvalError
    with pytest.raises(EvalError):
        translate_with_parameters(phi, ("A",))


# -- partition blocks of psi -------------------------------------------------

BOT, TOP = Const("bot"), Const("top")
NESTED = PARAM_CORPUS[-1]


def partitions(f):
    """Every ExistsPartition node of a formula, outermost first."""
    if isinstance(f, ExistsPartition):
        yield f
    if isinstance(f, (And, Or, Implies)):
        yield from partitions(f.left)
        yield from partitions(f.right)
    elif isinstance(f, (Not, Exists, Forall, ExistsPartition)):
        yield from partitions(f.body)


def conjuncts(f):
    if isinstance(f, And):
        return conjuncts(f.left) + conjuncts(f.right)
    return [f]


def dead_guards(f):
    return [c for p in partitions(f) for c in conjuncts(p.body)
            if isinstance(c, SubsetAtom) and isinstance(c.left, Var)
            and c.left.name in p.block_vars and c.right == BOT]


def block_names(f):
    return [z for p in partitions(f) for z in p.block_vars]


def test_nested_block_names_distinct_across_levels():
    seqs = atomic_sequences()
    phi = Exists("X", Exists("Y", And(
        RAtom(seqs["subset"], ("X", "A")),
        And(RAtom(seqs["subset"], ("Y", "X")),
            RAtom(seqs["subset"], ("Y", "B"))))))
    index = fv_reduce(phi, context=("A", "B")).index_formula
    assert len(list(partitions(index))) >= 2
    names = block_names(index)
    assert len(names) == len(set(names))

    out = translate_with_parameters(parse(NESTED, MO), ("A", "B"))
    assert len(list(partitions(out.psi))) >= 2
    names = block_names(out.psi)
    assert len(names) == len(set(names))
    assert free_vars(out.psi) <= {"A", "B"}
    assert len(out.sentences) == 1024
    assert out.blocks_dropped > 0


def test_param_corpus_psi_keeps_live_blocks_only():
    for text in PARAM_CORPUS:
        phi = parse(text, MO)
        out = translate_with_parameters(phi, tuple(sorted(free_vars(phi))))
        assert dead_guards(out.psi) == [], text
        assert out.blocks_kept == len(block_names(out.psi)), text
        assert out.psi_nodes > 0


def _guarded(blocks, guards, inner):
    return ExistsPartition(tuple(blocks), and_all(
        [SubsetAtom(Var(z), g) for z, g in zip(blocks, guards)] + [inner]))


def u(s, t):
    return App("union", (s, t))


def i(s, t):
    return App("inter", (s, t))


A, B = Var("A"), Var("B")
Z1, Z2, Z3 = Var("Z1"), Var("Z2"), Var("Z3")

DROP_CASES = [
    # one dead block, used under union and inter
    (_guarded(["Z1", "Z2", "Z3"], [A, BOT, TOP],
              And(Eq(u(Z1, Z2), A), SubsetAtom(i(Z2, B), Z3))), 1),
    # every block dead
    (_guarded(["Z1", "Z2"], [BOT, BOT], Eq(u(Z1, Z2), A)), 2),
    # live blocks only
    (_guarded(["Z1", "Z2"], [A, B], Eq(u(Z1, Z2), u(A, B))), 0),
    # an outer dead block kills the inner block it bounds
    (_guarded(["Z1", "Z2"], [BOT, TOP],
              _guarded(["Z3", "W"], [Z1, u(Z1, Z2)],
                       And(Eq(u(Z3, Var("W")), A), SubsetAtom(Z3, B)))), 2),
]


@pytest.mark.parametrize("f, dead", DROP_CASES)
def test_drop_dead_blocks_is_exact(f, dead):
    g, kept, dropped = drop_dead_blocks(f)
    assert dropped == dead
    assert kept + dropped == len(block_names(f))
    assert kept == len(block_names(g))
    assert dead_guards(g) == []
    for n in range(4):
        ev = BruteForceEvaluator(n)
        for a in range(1 << n):
            for b in range(1 << n):
                env = {"A": a, "B": b}
                assert ev.formula(g, env) == ev.formula(f, env), (n, a, b)
