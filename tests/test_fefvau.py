import itertools
import random
from fractions import Fraction

import pytest

from mcdlo import fefvau
from mcdlo.fefvau import (AcceptableSequence, PowerStructure,
                          ThetaOverflowError, atomic_sequences, funky,
                          fv_reduce, translate_with_parameters)
from mcdlo.models import MsoFin, WsoStructure, restrict
from mcdlo.order import FinSet
from mcdlo.semantics import bruteforce_eval, stabilize
from mcdlo.syntax import (And, Const, Eq, Exists, ExistsPartition, Forall,
                          Implies, Not, Or, RAtom, SubsetAtom, Var, free_vars,
                          parse, print_formula, SIGNATURES)

from conftest import PARAM_CORPUS, PARAM_CORPUS_3, POOL3, subsets_of

MO = SIGNATURES["mo"]


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


def _power_formulas():
    rng = random.Random(11)
    return [rand_power_formula(rng, ["U", "V"], rng.randint(1, 2))
            for _ in range(15)]


def _assert_same_relation(phi, seq):
    """The folded sequence and the formula agree on every pair of elements
    of a small generalised power."""
    ps = PowerStructure(MsoFin(2), [Fraction(0), Fraction(1, 2)])
    elements = list(ps.elements())
    for fu in elements:
        for fv in elements:
            env = {"U": fu, "V": fv}
            direct = ps.eval(phi, env)
            via_seq = ps.r_atom(seq, [env[n] for n in seq.arity])
            assert direct == via_seq, (phi, fu, fv)


def test_fv_reduce_equivalent_on_enumerable_power():
    """The folded acceptable sequence defines the same relation as the
    original formula on every element of a small generalised power."""
    for phi in _power_formulas():
        _assert_same_relation(phi, fv_reduce(phi, context=("U", "V")))


def _exact(eta, _within):
    """A pruning callback: whether eta holds in MSO(2) for some value of its
    free variables."""
    closed = eta
    for name in sorted(free_vars(eta)):
        closed = Exists(name, closed)
    return bruteforce_eval(MsoFin(2), closed, {})


def test_fv_reduce_pruning_is_exact_on_enumerable_power():
    """Cutting the sign patterns whose existential closure is false in
    MSO(2) leaves the relation of the folded sequence unchanged."""
    ctx = ("U", "V")
    cut = 0
    for phi in _power_formulas():
        seq = fv_reduce(phi, context=ctx, realizable=_exact)
        every = fv_reduce(phi, context=ctx)
        cut += (len(block_names(every.index_formula))
                - len(block_names(seq.index_formula)))
        _assert_same_relation(phi, seq)
    assert cut > 0


@pytest.mark.parametrize("realizable", [None, _exact])
def test_fv_reduce_names_each_component_formula_once(realizable):
    """One support variable per component formula, and one component
    formula per support variable."""
    for phi in _power_formulas():
        seq = fv_reduce(phi, context=("U", "V"), realizable=realizable)
        assert len(set(seq.support_vars)) == len(seq.support_vars), phi
        assert len(set(seq.thetas)) == len(seq.thetas), phi


@pytest.mark.parametrize("realizable", [None, _exact])
def test_shared_existential_subformula_keeps_its_meaning(realizable):
    """The same existential subformula in both arms of an `and` and again
    inside another existential, where V is bound and whose body repeats one
    of its thetas with U free: one name per formula serves every place,
    since each existential step substitutes names only inside its body."""
    seqs = atomic_sequences()
    shared = Exists("U", And(RAtom(seqs["subset"], ("V", "U")),
                             Not(RAtom(seqs["="], ("U", "V")))))
    phi = And(shared, Or(Not(shared), Exists("V", And(
        shared, RAtom(seqs["="], ("U", "V"))))))
    _assert_same_relation(phi, fv_reduce(phi, context=("U", "V"),
                                         realizable=realizable))


def test_fv_reduce_respects_theta_cap(monkeypatch):
    rng = random.Random(3)
    phi = rand_power_formula(rng, ["U", "V"], 2)
    while not any(isinstance(phi, t) for t in (Exists, Forall, And, Or, Not)):
        phi = rand_power_formula(rng, ["U", "V"], 2)
    big = Exists("U", Exists("V", And(phi, Not(phi))))
    monkeypatch.setattr(fefvau, "DEFAULT_THETA_CAP", 1)
    with pytest.raises(ThetaOverflowError):
        fv_reduce(big, context=())


def test_acceptable_sequence_validation():
    seqs = atomic_sequences()
    good = seqs["subset"]
    with pytest.raises(ValueError):
        AcceptableSequence(good.index_formula, good.support_vars + ("Ys9",),
                           good.thetas, good.arity)
    with pytest.raises(ValueError):
        AcceptableSequence(good.index_formula, good.support_vars,
                           (Eq(Var("Stray"), Var("Stray")),), good.arity)


def test_funky_contains_zero_and_union():
    a = FinSet.of(Fraction(1, 2))
    b = FinSet.of(Fraction(1, 4), Fraction(3, 4))
    hull = funky([a, b])
    assert Fraction(0) in hull
    assert set(a.points) | set(b.points) <= set(hull.points)


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

BOT = Const("bot")
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
    assert len(out.sentences) < 1024
    assert out.blocks_kept == 15


def test_three_parameter_psi_agrees_with_stabilize():
    """Nested three-parameter formulas reduce under the default theta cap,
    and psi agrees with direct stabilization on every POOL3 triple."""
    subs = subsets_of(POOL3)
    for text in PARAM_CORPUS_3:
        phi = parse(text, MO)
        params = tuple(sorted(free_vars(phi)))
        out = translate_with_parameters(phi, params)
        assert out.stabilized
        assert dead_guards(out.psi) == []
        for values in itertools.product(subs, repeat=len(params)):
            asg = dict(zip(params, values))
            er = restrict(WsoStructure(), funky(values))
            index_asg = {name: er.to_msofin(v) for name, v in asg.items()}
            direct = stabilize("w", phi, asg)
            assert direct.stabilized
            got = bruteforce_eval(er.msofin(), out.psi, index_asg)
            assert got == direct.verdict, (text, asg)


def test_param_corpus_psi_keeps_live_blocks_only():
    for text in PARAM_CORPUS:
        phi = parse(text, MO)
        out = translate_with_parameters(phi, tuple(sorted(free_vars(phi))))
        assert dead_guards(out.psi) == [], text
        assert out.blocks_kept == len(block_names(out.psi)), text
        assert out.psi_nodes > 0


NESTED_PSI = (
    "(exists-partition (Zp27 Zp28 Zp29 Zp30 Zp31 Zp32 Zp33) (and (and (and "
    "(and (and (and (and (subset Zp27 (inter (inter top A) (compl B))) "
    "(subset Zp28 (union (inter (inter top (compl A)) B) (inter (inter top A) "
    "B)))) (subset Zp29 (union (union (inter (inter top (compl A)) (compl B)) "
    "(inter (inter top A) (compl B))) (inter (inter top A) B)))) (subset Zp30 "
    "(union (inter (inter top (compl A)) B) (inter (inter top A) B)))) "
    "(subset Zp31 (union (union (union (inter (inter top (compl A)) (compl B)) "
    "(inter (inter top A) (compl B))) (inter (inter top (compl A)) B)) (inter "
    "(inter top A) B)))) (subset Zp32 (union (union (union (inter (inter top "
    "(compl A)) (compl B)) (inter (inter top A) (compl B))) (inter (inter top "
    "(compl A)) B)) (inter (inter top A) B)))) (subset Zp33 (inter (inter top "
    "(compl A)) B))) (exists-partition (Zp12 Zp13 Zp14 Zp15 Zp16 Zp17 Zp18 "
    "Zp19) (and (and (and (and (and (and (and (and (and (and (subset Zp12 "
    "(union (union Zp27 Zp28) Zp29)) (subset Zp13 Zp27)) (subset Zp14 Zp28)) "
    "(subset Zp15 (union (union Zp27 Zp28) Zp29))) (subset Zp16 (union (union "
    "(union Zp30 Zp31) Zp32) Zp33))) (subset Zp17 (union (union Zp30 Zp31) "
    "Zp32))) (subset Zp18 Zp30)) (subset Zp19 (union (union Zp30 Zp31) "
    "Zp33))) (= (union (union (union Zp12 Zp13) Zp14) Zp15) top)) (= (union "
    "(union (union Zp12 Zp13) Zp16) Zp17) top)) (= (union (union (union Zp12 "
    "Zp14) Zp16) Zp18) top)))))")


def test_nested_psi_text_is_pinned():
    """The layout of psi: each partition body is its blocks' guards, then the
    conjuncts of its substituted index formula, joined to the left."""
    out = translate_with_parameters(parse(NESTED, MO), ("A", "B"))
    assert print_formula(out.psi) == NESTED_PSI
    assert (out.blocks_kept, out.psi_nodes) == (15, 216)


def rand_mo(rng, names, depth, quantifiers=2):
    """A random MO formula over `names`, `depth` connectives and quantifiers
    deep at most, of which at most `quantifiers` are quantifiers."""
    c = rng.random()
    if depth == 0 or c < 0.2:
        left, right = rng.choice(names + ["bot"]), rng.choice(names)
        return f"({rng.choice(['subset', '=', 'ltE'])} {left} {right})"
    if quantifiers and c < 0.6:
        var = f"X{quantifiers}"
        body = rand_mo(rng, names + [var], depth - 1, quantifiers - 1)
        return f"({rng.choice(['exists', 'forall'])} {var} {body})"
    if c < 0.7:
        return f"(not {rand_mo(rng, names, depth - 1, quantifiers)})"
    return (f"({rng.choice(['and', 'or', 'implies'])} "
            f"{rand_mo(rng, names, depth - 1, quantifiers)} "
            f"{rand_mo(rng, names, depth - 1, quantifiers)})")


def test_random_psi_blocks_are_live():
    """fv_reduce builds a block only for a pattern the oracle realizes, so
    no block of psi is guarded by bot, and blocks_kept counts them all."""
    rng = random.Random(12)
    for _ in range(40):
        params = ["A", "B"][:rng.randint(1, 2)]
        text = rand_mo(rng, params, 4)
        out = translate_with_parameters(parse(text, MO), tuple(params))
        assert dead_guards(out.psi) == [], text
        assert out.blocks_kept == len(block_names(out.psi)), text
