from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mcdlo.models import (ElementRestriction, EvalError, LciStructure,
                          MsoFin, WsoStructure, eval_atomic, eval_term,
                          restrict)
from mcdlo.order import FinSet, IntervalUnion
from mcdlo.syntax import App, Const, Eq, LtEAtom, SubsetAtom, Var

from conftest import POOL4, subsets_of

points = st.fractions(min_value=0, max_value=Fraction(15, 16),
                      max_denominator=16)
finsets = st.lists(points, max_size=5).map(FinSet.from_iterable)


def test_msofin_constants_and_ops():
    m = MsoFin(4)
    assert m.constant("bot") == frozenset()
    assert m.constant("zero") == {0}
    assert m.constant("zerostar") == {3}
    assert m.apply("sinv", frozenset({1, 3})) == {0, 2}
    assert m.apply("sinv", frozenset({0})) == frozenset()
    assert m.rel_ltE(frozenset({1}), frozenset({0, 2}))
    assert not m.rel_ltE(frozenset({2}), frozenset({0, 2}))
    assert not m.rel_ltE(frozenset(), frozenset({1}))


def test_msofin_zero_constants_degenerate():
    m = MsoFin(0)
    assert m.constant("zero") == frozenset()
    assert m.constant("zerostar") == frozenset()


@given(finsets, finsets)
def test_wso_ltE_matches_order(a, b):
    w = WsoStructure()
    expected = any(i < j for i in a.points for j in b.points)
    assert w.rel_ltE(a, b) == expected


def test_wso_term_evaluation():
    w = WsoStructure()
    t = App("msinv", (App("union", (Var("A"), Const("zero"))), Var("A")))
    a = FinSet.of(Fraction(1, 2), Fraction(3, 4))
    got = eval_term(w, t, {"A": a})
    assert got == FinSet.of(0, Fraction(1, 2))


def test_lci_endpoint_functions():
    l = LciStructure()
    u = IntervalUnion(((Fraction(0), Fraction(1, 4)),
                       (Fraction(1, 2), None)))
    assert l.apply("l", u) == IntervalUnion.of_points([0, Fraction(1, 2)])
    assert l.apply("r", u) == IntervalUnion.of_points([Fraction(1, 4)])
    assert l.apply("min", u) == IntervalUnion.of_points([0])
    assert l.apply("max", u) == IntervalUnion()  # unbounded has no maximum
    bounded = IntervalUnion(((Fraction(0), Fraction(1, 4)),))
    assert l.apply("max", bounded) == IntervalUnion.of_points([Fraction(1, 4)])


def test_lci_ltE_unbounded():
    l = LciStructure()
    u = IntervalUnion(((Fraction(1, 2), None),))
    v = IntervalUnion.of_points([Fraction(1, 2)])
    assert l.rel_ltE(v, u)
    assert not l.rel_ltE(u, v)


def test_eval_atomic_dispatch():
    w = WsoStructure()
    a = FinSet.of(0)
    b = FinSet.of(0, Fraction(1, 2))
    assert eval_atomic(w, SubsetAtom(Var("X"), Var("Y")), {"X": a, "Y": b})
    assert eval_atomic(w, LtEAtom(Var("X"), Var("Y")), {"X": a, "Y": b})
    assert not eval_atomic(w, Eq(Var("X"), Var("Y")), {"X": a, "Y": b})


def test_assignment_overrides_constant():
    w = WsoStructure()
    v = FinSet.of(Fraction(1, 2))
    assert eval_term(w, Const("zero"), {"zero": v}) == v
    assert eval_term(w, Const("zero"), {}) == FinSet.of(0)


def test_unbound_variable_raises():
    with pytest.raises(EvalError):
        eval_term(WsoStructure(), Var("X"), {})


def test_element_restriction_isomorphism():
    region = FinSet.from_iterable(POOL4)
    er = restrict(WsoStructure(), region)
    assert isinstance(er, ElementRestriction)
    m = er.msofin()
    assert m.n == 4
    # one subset of MSO(4) for each of the 16 subsets of the region
    assert {er.to_msofin(a) for a in subsets_of(POOL4)} == set(m.universe())
    # order isomorphism: the successor-preimage commutes with the encoding
    w = WsoStructure()
    for a in subsets_of(POOL4):
        for b in subsets_of(POOL4):
            ea, eb = er.to_msofin(a), er.to_msofin(b)
            sa = sorted(ea)
            expected = frozenset(i for i, j in zip(sa, sa[1:]) if j in eb)
            assert er.to_msofin(w.apply("msinv", a, b)) == expected


def test_element_restriction_rejects_outside_points():
    er = ElementRestriction(FinSet.of(0, Fraction(1, 2)))
    with pytest.raises(EvalError):
        er.to_msofin(FinSet.of(Fraction(1, 4)))


def test_restrict_takes_a_finite_set_only():
    with pytest.raises(TypeError):
        restrict(WsoStructure(), (Fraction(1, 4), Fraction(3, 4)))
