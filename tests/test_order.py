import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mcdlo.order import (FinSet, IntervalUnion, check_point,
                         enumerate_interval_unions, format_rat, parse_rat, rat)

points = st.fractions(min_value=0, max_value=Fraction(15, 16),
                      max_denominator=16)
point_lists = st.lists(points, max_size=6)
finsets = point_lists.map(FinSet.from_iterable)


def raw_intervals(draw_points):
    return st.lists(
        st.tuples(draw_points, st.one_of(st.none(), draw_points))
        .filter(lambda iv: iv[1] is None or iv[0] <= iv[1]),
        max_size=4)


interval_unions = raw_intervals(points).map(IntervalUnion.normalize)


@given(points)
def test_rat_roundtrip(p):
    assert parse_rat(format_rat(p)) == p


def test_rat_builders():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(0) == Fraction(0)
    half = Fraction(1, 2)
    assert rat(half) is half


def test_point_range_enforced():
    with pytest.raises(ValueError):
        FinSet.of(1)
    with pytest.raises(ValueError):
        FinSet.of(Fraction(-1, 2))
    with pytest.raises(ValueError):
        IntervalUnion.normalize([(Fraction(1, 2), Fraction(2))])


@given(point_lists, point_lists)
def test_finset_lattice_ops_match_sets(xs, ys):
    a, b = FinSet.from_iterable(xs), FinSet.from_iterable(ys)
    sa, sb = set(a.points), set(b.points)
    assert set(a.union(b).points) == sa | sb
    assert set(a.inter(b).points) == sa & sb
    assert set(a.minus(b).points) == sa - sb
    assert set(a.delta(b).points) == sa ^ sb
    assert a.issubset(b) == (sa <= sb)


@given(finsets, finsets)
def test_sinv_definition(a, b):
    expected = {i for i in a.points
                if a.successor(i) is not None and a.successor(i) in b}
    assert set(a.sinv(b).points) == expected


@given(finsets)
def test_successor_predecessor_inverse(a):
    for p, s in zip(a.points, a.points[1:]):
        assert a.successor(p) == s
    if not a.is_empty():
        assert a.min_set().points[0] == a.points[0]
        assert a.max_set().points[0] == a.points[-1]
        assert a.successor(a.points[-1]) is None
    with pytest.raises(ValueError):
        a.successor(Fraction(31, 32))  # finsets draws no such point


@given(finsets)
def test_finset_json_roundtrip(a):
    assert FinSet.from_json(a.to_json()) == a


@given(interval_unions)
def test_normalize_idempotent(u):
    assert IntervalUnion.normalize(u.intervals) == u


@given(interval_unions)
def test_canonical_shape(u):
    for (l1, r1), (l2, r2) in zip(u.intervals, u.intervals[1:]):
        assert r1 is not None and r1 < l2
    if u.intervals:
        for l, r in u.intervals[:-1]:
            assert r is not None


@given(interval_unions, interval_unions, points)
def test_union_inter_membership(u, v, p):
    assert u.union(v).member(p) == (u.member(p) or v.member(p))
    assert u.inter(v).member(p) == (u.member(p) and v.member(p))


@given(interval_unions, interval_unions)
def test_subset_vs_inter(u, v):
    assert u.subset(v) == (u.inter(v) == u)


@given(interval_unions)
def test_interval_union_json_roundtrip(u):
    assert IntervalUnion.from_json(u.to_json()) == u


@given(point_lists)
def test_of_points_membership(xs):
    u = IntervalUnion.of_points(xs)
    # a finite set: l(u) = r(u), the points themselves
    assert u.left_endpoints() == u.right_endpoints() == FinSet.from_iterable(xs)


@given(interval_unions)
def test_min_max_sets(u):
    if u.is_empty():
        assert u.min_set().is_empty() and u.max_set().is_empty()
        return
    lo = u.min_set().intervals[0][0]
    assert u.member(lo)
    assert all(l >= lo for l, _ in u.intervals)
    if u.is_bounded():
        hi = u.max_set().intervals[0][0]
        assert u.member(hi)
        assert all((r if r is not None else hi) <= hi for _, r in u.intervals)
    else:
        assert u.max_set().is_empty()


def test_enumerate_interval_unions_canonical_and_unique():
    pool = [Fraction(0), Fraction(1, 4), Fraction(1, 2)]
    out = enumerate_interval_unions(pool, include_end=True)
    assert len(out) == len(set(out))
    assert IntervalUnion() in out
    assert any(not u.is_bounded() for u in out)
    pset = set(pool)
    for u in out:
        assert IntervalUnion.normalize(u.intervals) == u
        for l, r in u.intervals:
            assert l in pset and (r is None or r in pset)
    # every canonical interval union with endpoints in the pool is present
    for k in range(1, len(pool) + 1):
        for combo in itertools.combinations(sorted(pool), k):
            u = IntervalUnion.of_points(combo)
            assert u in out


# Every value constructor on unsorted, duplicate, out-of-range and empty
# inputs given as ints, strings, floats and Fractions: the stored points (by
# repr, so their types show) or the exception raised.
CONSTRUCTOR_CASES = [
    (lambda: FinSet(()),
     '()'),
    (lambda: FinSet((0, 3)),
     (ValueError, 'point 3 outside [0, 1)')),
    (lambda: FinSet((Fraction(1, 4), Fraction(3, 4))),
     '(Fraction(1, 4), Fraction(3, 4))'),
    (lambda: FinSet((Fraction(3, 4), Fraction(1, 4))),
     (ValueError, 'points must be strictly increasing without duplicates')),
    (lambda: FinSet((Fraction(1, 4), Fraction(1, 4))),
     (ValueError, 'points must be strictly increasing without duplicates')),
    (lambda: FinSet((0, 0)),
     (ValueError, 'points must be strictly increasing without duplicates')),
    (lambda: FinSet(("1/4", "1/2")),
     (ValueError, 'points must be strictly increasing without duplicates')),
    (lambda: FinSet(("1/2", "1/4")),
     (TypeError, "'<=' not supported between instances of 'int' and 'str'")),
    (lambda: FinSet(("1/4",)),
     (TypeError, "'<=' not supported between instances of 'int' and 'str'")),
    (lambda: FinSet((Fraction(1),)),
     (ValueError, 'point 1 outside [0, 1)')),
    (lambda: FinSet((1,)),
     (ValueError, 'point 1 outside [0, 1)')),
    (lambda: FinSet((Fraction(-1, 2), Fraction(1, 2))),
     (ValueError, 'point -1/2 outside [0, 1)')),
    (lambda: FinSet((0.5,)),
     '(0.5,)'),
    (lambda: FinSet((1.5,)),
     (ValueError, 'point 1.5 outside [0, 1)')),
    (lambda: FinSet.of(Fraction(3, 4), "1/4", 0),
     '(Fraction(0, 1), Fraction(1, 4), Fraction(3, 4))'),
    (lambda: FinSet.of("1/2", "1/2", Fraction(1, 2)),
     '(Fraction(1, 2),)'),
    (lambda: FinSet.of("1"),
     (ValueError, 'point 1 outside [0, 1)')),
    (lambda: FinSet.of(1),
     (ValueError, 'point 1 outside [0, 1)')),
    (lambda: FinSet.of(Fraction(5, 4)),
     (ValueError, 'point 5/4 outside [0, 1)')),
    (lambda: FinSet.of("x"),
     (ValueError, "Invalid literal for Fraction: 'x'")),
    (lambda: FinSet.from_json(["3/4", "0", "1/4"]),
     '(Fraction(0, 1), Fraction(1, 4), Fraction(3, 4))'),
    (lambda: FinSet.from_json(["-1/4"]),
     (ValueError, 'point -1/4 outside [0, 1)')),
    (lambda: IntervalUnion(()),
     '()'),
    (lambda: IntervalUnion(((0, None),)),
     '((Fraction(0, 1), None),)'),
    (lambda: IntervalUnion((("1/4", "1/2"), ("3/4", None))),
     '((Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), None))'),
    (lambda: IntervalUnion(((Fraction(1, 4), Fraction(1, 2)),)),
     '((Fraction(1, 4), Fraction(1, 2)),)'),
    (lambda: IntervalUnion(((Fraction(1, 2), Fraction(1, 4)),)),
     (ValueError, 'interval [1/2, 1/4] is empty')),
    (lambda: IntervalUnion((("1/2", "1/4"),)),
     (ValueError, 'interval [1/2, 1/4] is empty')),
    (lambda: IntervalUnion(((0, 1),)),
     (ValueError, 'point 1 outside [0, 1)')),
    (lambda: IntervalUnion(((1, None),)),
     (ValueError, 'point 1 outside [0, 1)')),
    (lambda: IntervalUnion(((Fraction(-1, 4), Fraction(1, 4)),)),
     (ValueError, 'point -1/4 outside [0, 1)')),
    (lambda: IntervalUnion(((0, None), (Fraction(1, 2), Fraction(3, 4)))),
     (ValueError, 'unbounded interval must be last')),
    (lambda: IntervalUnion(((Fraction(1, 2), Fraction(3, 4)),
                            (0, Fraction(1, 4)))),
     (ValueError, 'intervals must be disjoint, sorted, maximal')),
    (lambda: IntervalUnion(((0, Fraction(1, 2)),
                            (Fraction(1, 2), Fraction(3, 4)))),
     (ValueError, 'intervals must be disjoint, sorted, maximal')),
    (lambda: IntervalUnion((("x", 0),)),
     (ValueError, "Invalid literal for Fraction: 'x'")),
    (lambda: IntervalUnion.normalize([]),
     '()'),
    (lambda: IntervalUnion.normalize([("3/4", None), (0, "1/4"),
                                      (Fraction(1, 8), Fraction(1, 2))]),
     '((Fraction(0, 1), Fraction(1, 2)), (Fraction(3, 4), None))'),
    (lambda: IntervalUnion.normalize([("1/2", "1/2"),
                                      (Fraction(1, 2), Fraction(1, 2))]),
     '((Fraction(1, 2), Fraction(1, 2)),)'),
    (lambda: IntervalUnion.normalize([(Fraction(1, 2), Fraction(1, 4))]),
     (ValueError, 'interval [1/2, 1/4] is empty')),
    (lambda: IntervalUnion.normalize([(3, 2)]),
     (ValueError, 'interval [3, 2] is empty')),
    (lambda: IntervalUnion.normalize([(1, None)]),
     (ValueError, 'point 1 outside [0, 1)')),
    (lambda: IntervalUnion.normalize([("1/2", "1")]),
     (ValueError, 'point 1 outside [0, 1)')),
    (lambda: IntervalUnion.normalize([(0, None), ("1/2", "3/4")]),
     '((Fraction(0, 1), None),)'),
    (lambda: IntervalUnion.of_points(["1/2", 0, Fraction(1, 4), 0]),
     "((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 4), Fraction(1, 4)), "
     "(Fraction(1, 2), Fraction(1, 2)))"),
    (lambda: IntervalUnion.from_json([["1/4", "inf"], ["0", "1/8"]]),
     '((Fraction(0, 1), Fraction(1, 8)), (Fraction(1, 4), None))'),
    (lambda: IntervalUnion.from_json([["1/2", "1/4"]]),
     (ValueError, 'interval [1/2, 1/4] is empty')),
    (lambda: check_point(Fraction(0)),
     'Fraction(0, 1)'),
    (lambda: check_point(Fraction(99, 100)),
     'Fraction(99, 100)'),
    (lambda: check_point(Fraction(1)),
     (ValueError, 'point 1 outside [0, 1)')),
    (lambda: check_point(Fraction(-1, 3)),
     (ValueError, 'point -1/3 outside [0, 1)')),
    (lambda: check_point(0),
     '0'),
    (lambda: check_point(1),
     (ValueError, 'point 1 outside [0, 1)')),
    (lambda: check_point("1/2"),
     (TypeError, "'<=' not supported between instances of 'int' and 'str'")),
]


@pytest.mark.parametrize("make,want", CONSTRUCTOR_CASES)
def test_value_constructors_are_pinned(make, want):
    if isinstance(want, str):
        v = make()
        assert repr(getattr(v, "points", getattr(v, "intervals", v))) == want
        return
    with pytest.raises(want[0]) as got:
        make()
    assert str(got.value) == want[1]


@pytest.mark.parametrize("points", [("1/2", Fraction(1, 4)),
                                    (Fraction(1, 4), "1/2")])
def test_incomparable_points_are_a_type_error(points):
    """Which operand order the message names is not pinned: it followed
    the hash order of a set of the points before."""
    with pytest.raises(TypeError, match="^'<' not supported between"):
        FinSet(points)
