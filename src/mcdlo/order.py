"""Exact arithmetic for the order I = [0,1) over Q: finite point sets and
canonical finite unions of closed intervals.

Points are `fractions.Fraction` values in [0, 1).  An unbounded interval
[i, +inf) inside I (i.e. all k >= i) is represented with right endpoint
``None`` and serialised as the string "inf".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence


Rat = Fraction


def rat(value, denominator=None) -> Rat:
    """Build an exact rational, accepting ints, strings like "3/4", or pairs."""
    if denominator is not None:
        return Fraction(value, denominator)
    return value if type(value) is Fraction else Fraction(value)


def check_point(p: Rat) -> Rat:
    # a Fraction's denominator is positive: compare ints, not Fractions
    if (0 <= p.numerator < p.denominator if type(p) is Fraction
            else 0 <= p < 1):
        return p
    raise ValueError(f"point {p} outside [0, 1)")


def format_rat(p: Rat) -> str:
    return f"{p.numerator}/{p.denominator}"


def parse_rat(text: str) -> Rat:
    return Fraction(text)


ZERO = Fraction(0)


@dataclass(frozen=True, order=True)
class FinSet:
    """A finite subset of I, stored as a strictly increasing point tuple."""

    points: tuple[Rat, ...] = ()

    def __post_init__(self):
        pts = tuple(self.points)
        if not all(a < b for a, b in zip(pts, pts[1:])):
            raise ValueError("points must be strictly increasing without duplicates")
        for p in pts:
            check_point(p)
        object.__setattr__(self, "points", pts)

    @classmethod
    def of(cls, *points) -> "FinSet":
        return cls.from_iterable(points)

    @classmethod
    def from_iterable(cls, points: Iterable) -> "FinSet":
        return cls(tuple(sorted({rat(p) for p in points})))

    def __iter__(self) -> Iterator[Rat]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        return Fraction(p) in set(self.points)

    def is_empty(self) -> bool:
        return not self.points

    def union(self, other: "FinSet") -> "FinSet":
        return FinSet.from_iterable(self.points + other.points)

    def inter(self, other: "FinSet") -> "FinSet":
        mine, theirs = set(self.points), set(other.points)
        return FinSet.from_iterable(mine & theirs)

    def minus(self, other: "FinSet") -> "FinSet":
        return FinSet.from_iterable(set(self.points) - set(other.points))

    def delta(self, other: "FinSet") -> "FinSet":
        return FinSet.from_iterable(set(self.points) ^ set(other.points))

    def issubset(self, other: "FinSet") -> bool:
        return set(self.points) <= set(other.points)

    def min_set(self) -> "FinSet":
        """Singleton of the least point; empty set maps to itself."""
        return FinSet() if not self.points else FinSet((self.points[0],))

    def max_set(self) -> "FinSet":
        return FinSet() if not self.points else FinSet((self.points[-1],))

    def successor(self, i: Rat) -> Optional[Rat]:
        """Least member strictly above i; None at the maximum."""
        i = Fraction(i)
        if i not in set(self.points):
            raise ValueError(f"{i} is not a member of {self}")
        idx = self.points.index(i) + 1
        return self.points[idx] if idx < len(self.points) else None

    def sinv(self, other: "FinSet") -> "FinSet":
        """Members of self whose successor within self lies in other."""
        result = []
        members = set(other.points)
        for a, b in zip(self.points, self.points[1:]):
            if b in members:
                result.append(a)
        return FinSet(tuple(result))

    def to_json(self) -> list[str]:
        return [format_rat(p) for p in self.points]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "FinSet":
        return cls.from_iterable(parse_rat(s) for s in data)

    def __repr__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.points) + "}"


Interval = tuple[Rat, Optional[Rat]]


@dataclass(frozen=True, order=True)
class IntervalUnion:
    """Canonical finite union of closed intervals of I.

    Intervals are maximal, pairwise disjoint, sorted by left endpoint.  A
    right endpoint of None marks the (at most one, final) unbounded interval
    [left, +inf) within I.
    """

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        ivs = tuple((rat(l), None if r is None else rat(r))
                    for l, r in self.intervals)
        prev_right = None
        for idx, (l, r) in enumerate(ivs):
            check_point(l)
            if r is not None:
                check_point(r)
                if l > r:
                    raise ValueError(f"interval [{l}, {r}] is empty")
            else:
                if idx != len(ivs) - 1:
                    raise ValueError("unbounded interval must be last")
            if idx > 0:
                if prev_right is None or l <= prev_right:
                    raise ValueError("intervals must be disjoint, sorted, maximal")
            prev_right = r
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def normalize(cls, raw: Iterable) -> "IntervalUnion":
        """Canonicalise a raw interval list: sort, merge overlaps and shared
        endpoints, collapse anything swallowed by an unbounded interval."""
        cleaned: list[Interval] = []
        for l, r in raw:
            l = rat(l)
            r = None if r is None else rat(r)
            if r is not None and l > r:
                raise ValueError(f"interval [{l}, {r}] is empty")
            cleaned.append((l, r))
        cleaned.sort(key=lambda iv: (iv[0], iv[1] is not None, iv[1] or ZERO))
        merged: list[list] = []
        for l, r in cleaned:
            if merged:
                pl, pr = merged[-1]
                if pr is None or l <= pr:
                    # overlapping or touching at a shared point: merge
                    if pr is not None and (r is None or r > pr):
                        merged[-1][1] = r
                    continue
            merged.append([l, r])
        return cls(tuple((l, r) for l, r in merged))

    @classmethod
    def of_points(cls, points: Iterable) -> "IntervalUnion":
        return cls.normalize([(p, p) for p in points])

    @classmethod
    def from_finset(cls, a: FinSet) -> "IntervalUnion":
        return cls.of_points(a.points)

    def is_empty(self) -> bool:
        return not self.intervals

    def is_bounded(self) -> bool:
        return not self.intervals or self.intervals[-1][1] is not None

    def member(self, p) -> bool:
        p = Fraction(p)
        for l, r in self.intervals:
            if l <= p and (r is None or p <= r):
                return True
        return False

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion.normalize(self.intervals + other.intervals)

    def inter(self, other: "IntervalUnion") -> "IntervalUnion":
        pieces = []
        for l1, r1 in self.intervals:
            for l2, r2 in other.intervals:
                lo = max(l1, l2)
                if r1 is None:
                    hi = r2
                elif r2 is None:
                    hi = r1
                else:
                    hi = min(r1, r2)
                if hi is None or lo <= hi:
                    pieces.append((lo, hi))
        return IntervalUnion.normalize(pieces)

    def subset(self, other: "IntervalUnion") -> bool:
        return self.inter(other) == self

    def min_set(self) -> "IntervalUnion":
        if not self.intervals:
            return IntervalUnion()
        l = self.intervals[0][0]
        return IntervalUnion(((l, l),))

    def max_set(self) -> "IntervalUnion":
        """Singleton of the greatest point; empty for bot and unbounded input."""
        if not self.intervals or self.intervals[-1][1] is None:
            return IntervalUnion()
        r = self.intervals[-1][1]
        return IntervalUnion(((r, r),))

    def left_endpoints(self) -> FinSet:
        return FinSet.from_iterable(l for l, _ in self.intervals)

    def right_endpoints(self) -> FinSet:
        return FinSet.from_iterable(r for _, r in self.intervals if r is not None)

    def is_finite_set(self) -> bool:
        """True when every interval is degenerate (the l(X) = r(X) predicate)."""
        return self.left_endpoints() == self.right_endpoints()

    def to_finset(self) -> FinSet:
        if not self.is_finite_set():
            raise ValueError(f"{self} is not a finite point set")
        return self.left_endpoints()

    def to_json(self) -> list[list[str]]:
        return [[format_rat(l), "inf" if r is None else format_rat(r)]
                for l, r in self.intervals]

    @classmethod
    def from_json(cls, data) -> "IntervalUnion":
        return cls.normalize(
            [(parse_rat(l), None if r == "inf" else parse_rat(r)) for l, r in data])

    def __repr__(self) -> str:
        if not self.intervals:
            return "IU()"
        parts = [f"[{l}, {'inf' if r is None else r}]" for l, r in self.intervals]
        return "IU(" + " u ".join(parts) + ")"


def enumerate_interval_unions(points: Sequence[Rat],
                              include_end: bool = True) -> list[IntervalUnion]:
    """All canonical interval unions whose endpoints lie in the given points,
    optionally including unbounded variants anchored at those points."""
    pts = sorted(Fraction(p) for p in points)
    n = len(pts)
    results: list[IntervalUnion] = []

    def build(start: int, acc: list[Interval]):
        results.append(IntervalUnion(tuple(acc)))
        for i in range(start, n):
            for j in range(i, n):
                acc.append((pts[i], pts[j]))
                build(j + 1, acc)
                acc.pop()
            if include_end:
                results.append(IntervalUnion(tuple(acc) + ((pts[i], None),)))

    build(0, [])
    return results
