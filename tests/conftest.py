import itertools
from fractions import Fraction

import pytest

from mcdlo.order import FinSet

POOL3 = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
POOL4 = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
POOL5 = (Fraction(0), Fraction(1, 5), Fraction(2, 5), Fraction(3, 5),
         Fraction(4, 5))
POOL6 = (Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(1, 2),
         Fraction(2, 3), Fraction(5, 6))

# MO formulas with one or two parameters for the parameter pipeline
PARAM_CORPUS = [
    "(subset A B)",
    "(= A B)",
    "(ltE A B)",
    "(not (ltE A A))",
    "(exists X (and (subset X A) (not (= X bot))))",
    "(exists X (and (subset A X) (subset X B)))",
    "(forall X (implies (subset X A) (subset X B)))",
    "(forall X (implies (subset X A) (= X bot)))",
    "(exists X (and (subset X A) (ltE X B)))",
    "(exists X (ltE A X))",
    "(forall X (implies (ltE X A) (not (= X bot))))",
    "(and (subset A B) (not (= A B)))",
    "(or (= A bot) (exists X (and (subset X A) (not (= X A)))))",
    "(implies (ltE A B) (not (= B bot)))",
    "(exists X (forall Y (implies (subset Y X) (subset Y A))))",
    "(forall X (exists Y (and (subset Y X) (subset Y A))))",
    "(exists X (and (not (= X bot)) (and (subset X A) (subset X B))))",
    "(forall X (implies (and (subset X A) (subset X B)) (= X bot)))",
    "(not (exists X (and (ltE A X) (subset X B))))",
    "(exists X (exists Y (and (subset X A) (and (subset Y X) (subset Y B)))))",
]


def subsets_of(pool):
    return [FinSet.from_iterable(c) for r in range(len(pool) + 1)
            for c in itertools.combinations(pool, r)]


@pytest.fixture(scope="session")
def subs3():
    return subsets_of(POOL3)


@pytest.fixture(scope="session")
def subs4():
    return subsets_of(POOL4)
