from fractions import Fraction

import pytest

from mcdlo.selftest import POOL3, POOL4, POOL6, subsets_of  # noqa: F401

POOL5 = (Fraction(0), Fraction(1, 5), Fraction(2, 5), Fraction(3, 5),
         Fraction(4, 5))

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


@pytest.fixture(scope="session")
def subs3():
    return subsets_of(POOL3)


@pytest.fixture(scope="session")
def subs4():
    return subsets_of(POOL4)
