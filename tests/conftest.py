import signal
from fractions import Fraction

import pytest

from mcdlo.selftest import POOL3, POOL4, subsets_of  # noqa: F401

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

# MO formulas with three parameters: a list of their own, since criterion 7
# counts its cases over PARAM_CORPUS and its pool holds pairs at most
PARAM_CORPUS_3 = [
    "(exists X (exists Y (and (subset X A) (and (subset Y X) "
    "(and (subset Y B) (ltE Y C))))))",
]


@pytest.fixture(scope="session")
def subs3():
    return subsets_of(POOL3)


@pytest.fixture(scope="session")
def subs4():
    return subsets_of(POOL4)


# The three-atoms sentence of ROADMAP item 4 over parameters A and B, in
# prenex and in miniscoped form: three distinct atoms strictly between 0 and
# the point of A.
def _atom(x):
    return (f"(and (= (min {x}) {x}) (and (not (= {x} bot)) "
            f"(and (not (= {x} zero)) (and (= (max (union {x} A)) A) "
            f"(not (= {x} A))))))")


THREE_ATOMS_PRENEX = (
    f"(exists X (exists Y (exists Z (and {_atom('X')} (and {_atom('Y')} "
    f"(and {_atom('Z')} (and (not (= X Y)) (and (not (= X Z)) "
    f"(not (= Y Z))))))))))")
THREE_ATOMS_MINISCOPED = (
    f"(exists X (and {_atom('X')} (exists Y (and {_atom('Y')} "
    f"(and (not (= X Y)) (exists Z (and {_atom('Z')} "
    f"(and (not (= X Z)) (not (= Y Z))))))))))")


class TimeLimitExceeded(Exception):
    pass


@pytest.fixture
def time_limit():
    """Arm with a number of seconds: past it the test fails with
    TimeLimitExceeded instead of hanging (SIGALRM)."""
    def on_alarm(signum, frame):
        raise TimeLimitExceeded("test ran into its time limit")

    old = signal.signal(signal.SIGALRM, on_alarm)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)
