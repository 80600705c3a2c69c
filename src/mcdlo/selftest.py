"""Fast self-check suites behind the `mcdlo selftest` command.

Each suite exercises one of the package's documented invariants at desk
scale: small fixed pools, exhaustive where cheap, seeded random sampling
where not.  The suites are deliberately independent of the pytest tree so a
deployed installation can be checked without the development dependencies.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .models import (LciStructure, MsoFin, WsoStructure, eval_atomic,
                     eval_qf, eval_term)
from .order import FinSet, enumerate_interval_unions
from .rewriting import CodePair, code_domain, defeq_translate, qf_positive_rewrite
from .semantics import (GridLEvaluator, bruteforce_eval, grid_eval,
                        stabilize)
from .syntax import (And, App, Const, Eq, LtEAtom, Not, Or, SIGNATURES,
                     SubsetAtom, Var, is_positive_existential, parse,
                     print_formula)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {"name": self.name, "cases": self.cases,
                "failures": self.failures, "ok": self.ok}


POOL3 = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
POOL4 = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
POOL6 = (Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(1, 2),
         Fraction(2, 3), Fraction(5, 6))


def subsets_of(pool) -> list[FinSet]:
    return [FinSet.from_iterable(c) for r in range(len(pool) + 1)
            for c in itertools.combinations(pool, r)]


def suite_nonempty_characterisation() -> SuiteResult:
    """A != bot iff A = {0} or {0} is contained in sinv(A u {0}, A)."""
    zero = FinSet.of(0)
    failures = 0
    sets = subsets_of(POOL6)
    for a in sets:
        lhs = not a.is_empty()
        rhs = a == zero or zero.issubset(a.union(zero).sinv(a))
        if lhs != rhs:
            failures += 1
    return SuiteResult("nonempty-characterisation", len(sets), failures)


def suite_endpoint_code_domain() -> SuiteResult:
    """code_domain agrees with a brute-force search for an interval union
    realizing the candidate endpoint pair."""
    realizable = {(u.left_endpoints(), u.right_endpoints())
                  for u in enumerate_interval_unions(POOL4, include_end=True)
                  if not u.is_empty()}
    failures = cases = 0
    for b in subsets_of(POOL4):
        for c in subsets_of(POOL4):
            cases += 1
            if code_domain(b, c) != ((b, c) in realizable):
                failures += 1
    return SuiteResult("endpoint-code-domain", cases, failures)


def suite_code_roundtrip() -> SuiteResult:
    """Interval union -> endpoint code -> interval union is the identity."""
    corpus = enumerate_interval_unions(POOL3, include_end=True)
    failures = 0
    for u in corpus:
        pair = CodePair.of(u)
        if pair.to_interval_union() != u:
            failures += 1
    return SuiteResult("code-roundtrip", len(corpus), failures)


def _random_wso_qf(rng: random.Random):
    ops2 = ["union", "inter", "setminus", "delta"]

    def term(d):
        if d == 0:
            return rng.choice([Var("X"), Var("Y"), Const("bot"), Const("zero")])
        if rng.random() < 0.6:
            return App(rng.choice(ops2), (term(d - 1), term(d - 1)))
        if rng.random() < 0.5:
            return App(rng.choice(["min", "max"]), (term(d - 1),))
        return App("msinv", (term(d - 1), term(d - 1)))

    def formula(d):
        if d == 0:
            return Eq(term(rng.randint(0, 2)), term(rng.randint(0, 2)))
        c = rng.random()
        if c < 0.35:
            return Not(formula(d - 1))
        if c < 0.7:
            return And(formula(d - 1), formula(d - 1))
        return Or(formula(d - 1), formula(d - 1))

    return formula(rng.randint(1, 2))


def suite_positive_rewrite() -> SuiteResult:
    """qf_positive_rewrite output is positive existential and agrees with the
    input on every assignment from a small pool."""
    rng = random.Random(7)
    w = WsoStructure()
    pool = (Fraction(0), Fraction(1, 2))
    sets = subsets_of(pool)
    failures = cases = 0
    for _ in range(8):
        f = _random_wso_qf(rng)
        out = qf_positive_rewrite(f)
        syntactic = is_positive_existential(out)
        for x in sets:
            for y in sets:
                cases += 1
                asg = {"X": x, "Y": y}
                want = eval_qf(w, f, asg)
                rep = stabilize("w", out, asg, kmax=3)
                if not syntactic or rep.verdict != want or not rep.stabilized:
                    failures += 1
    return SuiteResult("positive-rewrite", cases, failures)


def suite_order_definitions() -> SuiteResult:
    """The defined order relations agree with the primitive ones."""
    failures = cases = 0
    f = parse("(ltE X Y)", SIGNATURES["mo"])
    w = WsoStructure()
    tr = defeq_translate(f, "mo", "wso")
    for x in subsets_of(POOL4):
        for y in subsets_of(POOL4):
            cases += 1
            if eval_qf(w, tr, {"X": x, "Y": y}) != w.rel_ltE(x, y):
                failures += 1
    m = MsoFin(3)
    tr = defeq_translate(f, "mo", "msofin")
    for x in m.universe():
        for y in m.universe():
            cases += 1
            want = m.rel_ltE(x, y)
            if bruteforce_eval(m, tr, {"X": x, "Y": y}) != want:
                failures += 1
    return SuiteResult("order-definitions", cases, failures)


def suite_parse_print_roundtrip() -> SuiteResult:
    samples = [
        ("wso", "(exists X (not (= X bot)))"),
        ("wso", "(= (msinv (union A zero) A) B)"),
        ("wso", "(forall X (implies (= (min X) X) (= X X)))"),
        ("lci", "(= (l A) (r A))"),
        ("lci", "(exists D (and (= (r D) C) (= (max D) bot)))"),
        ("mo", "(forall X (implies (subset X Y) (ltE X Y)))"),
        ("msofin", "(= (sinv (union X zero)) zerostar)"),
    ]
    failures = 0
    for sig, text in samples:
        f = parse(text, SIGNATURES[sig])
        if print_formula(f) != text or parse(print_formula(f), SIGNATURES[sig]) != f:
            failures += 1
    return SuiteResult("parse-print-roundtrip", len(samples), failures)


def suite_membership_formula() -> SuiteResult:
    """The coded-membership formula matches interval-union membership."""
    from .rewriting import phi_mem
    f = phi_mem(Var("Xl"), Var("Xr"), Var("Z"))
    failures = cases = 0
    for u in enumerate_interval_unions(POOL3, include_end=True):
        if u.is_empty():
            continue
        pair = CodePair.of(u)
        for p in POOL3 + (Fraction(5, 6),):
            cases += 1
            asg = {"Xl": pair.left, "Xr": pair.right, "Z": FinSet.of(p)}
            rep = stabilize("w", f, asg, kmax=3)
            if rep.verdict != u.member(p) or not rep.stabilized:
                failures += 1
    return SuiteResult("membership-formula", cases, failures)


def suite_lci_mask_kernel() -> SuiteResult:
    """The grid evaluator's L(I) cell-mask operations and atoms agree with
    the interval-union structure on every pair of unions over POOL3."""
    ev = GridLEvaluator(FinSet.from_iterable(POOL3))
    lci = LciStructure()
    x, y = Var("X"), Var("Y")
    terms = [App(op, (x, y)) for op in ("union", "inter")]
    terms += [App(op, (x,)) for op in ("min", "max", "l", "r")]
    atoms = [atom(a, b) for atom in (Eq, SubsetAtom, LtEAtom)
             for a, b in ((x, y), (y, x))]
    corpus = enumerate_interval_unions(POOL3, include_end=True)
    failures = cases = 0
    for u in corpus:
        for v in corpus:
            cases += 1
            asg = {"X": u, "Y": v}
            env = {"X": ev.encode(u), "Y": ev.encode(v)}
            if (any(ev.term(t, env) != ev.encode(eval_term(lci, t, asg))
                    for t in terms)
                    or any(ev.formula(a, env) != eval_atomic(lci, a, asg)
                           for a in atoms)):
                failures += 1
    return SuiteResult("lci-mask-kernel", cases, failures)


# (block form, hand-nested form) over the parameters A and B
QUANTIFIER_BLOCKS = [
    ("(exists X (exists Y (and (= (min X) X) (and (= (inter X A) X) "
     "(and (= (min Y) Y) (and (= (inter Y B) Y) (not (= X Y))))))))",
     "(exists X (and (= (min X) X) (and (= (inter X A) X) (exists Y "
     "(and (= (min Y) Y) (and (= (inter Y B) Y) (not (= X Y))))))))"),
    ("(exists X (exists Y (exists Z (and (= (inter X A) X) (and "
     "(= (inter Z B) Z) (and (= (inter Y (union X Z)) Y) (and "
     "(not (= Z bot)) (not (= Y Z)))))))))",
     "(exists X (and (= (inter X A) X) (exists Y (exists Z (and "
     "(= (inter Z B) Z) (and (= (inter Y (union X Z)) Y) (and "
     "(not (= Z bot)) (not (= Y Z)))))))))"),
    ("(forall X (forall Y (implies (and (= (inter X A) X) (and "
     "(= (inter Y B) Y) (not (= A bot)))) (= (max (union X Y)) "
     "(max (union A B))))))",
     "(implies (not (= A bot)) (forall X (implies (= (inter X A) X) "
     "(forall Y (implies (= (inter Y B) Y) (= (max (union X Y)) "
     "(max (union A B))))))))"),
    ("(forall X (forall Y (= (inter A B) A)))", "(= (inter A B) A)"),
]


def suite_quantifier_blocks() -> SuiteResult:
    """A prenex quantifier block and its hand-nested form get the same grid
    verdicts at budgets 1 and 2."""
    sets = subsets_of(POOL3)
    failures = cases = 0
    for block, nested in QUANTIFIER_BLOCKS:
        f, g = (parse(text, SIGNATURES["wso"]) for text in (block, nested))
        for a in sets:
            for b in sets:
                cases += 1
                asg = {"A": a, "B": b}
                if grid_eval("w", f, asg, k=1) != grid_eval("w", g, asg, k=1):
                    failures += 1
    return SuiteResult("quantifier-blocks", cases, failures)


SUITES = [
    suite_nonempty_characterisation,
    suite_endpoint_code_domain,
    suite_code_roundtrip,
    suite_positive_rewrite,
    suite_order_definitions,
    suite_parse_print_roundtrip,
    suite_membership_formula,
    suite_lci_mask_kernel,
    suite_quantifier_blocks,
]


def run_suites() -> list[SuiteResult]:
    return [s() for s in SUITES]
