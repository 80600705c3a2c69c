"""Seeded query generation, query execution and answer checking for the
four benchmark workloads.

A workload run is a sequence of passes.  Pass ``i`` of workload ``w`` under
seed ``s`` is generated from ``random.Random(f"{w}:{s}:{i}")``, so the same
seed always gives the same queries and the same expected answers.  Every
pass of a workload has the same composition (the same number of queries of
each kind and shape); the seed draws the formulas and the rational points.

Queries hand the program only formula texts and parameter values in the
JSON form of the CLI's ``--params`` file, and call the library functions
that the CLI calls, with the CLI's arguments.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from mcdlo.fefvau import funky, translate_with_parameters
from mcdlo.models import (LciStructure, MsoFin, WsoStructure, eval_atomic,
                          eval_term, restrict)
from mcdlo.order import (FinSet, IntervalUnion, enumerate_interval_unions,
                         format_rat)
from mcdlo.rewriting import (defeq_translate, l_in_w_translate,
                             lci_existential_rewrite, phi_subset,
                             qf_positive_rewrite, w_in_l_translate)
from mcdlo.semantics import bruteforce_eval, stabilize
from mcdlo.syntax import (ATOM_TYPES, And, Const, Exists, ExistsPartition,
                          Forall, FreshVars, Implies, Not, Or, SIGNATURES,
                          SubsetAtom, Var, free_vars,
                          is_existential, is_positive_existential,
                          is_quantifier_free, parse, print_formula)

# Wall-clock limit of one query, per workload.  Each limit is at least three
# times the slowest query of that workload that completes at the commit that
# introduced the benchmark (about 0.06 s on w-grid, 2.9 s on l-grid, 3.6 s on
# fv-params and 0.1 s on translate, on a 2-CPU Xeon sandbox whose speed
# varies by about 25%), so no completing query sits near its limit.  The
# run report prints the slowest completed query.  The prenex three-atoms
# sentence is the one query that runs into its limit.
TIME_LIMIT_S = {"w-grid": 0.5, "l-grid": 12.0, "fv-params": 15.0,
                "translate": 2.0}

KMAX = 4  # the CLI's default stabilization ceiling for eval and fv-reduce

WSO = SIGNATURES["wso"]
WSO_EXT = WSO.with_extensions(setminus=True, delta=True)
LCI = SIGNATURES["lci"]
MO = SIGNATURES["mo"]
PARSE_SIGS = {"wso": WSO, "wso+": WSO_EXT, "lci": LCI, "mo": MO,
              "msofin": SIGNATURES["msofin"]}

# The parameter corpus of acceptance criterion 7; the last formula is the
# nested two-parameter formula whose psi dominates the workload.
PARAM_CORPUS = (
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
)
NESTED = PARAM_CORPUS[-1]

# Parameter tuples, as subsets of the index points {0, 1, 2} of a
# three-point pool 0 < p < q drawn for each pass.  The psi-eval cost of a
# tuple depends only on its shape, so every pass evaluates the same shapes on
# fresh points: every subset for a one-parameter formula; PAIR_SHAPES for a
# two-parameter one, and for those other than the nested formula five more
# shapes and one freely drawn tuple.  With these counts the 95th percentile
# of a pass falls among the fv-reduce queries of fixed cost, not at the edge
# of the psi-evals whose cost depends on the tuple.  The nested formula's
# shapes cost from about 10 ms to about 2.3 s each at the benchmark's first
# commit (the costliest POOL3 tuple, 9.3 s, is left out).
SUBSET_SHAPES = tuple(c for r in range(4)
                      for c in itertools.combinations(range(3), r))
ONE_PARAM_SHAPES = tuple((s,) for s in SUBSET_SHAPES)
PAIR_SHAPES = (
    ((), ()), ((0,), (0,)), ((1,), ()), ((0, 1, 2), (0, 1, 2)),
    ((1, 2), ()), ((0, 1), (2,)), ((0,), (1, 2)), ((), (1, 2)),
)
EXTRA_PAIR_SHAPES = (
    ((2,), (1,)), ((0, 2), (0,)), ((1,), (1, 2)), ((0, 1, 2), ()),
    ((2,), (0, 1, 2)),
)

# Pass composition: number of queries of each generated kind.
W_POSITIVE, W_CODE, W_QUANT, W_CAP = 120, 40, 36, 4
L_WIL = 400
T_PER_PAIR = 48


@dataclass
class Query:
    """One query: what the program receives, and how its answer is checked.

    ``params`` maps names to values in the CLI's JSON form: lists of "p/q"
    strings for finite sets, lists of [left, right] pairs for interval
    unions.  ``check`` names the independent reference the answer is
    compared with (``None``: no independent answer); ``ref`` holds that
    reference's inputs.  ``defect`` names an entry of known_defects.json.
    """

    qid: str
    kind: str
    text: str
    sig: str
    params: dict = field(default_factory=dict)
    check: Optional[str] = None
    ref: tuple = ()
    defect: str = ""
    depends_on: str = ""


@dataclass
class Outcome:
    status: str                    # "ok", "error" or "timeout"
    seconds: float
    cause: str = ""
    verdict: Optional[bool] = None
    stabilized: Optional[bool] = None
    out_nodes: int = 0
    value: object = None
    gauged: int = 0                # index of the speed gauging before it
    middle: float = 0.0            # perf_counter() half way through it


# ---------------------------------------------------------------------------
# Values and texts

def finset_json(points) -> list:
    return [format_rat(p) for p in sorted(points)]


def iu_json(intervals) -> list:
    return [[format_rat(l), "inf" if r is None else format_rat(r)]
            for l, r in intervals]


def draw_points(rng: random.Random, n: int) -> list:
    """0 and n - 1 distinct points of (0, 1), sorted."""
    return [Fraction(0)] + sorted(Fraction(k, 60)
                                  for k in rng.sample(range(1, 60), n - 1))


def draw_subset(rng: random.Random, pool) -> list:
    return [p for p in pool if rng.random() < 0.5]


def draw_iu(rng: random.Random, pool) -> list:
    """A random canonical interval union with endpoints in the pool."""
    return list(rng.choice(enumerate_interval_unions(pool, include_end=True))
                .intervals)


def sexp(head: str, *args: str) -> str:
    return "(" + " ".join((head,) + args) + ")"


def rand_term(rng, depth, leaves, unary, binary):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(leaves)
    if unary and rng.random() < 0.3:
        return sexp(rng.choice(unary), rand_term(rng, depth - 1, leaves,
                                                 unary, binary))
    return sexp(rng.choice(binary),
                rand_term(rng, depth - 1, leaves, unary, binary),
                rand_term(rng, depth - 1, leaves, unary, binary))


def rand_qf(rng, depth, atom, negate=0.4, implies=False):
    """Random quantifier-free formula text over the given atom generator."""
    if depth == 0 or rng.random() < 0.3:
        a = atom()
        return sexp("not", a) if rng.random() < negate else a
    heads = ["and", "or"] + (["implies"] if implies else [])
    return sexp(rng.choice(heads),
                rand_qf(rng, depth - 1, atom, negate, implies),
                rand_qf(rng, depth - 1, atom, negate, implies))


def wso_qf(rng, names, depth=2):
    leaves = list(names) + ["bot", "zero"]

    def atom():
        return sexp("=", rand_term(rng, 2, leaves, ["min", "max"],
                                   ["union", "inter", "setminus", "delta",
                                    "msinv"]),
                    rand_term(rng, 2, leaves, ["min", "max"],
                              ["union", "inter", "setminus", "delta",
                               "msinv"]))
    return rand_qf(rng, depth, atom, negate=0.5)


def wso_positive(rng, names, depth=1):
    """Random quantifier-free wso formula of unnested atoms, without negation
    or differences.  Over L(I) the witnesses that negations, differences and
    nested terms bring in are not narrowed, and a false query of that kind
    searches every candidate for seconds; the msinv witness of an unnested
    atom is narrowed by its endpoint equations."""
    leaves = list(names) + ["bot", "zero"]

    def atom():
        op = rng.choice(["union", "inter", "msinv", "min", "max"])
        args = [rng.choice(leaves) for _ in range(1 if op in ("min", "max")
                                                  else 2)]
        return sexp("=", sexp(op, *args), rng.choice(leaves))
    return rand_qf(rng, depth, atom, negate=0.0)


def lci_qf(rng, names, depth, negate):
    leaves = list(names) + ["bot", "zero"]

    def atom():
        return sexp("=", rand_term(rng, 1, leaves, ["min", "max", "l", "r"],
                                   ["union", "inter"]),
                    rand_term(rng, 1, leaves, ["min", "max", "l", "r"],
                              ["union", "inter"]))
    return rand_qf(rng, depth, atom, negate=negate)


def node_count(f) -> int:
    """AST nodes of a formula, its term nodes included."""
    if isinstance(f, ATOM_TYPES):
        return 1 + term_nodes(f.left) + term_nodes(f.right)
    if isinstance(f, (And, Or, Implies)):
        return 1 + node_count(f.left) + node_count(f.right)
    if isinstance(f, (Not, Exists, Forall, ExistsPartition)):
        return 1 + node_count(f.body)
    return 1


def term_nodes(t) -> int:
    return 1 + sum(term_nodes(a) for a in getattr(t, "args", ()))


# ---------------------------------------------------------------------------
# w-grid

def three_atoms(prenex: bool) -> str:
    """ROADMAP item 4: three distinct atoms strictly between 0 and the point
    of A.  True in W(I); the grid finds three such points from budget 3 on."""
    def atom(x):
        return (f"(and (= (min {x}) {x}) (and (not (= {x} bot)) "
                f"(and (not (= {x} zero)) (and (= (max (union {x} A)) A) "
                f"(not (= {x} A))))))")
    distinct = "(and (not (= X Y)) (and (not (= X Z)) (not (= Y Z))))"
    if prenex:
        return (f"(exists X (exists Y (exists Z (and {atom('X')} "
                f"(and {atom('Y')} (and {atom('Z')} {distinct}))))))")
    return (f"(exists X (and {atom('X')} (exists Y (and {atom('Y')} "
            f"(and (not (= X Y)) (exists Z (and {atom('Z')} "
            f"(and (not (= X Z)) (not (= Y Z))))))))))")


LCI_ATOMS = ("(= (union X Y) Z)", "(= (inter X Y) Z)", "(= (l X) Z)",
             "(= (r X) Z)", "(= (min X) Z)", "(= (max X) Z)", "(= X Z)")


def rand_quantified(rng, names, depth):
    """Random wso sentence body over the parameters, nesting depth up to
    ``depth``.  Quantifiers carry a guard the evaluator prunes on (subset of
    a named set, or a singleton), except at most one innermost unguarded one,
    so no query but the known prenex one runs into the time limit."""
    leaves = list(names) + ["bot", "zero"]

    def term():
        return rand_term(rng, 2, leaves, ["min", "max"], ["union", "inter"])

    def atom():
        return sexp("=", term(), term())

    if depth == 0 or rng.random() < 0.25:
        return rand_qf(rng, 1, atom)
    v = f"Q{depth}"
    inner_names = list(names) + [v]
    body = rand_quantified(rng, inner_names, depth - 1)
    if depth == 1 and rng.random() < 0.3:
        return sexp(rng.choice(["exists", "forall"]), v, body)
    bound = rng.choice(list(names))
    guard = rng.choice([f"(= (inter {v} {bound}) {v})", f"(= (min {v}) {v})"])
    if rng.random() < 0.5:
        return sexp("exists", v, sexp("and", guard, body))
    return sexp("forall", v, sexp("implies", guard, body))


def gen_w_grid(rng, index):
    tag = f"p{index}-"
    qs = []
    for i in range(W_POSITIVE):
        names = ["X", "Y"][:rng.choice([1, 2])]
        pool = draw_points(rng, 4)
        src = wso_qf(rng, names)
        out = print_formula(qf_positive_rewrite(parse(src, WSO_EXT)))
        params = {n: finset_json(draw_subset(rng, pool)) for n in names}
        qs.append(Query(f"{tag}pos{i}", "w-eval", out, "wso", params,
                        "wso-direct", (src,)))
    for i in range(W_CODE):
        pool = draw_points(rng, 3)
        if i % 2 == 0:
            u, v = draw_iu(rng, pool), draw_iu(rng, pool)
            names = ("X_l", "X_r", "Y_l", "Y_r")
            text = print_formula(phi_subset(*map(Var, names),
                                            FreshVars(names)))
            values = {"X": u, "Y": v}
            qs.append(Query(f"{tag}code{i}", "w-eval", text, "wso+",
                            code_params(values), "iu-subset",
                            (iu_json(u), iu_json(v))))
        else:
            atom = rng.choice(LCI_ATOMS)
            values = {n: draw_iu(rng, pool) for n in ("X", "Y")
                      if n in atom}
            truth = lci_value(atom, values)
            values["Z"] = (truth if rng.random() < 0.5
                           else draw_iu(rng, pool))
            text = print_formula(l_in_w_translate(parse(atom, LCI)))
            ref = (atom, {n: iu_json(v) for n, v in values.items()})
            qs.append(Query(f"{tag}code{i}", "w-eval", text, "wso+",
                            code_params(values), "lci-direct", ref))
    for i in range(W_QUANT + W_CAP):
        capped = i >= W_QUANT
        pool = draw_points(rng, 5 if capped else 3)
        a = pool[1:3] if not capped else pool[1:4]
        b = pool[2:3] if not capped else pool[3:]
        text = rand_quantified(rng, ["A", "B"], rng.randint(1, 3))
        qs.append(Query(f"{tag}{'cap' if capped else 'quant'}{i}", "w-eval",
                        text, "wso",
                        {"A": finset_json(a), "B": finset_json(b)},
                        defect="grid-cap-overflow" if capped else ""))
    p, q = draw_points(rng, 3)[1:]
    params = {"A": finset_json([p]), "B": finset_json([q])}
    qs.append(Query(f"{tag}three-atoms-miniscoped", "w-eval",
                    three_atoms(False), "wso", params, "const", (True,),
                    defect="three-atoms-miniscoped"))
    qs.append(Query(f"{tag}three-atoms-prenex", "w-eval", three_atoms(True),
                    "wso", params, "const", (True,),
                    defect="three-atoms-prenex"))
    return qs


def code_params(values: dict) -> dict:
    """Endpoint-code parameters X_l, X_r of interval unions X."""
    out = {}
    for name, ivs in values.items():
        u = IntervalUnion(tuple(ivs))
        out[f"{name}_l"] = finset_json(u.left_endpoints().points)
        out[f"{name}_r"] = finset_json(u.right_endpoints().points)
    return out


def lci_value(atom_text: str, values: dict) -> list:
    """The interval union an lci atom (= (op X ...) Z) prescribes for Z."""
    f = parse(atom_text, LCI)
    asg = {n: IntervalUnion(tuple(v)) for n, v in values.items()}
    return list(eval_term(LciStructure(), f.left, asg).intervals)


# ---------------------------------------------------------------------------
# l-grid

# Universally quantified lci sentences with known answers: lattice laws
# (true) and laws refuted by a named counterexample (false).
LCI_LAWS = (
    ("(forall X (= (union X X) X))", True),
    ("(forall X (= (inter X X) X))", True),
    ("(forall X (forall Y (= (union X Y) (union Y X))))", True),
    ("(forall X (forall Y (= (inter X (union X Y)) X)))", True),
    ("(forall X (forall Y (= (union X (inter X Y)) X)))", True),
    ("(forall X (= (l (l X)) (l X)))", True),
    ("(forall X (= (min (min X)) (min X)))", True),
    ("(forall X (forall Y (forall Z (= (inter X (union Y Z)) "
     "(union (inter X Y) (inter X Z))))))", True),
    # X = [0, inf) is unbounded, so max X = bot but X is not bot
    ("(forall X (implies (= (max X) bot) (= X bot)))", False),
    # X = [0, 1/2]: l X = {0} is not X
    ("(forall X (= (l X) X))", False),
    # X = [0, 1/2], Y = {1/2}: l (X u Y) = {0}, l X u l Y = {0, 1/2}
    ("(forall X (forall Y (= (l (union X Y)) (union (l X) (l Y)))))", False),
    # X = [0, 1/2], Y = {0}: r (X n Y) = {0}, r X n r Y = bot
    ("(forall X (forall Y (= (r (inter X Y)) (inter (r X) (r Y)))))", False),
)


# lci_existential_rewrite queries, as index pairs into the interval unions
# over a two-point pool 0 < p (in enumerate_interval_unions order).  Their
# values differ, so the inequation holds; its witness search costs about
# 2.2 s and 0.1 s at the benchmark's first commit.  A false inequation
# exhausts the search (about 5 s) and is left out.
LEX_SHAPES = ((3, 1), (0, 2))

# Universal sentences over a parameter A = {p} u [q, inf): the candidate
# lists of the 6- and 9-point grids are materialised (377 and 6765 interval
# unions).
LCI_PARAM_LAWS = (
    ("(forall X (= (inter X A) (inter A X)))", True),
    ("(forall X (= (inter (union X A) A) A))", True),
    # X = bot: the union is A, which is not empty, the intersection is bot
    ("(forall X (= (union X A) (inter X A)))", False),
)


def gen_l_grid(rng, index):
    tag = f"p{index}-"
    qs = []
    for i in range(L_WIL):
        names = ["X", "Y"][:rng.choice([1, 2])]
        pool = draw_points(rng, 3)
        src = wso_positive(rng, names)
        pos = qf_positive_rewrite(parse(src, WSO_EXT))
        text = print_formula(w_in_l_translate(pos))
        sets = {n: draw_subset(rng, pool) for n in names}
        params = {n: iu_json([(p, p) for p in pts]) for n, pts in sets.items()}
        qs.append(Query(f"{tag}wil{i}", "l-eval", text, "lci", params,
                        "wso-direct-finite", (src,)))
    pool = draw_points(rng, 2)
    corpus = enumerate_interval_unions(pool, include_end=True)
    for i, (xi, yi) in enumerate(LEX_SHAPES):
        x, y = corpus[xi], corpus[yi]
        src = sexp("and", lci_true_atom(rng, x, y), "(not (= X Y))")
        text = print_formula(lci_existential_rewrite(parse(src, LCI)))
        params = {"X": iu_json(x.intervals), "Y": iu_json(y.intervals)}
        qs.append(Query(f"{tag}lex{i}", "l-eval", text, "lci", params,
                        "lci-direct", (src, params)))
    for i, (text, truth) in enumerate(LCI_LAWS):
        qs.append(Query(f"{tag}univ{i}", "l-eval", text, "lci", {},
                        "const", (truth,)))
    for i, (text, truth) in enumerate(LCI_PARAM_LAWS):
        p, q = draw_points(rng, 3)[1:]
        a = [(p, p), (q, None)]
        qs.append(Query(f"{tag}univ-param{i}", "l-eval", text, "lci",
                        {"A": iu_json(a)}, "const", (truth,)))
    rng.shuffle(qs)
    return qs


def lci_true_atom(rng, x, y) -> str:
    """A positive lci atom over X, Y that holds for the values x, y."""
    leaves = ["X", "Y", "bot", "zero"]
    asg = {"X": x, "Y": y}
    while True:
        a = rand_term(rng, 1, leaves, ["min", "max", "l", "r"],
                      ["union", "inter"])
        b = rand_term(rng, 1, leaves, ["min", "max", "l", "r"],
                      ["union", "inter"])
        atom = sexp("=", a, b)
        if eval_atomic(LciStructure(), parse(atom, LCI), asg):
            return atom


# ---------------------------------------------------------------------------
# fv-params

def gen_fv_params(rng, index):
    tag = f"p{index}-"
    qs = []
    pool = draw_points(rng, 3)
    for j, text in enumerate(PARAM_CORPUS):
        names = sorted(free_vars(parse(text, MO)))
        fid = f"{tag}fv{j}"
        qs.append(Query(fid, "fv-reduce", text, "mo", {n: [] for n in names},
                        "psi-free-vars", (names,)))
        shapes = ONE_PARAM_SHAPES if len(names) == 1 else PAIR_SHAPES
        if len(names) == 2 and text != NESTED:
            shapes += EXTRA_PAIR_SHAPES + (
                tuple(rng.choice(SUBSET_SHAPES) for _ in names),)
        tuples = [tuple([pool[i] for i in s] for s in shape)
                  for shape in shapes]
        for k, values in enumerate(tuples):
            params = {n: finset_json(v) for n, v in zip(names, values)}
            qs.append(Query(f"{fid}-psi{k}", "psi-eval", text, "mo", params,
                            "w-stabilize", (text, params), depends_on=fid))
    return qs


# ---------------------------------------------------------------------------
# translate

TRANSLATIONS = ("mo>msofin", "msofin>mo", "mo>wso", "wso>mo", "wso>lci",
                "lci>wso", "lci>lci", "positive-rewrite")


def rand_source(rng, pair: str, size: int) -> str:
    names = ["X", "Y", "Z"][:1 + size % 3]
    src = pair.split(">")[0] if ">" in pair else "wso"
    if pair in ("mo>msofin", "mo>wso"):
        def atom():
            return sexp(rng.choice(["subset", "ltE", "="]),
                        rng.choice(names + ["bot"]), rng.choice(names))
        body = rand_qf(rng, size, atom, negate=0.3, implies=True)
        for v in names[1:]:
            if rng.random() < 0.5:
                body = sexp(rng.choice(["exists", "forall"]), v, body)
        return body
    if src == "msofin":
        leaves = names + ["bot", "zero", "zerostar"]

        def atom():
            return sexp("=", rand_term(rng, 2, leaves, ["sinv"],
                                       ["union", "inter"]),
                        rand_term(rng, 2, leaves, ["sinv"],
                                  ["union", "inter"]))
        return rand_qf(rng, size, atom)
    if src == "wso" and pair == "wso>mo":
        leaves = names + ["bot", "zero"]

        def atom():
            return sexp("=", rand_term(rng, 2, leaves, ["min", "max"],
                                       ["union", "inter", "msinv"]),
                        rand_term(rng, 2, leaves, ["min", "max"],
                                  ["union", "inter", "msinv"]))
        return rand_qf(rng, size, atom)
    if src == "wso":
        # the CLI positive-rewrites only formulas that are not already
        # positive; a negation-free input with a difference operator makes
        # w_in_l_translate raise ("positivise first"), so every input here
        # carries a negated equation
        return sexp("and", wso_qf(rng, names, depth=size),
                    f"(not (= {names[-1]} bot))")
    return lci_qf(rng, names, size, negate=0.4)


# Share of the first pass's defeq and positive-rewrite outputs that are
# also checked semantically.  Parsing an output back costs more than the
# translation, so after the first FULL_CHECK_PASSES passes only a share
# ROUNDTRIP_SHARE of the outputs gets the round-trip check; every output
# gets the target-class check.
SEMANTIC_SHARE = 0.5
FULL_CHECK_PASSES = 2
ROUNDTRIP_SHARE = 0.05


def gen_translate(rng, index):
    tag = f"p{index}-"
    qs = []
    for pair in TRANSLATIONS:
        for i in range(T_PER_PAIR):
            size = 1 + i * 3 // T_PER_PAIR  # increasing size: 1, 2, 3
            text = rand_source(rng, pair, size)
            src = pair.split(">")[0] if ">" in pair else "wso"
            semantic = (index == 0 and rng.random() < SEMANTIC_SHARE
                        and pair in ("mo>msofin", "msofin>mo",
                                     "positive-rewrite"))
            roundtrip = (index < FULL_CHECK_PASSES
                         or rng.random() < ROUNDTRIP_SHARE)
            qs.append(Query(f"{tag}{pair}-{i}", "translate", text,
                            "wso+" if src == "wso" else src, {},
                            "translation", (pair, semantic, roundtrip)))
    rng.shuffle(qs)
    return qs


GENERATORS = {"w-grid": gen_w_grid, "l-grid": gen_l_grid,
              "fv-params": gen_fv_params, "translate": gen_translate}


def generate_pass(workload: str, seed: int, index: int) -> list:
    rng = random.Random(f"{workload}:{seed}:{index}")
    return GENERATORS[workload](rng, index)


# ---------------------------------------------------------------------------
# Execution: what the CLI does for each command, in-process

def decode_finsets(params: dict) -> dict:
    return {n: FinSet.from_json(v) for n, v in params.items()}


def decode_ius(params: dict) -> dict:
    return {n: IntervalUnion.from_json(v) for n, v in params.items()}


def fv_oracle(sentence):
    return stabilize("w", sentence, {}, kmax=KMAX)


def translate_text(pair: str, text: str):
    """`mcdlo translate --from A --to B` and `mcdlo positive-rewrite`."""
    if pair == "positive-rewrite":
        return qf_positive_rewrite(parse(text, WSO_EXT))
    src, dst = pair.split(">")
    f = parse(text, WSO_EXT if src == "wso" else PARSE_SIGS[src])
    if src == "mo" or dst == "mo":
        return defeq_translate(f, src, dst)
    if pair == "wso>lci":
        if is_quantifier_free(f) and not is_positive_existential(f):
            f = qf_positive_rewrite(f)
        return w_in_l_translate(f)
    if pair == "lci>wso":
        return l_in_w_translate(f)
    return lci_existential_rewrite(f)


def execute(q: Query, done: dict) -> Outcome:
    """Run one query; ``done`` maps query ids to earlier outcomes of the
    same pass (psi-eval queries read their fv-reduce result from it).
    Returns an Outcome without timing; the caller times the call."""
    if q.kind == "w-eval":
        report = stabilize("w", parse(q.text, PARSE_SIGS[q.sig]),
                           decode_finsets(q.params), kmax=KMAX)
        return Outcome("ok", 0.0, verdict=report.verdict,
                       stabilized=report.stabilized)
    if q.kind == "l-eval":
        report = stabilize("l", parse(q.text, LCI), decode_ius(q.params),
                           kmax=KMAX)
        return Outcome("ok", 0.0, verdict=report.verdict,
                       stabilized=report.stabilized)
    if q.kind == "fv-reduce":
        result = translate_with_parameters(parse(q.text, MO),
                                           sorted(q.params), oracle=fv_oracle)
        return Outcome("ok", 0.0, stabilized=result.stabilized,
                       out_nodes=node_count(result.psi), value=result)
    if q.kind == "psi-eval":
        source = done.get(q.depends_on)
        if source is None or source.status != "ok":
            raise RuntimeError(f"no psi: {q.depends_on} did not complete")
        asg = decode_finsets(q.params)
        er = restrict(WsoStructure(), funky(list(asg.values())))
        index_asg = {n: er.to_msofin(v) for n, v in asg.items()}
        verdict = bruteforce_eval(er.msofin(), source.value.psi, index_asg)
        return Outcome("ok", 0.0, verdict=verdict, stabilized=True)
    if q.kind == "translate":
        out = translate_text(q.ref[0], q.text)
        printed = print_formula(out)
        return Outcome("ok", 0.0, out_nodes=node_count(out),
                       value=(out, printed))
    raise ValueError(f"unknown query kind {q.kind!r}")


# ---------------------------------------------------------------------------
# Checking

def direct(structure, f, asg) -> bool:
    """Value-level truth of a quantifier-free formula."""
    if isinstance(f, Not):
        return not direct(structure, f.body, asg)
    if isinstance(f, And):
        return direct(structure, f.left, asg) and direct(structure, f.right,
                                                         asg)
    if isinstance(f, Or):
        return direct(structure, f.left, asg) or direct(structure, f.right,
                                                        asg)
    if isinstance(f, Implies):
        return not direct(structure, f.left, asg) or direct(structure,
                                                            f.right, asg)
    return eval_atomic(structure, f, asg)


def expected_verdict(q: Query) -> Optional[bool]:
    """The independent answer of a verdict query, or None if it has none."""
    if q.check == "const":
        return q.ref[0]
    if q.check == "wso-direct":
        return direct(WsoStructure(), parse(q.ref[0], WSO_EXT),
                      decode_finsets(q.params))
    if q.check == "wso-direct-finite":
        asg = {n: FinSet.from_iterable(l for l, _r in u.intervals)
               for n, u in decode_ius(q.params).items()}
        return direct(WsoStructure(), parse(q.ref[0], WSO_EXT), asg)
    if q.check == "iu-subset":
        u, v = (IntervalUnion.from_json(x) for x in q.ref)
        return u.subset(v)
    if q.check == "lci-direct":
        return direct(LciStructure(), parse(q.ref[0], LCI),
                      decode_ius(q.ref[1]))
    if q.check == "w-stabilize":
        report = stabilize("w", parse(q.ref[0], MO), decode_finsets(q.ref[1]))
        return report.verdict if report.stabilized else None
    return None


def check_translation(q: Query, out, printed: str) -> str:
    """Empty string if the translation output is acceptable, else why not."""
    pair, semantic, roundtrip = q.ref
    dst = "wso" if pair == "positive-rewrite" else pair.split(">")[1]
    target = WSO_EXT if dst == "wso" else PARSE_SIGS[dst]
    if roundtrip and parse(printed, target) != out:
        return "print/parse round trip changed the formula"
    if pair in ("wso>lci", "lci>lci") and not is_existential(out):
        return "output is not existential"
    if pair == "positive-rewrite" and not is_positive_existential(out):
        return "output is not positive existential"
    if not semantic:
        return ""
    src = parse(q.text, PARSE_SIGS[q.sig])
    names = sorted(free_vars(src))
    if pair == "positive-rewrite":
        pool = [Fraction(0), Fraction(1, 2)]
        subsets = [FinSet.from_iterable(c) for r in range(3)
                   for c in itertools.combinations(pool, r)]
        for values in itertools.product(subsets, repeat=len(names)):
            asg = dict(zip(names, values))
            if stabilize("w", out, asg, kmax=3).verdict != direct(
                    WsoStructure(), src, asg):
                return f"disagrees with the source at {asg}"
        return ""
    m = MsoFin(2)
    for values in itertools.product(list(m.universe()), repeat=len(names)):
        asg = dict(zip(names, values))
        want = (bruteforce_eval(m, src, asg) if pair == "mo>msofin"
                else direct(m, src, asg))
        if bruteforce_eval(m, out, asg) != want:
            return f"disagrees with the source at {asg}"
    return ""


def check(q: Query, o: Outcome) -> tuple:
    """(status, detail) with status "right", "wrong" or "unchecked"."""
    if q.kind == "translate":
        why = check_translation(q, *o.value)
        return ("wrong", why) if why else ("right", "")
    if q.kind == "fv-reduce":
        extra = free_vars(o.value.psi) - set(q.ref[0])
        return (("wrong", f"psi has stray variables {sorted(extra)}")
                if extra else ("right", ""))
    want = expected_verdict(q)
    if want is None:
        return "unchecked", "no independent answer"
    if o.verdict != want:
        return "wrong", f"verdict {o.verdict}, expected {want}"
    return "right", ""


def psi_stats(psi) -> tuple:
    """(partition blocks, dead blocks) of a psi.  A dead block is one whose
    guard, a top-level conjunct of its partition body, is (subset Z bot)."""
    blocks = dead = 0
    stack = [psi]
    while stack:
        f = stack.pop()
        if isinstance(f, ExistsPartition):
            blocks += len(f.block_vars)
            dead += sum(1 for c in conjuncts(f.body)
                        if isinstance(c, SubsetAtom)
                        and isinstance(c.left, Var)
                        and c.left.name in f.block_vars
                        and c.right == Const("bot"))
            stack.append(f.body)
        elif isinstance(f, (And, Or, Implies)):
            stack += [f.left, f.right]
        elif isinstance(f, (Not, Exists, Forall)):
            stack.append(f.body)
    return blocks, dead


def conjuncts(f) -> list:
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += [g.right, g.left]
        else:
            out.append(g)
    return out
