import re

import pytest
from hypothesis import given, settings, strategies as st

from mcdlo.models import EvalError, MsoFin
from mcdlo.semantics import bruteforce_eval
from mcdlo.semantics import BruteForceEvaluator
from mcdlo.syntax import (_HEADS, _KINDS, _SHAPE, _SLOTS, _TOKEN_RE, ARITY,
                          And, App, Const, Eq, Exists, ExistsPartition, Forall,
                          FreshVars, Implies, LtEAtom, Not, Or, RAtom,
                          SIGNATURES, SubsetAtom,
                          SyntaxErrorAt, Var, all_vars, free_vars,
                          is_existential, is_positive_existential,
                          is_quantifier_free, is_unnested, map_atoms,
                          map_children,
                          parse, print_formula, subformulas, substitute,
                          subterms, unnest, unnest_atom)

WSO = SIGNATURES["wso"]
MSOFIN = SIGNATURES["msofin"]
MO = SIGNATURES["mo"]


# -- random WSO formulas -----------------------------------------------------

var_names = st.sampled_from(["X", "Y", "Z"])

terms = st.recursive(
    st.one_of(var_names.map(Var), st.sampled_from([Const("bot"), Const("zero")])),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["union", "inter", "msinv"]), inner, inner)
        .map(lambda t: App(t[0], (t[1], t[2]))),
        st.tuples(st.sampled_from(["min", "max"]), inner)
        .map(lambda t: App(t[0], (t[1],)))),
    max_leaves=6)

atoms = st.tuples(terms, terms).map(lambda t: Eq(t[0], t[1]))

formulas = st.recursive(
    atoms,
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda t: And(*t)),
        st.tuples(inner, inner).map(lambda t: Or(*t)),
        st.tuples(inner, inner).map(lambda t: Implies(*t)),
        st.tuples(var_names, inner).map(lambda t: Exists(*t)),
        st.tuples(var_names, inner).map(lambda t: Forall(*t))),
    max_leaves=8)


@given(formulas)
def test_print_parse_roundtrip(f):
    assert parse(print_formula(f), WSO) == f


def test_parse_examples():
    f = parse("(subset X Y)", MO)
    assert f == SubsetAtom(Var("X"), Var("Y"))
    f = parse("(ltE X Y)", MO)
    assert f == LtEAtom(Var("X"), Var("Y"))
    f = parse("(= (min X) Y)", WSO)
    assert f == Eq(App("min", (Var("X"),)), Var("Y"))


# every parse error pinned to its message and position: (text, signature,
# message, position); the end of input is reported at len(text)
PARSE_ERRORS = [
    # end of input in every slot
    ("", WSO, "unexpected end of input", 0),
    ("(", WSO, "unexpected end of input", 1),
    ("(not", WSO, "unexpected end of input", 4),
    ("(not (= X X)", WSO, "unexpected end of input", 12),
    ("(and (= X X)", WSO, "unexpected end of input", 12),
    ("(exists", WSO, "unexpected end of input", 7),
    ("(exists X", WSO, "unexpected end of input", 9),
    ("(exists-partition", MSOFIN, "unexpected end of input", 17),
    ("(exists-partition (", MSOFIN, "unexpected end of input", 19),
    ("(exists-partition (Z", MSOFIN, "unexpected end of input", 20),
    ("(exists-partition (Z)", MSOFIN, "unexpected end of input", 21),
    ("(exists-partition (Z) (= Z Z)", MSOFIN, "unexpected end of input", 29),
    ("(=", WSO, "unexpected end of input", 2),
    ("(= X", WSO, "unexpected end of input", 4),
    ("(= X X   ", WSO, "unexpected end of input", 9),
    ("(= (", WSO, "unexpected end of input", 4),
    ("(= (min", WSO, "unexpected end of input", 7),
    ("(= (union X", WSO, "unexpected end of input", 11),
    ("(= (min X", WSO, "unexpected end of input", 9),
    # a formula that does not open with '('
    ("X", WSO, "expected '(', found 'X'", 0),
    ("(not X)", WSO, "expected '(', found 'X'", 5),
    ("(not )", WSO, "expected '(', found ')'", 5),
    ("(and (= X X) Y)", WSO, "expected '(', found 'Y'", 13),
    ("(exists X Y)", WSO, "expected '(', found 'Y'", 10),
    ("(exists-partition Z (= Z Z))", MSOFIN, "expected '(', found 'Z'", 18),
    # one argument too many
    ("(= X X X)", WSO, "expected ')', found 'X'", 7),
    ("(= (min X Y) Z)", WSO, "expected ')', found 'Y'", 10),
    ("(not (= X X) (= X X))", WSO, "expected ')', found '('", 13),
    ("(exists-partition (Z) (= Z Z) (= Z Z))", MSOFIN,
     "expected ')', found '('", 30),
    # one argument too few
    ("(= X)", WSO, "unexpected ')'", 4),
    ("(= ) X)", WSO, "unexpected ')'", 3),
    ("(= (union X) Y)", WSO, "unexpected ')'", 11),
    # a token its slot cannot take
    ("(= X foo)", WSO, "unknown token 'foo'", 5),
    ("(= zerostar X)", WSO, "unknown token 'zerostar'", 3),
    ("(= X 1x)", WSO, "unknown token '1x'", 5),
    ("(exists x (= x x))", WSO, "bad variable token 'x'", 8),
    ("(exists ) (= X X))", WSO, "bad variable token ')'", 8),
    ("(exists ( (= X X))", WSO, "bad variable token '('", 8),
    ("(exists-partition (Z z) (= Z Z))", MSOFIN, "bad variable token 'z'", 21),
    ("(exists-partition (( ) (= X X))", MSOFIN, "bad variable token '('", 19),
    ("(foo X)", WSO, "unknown formula head 'foo'", 1),
    ("(union X Y)", WSO, "unknown formula head 'union'", 1),
    ("()", WSO, "unknown formula head ')'", 1),
    ("((", WSO, "unknown formula head '('", 1),
    ("(= (foo X) Y)", WSO, "unknown function symbol 'foo'", 4),
    ("(= () X)", WSO, "unknown function symbol ')'", 4),
    ("(= ((", WSO, "unknown function symbol '('", 4),
    ("(= (= X X) Y)", WSO, "unknown function symbol '='", 4),
    ("(= (sinv X) Y)", WSO, "function 'sinv' not in signature 'wso'", 4),
    ("(= (l X) Y)", WSO, "function 'l' not in signature 'wso'", 4),
    ("(= (union X Y) Z)", MO, "function 'union' not in signature 'mo'", 4),
    ("(subset X Y)", WSO, "relation 'subset' not in signature 'wso'", 1),
    ("(ltE X Y)", MSOFIN, "relation 'ltE' not in signature 'msofin'", 1),
    ("(= X X) (= X X)", WSO, "trailing input", 8),
    ("(= X X))", WSO, "trailing input", 7),
    ("(= X X) )", WSO, "trailing input", 8),
]


def test_parse_errors_have_positions():
    wrong = []
    for text, sig, message, position in PARSE_ERRORS:
        with pytest.raises(SyntaxErrorAt) as err:
            parse(text, sig)
        got = (str(err.value), err.value.position)
        if got != (f"{message} (at position {position})", position):
            wrong.append((text, got))
    assert wrong == []


def test_deep_nesting_parses():
    depth = 5000
    f = parse("(not " * depth + "(= X X)" + ")" * depth, WSO)
    for _ in range(depth):
        f = f.body
    assert f == Eq(Var("X"), Var("X"))
    t = parse("(= " + "(min " * depth + "X" + ")" * depth + " X)", WSO).left
    for _ in range(depth):
        t = t.args[0]
    assert t == Var("X")


def test_grammar_tables_cover_every_node_and_function():
    assert set(_SHAPE) - set(_HEADS) == {RAtom}
    assert all(_SHAPE[kind] in _SLOTS for kind in _HEADS)
    assert len(_KINDS) == len(_HEADS)  # no two node types share a head
    for sig in SIGNATURES.values():
        for each in (sig, sig.with_extensions(setminus=True, delta=True)):
            assert each.functions <= set(ARITY)


# whitespace that str.split and the regex \s both take as a separator,
# beyond the ASCII space: controls, file separator, no-break, em and
# ideographic spaces
WHITESPACE = " \t\n\r\x0b\x0c\x1c\u00a0\u2003\u3000"
PAREN = ("(", ")")


def _laid_out(data, tokens):
    """tokens joined by drawn whitespace runs (non-empty between two names,
    any run elsewhere and at both ends), and the start of each token."""
    needs = [0] + [int(a not in PAREN and b not in PAREN)
                   for a, b in zip(tokens, tokens[1:])] + [0]
    runs = data.draw(st.tuples(*[st.text(WHITESPACE, min_size=n, max_size=3)
                                 for n in needs]))
    text, starts = runs[0], []
    for tok, run in zip(tokens, runs[1:]):
        starts.append(len(text))
        text += tok + run
    return text, starts


@settings(deadline=None)
@given(formulas, st.data())
def test_any_whitespace_layout_parses_alike(f, data):
    text, _ = _laid_out(data, _TOKEN_RE.findall(print_formula(f)))
    assert parse(text, WSO) == f


@settings(deadline=None)
@given(formulas, st.data())
def test_error_positions_are_token_starts(f, data):
    """Edited token lists raise SyntaxErrorAt at len(text) or at the start
    of the offending token."""
    tokens = _TOKEN_RE.findall(print_formula(f))
    for _ in range(data.draw(st.integers(1, 3))):
        edit = data.draw(st.sampled_from(["delete", "insert", "truncate"]))
        at = data.draw(st.integers(0, len(tokens)))
        if edit == "delete" and at < len(tokens):
            del tokens[at]
        elif edit == "insert":
            tokens.insert(at, data.draw(st.sampled_from(
                ["(", ")", "X", "foo", "bot", "min", "and", "exists",
                 "exists-partition", "zerostar", "1x", "="])))
        else:
            tokens = tokens[:at]
    text, starts = _laid_out(data, tokens)
    try:
        parse(text, WSO)
    except SyntaxErrorAt as err:
        message = str(err).rsplit(" (at position ", 1)[0]
        if message == "unexpected end of input":
            assert err.position == len(text)
            return
        # any other error is at the start of the token it names
        tok = tokens[starts.index(err.position)]
        if message == "trailing input":
            parse(text[:err.position], WSO)  # a whole formula comes before
        elif message == "unexpected ')'":
            assert tok == ")"
        else:
            named = re.findall(r"'([^']*)'", message)
            assert tok == named[-1 if "found" in message else 0]


def test_free_and_all_vars():
    f = parse("(exists X (= (union X Y) Z))", WSO)
    assert free_vars(f) == {"Y", "Z"}
    assert all_vars(f) == {"X", "Y", "Z"}


def test_substitute_capture_avoiding():
    f = Exists("X", Eq(Var("Y"), Var("X")))
    g = substitute(f, {"Y": Var("X")})
    assert isinstance(g, Exists)
    assert g.var != "X"
    assert free_vars(g) == {"X"}


def test_substitute_ignores_bound():
    f = Exists("X", Eq(Var("X"), Const("bot")))
    assert substitute(f, {"X": Var("Y")}) == f


def test_substitute_is_simultaneous():
    f = Eq(Var("X"), App("union", (Var("Y"), Var("Z"))))
    g = substitute(f, {"X": Var("Y"), "Y": Var("X")})
    assert g == Eq(Var("Y"), App("union", (Var("X"), Var("Z"))))


def test_substitute_renames_capturing_partition_block():
    """A value mentioning a block name must not be captured by the
    partition that binds that name."""
    f = ExistsPartition(("Z1", "Z2"), And(SubsetAtom(Var("Z1"), Var("Y")),
                                          Eq(Var("Z2"), Var("Y"))))
    g = substitute(f, {"Y": Var("Z2")})
    assert free_vars(g) == {"Z2"}
    assert "Z2" not in g.block_vars
    for n in range(4):
        ev = BruteForceEvaluator(n)
        for mask in range(1 << n):
            assert ev.formula(g, {"Z2": mask}) == ev.formula(f, {"Y": mask})


def test_substitute_respects_partition_shadowing():
    f = ExistsPartition(("Z1",), SubsetAtom(Var("Z1"), Var("Y")))
    assert substitute(f, {"Z1": Var("Y")}) == f
    g = substitute(f, {"Z1": Var("Y"), "Y": Const("bot")})
    assert g == ExistsPartition(("Z1",), SubsetAtom(Var("Z1"), Const("bot")))


def test_exists_partition_without_blocks_roundtrips():
    f = ExistsPartition((), Eq(App("union", (Var("A"), Var("B"))),
                               Const("bot")))
    text = print_formula(f)
    assert text == "(exists-partition () (= (union A B) bot))"
    assert parse(text, MSOFIN) == f


def test_fresh_vars_avoid_collisions():
    fresh = FreshVars({"C1", "C2"})
    names = {fresh.fresh("C") for _ in range(4)}
    assert len(names) == 4
    assert names.isdisjoint({"C1", "C2"})


@given(formulas)
def test_unnest_produces_unnested(f):
    g = unnest(f, FreshVars(all_vars(f)))
    assert is_unnested(g)
    assert free_vars(g) == free_vars(f)


@pytest.mark.parametrize("text,want", [
    # equal subterms of one side share one auxiliary; the right top stays
    ("(= (union (min X) (min X)) (max Y))",
     "(exists U1 (and (= U1 (min X)) (exists U2 (and (= U2 (union U1 U1)) "
     "(= U2 (max Y))))))"),
    ("(= X (union (min (inter X Y)) (max (inter X Y))))",
     "(exists U1 (and (= U1 (inter X Y)) (exists U2 (and (= U2 (min U1)) "
     "(exists U3 (and (= U3 (max U1)) (= X (union U2 U3))))))))"),
    # the left top stays when the right side has no application
    ("(= (union (min X) Y) bot)",
     "(exists U1 (and (= U1 (min X)) (= (union U1 Y) bot)))"),
    # the memo is per side: equal terms on both sides get two names
    ("(= (min X) (union (min X) Y))",
     "(exists U1 (and (= U1 (min X)) (exists U2 (and (= U2 (min X)) "
     "(= U1 (union U2 Y))))))"),
    ("(= (min X) Y)", "(= (min X) Y)"),
])
def test_unnest_atom_pins_names_and_order(text, want):
    f = parse(text, WSO)
    assert print_formula(unnest_atom(f, FreshVars(all_vars(f)))) == want


msofin_terms = st.recursive(
    st.one_of(var_names.map(Var),
              st.sampled_from([Const("bot"), Const("zero"), Const("zerostar")])),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["union", "inter"]), inner, inner)
        .map(lambda t: App(t[0], (t[1], t[2]))),
        inner.map(lambda t: App("sinv", (t,)))),
    max_leaves=5)

msofin_formulas = st.recursive(
    st.tuples(msofin_terms, msofin_terms).map(lambda t: Eq(t[0], t[1])),
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda t: And(*t)),
        st.tuples(var_names, inner).map(lambda t: Exists(*t))),
    max_leaves=5)


@given(msofin_formulas)
@settings(deadline=None)
def test_unnest_preserves_truth_msofin(f):
    m = MsoFin(3)
    g = unnest(f, FreshVars(all_vars(f)))
    univ = list(m.universe())
    names = sorted(free_vars(f))
    import itertools
    for vals in itertools.product(univ, repeat=len(names)):
        asg = dict(zip(names, vals))
        assert bruteforce_eval(m, f, asg) == bruteforce_eval(m, g, asg)


def test_syntactic_classes():
    qf = parse("(and (= X Y) (not (= X bot)))", WSO)
    assert is_quantifier_free(qf)
    assert not is_positive_existential(qf)
    pe = parse("(exists X (or (= X Y) (= X bot)))", WSO)
    assert is_positive_existential(pe) and is_existential(pe)
    ex = parse("(exists X (not (= X Y)))", WSO)
    assert is_existential(ex) and not is_positive_existential(ex)
    assert not is_existential(parse("(forall X (= X X))", WSO))
    assert not is_existential(parse("(not (exists X (= X Y)))", WSO))


# -- traversal helpers -------------------------------------------------------

X, Y = Var("X"), Var("Y")
EVERY_NODE_KIND = [
    Eq(X, Y), SubsetAtom(X, Y), LtEAtom(X, Y), Not(Eq(X, Y)),
    And(Eq(X, Y), Eq(Y, X)), Or(Eq(X, Y), Eq(Y, X)),
    Implies(Eq(X, Y), Eq(Y, X)), Exists("X", Eq(X, Y)),
    Forall("X", Eq(X, Y)), ExistsPartition(("Z1", "Z2"), Eq(Var("Z1"), Y)),
    RAtom("seq", ("X", "Y")),
]


@pytest.mark.parametrize("f", EVERY_NODE_KIND, ids=lambda f: type(f).__name__)
def test_map_children_identity(f):
    assert map_children(f, lambda g: g) == f


FIRST_ORDER_KINDS = [f for f in EVERY_NODE_KIND
                     if not isinstance(f, (RAtom, ExistsPartition))]


def _rebuild(q, go):
    return type(q)(q.var, go(q.body))


@pytest.mark.parametrize("f", FIRST_ORDER_KINDS, ids=lambda f: type(f).__name__)
def test_map_atoms_identity(f):
    assert map_atoms(f, lambda g: g) == f
    assert map_atoms(f, lambda g: g, _rebuild) == f


@pytest.mark.parametrize("f", [RAtom("seq", ("X",)),
                               ExistsPartition(("Z",), Eq(Var("Z"), X))],
                         ids=lambda f: type(f).__name__)
def test_map_atoms_rejects_power_nodes(f):
    with pytest.raises(EvalError):
        map_atoms(f, lambda g: g)
    with pytest.raises(EvalError):
        map_atoms(Not(And(Eq(X, Y), f)), lambda g: g, _rebuild)


def test_map_atoms_hook_sees_quantifier_before_its_body():
    seen = []

    def atom(g):
        seen.append(print_formula(g))
        return g

    def quantifier(q, go):
        seen.append(q.var)
        return _rebuild(q, go)

    f = parse("(exists X (and (= X Y) (forall Y (or (= Y X) (= Y bot)))))",
              WSO)
    assert map_atoms(f, atom, quantifier) == f
    assert seen == ["X", "(= X Y)", "Y", "(= Y X)", "(= Y bot)"]


def test_map_children_visits_left_before_right():
    seen = []
    f = parse("(implies (= X Y) (or (= Y X) (= X bot)))", WSO)
    map_children(f, lambda g: seen.append(print_formula(g)) or g)
    assert seen == ["(= X Y)", "(or (= Y X) (= X bot))"]


def test_subformulas_preorder_left_before_right():
    f = parse("(and (not (= X Y)) (exists Z (or (= Z X) (= Z Y))))", WSO)
    assert [print_formula(g) for g in subformulas(f)] == [
        print_formula(f), "(not (= X Y))", "(= X Y)",
        "(exists Z (or (= Z X) (= Z Y)))", "(or (= Z X) (= Z Y))",
        "(= Z X)", "(= Z Y)"]


def test_subterms_preorder():
    t = App("union", (App("min", (X,)), Y))
    assert list(subterms(t)) == [t, App("min", (X,)), X, Y]


@pytest.mark.parametrize("bad", [X, "(= X Y)", None])
def test_traversal_rejects_non_formulas(bad):
    with pytest.raises(TypeError):
        map_children(bad, lambda g: g)
    with pytest.raises(TypeError):
        list(subformulas(bad))
