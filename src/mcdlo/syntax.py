"""Abstract syntax, s-expression parsing/printing and structural operations
for formulas over the four signatures used in the toolkit.

One shared AST is used for every signature; a Signature value records which
head symbols are legal so translators can be total functions between tags.
The printer and the parser, one loop with no recursion, share one grammar.
The parser splits the text once, builds one Var or Const per leaf name and
finds a character position only for the error it raises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union


class SyntaxErrorAt(ValueError):
    """Parse failure carrying the character position of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SignatureError(ValueError):
    pass


class EvalError(ValueError):
    """A formula outside what an evaluator or translator accepts."""


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class App:
    op: str
    args: tuple


Term = Union[Var, Const, App]

ARITY = {
    "union": 2, "inter": 2, "setminus": 2, "delta": 2, "msinv": 2,
    "sinv": 1, "min": 1, "max": 1, "l": 1, "r": 1, "compl": 1,
}


# ---------------------------------------------------------------------------
# Formulas

@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class SubsetAtom:
    left: Term
    right: Term


@dataclass(frozen=True)
class LtEAtom:
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class RAtom:
    """Atomic relation of the generalised-power signature: R_zeta applied to
    power variables.  `seq` is a fefvau.AcceptableSequence."""
    seq: object
    args: tuple[str, ...]


@dataclass(frozen=True)
class ExistsPartition:
    """Index-algebra quantifier asserting the existence of a partition of the
    full index set into blocks named by `block_vars` (blocks may be empty)
    under which `body` holds.  Serialised as (exists-partition (Z ...) f).
    The block variables are binders.  `fefvau.fv_reduce` names blocks apart
    from every other block, so names are unique across nesting levels."""
    block_vars: tuple[str, ...]
    body: "Formula"


Formula = Union[Eq, SubsetAtom, LtEAtom, Not, And, Or, Implies,
                Exists, Forall, RAtom, ExistsPartition]

ATOM_TYPES = (Eq, SubsetAtom, LtEAtom)
# the first-order connectives and quantifiers (no RAtom, no ExistsPartition)
FO_CONNECTIVES = (Not, And, Or, Implies, Exists, Forall)


def and_all(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        return Eq(Const("bot"), Const("bot"))
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def conjuncts(f: Formula):
    """The top-level conjuncts of a formula, left to right."""
    # an explicit stack, as in subformulas: and_all nests to the left
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack.append(g.right)
            stack.append(g.left)
        else:
            yield g


def or_all(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        return Not(Eq(Const("bot"), Const("bot")))
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


# ---------------------------------------------------------------------------
# Traversal

# the shape of each formula node: one lookup on the exact type costs less
# per node than a chain of isinstance tests
_LEAF, _NOT, _BINARY, _BINDER, _PARTITION = range(5)
_SHAPE = {Eq: _LEAF, SubsetAtom: _LEAF, LtEAtom: _LEAF, RAtom: _LEAF,
          Not: _NOT, And: _BINARY, Or: _BINARY, Implies: _BINARY,
          Exists: _BINDER, Forall: _BINDER, ExistsPartition: _PARTITION}


def map_children(f: Formula, go) -> Formula:
    """f rebuilt with go applied to each immediate subformula, left before
    right; atoms and power atoms come back unchanged."""
    shape = _SHAPE.get(type(f))
    if shape == _BINARY:
        return type(f)(go(f.left), go(f.right))
    if shape == _NOT:
        return Not(go(f.body))
    if shape == _BINDER:
        return type(f)(f.var, go(f.body))
    if shape == _PARTITION:
        return ExistsPartition(f.block_vars, go(f.body))
    if shape == _LEAF:
        return f
    raise TypeError(f"not a formula: {f!r}")


def map_atoms(f: Formula, atom, quantifier=None) -> Formula:
    """f with each atom replaced by atom(a), rebuilt through the first-order
    connectives, left before right.  Given `quantifier`, each Exists/Forall
    node q becomes quantifier(q, go), where go is this walk, so the hook
    decides what it builds before the body is mapped.  A power atom or a
    partition quantifier raises EvalError."""

    def go(g: Formula) -> Formula:
        kind = type(g)
        if kind in ATOM_TYPES:
            return atom(g)
        if quantifier is not None and (kind is Exists or kind is Forall):
            return quantifier(g, go)
        if kind in FO_CONNECTIVES:
            return map_children(g, go)
        raise EvalError(f"not a first-order formula: {g!r}")

    return go(f)


def subformulas(f: Formula):
    """Every formula node of f in preorder, left before right."""
    # an explicit stack: nested generators would cost O(depth) per node
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        shape = _SHAPE.get(type(g))
        if shape == _BINARY:
            stack.append(g.right)
            stack.append(g.left)
        elif shape is None:
            raise TypeError(f"not a formula: {g!r}")
        elif shape != _LEAF:
            stack.append(g.body)


def subterms(t: Term):
    """Every term node of t in preorder, arguments left to right."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, App):
            stack.extend(reversed(s.args))


# ---------------------------------------------------------------------------
# Signatures

@dataclass(frozen=True)
class Signature:
    tag: str
    functions: frozenset
    constants: frozenset
    relations: frozenset

    def with_extensions(self, setminus=False, delta=False) -> "Signature":
        funcs = set(self.functions)
        if setminus:
            funcs.add("setminus")
        if delta:
            funcs.add("delta")
        return Signature(self.tag, frozenset(funcs), self.constants,
                         self.relations)


# bot is core in the functional signatures and kept available in MO as a
# convenience for the (definable) empty set.
MO = Signature("mo", frozenset(), frozenset({"bot"}),
               frozenset({"subset", "ltE", "="}))
MSOFIN = Signature("msofin", frozenset({"union", "inter", "sinv"}),
                   frozenset({"bot", "zero", "zerostar"}), frozenset({"="}))
WSO = Signature("wso", frozenset({"union", "inter", "min", "max", "msinv"}),
                frozenset({"bot", "zero"}), frozenset({"="}))
LCI = Signature("lci", frozenset({"union", "inter", "min", "max", "l", "r"}),
                frozenset({"bot", "zero"}), frozenset({"="}))

SIGNATURES = {"mo": MO, "msofin": MSOFIN, "wso": WSO, "lci": LCI}

VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# Grammar and parsing

# the grammar the printer and the parser share: the head of each formula
# node, and the slots after the head in each shape (f a formula, t a term,
# v a variable, b a list of block variables); (op ...) has ARITY[op] t slots
_HEADS = {Eq: "(=", SubsetAtom: "(subset", LtEAtom: "(ltE", Not: "(not",
          And: "(and", Or: "(or", Implies: "(implies", Exists: "(exists",
          Forall: "(forall", ExistsPartition: "(exists-partition"}
_KINDS = {head[1:]: kind for kind, head in _HEADS.items()}
_SLOTS = {_LEAF: "tt", _NOT: "f", _BINARY: "ff", _BINDER: "vf", _PARTITION: "bf"}

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def _error(text: str, i: int, message: str) -> SyntaxErrorAt:
    """The SyntaxErrorAt for message at token i of text: at the character
    where a _TOKEN_RE scan finds that token, or at len(text) for the end of
    input."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)]
    return SyntaxErrorAt(message, starts[i])


def parse(text: str, sig: Signature) -> Formula:
    """The formula written in text over sig.  One loop over the tokens of one
    str.split (its whitespace is the \\s of _TOKEN_RE) builds each node when
    its ')' arrives, so the depth is not bounded by the recursion limit, and
    gives each distinct leaf name one Var or Const.  A malformed text raises
    SyntaxErrorAt at the first offending token, which _error then places."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    tokens.append(None)
    leaves = {c: Const(c) for c in sig.constants}  # token -> its one leaf
    stack: list = []  # open nodes: [type or function symbol, slots, children]
    kind, slots, children = None, "f", []  # stands in for the root's parent
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        if tok is None:
            raise _error(text, i - 1, "unexpected end of input")
        n = len(children)
        slot = slots[n] if n < len(slots) else ")"
        if slot == ")":
            if tok != ")":
                raise _error(text, i - 1, f"expected ')', found {tok!r}")
            node = (App(kind, tuple(children)) if type(kind) is str
                    else kind(*children))
            stack.pop()
            if not stack:
                if tokens[i] is not None:
                    raise _error(text, i, "trailing input")
                return node
            kind, slots, children = stack[-1]
            children.append(node)
        elif slot == "v":
            if not VAR_RE.match(tok):
                raise _error(text, i - 1, f"bad variable token {tok!r}")
            children.append(tok)
        elif slot == "t" and tok != "(":
            leaf = leaves.get(tok)
            if leaf is None:
                if tok == ")":
                    raise _error(text, i - 1, "unexpected ')'")
                if not VAR_RE.match(tok):
                    raise _error(text, i - 1, f"unknown token {tok!r}")
                leaf = leaves[tok] = Var(tok)
            children.append(leaf)
        elif tok != "(":
            raise _error(text, i - 1, f"expected '(', found {tok!r}")
        elif slot == "b":
            blocks = []
            while tokens[i] != ")":
                tok = tokens[i]
                i += 1
                if tok is None:
                    raise _error(text, i - 1, "unexpected end of input")
                if not VAR_RE.match(tok):
                    raise _error(text, i - 1, f"bad variable token {tok!r}")
                blocks.append(tok)
            i += 1
            children.append(tuple(blocks))
        else:
            head = tokens[i]
            i += 1
            if head is None:
                raise _error(text, i - 1, "unexpected end of input")
            if slot == "t":
                if head not in ARITY:
                    raise _error(text, i - 1,
                                 f"unknown function symbol {head!r}")
                if head not in sig.functions:
                    raise _error(text, i - 1, f"function {head!r} not in "
                                 f"signature {sig.tag!r}")
                kind, slots = head, "t" * ARITY[head]
            else:
                kind = _KINDS.get(head)
                if kind is None:
                    raise _error(text, i - 1, f"unknown formula head {head!r}")
                if _SHAPE[kind] == _LEAF and head not in sig.relations:
                    raise _error(text, i - 1, f"relation {head!r} not in "
                                 f"signature {sig.tag!r}")
                slots = _SLOTS[_SHAPE[kind]]
            children = []
            stack.append([kind, slots, children])


# ---------------------------------------------------------------------------
# Printing

def _write(node, out: list) -> None:
    """Append the text of a term or formula to out, token by token: the text
    is joined once at the top, so no node's text is copied again at every
    enclosing level."""
    kind = type(node)
    if kind is Var or kind is Const:
        out.append(node.name)
        return
    if kind is RAtom:
        out.append("(R " + " ".join(node.args) + ")")
        return
    if kind is App:
        out.append("(" + node.op)
        children = node.args
    else:
        shape = _SHAPE.get(kind)
        if shape is None:
            raise TypeError(f"not a formula: {node!r}")
        out.append(_HEADS[kind])
        if shape == _BINDER:
            out.append(" " + node.var)
        elif shape == _PARTITION:
            out.append(" (" + " ".join(node.block_vars) + ")")
        children = ((node.left, node.right) if shape in (_LEAF, _BINARY)
                    else (node.body,))
    for child in children:
        out.append(" ")
        _write(child, out)
    out.append(")")


def print_formula(f: Formula) -> str:
    if type(f) not in _SHAPE:
        raise TypeError(f"not a formula: {f!r}")
    out: list = []
    try:
        _write(f, out)
    except RecursionError:
        raise EvalError("formula nested too deeply") from None
    return "".join(out)


# ---------------------------------------------------------------------------
# Variables and substitution

def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Const):
        return set()
    out: set[str] = set()
    for a in t.args:
        out |= term_vars(a)
    return out


def free_vars(f: Formula) -> set[str]:
    """The free variables of f; the walk recurses once per nesting level,
    so a formula nested past the interpreter's limit is an EvalError."""
    try:
        return _free_vars(f)
    except RecursionError:
        raise EvalError("formula nested too deeply") from None


def _free_vars(f: Formula) -> set[str]:
    if isinstance(f, ATOM_TYPES):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, Not):
        return _free_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return _free_vars(f.left) | _free_vars(f.right)
    if isinstance(f, (Exists, Forall)):
        return _free_vars(f.body) - {f.var}
    if isinstance(f, ExistsPartition):
        return _free_vars(f.body) - set(f.block_vars)
    if isinstance(f, RAtom):
        return set(f.args)
    raise TypeError(f"not a formula: {f!r}")


def all_vars(f: Formula) -> set[str]:
    out: set[str] = set()
    for g in subformulas(f):
        if isinstance(g, ATOM_TYPES):
            out |= term_vars(g.left) | term_vars(g.right)
        elif isinstance(g, (Exists, Forall)):
            out.add(g.var)
        elif isinstance(g, ExistsPartition):
            out.update(g.block_vars)
        elif isinstance(g, RAtom):
            out.update(g.args)
    return out


class FreshVars:
    """Generator of variable names avoiding a given set."""

    def __init__(self, avoid: Iterable[str] = ()):
        self.avoid = set(avoid)
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        while True:
            self.counter += 1
            name = f"{prefix}{self.counter}"
            if name not in self.avoid:
                self.avoid.add(name)
                return name


def _subst_term(t: Term, mapping: dict) -> Term:
    kind = type(t)
    if kind is Var:
        return mapping.get(t.name, t)
    if kind is Const:
        return t
    return App(t.op, tuple([_subst_term(a, mapping) for a in t.args]))


def substitute(f: Formula, mapping: dict) -> Formula:
    """Simultaneous capture-avoiding substitution of terms for free variables.

    `mapping` sends variable names to terms; every free occurrence is replaced
    in one traversal, so values are never rewritten by other entries.  The
    variables of Exists/Forall and the block variables of ExistsPartition are
    binders: a bound name shadows its entry, and a bound name that would
    capture a variable of a substituted value is renamed to a fresh one."""

    def go(g: Formula, m: dict, vv: dict) -> Formula:
        # vv maps each key of m to the variables of its value
        kind = type(g)
        shape = _SHAPE.get(kind)
        if shape == _BINARY:
            return kind(go(g.left, m, vv), go(g.right, m, vv))
        if shape == _LEAF:
            if kind is not RAtom:
                return kind(_subst_term(g.left, m), _subst_term(g.right, m))
            # power atoms take bare variable arguments; only var-for-var works
            args = []
            for a in g.args:
                value = m.get(a, Var(a))
                if type(value) is not Var:
                    raise ValueError(
                        "cannot substitute a complex term into a power atom")
                args.append(value.name)
            return RAtom(g.seq, tuple(args))
        if shape == _NOT:
            return Not(go(g.body, m, vv))
        if shape is None:
            raise TypeError(f"not a formula: {g!r}")
        bound = g.block_vars if shape == _PARTITION else (g.var,)
        inner = {k: v for k, v in m.items() if k not in bound}
        if not inner:
            return g
        captured = {b for k in inner for b in bound if b in vv[k]}
        if captured:
            # only entries that really occur free under the binder count
            live = free_vars(g.body)
            inner = {k: v for k, v in inner.items() if k in live}
            captured = {b for k in inner for b in bound if b in vv[k]}
        if captured:
            fresh = FreshVars(all_vars(g.body) | set(bound) | set(inner)
                              | set().union(*(vv[k] for k in inner)))
            vv = dict(vv)
            for b in sorted(captured):
                new = fresh.fresh(b.rstrip("0123456789") or "V")
                inner[b] = Var(new)
                vv[b] = {new}
            bound = tuple(inner[b].name if b in captured else b
                          for b in bound)
        body = go(g.body, inner, vv)
        if shape == _PARTITION:
            return ExistsPartition(bound, body)
        return kind(bound[0], body)

    if not mapping:
        return f
    return go(f, mapping, {k: term_vars(v) for k, v in mapping.items()})


# ---------------------------------------------------------------------------
# Unnesting

def unnest_atom(f: Formula, fresh: FreshVars) -> Formula:
    """Hoist nested function applications out of an atomic formula using
    existentially quantified auxiliaries, preserving truth in every structure.

    Each side is walked once in post-order, arguments left to right, the
    left side first.  Every application met is hoisted to a fresh variable
    except the one the atom keeps: the top of the right side, or the top of
    the left side when the right side has none.  Equal subterms of one side
    share one auxiliary."""
    hoisted: list[tuple[str, Term]] = []

    def side(t: Term, keep_top: bool) -> Term:
        names: dict = {}

        def go(s: Term, top: bool) -> Term:
            if type(s) is not App:
                return s
            s = App(s.op, tuple([go(a, False) for a in s.args]))
            if top and keep_top:
                return s
            name = names.get(s)
            if name is None:
                name = names[s] = fresh.fresh("U")
                hoisted.append((name, s))
            return Var(name)

        return go(t, True)

    left = side(f.left, keep_top=type(f.right) is not App)
    right = side(f.right, keep_top=True)
    core: Formula = type(f)(left, right)
    for name, term in reversed(hoisted):
        core = Exists(name, And(Eq(Var(name), term), core))
    return core


def unnest(f: Formula, fresh: FreshVars) -> Formula:
    """Equivalent formula in which every atomic subformula holds at most one
    function symbol, the rest being variables and constants; auxiliaries are
    named by `fresh`.  First-order input only, as for `map_atoms`."""
    return map_atoms(f, lambda g: unnest_atom(g, fresh))


# ---------------------------------------------------------------------------
# Shape predicates used by the rewriting layer

_QF_NODES = ATOM_TYPES + (RAtom, Not, And, Or, Implies)
_PE_NODES = ATOM_TYPES + (RAtom, And, Or, Exists)


def is_quantifier_free(f: Formula) -> bool:
    return all(isinstance(g, _QF_NODES) for g in subformulas(f))


def is_positive_existential(f: Formula) -> bool:
    """No negation, implication or universal quantification anywhere."""
    return all(isinstance(g, _PE_NODES) for g in subformulas(f))


def is_existential(f: Formula, positive: bool = True) -> bool:
    """No universal quantifier and no existential quantifier under negation
    or on the left of an implication; with positive False, of (not f)."""
    kind = type(f)
    if kind is Not:
        return is_existential(f.body, not positive)
    if kind is And or kind is Or:
        return (is_existential(f.left, positive)
                and is_existential(f.right, positive))
    if kind is Implies:
        return (is_existential(f.left, not positive)
                and is_existential(f.right, positive))
    if kind is Exists or kind is Forall:
        return (positive is (kind is Exists)
                and is_existential(f.body, positive))
    return isinstance(f, ATOM_TYPES + (RAtom,))


def formula_ops(f: Formula) -> set[str]:
    """All function symbols occurring anywhere in the formula."""
    return {t.op for g in subformulas(f) if isinstance(g, ATOM_TYPES)
            for side in (g.left, g.right) for t in subterms(side)
            if isinstance(t, App)}
