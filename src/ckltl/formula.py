"""Formula ASTs, parser, printer, and desugaring for the logic.

The logic is linear-time temporal logic with past operators, extended with a
per-agent knowledge operator ``K[a]`` (synchronous perfect recall) and four
Lewis-style counterfactual operators: ``WOULD[a]`` / ``MIGHT[a]`` and their
chain-quantified variants ``UWOULD[a]`` / ``EMIGHT[a]``.

Concrete syntax is plain text.  Grammar, loosest to tightest binding::

    iff   := impl ('<->' impl)*                 left associative
    impl  := or ('->' or)*                      right associative
    or    := and ('|' and)*
    and   := cf ('&' cf)*
    cf    := until (CFOP '[' agent ']' until)?  CFOP: WOULD MIGHT UWOULD EMIGHT
    until := unary (('U' | 'S') unary)*         right associative
    unary := ('!' | 'X' | 'F' | 'G' | 'Y' | 'O' | 'H' | 'K' '[' agent ']') unary
           | atom
    atom  := 'true' | 'false' | ident | ident '@' ident | '(' iff ')'

One compiled regular expression (``_TOKEN``) splits the text into token
strings.  Whitespace is space, tab, CR and LF.  An identifier starts with a
character that passes ``isalpha()`` or is ``_`` and goes on with characters
that pass ``isalnum()`` or are ``_``; the keywords above are not identifiers.
No position is kept per token: a :class:`ParseError` computes its 1-based line
and column from the token's offset when it is raised.

The parser is one loop over the tokens with a stack of pending operators,
ordered by one precedence table, ``_INFIX_OPS``: the binary connectives of
``_BINARY`` (precedence, node class, right associativity), which the printer
shares, then ``U``/``S`` and the counterfactuals.  It does not recurse, so
no nesting is too deep for it.

Counterfactual operators do not associate: nesting one under another requires
parentheses.  A traced atom ``p@pi`` reads proposition ``p`` on the trace bound
to the variable ``pi``; traced atoms only make sense inside relational
(similarity) formulas, which are evaluated over triples of traces.

The core fragment (what the evaluators consume) is: constants, atoms, traced
atoms, Not, And, Next, Until, Prev, Since, Know, Would, UWould.  Everything
else is surface sugar preserved by the parser for round-trip printing and
removed by :func:`desugar`.

Formula nodes are hash-consed (Filliatre and Conchon, "Type-Safe Modular
Hash-Consing", 2006): every constructor, which the base class `HashConsed`
makes for each node class from its number of fields, looks its node up in one
module-level unique table keyed by (type, scalar fields, child nodes), so a
formula is a DAG in which structurally equal subformulas are one object.
Equality and hashing are identity, nodes are immutable, and
`parse(to_source(f)) is f`.  The table holds its nodes weakly, so formulas
that nobody refers to any more leave it.  Through `memo` the same table also
maps a source text to its parse, a subset-similarity relation and a
requirement to their live nodes, weakly too: while a formula lives, building
it again returns it without rebuilding it; and a similarity relation built
while an equal, checked one lives is not checked again.
The first-order nodes of `foe` subclass `HashConsed` too and share the table,
but they are not `Formula`s: `desugar` and `to_source` reject them.
Printing, desugaring, counting and traversal are iterative postorders over
the DAG (`postorder`, given a children function): no formula is too deep or
too wide for them.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Iterator


# ---------------------------------------------------------------------------
# AST nodes (hash-consed)
# ---------------------------------------------------------------------------


class _Entry(weakref.ref):
    """Unique-table entry: a weak reference to a node that knows its key."""

    __slots__ = ("key",)


def _forget(entry: _Entry) -> None:
    # atomic, and only while the key still maps to a dead entry: an equal
    # node built after this one died may hold the key by now
    _remove_dead_weakref(_TABLE, entry.key)


_TABLE: dict[tuple, _Entry] = {}  # (type, *fields) -> entry of the live node
_new = object.__new__


def _add(key: tuple, node: HashConsed) -> HashConsed:
    """The table's node for `key`: `node`, unless an equal live node got in
    first.  Each step is one atomic dict operation, so no lock is needed."""
    entry = _Entry(node, _forget)
    entry.key = key
    while True:
        live = _TABLE.setdefault(key, entry)()
        if live is not None:
            return live
        _remove_dead_weakref(_TABLE, key)


def memo(key: tuple, build):
    """The live node the table holds under `key`, a tuple whose first item is
    the function or class that builds the node; if there is none, `build()`,
    recorded under `key` until it dies.  An exception from `build` records nothing."""
    entry = _TABLE.get(key)
    node = entry() if entry is not None else None
    return node if node is not None else _add(key, build())


# One constructor maker per number of fields.  Each takes the setters of a
# class's slots (the slot descriptors' `__set__`, which bypass the class's
# raising `__setattr__`) and returns that class's `__new__`: look the key up,
# and on a miss build the node and add it to the table.  A call with the
# wrong number of fields raises `TypeError` like any Python call.


def _new0():
    def __new__(cls):
        key = (cls,)
        entry = _TABLE.get(key)
        node = entry() if entry is not None else None
        return node if node is not None else _add(key, _new(cls))
    return __new__


def _new1(set_a):
    def __new__(cls, a):
        key = (cls, a)
        entry = _TABLE.get(key)
        node = entry() if entry is not None else None
        if node is None:
            node = _new(cls)
            set_a(node, a)
            node = _add(key, node)
        return node
    return __new__


def _new2(set_a, set_b):
    def __new__(cls, a, b):
        key = (cls, a, b)
        entry = _TABLE.get(key)
        node = entry() if entry is not None else None
        if node is None:
            node = _new(cls)
            set_a(node, a)
            set_b(node, b)
            node = _add(key, node)
        return node
    return __new__


def _new3(set_a, set_b, set_c):
    def __new__(cls, a, b, c):
        key = (cls, a, b, c)
        entry = _TABLE.get(key)
        node = entry() if entry is not None else None
        if node is None:
            node = _new(cls)
            set_a(node, a)
            set_b(node, b)
            set_c(node, c)
            node = _add(key, node)
        return node
    return __new__


_CONSTRUCTORS = (_new0, _new1, _new2, _new3)


class HashConsed:
    """Base class of hash-consed nodes: formulas here and the first-order
    nodes of `foe`.

    A constructor call returns the one live node of its type with the same
    fields, found in a unique table keyed by the type, the scalar fields and
    the child nodes, so structurally equal nodes are the same object:
    equality and hashing are identity, and setting a field raises.  The table
    refers to its nodes weakly, so a node lives exactly as long as some
    caller or parent node holds it.  A subclass declares its fields, in
    constructor order, as its `__slots__` (at most three), and gets the
    constructor for that many fields when the class is made."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        setters = [getattr(cls, name).__set__ for name in cls.__slots__]
        new = _CONSTRUCTORS[len(setters)](*setters)
        new.__qualname__ = f"{cls.__qualname__}.__new__"  # named in a TypeError
        cls.__new__ = staticmethod(new)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"formula nodes are immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), _fields(self)


class Formula(HashConsed):
    """Base class for all formula nodes."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"parse({to_source(self)!r})"


def _fields(f: HashConsed) -> tuple:
    """Constructor arguments of `f`, in order."""
    return tuple(getattr(f, name) for name in type(f).__slots__)


# -- core nodes --


class TrueConst(Formula):
    __slots__ = ()


class FalseConst(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("name",)


class TracedAtom(Formula):
    """Proposition `name` read on the trace bound to variable `trace_var`."""

    __slots__ = ("name", "trace_var")


class Not(Formula):
    __slots__ = ("child",)


class And(Formula):
    __slots__ = ("left", "right")


class Next(Formula):
    __slots__ = ("child",)


class Until(Formula):
    __slots__ = ("left", "right")


class Prev(Formula):
    """Previous-step operator (`Y`); false at the first position of a trace."""

    __slots__ = ("child",)


class Since(Formula):
    __slots__ = ("left", "right")


class Know(Formula):
    """`K[agent] child`: child holds on every observation-equivalent trace."""

    __slots__ = ("agent", "child")


class Would(Formula):
    """Lewis counterfactual `ante WOULD[agent] cons` (variably strict, no
    limit assumption): either no accessible trace satisfies the antecedent, or
    some accessible antecedent trace bounds a similarity threshold below which
    the antecedent forces the consequent."""

    __slots__ = ("agent", "ante", "cons")


class UWould(Formula):
    """Chain-wise counterfactual `ante UWOULD[agent] cons`: every accessible
    antecedent trace is at least as far as some threshold antecedent trace
    below which the antecedent forces the consequent."""

    __slots__ = ("agent", "ante", "cons")


# -- surface (derived) nodes --


class Or(Formula):
    __slots__ = ("left", "right")


class Implies(Formula):
    __slots__ = ("left", "right")


class Iff(Formula):
    __slots__ = ("left", "right")


class Eventually(Formula):
    __slots__ = ("child",)


class Globally(Formula):
    __slots__ = ("child",)


class Once(Formula):
    __slots__ = ("child",)


class Historically(Formula):
    __slots__ = ("child",)


class Might(Formula):
    """Dual of Would: `ante MIGHT[agent] cons` == `!(ante WOULD[agent] !cons)`."""

    __slots__ = ("agent", "ante", "cons")


class EMight(Formula):
    """Dual of UWould: `ante EMIGHT[agent] cons` == `!(ante UWOULD[agent] !cons)`."""

    __slots__ = ("agent", "ante", "cons")


def children(f: Formula) -> tuple[Formula, ...]:
    """Operands in order: (child,), (left, right) or (ante, cons)."""
    get = _CHILDREN.get(type(f))
    return get(f) if get else ()


_CHILDREN = dict.fromkeys(
    (Not, Next, Prev, Eventually, Globally, Once, Historically, Know),
    lambda f: (f.child,),
)
_CHILDREN.update(dict.fromkeys(
    (And, Or, Implies, Iff, Until, Since), lambda f: (f.left, f.right)))
_CHILDREN.update(dict.fromkeys(
    (Would, UWould, Might, EMight), lambda f: (f.ante, f.cons)))


def subformulas(f: Formula) -> Iterator[Formula]:
    """Postorder traversal of distinct subformulas, left operand first."""
    return postorder(f, children)


def postorder(root: HashConsed, kids) -> Iterator[HashConsed]:
    """Distinct nodes reachable from `root` through `kids(node)`, each after
    its children, left operand first.

    Iterative: a node met the first time is pushed back under a `None`
    marker with its children above it, and yielded when the marker comes
    up; a subtree met again is skipped whole, as everything in it has been
    yielded already."""
    seen: set[HashConsed] = set()
    stack: list = [root]
    while stack:
        g = stack.pop()
        if g is None:
            g = stack.pop()
            seen.add(g)
            yield g
        elif g not in seen:
            stack += (g, None)
            stack += kids(g)[::-1]


def node_count(f: Formula) -> int:
    """Size of `f` as a tree: a subformula counts once per occurrence."""
    size: dict[Formula, int] = {}
    for g in subformulas(f):
        size[g] = 1 + sum(size[c] for c in children(g))
    return size[f]


# ---------------------------------------------------------------------------
# Desugaring
# ---------------------------------------------------------------------------

# surface node -> its core form, built over the already desugared fields
_SUGAR = {
    Or: lambda a, b: Not(And(Not(a), Not(b))),
    Implies: lambda a, b: Not(And(a, Not(b))),
    Iff: lambda a, b: And(Not(And(a, Not(b))), Not(And(b, Not(a)))),
    Eventually: lambda a: Until(TrueConst(), a),
    Globally: lambda a: Not(Until(TrueConst(), Not(a))),
    Once: lambda a: Since(TrueConst(), a),
    Historically: lambda a: Not(Since(TrueConst(), Not(a))),
    Might: lambda agent, a, c: Not(Would(agent, a, Not(c))),
    EMight: lambda agent, a, c: Not(UWould(agent, a, Not(c))),
}


def desugar(f: Formula) -> Formula:
    """Rewrite derived operators into the core fragment.

    Identities used:
      a | b        == !(!a & !b)
      a -> b       == !(a & !b)
      a <-> b      == (a -> b) & (b -> a)
      F a          == true U a
      G a          == !F !a
      O a          == true S a
      H a          == !O !a
      MIGHT[g]     == !(ante WOULD[g] !cons)
      EMIGHT[g]    == !(ante UWOULD[g] !cons)

    Each distinct subformula is rewritten once, in postorder.  A core node is
    rebuilt over its rewritten children, which hash-consing turns back into
    the node itself when they are unchanged: `desugar(core) is core`.
    """
    core: dict[Formula, Formula] = {}
    for g in subformulas(f):
        if not isinstance(g, Formula):
            raise TypeError(f"not a formula node: {g!r}")
        args = [core[v] if isinstance(v, Formula) else v for v in _fields(g)]
        core[g] = _SUGAR.get(type(g), type(g))(*args)
    return core[f]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_KEYWORDS = frozenset(
    ["true", "false", "U", "S", "X", "F", "G", "Y", "O", "H", "K",
     "WOULD", "MIGHT", "UWOULD", "EMIGHT"]
)

# Skipped whitespace, then one token: an arrow, a punctuation character, a
# run of word characters, or any other single character.  `\w` is exactly
# `isalnum()` or `_`, so a run is an identifier or keyword when its first
# character passes `isalpha()` or is `_`.  Runs that start otherwise and
# single characters outside `_PUNCT` are tokens no rule accepts; the first of
# them is reported as an unexpected character.
_TOKEN = re.compile(r"[ \t\r\n]*(<->|->|[()\[\]@!&|]|\w+|[^ \t\r\n])")
_PUNCT = frozenset(["<->", "->", "(", ")", "[", "]", "@", "!", "&", "|"])
_SPACE = " \t\r\n"


def _scan_end(text: str) -> int:
    """Where token scanning stops: before trailing whitespace, where every
    match attempt would scan to the end of the text and fail."""
    return len(text.rstrip(_SPACE))


def _is_ident(tok: str) -> bool:
    return tok not in _KEYWORDS and (tok[:1].isalpha() or tok[:1] == "_")


def _is_token(tok: str) -> bool:
    return tok in _PUNCT or tok in _KEYWORDS or _is_ident(tok)


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _syntax_error(text: str, token: re.Pattern, valid, k: int, message: str) -> ParseError:
    """`message` at the `k`-th match of `token` in `text`, whose position is
    found only now.  The first token that `valid` rejects, anywhere in the
    text, is reported instead as an unexpected character, as a tokenizer that
    reads the whole text before parsing would: no parse consumes one."""
    offsets = []
    for m in token.finditer(text, 0, _scan_end(text)):
        tok = m.group(1)
        if not valid(tok):
            return ParseError(
                f"unexpected character {tok[0]!r}", *_line_col(text, m.start(1))
            )
        offsets.append(m.start(1))
    offsets.append(len(text))
    return ParseError(message, *_line_col(text, offsets[k]))


# ---------------------------------------------------------------------------
# Parser (operator precedence, one loop)
# ---------------------------------------------------------------------------

# precedence levels, shared with the printer; higher binds tighter
_P_IFF, _P_IMPL, _P_OR, _P_AND, _P_CF, _P_UNTIL, _P_UNARY, _P_ATOM = range(8)

# binary connectives: precedence, node, right associative
_BINARY = {
    "<->": (_P_IFF, Iff, False),
    "->": (_P_IMPL, Implies, True),
    "|": (_P_OR, Or, False),
    "&": (_P_AND, And, False),
}
_CF_OPS = {"WOULD": Would, "MIGHT": Might, "UWOULD": UWould, "EMIGHT": EMight}
_UNTIL_OPS = {"U": Until, "S": Since}
_PREFIX_OPS = {
    "!": Not,
    "X": Next,
    "F": Eventually,
    "G": Globally,
    "Y": Prev,
    "O": Once,
    "H": Historically,
}
# every infix operator: precedence, node, right associative.  Counterfactuals
# do not associate; marked right associative, a pending one stays on the
# stack when the next arrives, for the parser to refuse.
_INFIX_OPS = {**_BINARY, **{t: (_P_CF, n, True) for t, n in _CF_OPS.items()},
              **{t: (_P_UNTIL, n, True) for t, n in _UNTIL_OPS.items()}}
_OPEN = (-1, None)  # an open parenthesis, or the bottom of the operator stack


def _error(text: str, k: int, message: str) -> ParseError:
    return _syntax_error(text, _TOKEN, _is_token, k, message)


def _agent(text: str, toks: list[str], k: int) -> str:
    """The agent of the `[ name ]` that starts at token `k`."""
    if toks[k] != "[":
        raise _error(text, k, f"expected '[', found {toks[k] or 'end of input'!r}")
    if not _is_ident(toks[k + 1]):
        raise _error(text, k + 1, "expected an agent name")
    if toks[k + 2] != "]":
        raise _error(text, k + 2, f"expected ']', found {toks[k + 2] or 'end of input'!r}")
    return toks[k + 1]


def parse(text: str) -> Formula:
    """Parse concrete syntax into an AST, preserving surface operators.

    Raises :class:`ParseError` with line/column on malformed input.  The
    formula of a text is kept in the unique table while it lives, so parsing
    a text again returns it without reading the text.
    """
    return memo((parse, text), partial(_parse, text))


def _parse(text: str) -> Formula:
    """Read operands, each after its prefix operators, and the infix operator
    after each.  `ops` holds the pending operators as (precedence,
    constructor), innermost last, and `lefts` the left operands of the infix
    ones; an operator is applied once an operand is complete and no operator
    after it binds tighter."""
    toks = _TOKEN.findall(text, 0, _scan_end(text)) + [""]  # "": end of input
    ops, lefts = [_OPEN], []
    pos = depth = 0
    while True:
        t = toks[pos]
        pos += 1
        if t in _PREFIX_OPS:
            ops.append((_P_UNARY, _PREFIX_OPS[t]))
            continue
        if t == "K":
            ops.append((_P_UNARY, partial(Know, _agent(text, toks, pos))))
            pos += 3
            continue
        if t == "(":
            ops.append(_OPEN)
            depth += 1
            continue
        if t == "true":
            f = TrueConst()
        elif t == "false":
            f = FalseConst()
        elif not _is_ident(t):
            raise _error(text, pos - 1, f"expected a formula, found {t or 'end of input'!r}")
        elif toks[pos] != "@":
            f = Atom(t)
        elif _is_ident(toks[pos + 1]):
            f = TracedAtom(t, toks[pos + 1])
            pos += 2
        else:
            raise _error(text, pos + 1, "expected a trace variable after '@'")
        while True:  # `f` is complete: apply what binds tighter than the next token
            while ops[-1][0] == _P_UNARY:
                f = ops.pop()[1](f)
            t = toks[pos]
            op = _INFIX_OPS.get(t)
            bar = op[0] + op[2] if op else 0  # pending operators this tight or tighter apply
            while ops[-1][0] >= bar:
                f = ops.pop()[1](lefts.pop(), f)
            if op:
                break
            if t == ")" and depth:
                ops.pop()
                depth -= 1
                pos += 1
            elif depth:
                raise _error(text, pos, f"expected ')', found {t or 'end of input'!r}")
            elif t:
                raise _error(text, pos, f"unexpected trailing input {t!r}")
            else:
                return f
        prec, node, _ = op
        if prec == _P_CF:
            if ops[-1][0] == _P_CF:
                raise _error(text, pos, "counterfactual operators do not associate; parenthesize")
            node = partial(node, _agent(text, toks, pos + 1))
            pos += 3
        ops.append((prec, node))
        lefts.append(f)
        pos += 1


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_CF_NAMES = {node: text for text, node in _CF_OPS.items()}
_PREFIX_NAMES = {node: text for text, node in _PREFIX_OPS.items()}
# infix nodes: operator text, right associative
_INFIX = {node: (text, right) for text, (_, node, right) in _BINARY.items()}
_INFIX.update({Until: ("U", True), Since: ("S", True)})
_PREC = {node: prec for prec, node, _ in _BINARY.values()}
_PREC.update({Until: _P_UNTIL, Since: _P_UNTIL, Know: _P_UNARY})
_PREC.update(dict.fromkeys(_CF_NAMES, _P_CF))
_PREC.update(dict.fromkeys(_PREFIX_NAMES, _P_UNARY))


def to_source(f: Formula) -> str:
    """Render `f` in canonical concrete syntax; `parse(to_source(f)) is f`.

    Iterative: a stack holds the text still to emit and the (node, context
    precedence) pairs still to render, and pieces are joined once at the end,
    so the cost is linear in the output."""
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, ctx = item
        cls = type(g)
        p = _PREC.get(cls, _P_ATOM)
        if p < ctx:
            out.append("(")
            stack.append(")")
        if cls in _INFIX:
            op, right = _INFIX[cls]
            # the operand on the associating side shares the operator's level
            lp, rp = (p + 1, p) if right else (p, p + 1)
            stack += ((g.right, rp), f" {op} ", (g.left, lp))
        elif cls in _CF_NAMES:
            # non-associative: both operands live one level up (until tier)
            stack += ((g.cons, p + 1), f" {_CF_NAMES[cls]}[{g.agent}] ", (g.ante, p + 1))
        elif cls is Not:
            out.append("!")
            stack.append((g.child, p))
        elif cls in _PREFIX_NAMES:
            out.append(f"{_PREFIX_NAMES[cls]} ")
            stack.append((g.child, p))
        elif cls is Know:
            out.append(f"K[{g.agent}] ")
            stack.append((g.child, p))
        elif cls is TrueConst:
            out.append("true")
        elif cls is FalseConst:
            out.append("false")
        elif cls is Atom:
            out.append(g.name)
        elif cls is TracedAtom:
            out.append(f"{g.name}@{g.trace_var}")
        else:  # by type name: a node's repr is printed by this function
            raise TypeError(f"not a formula node: {cls.__name__}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Relational (similarity) formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationalViolation:
    kind: str  # 'forbidden-operator' | 'undeclared-trace-variable' | 'untraced-atom'
    detail: str
    path: str


class RelationalFormulaError(ValueError):
    """Raised when a formula is not a valid relational (similarity) formula."""

    def __init__(self, violations: list[RelationalViolation]):
        self.violations = tuple(violations)
        lines = "; ".join(f"{v.kind}: {v.detail} at {v.path}" for v in violations)
        super().__init__(f"not a relational formula: {lines}")


@dataclass(frozen=True)
class RelationalFormula:
    """A similarity relation: a formula over three distinct trace variables
    (reference, nearer, farther), evaluated on triples of traces.  Building
    one is its one check: traced atoms over the parameters, constants,
    boolean connectives and temporal operators only, no Know, counterfactual
    or plain atom, else :class:`RelationalFormulaError` lists every offending
    node.  An equal relation built while a checked one lives is not walked
    again (see `memo`)."""

    params: tuple[str, str, str]
    formula: Formula

    def __post_init__(self):
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"duplicate trace parameters: {self.params!r}")
        memo((RelationalFormula, self.params, self.formula), self._checked)

    def _checked(self) -> RelationalFormula:
        params, violations = self.params, []
        # preorder, left operand first; a path is "root" or (parent path,
        # step), rendered only for a violation
        stack: list[tuple[Formula, object]] = [(self.formula, "root")]
        while stack:
            g, path = stack.pop()
            cls = type(g)
            if cls is TracedAtom:
                if g.trace_var not in params:
                    violations.append(RelationalViolation(
                        "undeclared-trace-variable", g.trace_var, _path_text(path)))
                continue
            if cls is Know or cls in _CF_NAMES:
                op = "K" if cls is Know else _CF_NAMES[cls]
                violations.append(
                    RelationalViolation("forbidden-operator", op, _path_text(path)))
            elif cls is Atom:
                violations.append(RelationalViolation("untraced-atom", g.name, _path_text(path)))
            kids = children(g)
            if len(kids) == 1:
                stack.append((kids[0], (path, ".child")))
            elif len(kids) == 2:
                stack.append((kids[1], (path, ".right")))
                stack.append((kids[0], (path, ".left")))
        if violations:
            raise RelationalFormulaError(violations)
        return self


def _path_text(path) -> str:
    steps = []
    while isinstance(path, tuple):
        path, step = path
        steps.append(step)
    return path + "".join(reversed(steps))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def conjoin(parts: list[Formula]) -> Formula:
    """Left-associative conjunction of `parts`; `true` when empty."""
    if not parts:
        return TrueConst()
    f = parts[0]
    for g in parts[1:]:
        f = And(f, g)
    return f


def disjoin(parts: list[Formula]) -> Formula:
    """Left-associative disjunction of `parts`; `false` when empty."""
    if not parts:
        return FalseConst()
    f = parts[0]
    for g in parts[1:]:
        f = Or(f, g)
    return f


def build_minimal_antecedent(
    conjuncts: list[Formula], consequent: Formula, agent: str
) -> Formula:
    """Assert that the whole conjunction could lead to the consequent while no
    proper nonempty sub-conjunction could::

        (c1 & ... & cn MIGHT[a] psi)
          & !(S MIGHT[a] psi)   for every nonempty proper subset S

    Subsets are enumerated by ascending size, then by index order, so the
    output is deterministic.  The result contains exactly 2^n - 1 MIGHT
    occurrences for n conjuncts.
    """
    n = len(conjuncts)
    if n == 0:
        raise ValueError("need at least one conjunct")
    parts: list[Formula] = [Might(agent, conjoin(conjuncts), consequent)]
    for size in range(1, n):
        for idxs in combinations(range(n), size):
            sub = conjoin([conjuncts[i] for i in idxs])
            parts.append(Not(Might(agent, sub, consequent)))
    return conjoin(parts)
