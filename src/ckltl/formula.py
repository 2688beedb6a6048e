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

One compiled regular expression (``_TOKEN``) splits formulas and `foe`'s FO
sentences into token strings.  Whitespace is space, tab, CR and LF.  An
identifier starts with a character that passes ``isalpha()`` or is ``_`` and
goes on with characters that pass ``isalnum()`` or are ``_``; the keywords
above are not identifiers.  No position is kept per token: a
:class:`ParseError` computes its 1-based line and column from the token's
offset when it is raised.

The parser is `read`, one loop over the tokens with a stack of pending
operators, and the whole front end of `parse` and `foe.parse_fo`.  Each
language supplies its token-validity rule, its operand reader and its tables
of prefix and infix operators, here ``_PREFIXES`` and ``_INFIX_OPS``: the
binary connectives of ``_BINARY`` (precedence, node class, right
associativity), which the printer shares, then ``U``/``S`` and the
counterfactuals.  It does not recurse, so no nesting is too deep for it.

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
maps a source text to its parse, a subset relation's propositions and
parameters to the checked relation, a requirement to its live node, and a
structure's content and generation bounds to its trace universe
(`trace.generate_universe`), weakly too: while a formula or universe lives,
building it again returns it without rebuilding it; and a similarity
relation built while an equal, checked one lives is not checked again.
The first-order nodes of `foe` subclass `HashConsed` too and share the table,
but they are not `Formula`s: `desugar` and `to_source` reject them.  One
toolkit serves both: `foe` registers its operands in `_CHILDREN`, which
`children`, `subformulas` and `node_count` read, prints through `render`
and parses through `read`.
Printing, desugaring, counting and traversal are iterative postorders over
the DAG: no formula is too deep or too wide for them.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from functools import partial, reduce
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
    """The live object the table holds under `key`, a tuple whose first item is
    the function or class that builds the object (a node, or any object that
    can be weakly referenced); if there is none, `build()`, recorded under
    `key` until it dies.  An exception from `build` records nothing."""
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


def children(f: HashConsed) -> tuple[HashConsed, ...]:
    """Operands in order: (child,), (left, right), (ante, cons) or (body,)."""
    return _CHILDREN.get(type(f), _leaf)(f)


_leaf = lambda f: ()  # the operands of a node type `_CHILDREN` omits
# node type with operands -> its operands; `foe` adds the FO node types
_CHILDREN = dict.fromkeys(
    (Not, Next, Prev, Eventually, Globally, Once, Historically, Know),
    lambda f: (f.child,),
)
_CHILDREN.update(dict.fromkeys(
    (And, Or, Implies, Iff, Until, Since), lambda f: (f.left, f.right)))
_CHILDREN.update(dict.fromkeys(
    (Would, UWould, Might, EMight), lambda f: (f.ante, f.cons)))


def subformulas(f: HashConsed) -> Iterator[HashConsed]:
    """Distinct nodes reachable from `f` through `children`, each after its
    children, left operand first.

    Iterative: a node met the first time is pushed back under a `None`
    marker with its children above it, and yielded when the marker comes
    up; a subtree met again is skipped whole, as everything in it has been
    yielded already."""
    seen: set[HashConsed] = set()
    stack: list = [f]
    get = _CHILDREN.get
    while stack:
        g = stack.pop()
        if g is None:
            g = stack.pop()
            seen.add(g)
            yield g
        elif g not in seen:
            stack += (g, None)
            stack += get(type(g), _leaf)(g)[::-1]


def node_count(f: HashConsed) -> int:
    """Size of `f` as a tree: a subformula counts once per occurrence."""
    size: dict[HashConsed, int] = {}
    for g in subformulas(f):
        size[g] = 1 + sum(size[c] for c in children(g))
    return size[f]


# ---------------------------------------------------------------------------
# Desugaring
# ---------------------------------------------------------------------------

_implies = lambda a, b: Not(And(a, Not(b)))

# node type -> its rule: the core form of a node `g`, given the core forms of
# its operands in `core`; a core node whose operands keep their forms is `g`
_DESUGAR = {
    **dict.fromkeys((TrueConst, FalseConst, Atom, TracedAtom), lambda g, core: g),
    **dict.fromkeys((Not, Next, Prev), lambda g, core: (
        g if (a := core[g.child]) is g.child else type(g)(a))),
    **dict.fromkeys((And, Until, Since), lambda g, core: (
        g if (a := core[g.left]) is g.left and core[g.right] is g.right
        else type(g)(a, core[g.right]))),
    Know: lambda g, core: g if (a := core[g.child]) is g.child else Know(g.agent, a),
    **dict.fromkeys((Would, UWould), lambda g, core: (
        g if (a := core[g.ante]) is g.ante and core[g.cons] is g.cons
        else type(g)(g.agent, a, core[g.cons]))),
    Or: lambda g, core: Not(And(Not(core[g.left]), Not(core[g.right]))),
    Implies: lambda g, core: _implies(core[g.left], core[g.right]),
    Iff: lambda g, core: And(_implies(a := core[g.left], b := core[g.right]), _implies(b, a)),
    Eventually: lambda g, core: Until(TrueConst(), core[g.child]),
    Globally: lambda g, core: Not(Until(TrueConst(), Not(core[g.child]))),
    Once: lambda g, core: Since(TrueConst(), core[g.child]),
    Historically: lambda g, core: Not(Since(TrueConst(), Not(core[g.child]))),
    Might: lambda g, core: Not(Would(g.agent, core[g.ante], Not(core[g.cons]))),
    EMight: lambda g, core: Not(UWould(g.agent, core[g.ante], Not(core[g.cons]))),
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

    Each distinct subformula is rewritten once, in postorder, by the rule of
    its node type.  A leaf, or a core node whose operands rewrite to
    themselves, is returned as is, without a unique-table lookup:
    `desugar(core) is core`.  Any other node type raises `TypeError`.
    """
    core: dict[Formula, Formula] = {}
    rule = _DESUGAR.get
    for g in subformulas(f):
        rewrite = rule(type(g))
        if rewrite is None:
            raise TypeError(f"not a formula node: {g!r}")
        core[g] = rewrite(g, core)
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

# Skipped whitespace, then one token: an arrow, a run of word characters, or
# any other single character; formulas and FO sentences split text alike.
# `\w` is exactly `isalnum()` or `_`, so a run is an identifier or keyword
# when its first character passes `isalpha()` or is `_`.  Other runs, and
# single characters outside a language's punctuation, are tokens its validity
# rule rejects; the first of them is reported as an unexpected character.
_TOKEN = re.compile(r"[ \t\r\n]*(<->|->|\w+|[^ \t\r\n])")
_WORD = re.compile(r"\w+")
_PUNCT = frozenset(["<->", "->", "(", ")", "[", "]", "@", "!", "&", "|"])
_SPACE = " \t\r\n"


def _scan_end(text: str) -> int:
    """Where token scanning stops: before trailing whitespace, where every
    match attempt would scan to the end of the text and fail."""
    return len(text.rstrip(_SPACE))


def _is_ident(tok: str) -> bool:
    return tok not in _KEYWORDS and (tok[:1].isalpha() or tok[:1] == "_")


def _is_name(text: str) -> bool:
    """Whether formulas can write `text` as a name: it is one identifier token."""
    return _WORD.fullmatch(text) is not None and _is_ident(text)


def _is_token(tok: str) -> bool:
    return tok in _PUNCT or tok in _KEYWORDS or _is_ident(tok)


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _syntax_error(valid, text: str, k: int, message: str) -> ParseError:
    """`message` at the `k`-th token of `text`, whose position is found only
    now.  The first token that `valid` rejects, anywhere in the text, is
    reported instead as an unexpected character, as a tokenizer that reads
    the whole text before parsing would: no parse consumes one."""
    offsets = []
    for m in _TOKEN.finditer(text, 0, _scan_end(text)):
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
_P_IFF, _P_IMPL, _P_OR, _P_AND, _P_CF, _P_UNTIL, _P_UNARY = range(7)

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


_error = partial(_syntax_error, _is_token)  # (text, k, message)


def _agent(text: str, toks: list[str], k: int) -> tuple[str, int]:
    """The agent of the `[ name ]` after the operator at token `k`, and where
    it ends."""
    if toks[k + 1] != "[":
        raise _error(text, k + 1, f"expected '[', found {toks[k + 1] or 'end of input'!r}")
    if not _is_ident(toks[k + 2]):
        raise _error(text, k + 2, "expected an agent name")
    if toks[k + 3] != "]":
        raise _error(text, k + 3, f"expected ']', found {toks[k + 3] or 'end of input'!r}")
    return toks[k + 2], k + 4


def _cf_agent(text: str, toks: list[str], k: int, pending: int) -> tuple[str, int]:
    """`_agent` of a counterfactual; one pending below it, kept there by
    right associativity, is refused."""
    if pending == _P_CF:
        raise _error(text, k, "counterfactual operators do not associate; parenthesize")
    return _agent(text, toks, k)


# every prefix operator: precedence, node[, agent reader]
_PREFIXES = {**{t: (_P_UNARY, n) for t, n in _PREFIX_OPS.items()}, "K": (_P_UNARY, Know, _agent)}
# every infix operator: precedence, node, right associative[, agent reader]
_INFIX_OPS = {**_BINARY, **{t: (_P_CF, n, True, _cf_agent) for t, n in _CF_OPS.items()},
              **{t: (_P_UNTIL, n, True) for t, n in _UNTIL_OPS.items()}}
_OPEN = (-1, None)  # an open parenthesis, or the bottom of the operator stack


def read(text: str, prefix: dict, operand, infix: dict, error):
    """The node that `text` spells, for formulas and FO sentences alike: it
    splits the text with `_TOKEN` into `toks`, ended by "" for the end of
    input, and words a missing `)` and trailing input the same for both.

    Operands are read each after its prefix operators, with the infix
    operator after each.  `ops` holds the pending operators as (precedence,
    one-operand constructor), innermost last, a binary one with its left
    operand bound; one applies once an operand is complete and the next
    token binds no tighter.  Precedences are at least 0, higher binding
    tighter.  A tight prefix operator, above every infix one, applies to its
    operand.  A loose one, below them all, applies to the end of its
    sentence, so it is read only where a sentence starts: first, after `(`
    or after a loose prefix; elsewhere its token is an operand's.

    `prefix` maps an operator token to (precedence, node) and, for one
    followed by an argument, `arg(text, toks, k)`, which reads it after the
    operator at token `k` as (argument, end).  `infix` maps one to
    (precedence, node, right associative) and, likewise, `arg(text, toks,
    k, pending)`, also given the precedence of the operator pending below.
    `operand(text, toks, k)` reads an operand without parentheses as (node,
    end).  `error(text, k, message)` is the error at token `k`."""
    toks = _TOKEN.findall(text, 0, _scan_end(text)) + [""]  # "": end of input
    lowest = min(op[0] for op in infix.values())
    ops = [_OPEN]
    pos = 0
    while True:
        t = toks[pos]
        if t == "(":
            ops.append(_OPEN)
            pos += 1
            continue
        op = prefix.get(t)
        if op is not None and (op[0] >= lowest or ops[-1][0] < lowest):
            if len(op) > 2:
                arg, pos = op[2](text, toks, pos)
                ops.append((op[0], partial(op[1], arg)))
            else:
                ops.append(op)
                pos += 1
            continue
        f, pos = operand(text, toks, pos)
        while True:  # `f` is complete: apply what binds tighter than the next token
            t = toks[pos]
            op = infix.get(t)
            bar = op[0] + op[2] if op else 0  # pending operators this tight or tighter apply
            while ops[-1][0] >= bar:
                f = ops.pop()[1](f)
            if op:
                break
            if len(ops) == 1:
                if t:
                    raise error(text, pos, f"unexpected trailing input {t!r}")
                return f
            if t != ")":
                raise error(text, pos, f"expected ')', found {t or 'end of input'!r}")
            ops.pop()
            pos += 1
        if len(op) > 3:
            arg, pos = op[3](text, toks, pos, ops[-1][0])
            ops.append((op[0], partial(op[1], arg, f)))
        else:
            ops.append((op[0], partial(op[1], f)))
            pos += 1


def parse(text: str) -> Formula:
    """Parse concrete syntax into an AST, preserving surface operators.

    Raises :class:`ParseError` with line/column on malformed input.  The
    formula of a text is kept in the unique table while it lives, so parsing
    a text again returns it without reading the text.
    """
    return memo((parse, text), partial(read, text, _PREFIXES, _atom, _INFIX_OPS, _error))


def _atom(text: str, toks: list[str], k: int) -> tuple[Formula, int]:
    t = toks[k]
    if t == "true":
        return TrueConst(), k + 1
    if t == "false":
        return FalseConst(), k + 1
    if not _is_ident(t):
        raise _error(text, k, f"expected a formula, found {t or 'end of input'!r}")
    if toks[k + 1] != "@":
        return Atom(t), k + 1
    if _is_ident(toks[k + 2]):
        return TracedAtom(t, toks[k + 2]), k + 3
    raise _error(text, k + 2, "expected a trace variable after '@'")


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_CF_NAMES = {node: text for text, node in _CF_OPS.items()}
_PREFIX_NAMES = {node: text if node is Not else f"{text} " for text, node in _PREFIX_OPS.items()}
# infix nodes: operator text, right associative
_INFIX = {node: (f" {text} ", right) for text, (_, node, right) in _BINARY.items()}
_INFIX.update({Until: (" U ", True), Since: (" S ", True)})
_PREC = {node: prec for prec, node, _ in _BINARY.values()}
_PREC.update({Until: _P_UNTIL, Since: _P_UNTIL, Know: _P_UNARY})
_PREC.update(dict.fromkeys(_CF_NAMES, _P_CF))
_PREC.update(dict.fromkeys(_PREFIX_NAMES, _P_UNARY))


def render(f: HashConsed, ctx: int, prec: dict, infix: dict, emit) -> str:
    """Text of `f` at context precedence `ctx`, in the language whose node
    types have precedence `prec` (a type it omits never takes parentheses)
    and whose infix types `infix` maps to (operator text, right associative).
    A node binding looser than its context is parenthesized.  `emit(g, p,
    out, stack)` prints any other node `g` of precedence `p`: it appends text
    to `out` and pushes what follows, last first, onto `stack`, as text or
    as (node, context precedence) pairs.  Iterative, and the pieces are
    joined once at the end, so the cost is linear in the output."""
    out: list[str] = []
    stack: list = [(f, ctx)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, ctx = item
        cls = type(g)
        p = prec.get(cls, ctx)
        if p < ctx:
            out.append("(")
            stack.append(")")
        op = infix.get(cls)
        if op is None:
            emit(g, p, out, stack)
        else:  # the operand on the associating side shares the operator's level
            text, right = op
            stack += ((g.right, p + 1 - right), text, (g.left, p + right))
    return "".join(out)


def _emit(g: HashConsed, p: int, out: list, stack: list) -> None:
    cls = type(g)
    if cls in _CF_NAMES:
        # non-associative: both operands live one level up (until tier)
        stack += ((g.cons, p + 1), f" {_CF_NAMES[cls]}[{g.agent}] ", (g.ante, p + 1))
    elif cls in _PREFIX_NAMES:
        out.append(_PREFIX_NAMES[cls])
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


def to_source(f: Formula) -> str:
    """Render `f` in canonical concrete syntax; `parse(to_source(f)) is f`."""
    return render(f, 0, _PREC, _INFIX, _emit)


# ---------------------------------------------------------------------------
# Relational (similarity) formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationalViolation:
    kind: str  # forbidden-operator, undeclared-trace-variable, untraced-atom, unwritable-name
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
    (reference, nearer, farther), evaluated on triples of traces; another
    number of parameters, or a repeated one, raises ValueError.  Building
    one is its one check: traced atoms over the parameters, constants,
    boolean connectives and temporal operators only, no Know, counterfactual
    or plain atom, and every parameter and traced proposition a name
    formulas can write, else :class:`RelationalFormulaError` lists every
    offence.  The check walks the formula's DAG: a node shared by several
    operands is visited once, so an offending shared node is listed once, at
    its first path in preorder; a parameter is listed at the path `params`.
    An equal relation built while a checked one lives is not walked again:
    `memo` finds the checked one."""

    params: tuple[str, str, str]
    formula: Formula

    def __post_init__(self):
        if not (isinstance(self.params, tuple) and all(isinstance(v, str) for v in self.params)):
            raise ValueError(f"trace parameters must be a tuple of names, got {self.params!r}")
        if len(self.params) != 3:
            raise ValueError(f"a relation takes 3 trace parameters (reference, nearer,"
                             f" farther), got {len(self.params)}: {self.params!r}")
        if len(set(self.params)) != 3:
            raise ValueError(f"duplicate trace parameters: {self.params!r}")
        memo((RelationalFormula, self.params, self.formula), self._checked)

    def _checked(self) -> RelationalFormula:
        """This relation, if it passes the check, else the error listing
        every offence; `memo` runs it once per distinct (params, formula)."""
        params, seen = self.params, set()
        violations = [RelationalViolation("unwritable-name", v, "params")
                      for v in params if not _is_name(v)]
        # preorder, left operand first, each distinct node at its first path;
        # a path is "root" or (parent path, step), rendered only for a
        # violation
        stack: list[tuple[Formula, object]] = [(self.formula, "root")]
        while stack:
            g, path = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            cls = type(g)
            if cls is TracedAtom:
                if g.trace_var not in params:
                    violations.append(RelationalViolation(
                        "undeclared-trace-variable", g.trace_var, _path_text(path)))
                if not _is_name(g.name):
                    violations.append(
                        RelationalViolation("unwritable-name", g.name, _path_text(path)))
                continue
            cf = cls in _CF_NAMES
            if cf or cls is Know:
                op = _CF_NAMES[cls] if cf else "K"
                violations.append(
                    RelationalViolation("forbidden-operator", op, _path_text(path)))
            elif cls is Atom:
                violations.append(RelationalViolation("untraced-atom", g.name, _path_text(path)))
            kids = children(g)
            if len(kids) == 1:
                stack.append((kids[0], (path, ".child")))
            elif len(kids) == 2:  # a step is named by the operand's field
                stack.append((kids[1], (path, ".cons" if cf else ".right")))
                stack.append((kids[0], (path, ".ante" if cf else ".left")))
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


def _fold(node, empty, parts: list[Formula]) -> Formula:
    """`parts` folded left into `node`s; `empty()` when there are none."""
    return reduce(node, parts) if parts else empty()


def conjoin(parts: list[Formula]) -> Formula:
    """Left-associative conjunction of `parts`; `true` when empty."""
    return _fold(And, TrueConst, parts)


def disjoin(parts: list[Formula]) -> Formula:
    """Left-associative disjunction of `parts`; `false` when empty."""
    return _fold(Or, FalseConst, parts)
