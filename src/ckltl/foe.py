"""First-order logic of order with the equal-level predicate (FO[<,E]).

The temporal-epistemic-counterfactual logic translates into FO[<,E] sentences
whose variables range over (trace, position) pairs.  `<` relates positions on
the same trace only; `E` relates equal positions across traces; `succ` and
`min` are kept as first-class sugar.  The translation is linear in the input
size (plus the inlined similarity formulas) and the bounded evaluator here is
deliberately brute force: it serves as an independent oracle for the direct
semantics engine, so it shares no code with it.

FO nodes are hash-consed like formula nodes: they subclass
`formula.HashConsed` and live in the same weak unique table, so structurally
equal subformulas are one object, equality and hashing are identity, and
`parse_fo(print_fo(f)) is f`.  They are not `Formula`s: `desugar` and
`to_source` reject them.  Counting, free variables, printing and parsing are
iterative over one children table and one operator table; only the
translator and the evaluator recurse, once per level of their input.

Amendment: in both counterfactual cases the inner comparison variable (the
universally quantified trace the conditional's guarantee ranges over) carries
an extra conjunct E(x_c, x_t) pinning it to the evaluation level, since the
direct semantics compare traces at one position.  `faithful=True` drops the
pin and yields the unamended text for side-by-side inspection; its oracle
equivalence is not expected to hold.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial, reduce

from .formula import (
    And,
    Atom,
    FalseConst,
    Formula,
    HashConsed,
    Know,
    Next,
    Not,
    ParseError,
    Prev,
    Since,
    TracedAtom,
    TrueConst,
    Until,
    UWould,
    Would,
    _fields,
    _scan_end,
    _syntax_error,
    desugar,
    postorder,
)
from .model import System
from .trace import LassoTrace, TraceUniverse


class UnsupportedNode(TypeError):
    """Raised when translation meets a node outside the core fragment."""


# ---------------------------------------------------------------------------
# FO AST (hash-consed)
# ---------------------------------------------------------------------------


class FoFormula(HashConsed):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"parse_fo({print_fo(self)!r})"


class FoExists(FoFormula):
    __slots__ = ("var", "body")


class FoForall(FoFormula):
    __slots__ = ("var", "body")


class FoNot(FoFormula):
    __slots__ = ("child",)


class FoAnd(FoFormula):
    __slots__ = ("left", "right")


class FoOr(FoFormula):
    __slots__ = ("left", "right")


class FoImplies(FoFormula):
    __slots__ = ("left", "right")


class FoIff(FoFormula):
    __slots__ = ("left", "right")


class FoPred(FoFormula):
    """Proposition `name` on the trace of `trace_of` at the position of
    `pos_of`.  The split mirrors the projections used when similarity
    formulas are inlined; most predicates have trace_of == pos_of."""

    __slots__ = ("name", "trace_of", "pos_of")


class FoLess(FoFormula):
    """Same trace, strictly smaller position."""

    __slots__ = ("left", "right")


class FoEq(FoFormula):
    """Same trace and same position."""

    __slots__ = ("left", "right")


class FoEqualLevel(FoFormula):
    """Same position, any traces (the equal-level predicate E)."""

    __slots__ = ("left", "right")


class FoSucc(FoFormula):
    """Same trace, position of `right` is position of `left` plus one."""

    __slots__ = ("left", "right")


class FoMin(FoFormula):
    __slots__ = ("var",)


_FO_CHILDREN = dict.fromkeys((FoExists, FoForall), lambda f: (f.body,))
_FO_CHILDREN[FoNot] = lambda f: (f.child,)
_FO_CHILDREN.update(dict.fromkeys(
    (FoAnd, FoOr, FoImplies, FoIff), lambda f: (f.left, f.right)))


def fo_children(f: FoFormula) -> tuple[FoFormula, ...]:
    """Operands in order: (body,), (child,) or (left, right)."""
    get = _FO_CHILDREN.get(type(f))
    return get(f) if get else ()


def fo_node_count(f: FoFormula) -> int:
    """Size of `f` as a tree: a subformula counts once per occurrence."""
    size: dict[FoFormula, int] = {}
    for g in postorder(f, fo_children):
        size[g] = 1 + sum(size[c] for c in fo_children(g))
    return size[f]


_fo_conjoin = partial(reduce, FoAnd)  # left-associative conjunction of a nonempty list


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------


class _Translator:
    def __init__(self, system: System, faithful: bool):
        self.system = system
        self.faithful = faithful
        self.n = 1  # x0 is the evaluation point; fresh variables follow
        self.cores: dict[str, Formula] = {}  # agent -> its relation, desugared

    def fresh(self) -> str:
        v = f"x{self.n}"
        self.n += 1
        return v

    def go(self, f: Formula, x: str, env: dict[str, str] | None) -> FoFormula:
        if isinstance(f, TrueConst):
            return FoEq(x, x)
        if isinstance(f, FalseConst):
            return FoNot(FoEq(x, x))
        if isinstance(f, Atom):
            return FoPred(f.name, x, x)
        if isinstance(f, TracedAtom):
            if env is None:
                raise UnsupportedNode(
                    f"traced atom {f.name}@{f.trace_var} outside a similarity inlining"
                )
            return FoPred(f.name, env[f.trace_var], x)
        if isinstance(f, Not):
            return FoNot(self.go(f.child, x, env))
        if isinstance(f, And):
            return FoAnd(self.go(f.left, x, env), self.go(f.right, x, env))
        if isinstance(f, Next):
            y = self.fresh()
            return FoExists(y, FoAnd(FoSucc(x, y), self.go(f.child, y, env)))
        if isinstance(f, Prev):
            y = self.fresh()
            return FoExists(y, FoAnd(FoSucc(y, x), self.go(f.child, y, env)))
        if isinstance(f, (Until, Since)):
            x2 = self.fresh()
            right = self.go(f.right, x2, env)
            x1 = self.fresh()
            left = self.go(f.left, x1, env)
            if isinstance(f, Until):  # x <= x2, and x <= x1 < x2
                reach, between = _ge(x2, x), FoAnd(_ge(x1, x), FoLess(x1, x2))
            else:  # x2 <= x, and x2 < x1 <= x
                reach, between = _ge(x, x2), FoAnd(FoLess(x2, x1), _ge(x, x1))
            return FoExists(
                x2,
                _fo_conjoin([reach, right, FoForall(x1, FoImplies(between, left))]),
            )
        if isinstance(f, Know):
            return self._know(f, x)
        if isinstance(f, (Would, UWould)):
            return self._counterfactual(f, x)
        raise UnsupportedNode(f"not a core-form node: {f!r}")

    def _know(self, f: Know, x: str) -> FoFormula:
        xe = self.fresh()
        xem = self.fresh()
        xtm = self.fresh()
        obs = sorted(self.system.observation_of(f.agent))
        if obs:
            eqs: FoFormula = _fo_conjoin(
                [
                    FoIff(FoPred(p, xem, xem), FoPred(p, xtm, xtm))
                    for p in obs
                ]
            )
        else:
            eqs = FoEq(xem, xem)
        prefix_eq = FoForall(
            xem,
            FoForall(
                xtm,
                FoImplies(
                    _fo_conjoin(
                        [_ge(xe, xem), _ge(x, xtm), FoEqualLevel(xem, xtm)]
                    ),
                    eqs,
                ),
            ),
        )
        body = self.go(f.child, xe, None)
        return FoForall(
            xe, FoImplies(FoAnd(FoEqualLevel(xe, x), prefix_eq), body)
        )

    def _sigma(self, agent: str, x: str, ref: str, near: str, far: str) -> FoFormula:
        """Inline the agent's similarity formula, anchored at position
        variable `x`, with its three trace parameters instantiated by the
        traces of `ref`, `near` and `far`; it holds no K or counterfactual."""
        rf = self.system.similarity_of(agent)
        if agent not in self.cores:
            self.cores[agent] = desugar(rf.formula)
        env = {rf.params[0]: ref, rf.params[1]: near, rf.params[2]: far}
        return self.go(self.cores[agent], x, env)

    def _counterfactual(self, f: Would | UWould, x: str) -> FoFormula:
        a = f.agent
        if isinstance(f, Would):
            xe = self.fresh()
            none_accessible = FoForall(
                xe,
                FoImplies(
                    FoAnd(FoEqualLevel(xe, x), self._sigma(a, x, x, x, xe)),
                    FoNot(self.go(f.ante, xe, None)),
                ),
            )
            return FoOr(none_accessible, self._threshold(f, x, x, False))
        xa = self.fresh()
        threshold = self._threshold(f, x, xa, True)  # numbered before the rest
        return FoForall(
            xa,
            FoImplies(
                _fo_conjoin(
                    [
                        FoEqualLevel(xa, x),
                        self._sigma(a, x, x, x, xa),
                        self.go(f.ante, xa, None),
                    ]
                ),
                threshold,
            ),
        )

    def _threshold(self, f: Would | UWould, x: str, y: str, closer: bool) -> FoFormula:
        """Threshold from x: an antecedent trace xe at y's level, at least as
        close as y (`closer`, UWould) or at least as far (Would, y = x), within
        whose sphere (xc at x's level unless faithful) ante implies cons."""
        xe = self.fresh()
        xc = self.fresh()
        guard = self._sigma(f.agent, x, x, xc, xe)
        if not self.faithful:
            guard = FoAnd(FoEqualLevel(xc, x), guard)
        return FoExists(
            xe,
            _fo_conjoin(
                [
                    FoEqualLevel(xe, y),
                    self._sigma(f.agent, x, x, *((xe, y) if closer else (y, xe))),
                    self.go(f.ante, xe, None),
                    FoForall(
                        xc,
                        FoImplies(
                            guard,
                            FoImplies(
                                self.go(f.ante, xc, None),
                                self.go(f.cons, xc, None),
                            ),
                        ),
                    ),
                ]
            ),
        )


def _ge(a: str, b: str) -> FoFormula:
    """b <= a on the same trace, spelled (b < a | b = a)."""
    return FoOr(FoLess(b, a), FoEq(b, a))


def translate(f: Formula, system: System, *, faithful: bool = False) -> FoFormula:
    """Closed FO[<,E] sentence equivalent to checking core-form `f` on every
    trace at the first position: forall x0. min(x0) -> body."""
    body = translate_at(f, system, faithful=faithful)
    return FoForall("x0", FoImplies(FoMin("x0"), body))


def translate_at(f: Formula, system: System, *, faithful: bool = False) -> FoFormula:
    """Body of the translation with `x0` free at the evaluation point; fresh
    variables are numbered from x1."""
    return _Translator(system, faithful).go(f, "x0", None)


# ---------------------------------------------------------------------------
# bounded evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoDomain:
    """Finite evaluation domain: the universe's traces at positions 0..n."""

    universe: TraceUniverse
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("bound must be >= 0")

    def points(self):
        for t in self.universe:
            for i in range(self.n + 1):
                yield (t, i)


def eval_fo(
    dom: FoDomain,
    f: FoFormula,
    env: dict[str, tuple[LassoTrace, int]] | None = None,
) -> bool:
    """Brute-force evaluation over dom; quantifiers short-circuit and are
    memoized per assignment of their free variables.

    Every environment entry must name a point of the domain: a trace of its
    universe (any lasso presentation of it) at a position within the bound."""
    for v, (t, i) in (env or {}).items():
        if not 0 <= i <= dom.n:
            raise ValueError(f"{v}: position {i} outside the domain [0, {dom.n}]")
        if t not in dom.universe:
            raise ValueError(f"{v}: trace not in the domain universe")
    ev = _FoEvaluator(dom)
    missing = ev.fv(f) - set(env or {})
    if missing:
        raise ValueError(f"unbound variables: {sorted(missing)}")
    return ev.ev(f, dict(env or {}))


class _FoEvaluator:
    """State of one `eval_fo` call: free-variable sets and the quantifier
    memo."""

    def __init__(self, dom: FoDomain):
        self.dom = dom
        self.fv_cache: dict[FoFormula, frozenset[str]] = {}
        self.memo: dict[tuple, bool] = {}

    def fv(self, node: FoFormula) -> frozenset[str]:
        """Free variables of `node`; one postorder walk finds them for every
        subformula not met before."""
        cache = self.fv_cache
        if node not in cache:
            for g in postorder(node, fo_children):
                if g in cache:
                    continue
                cls = type(g)
                if cls in _QUANT_NAMES:
                    out = cache[g.body] - {g.var}
                elif cls is FoNot:
                    out = cache[g.child]
                elif cls in _INFIX:
                    out = cache[g.left] | cache[g.right]
                elif cls is FoPred:
                    out = frozenset((g.trace_of, g.pos_of))
                elif cls in _COMPARE_NAMES or cls in _CALL_NAMES:
                    out = frozenset(_fields(g))  # every field is a variable
                else:
                    raise TypeError(f"not an FO node: {g!r}")
                cache[g] = out
        return cache[node]

    def ev(self, node: FoFormula, env: dict) -> bool:
        ev = self.ev
        if isinstance(node, (FoExists, FoForall)):
            tix = self.dom.universe.index
            key = (
                node,
                tuple(sorted((v, tix(env[v][0]), env[v][1]) for v in self.fv(node))),
            )
            got = self.memo.get(key)
            if got is None:
                got = self.quant(node, env)
                self.memo[key] = got
            return got
        if isinstance(node, FoNot):
            return not ev(node.child, env)
        if isinstance(node, FoAnd):
            return ev(node.left, env) and ev(node.right, env)
        if isinstance(node, FoOr):
            return ev(node.left, env) or ev(node.right, env)
        if isinstance(node, FoImplies):
            return not ev(node.left, env) or ev(node.right, env)
        if isinstance(node, FoIff):
            return ev(node.left, env) == ev(node.right, env)
        if isinstance(node, FoPred):
            t = env[node.trace_of][0]
            i = env[node.pos_of][1]
            return node.name in t.label_at(i)
        if isinstance(node, FoLess):
            (t1, i1), (t2, i2) = env[node.left], env[node.right]
            return t1 == t2 and i1 < i2
        if isinstance(node, FoEq):
            (t1, i1), (t2, i2) = env[node.left], env[node.right]
            return t1 == t2 and i1 == i2
        if isinstance(node, FoEqualLevel):
            return env[node.left][1] == env[node.right][1]
        if isinstance(node, FoSucc):
            (t1, i1), (t2, i2) = env[node.left], env[node.right]
            return t1 == t2 and i2 == i1 + 1
        if isinstance(node, FoMin):
            return env[node.var][1] == 0
        raise TypeError(f"not an FO node: {node!r}")

    def quant(self, node, env) -> bool:
        sub = dict(env)
        if isinstance(node, FoExists):
            for pt in self.dom.points():
                sub[node.var] = pt
                if self.ev(node.body, sub):
                    return True
            return False
        for pt in self.dom.points():
            sub[node.var] = pt
            if not self.ev(node.body, sub):
                return False
        return True


# ---------------------------------------------------------------------------
# printing and parsing
# ---------------------------------------------------------------------------

# precedence levels, shared by printer and parser; higher binds tighter.  A
# comparison `x < y` sits just below `!`, so a negated one is parenthesized.
_P_QUANT, _P_IFF, _P_IMPL, _P_OR, _P_AND, _P_CMP, _P_ATOM = range(7)

_QUANTS = {"forall": FoForall, "exists": FoExists}
# binary connectives: precedence, node, right associative
_BINARY = {
    "<->": (_P_IFF, FoIff, False),
    "->": (_P_IMPL, FoImplies, True),
    "|": (_P_OR, FoOr, False),
    "&": (_P_AND, FoAnd, False),
}
_COMPARE = {"<": FoLess, "=": FoEq}
# predicates written name(var, ...), one variable per field
_CALLS = {"E": FoEqualLevel, "succ": FoSucc, "min": FoMin}

_QUANT_NAMES = {node: text for text, node in _QUANTS.items()}
_INFIX = {node: (f" {text} ", right) for text, (_, node, right) in _BINARY.items()}
_COMPARE_NAMES = {node: f" {text} " for text, node in _COMPARE.items()}
_CALL_NAMES = {node: text for text, node in _CALLS.items()}
_PREC = {node: prec for prec, node, _ in _BINARY.values()}
_PREC.update(dict.fromkeys(_QUANT_NAMES, _P_QUANT))
_PREC.update(dict.fromkeys(_COMPARE_NAMES, _P_CMP))


def print_fo(f: FoFormula) -> str:
    """Render `f` as text; `parse_fo(print_fo(f)) is f`.

    Iterative, like `formula.to_source`: a stack holds the text still to
    emit and the (node, context precedence) pairs still to render."""
    out: list[str] = []
    stack: list = [(f, _P_QUANT)]
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
            stack += ((g.right, rp), op, (g.left, lp))
        elif cls in _QUANT_NAMES:
            out.append(f"{_QUANT_NAMES[cls]} {g.var}. ")
            stack.append((g.body, p))
        elif cls is FoNot:
            out.append("!")
            stack.append((g.child, _P_ATOM))
        elif cls is FoPred:
            if g.trace_of == g.pos_of:
                out.append(f"P_{g.name}({g.trace_of})")
            else:
                out.append(f"P_{g.name}(tr({g.trace_of}), pos({g.pos_of}))")
        elif cls in _COMPARE_NAMES:
            out.append(f"{g.left}{_COMPARE_NAMES[cls]}{g.right}")
        elif cls in _CALL_NAMES:
            out.append(f"{_CALL_NAMES[cls]}({', '.join(_fields(g))})")
        else:  # by type name: an FO node's repr is printed by this function
            raise TypeError(f"not an FO node: {cls.__name__}")
    return "".join(out)


# Skipped whitespace, then one token: an arrow, a punctuation character, a
# run of word characters, or any other single character.  A run whose first
# character fails `isalpha()` and is not `_`, and a single character outside
# `_FO_PUNCT`, are tokens no rule accepts: the first of them is reported as
# an unexpected character.
_FO_TOKEN = re.compile(r"[ \t\r\n]*(<->|->|[()<=.,!&|]|\w+|[^ \t\r\n])")
_FO_PUNCT = frozenset(["<->", "->", "(", ")", "<", "=", ".", ",", "!", "&", "|"])


def _is_var(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _is_fo_token(tok: str) -> bool:
    return tok in _FO_PUNCT or _is_var(tok)


class _FoParser:
    __slots__ = ("text", "toks", "pos")

    def __init__(self, text: str):
        self.text = text
        self.toks = _FO_TOKEN.findall(text, 0, _scan_end(text)) + [""]  # "": end of input
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return _syntax_error(self.text, _FO_TOKEN, _is_fo_token, self.pos, message)

    def expect(self, tok: str) -> None:
        t = self.toks[self.pos]
        if t != tok:
            raise self.error(f"expected {tok!r}, found {t!r}")
        self.pos += 1

    def variable(self) -> str:
        t = self.toks[self.pos]
        if not _is_var(t):
            raise self.error("expected a variable name")
        self.pos += 1
        return t

    def atom(self) -> FoFormula:
        """A predicate or a comparison of two variables."""
        t = self.toks[self.pos]
        node = _CALLS.get(t)
        if node is not None:
            self.pos += 1
            self.expect("(")
            args = [self.variable()]
            for _ in node.__slots__[1:]:
                self.expect(",")
                args.append(self.variable())
            self.expect(")")
            return node(*args)
        if t.startswith("P_") and len(t) > 2:
            self.pos += 1
            self.expect("(")
            if self.toks[self.pos] == "tr":
                self.pos += 1
                self.expect("(")
                a = self.variable()
                for tok in (")", ",", "pos", "("):
                    self.expect(tok)
                b = self.variable()
                self.expect(")")
            else:
                a = b = self.variable()
            self.expect(")")
            return FoPred(t[2:], a, b)
        if _is_var(t):
            self.pos += 1
            node = _COMPARE.get(self.toks[self.pos])
            if node is None:
                raise self.error(f"expected '<' or '=' after variable {t!r}")
            self.pos += 1
            return node(t, self.variable())
        raise self.error(f"unexpected token {t!r}")


def _fold(args: list, ops: list, prec: int, right: bool) -> None:
    """Apply the pending operators that bind before an operator of level
    `prec` (associating right when `right`) to the operands they join."""
    while ops and (ops[-1][0] > prec or (ops[-1][0] == prec and not right)):
        node = ops.pop()[1]
        b = args.pop()
        args[-1] = node(args[-1], b)


def parse_fo(text: str) -> FoFormula:
    """Parse the text `print_fo` writes.

    A sentence is a run of quantifier prefixes, then operands joined by the
    binary connectives, folded by precedence over `_BINARY`; an operand is a
    run of `!` before a parenthesized sentence or an atom.  One loop does it
    all with explicit stacks, so no input is too deep or too wide for it.
    Raises :class:`ParseError` with line/column on malformed input."""
    p = _FoParser(text)
    toks = p.toks
    outer = []  # enclosing sentences: (quantifiers, operands, operators, negations)
    quants: list = []
    args: list[FoFormula] = []
    ops: list[tuple] = []
    while True:  # a sentence starts
        while toks[p.pos] in _QUANTS:
            node = _QUANTS[toks[p.pos]]
            p.pos += 1
            quants.append(partial(node, p.variable()))
            p.expect(".")
        while True:  # an operand starts
            nots = 0
            while toks[p.pos] == "!":
                p.pos += 1
                nots += 1
            if toks[p.pos] == "(":
                p.pos += 1
                outer.append((quants, args, ops, nots))
                quants, args, ops = [], [], []
                break
            f = p.atom()
            while True:  # an operand ends
                for _ in range(nots):
                    f = FoNot(f)
                args.append(f)
                t = toks[p.pos]
                op = _BINARY.get(t)
                if op is not None:
                    p.pos += 1
                    _fold(args, ops, op[0], op[2])
                    ops.append(op)
                    break
                _fold(args, ops, -1, False)  # the sentence ends
                f = args.pop()
                while quants:
                    f = quants.pop()(f)
                if not outer:
                    if t:
                        raise p.error(f"trailing input {t!r}")
                    return f
                p.expect(")")
                quants, args, ops, nots = outer.pop()
