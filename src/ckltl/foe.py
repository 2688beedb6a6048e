"""First-order logic of order with the equal-level predicate (FO[<,E]).

The temporal-epistemic-counterfactual logic translates into FO[<,E] sentences
whose variables range over (trace, position) pairs.  `<` relates positions on
the same trace only; `E` relates equal positions across traces; `succ` and
`min` are kept as first-class sugar.  The translation is linear in the input
size (plus the inlined similarity formulas) and the bounded evaluator here is
deliberately brute force: it serves as an independent oracle for the direct
semantics engine, so it shares no code with it.

Amendment: in both counterfactual cases the inner comparison variable (the
universally quantified trace the conditional's guarantee ranges over) carries
an extra conjunct E(x_c, x_t) pinning it to the evaluation level, since the
direct semantics compare traces at one position.  `faithful=True` drops the
pin and yields the unamended text for side-by-side inspection; its oracle
equivalence is not expected to hold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (
    And,
    Atom,
    FalseConst,
    Formula,
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
    desugar,
)
from .model import System
from .trace import LassoTrace, TraceUniverse


class UnsupportedNode(TypeError):
    """Raised when translation meets a node outside the core fragment."""


# ---------------------------------------------------------------------------
# FO AST
# ---------------------------------------------------------------------------


class FoFormula:
    __slots__ = ()


@dataclass(frozen=True)
class FoExists(FoFormula):
    var: str
    body: FoFormula


@dataclass(frozen=True)
class FoForall(FoFormula):
    var: str
    body: FoFormula


@dataclass(frozen=True)
class FoNot(FoFormula):
    child: FoFormula


@dataclass(frozen=True)
class FoAnd(FoFormula):
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class FoOr(FoFormula):
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class FoImplies(FoFormula):
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class FoIff(FoFormula):
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class FoPred(FoFormula):
    """Proposition `name` on the trace of `trace_of` at the position of
    `pos_of`.  The split mirrors the projections used when similarity
    formulas are inlined; most predicates have trace_of == pos_of."""

    name: str
    trace_of: str
    pos_of: str


@dataclass(frozen=True)
class FoLess(FoFormula):
    """Same trace, strictly smaller position."""

    left: str
    right: str


@dataclass(frozen=True)
class FoEq(FoFormula):
    """Same trace and same position."""

    left: str
    right: str


@dataclass(frozen=True)
class FoEqualLevel(FoFormula):
    """Same position, any traces (the equal-level predicate E)."""

    left: str
    right: str


@dataclass(frozen=True)
class FoSucc(FoFormula):
    """Same trace, position of `right` is position of `left` plus one."""

    left: str
    right: str


@dataclass(frozen=True)
class FoMin(FoFormula):
    var: str


def fo_node_count(f: FoFormula) -> int:
    if isinstance(f, (FoExists, FoForall)):
        return 1 + fo_node_count(f.body)
    if isinstance(f, FoNot):
        return 1 + fo_node_count(f.child)
    if isinstance(f, (FoAnd, FoOr, FoImplies, FoIff)):
        return 1 + fo_node_count(f.left) + fo_node_count(f.right)
    return 1


def _fo_conjoin(parts: list[FoFormula]) -> FoFormula:
    out = parts[0]
    for p in parts[1:]:
        out = FoAnd(out, p)
    return out


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------


class _Translator:
    def __init__(self, system: System, faithful: bool, next_index: int):
        self.system = system
        self.faithful = faithful
        self.n = next_index

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
            if env is None or f.trace_var not in env:
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
        if isinstance(f, Until):
            x2 = self.fresh()
            right = self.go(f.right, x2, env)
            x1 = self.fresh()
            left = self.go(f.left, x1, env)
            between = FoAnd(_ge(x1, x), FoLess(x1, x2))
            return FoExists(
                x2,
                _fo_conjoin(
                    [_ge(x2, x), right, FoForall(x1, FoImplies(between, left))]
                ),
            )
        if isinstance(f, Since):
            x2 = self.fresh()
            right = self.go(f.right, x2, env)
            x1 = self.fresh()
            left = self.go(f.left, x1, env)
            between = FoAnd(FoLess(x2, x1), _ge(x, x1))
            return FoExists(
                x2,
                _fo_conjoin(
                    [_ge(x, x2), right, FoForall(x1, FoImplies(between, left))]
                ),
            )
        if isinstance(f, Know):
            if env is not None:
                raise UnsupportedNode("knowledge inside a similarity formula")
            return self._know(f, x, env)
        if isinstance(f, (Would, UWould)):
            if env is not None:
                raise UnsupportedNode("counterfactual inside a similarity formula")
            return self._counterfactual(f, x)
        raise UnsupportedNode(f"not a core-form node: {f!r}")

    def _know(self, f: Know, x: str, env) -> FoFormula:
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
        body = self.go(f.child, xe, env)
        return FoForall(
            xe, FoImplies(FoAnd(FoEqualLevel(xe, x), prefix_eq), body)
        )

    def _sigma(self, agent: str, x: str, ref: str, near: str, far: str) -> FoFormula:
        """Inline the agent's similarity formula, anchored at position
        variable `x`, with its three trace parameters instantiated by the
        traces of `ref`, `near` and `far`."""
        rf = self.system.similarity_of(agent)
        env = {rf.params[0]: ref, rf.params[1]: near, rf.params[2]: far}
        return self.go(desugar(rf.formula), x, env)

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
            xe2 = self.fresh()
            xc = self.fresh()
            guard = self._sigma(a, x, x, xc, xe2)
            if not self.faithful:
                guard = FoAnd(FoEqualLevel(xc, x), guard)
            threshold = FoExists(
                xe2,
                _fo_conjoin(
                    [
                        FoEqualLevel(xe2, x),
                        self._sigma(a, x, x, x, xe2),
                        self.go(f.ante, xe2, None),
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
            return FoOr(none_accessible, threshold)
        xa = self.fresh()
        xe = self.fresh()
        xc = self.fresh()
        guard = self._sigma(a, x, x, xc, xe)
        if not self.faithful:
            guard = FoAnd(FoEqualLevel(xc, x), guard)
        threshold = FoExists(
            xe,
            _fo_conjoin(
                [
                    FoEqualLevel(xe, xa),
                    self._sigma(a, x, x, xe, xa),
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


def _ge(a: str, b: str) -> FoFormula:
    """b <= a on the same trace, spelled (b < a | b = a)."""
    return FoOr(FoLess(b, a), FoEq(b, a))


def translate(f: Formula, system: System, *, faithful: bool = False) -> FoFormula:
    """Closed FO[<,E] sentence equivalent to checking core-form `f` on every
    trace at the first position: forall x0. min(x0) -> body."""
    body = translate_at(f, system, var="x0", next_index=1, faithful=faithful)
    return FoForall("x0", FoImplies(FoMin("x0"), body))


def translate_at(
    f: Formula,
    system: System,
    *,
    var: str = "x0",
    next_index: int = 1,
    faithful: bool = False,
) -> FoFormula:
    """Body of the translation with `var` free at the evaluation point; fresh
    variables are numbered from `next_index`."""
    tr = _Translator(system, faithful, next_index)
    return tr.go(f, var, None)


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
    """State of one `eval_fo` call: trace indices, free-variable sets and the
    quantifier memo."""

    def __init__(self, dom: FoDomain):
        self.dom = dom
        self.tindex = {id(t): k for k, t in enumerate(dom.universe)}
        self.fv_cache: dict[int, frozenset[str]] = {}
        self.memo: dict[tuple, bool] = {}

    def tix(self, t: LassoTrace) -> int:
        k = self.tindex.get(id(t))
        if k is None:
            for j, u in enumerate(self.dom.universe):
                if u.same_word(t):
                    return j
            raise ValueError("environment trace not in the domain universe")
        return k

    def fv(self, node: FoFormula) -> frozenset[str]:
        got = self.fv_cache.get(id(node))
        if got is not None:
            return got
        if isinstance(node, (FoExists, FoForall)):
            out = self.fv(node.body) - {node.var}
        elif isinstance(node, FoNot):
            out = self.fv(node.child)
        elif isinstance(node, (FoAnd, FoOr, FoImplies, FoIff)):
            out = self.fv(node.left) | self.fv(node.right)
        elif isinstance(node, FoPred):
            out = frozenset((node.trace_of, node.pos_of))
        elif isinstance(node, (FoLess, FoEq, FoEqualLevel, FoSucc)):
            out = frozenset((node.left, node.right))
        elif isinstance(node, FoMin):
            out = frozenset((node.var,))
        else:
            raise TypeError(f"not an FO node: {node!r}")
        self.fv_cache[id(node)] = out
        return out

    def ev(self, node: FoFormula, env: dict) -> bool:
        ev = self.ev
        if isinstance(node, (FoExists, FoForall)):
            key = (
                id(node),
                tuple(sorted((v, self.tix(env[v][0]), env[v][1]) for v in self.fv(node))),
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

_P_QUANT, _P_IFF, _P_IMPL, _P_OR, _P_AND, _P_NOT, _P_ATOM = range(7)


def print_fo(f: FoFormula) -> str:
    return _render(f, _P_QUANT)


def _render(f: FoFormula, ctx: int) -> str:
    if isinstance(f, FoForall):
        s = f"forall {f.var}. {_render(f.body, _P_QUANT)}"
        return f"({s})" if ctx > _P_QUANT else s
    if isinstance(f, FoExists):
        s = f"exists {f.var}. {_render(f.body, _P_QUANT)}"
        return f"({s})" if ctx > _P_QUANT else s
    if isinstance(f, FoIff):
        s = f"{_render(f.left, _P_IFF)} <-> {_render(f.right, _P_IFF + 1)}"
        return f"({s})" if ctx > _P_IFF else s
    if isinstance(f, FoImplies):
        s = f"{_render(f.left, _P_IMPL + 1)} -> {_render(f.right, _P_IMPL)}"
        return f"({s})" if ctx > _P_IMPL else s
    if isinstance(f, FoOr):
        s = f"{_render(f.left, _P_OR)} | {_render(f.right, _P_OR + 1)}"
        return f"({s})" if ctx > _P_OR else s
    if isinstance(f, FoAnd):
        s = f"{_render(f.left, _P_AND)} & {_render(f.right, _P_AND + 1)}"
        return f"({s})" if ctx > _P_AND else s
    if isinstance(f, FoNot):
        if isinstance(f.child, (FoLess, FoEq)):
            return f"!({_render(f.child, _P_QUANT)})"
        return f"!{_render(f.child, _P_NOT)}"
    if isinstance(f, FoPred):
        if f.trace_of == f.pos_of:
            return f"P_{f.name}({f.trace_of})"
        return f"P_{f.name}(tr({f.trace_of}), pos({f.pos_of}))"
    if isinstance(f, FoLess):
        s = f"{f.left} < {f.right}"
        return f"({s})" if ctx > _P_ATOM else s
    if isinstance(f, FoEq):
        s = f"{f.left} = {f.right}"
        return f"({s})" if ctx > _P_ATOM else s
    if isinstance(f, FoEqualLevel):
        return f"E({f.left}, {f.right})"
    if isinstance(f, FoSucc):
        return f"succ({f.left}, {f.right})"
    if isinstance(f, FoMin):
        return f"min({f.var})"
    raise TypeError(f"not an FO node: {f!r}")


def _fo_tokenize(text: str):
    toks = []
    line, col, k = 1, 1, 0
    n = len(text)
    while k < n:
        c = text[k]
        if c == "\n":
            line += 1
            col = 1
            k += 1
            continue
        if c in " \t\r":
            k += 1
            col += 1
            continue
        if text.startswith("<->", k):
            toks.append(("<->", line, col))
            k += 3
            col += 3
            continue
        if text.startswith("->", k):
            toks.append(("->", line, col))
            k += 2
            col += 2
            continue
        if c in "()<=.,!&|":
            toks.append((c, line, col))
            k += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            j = k
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((text[k:j], line, col))
            col += j - k
            k = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(("", line, col))
    return toks


class _FoParser:
    def __init__(self, text: str):
        self.toks = _fo_tokenize(text)
        self.k = 0

    def peek(self) -> str:
        return self.toks[self.k][0]

    def next(self) -> str:
        tok = self.toks[self.k]
        self.k += 1
        return tok[0]

    def err(self, msg: str):
        _, line, col = self.toks[self.k]
        raise ParseError(msg, line, col)

    def expect(self, tok: str):
        if self.peek() != tok:
            self.err(f"expected {tok!r}, found {self.peek()!r}")
        return self.next()

    def variable(self) -> str:
        v = self.peek()
        if not v or not (v[0].isalpha() or v[0] == "_"):
            self.err("expected a variable name")
        return self.next()

    def sentence(self) -> FoFormula:
        if self.peek() in ("forall", "exists"):
            kind = self.next()
            v = self.variable()
            self.expect(".")
            body = self.sentence()
            return FoForall(v, body) if kind == "forall" else FoExists(v, body)
        return self.iff()

    def iff(self) -> FoFormula:
        out = self.impl()
        while self.peek() == "<->":
            self.next()
            out = FoIff(out, self.impl())
        return out

    def impl(self) -> FoFormula:
        left = self.disj()
        if self.peek() == "->":
            self.next()
            return FoImplies(left, self.impl())
        return left

    def disj(self) -> FoFormula:
        out = self.conj()
        while self.peek() == "|":
            self.next()
            out = FoOr(out, self.conj())
        return out

    def conj(self) -> FoFormula:
        out = self.unary()
        while self.peek() == "&":
            self.next()
            out = FoAnd(out, self.unary())
        return out

    def unary(self) -> FoFormula:
        if self.peek() == "!":
            self.next()
            return FoNot(self.unary())
        return self.atom()

    def atom(self) -> FoFormula:
        tok = self.peek()
        if tok == "(":
            self.next()
            out = self.sentence()
            self.expect(")")
            return out
        if tok == "E":
            self.next()
            self.expect("(")
            a = self.variable()
            self.expect(",")
            b = self.variable()
            self.expect(")")
            return FoEqualLevel(a, b)
        if tok == "succ":
            self.next()
            self.expect("(")
            a = self.variable()
            self.expect(",")
            b = self.variable()
            self.expect(")")
            return FoSucc(a, b)
        if tok == "min":
            self.next()
            self.expect("(")
            a = self.variable()
            self.expect(")")
            return FoMin(a)
        if tok.startswith("P_") and len(tok) > 2:
            self.next()
            name = tok[2:]
            self.expect("(")
            if self.peek() == "tr":
                self.next()
                self.expect("(")
                a = self.variable()
                self.expect(")")
                self.expect(",")
                self.expect("pos")
                self.expect("(")
                b = self.variable()
                self.expect(")")
                self.expect(")")
                return FoPred(name, a, b)
            a = self.variable()
            self.expect(")")
            return FoPred(name, a, a)
        if tok and (tok[0].isalpha() or tok[0] == "_"):
            a = self.next()
            if self.peek() == "<":
                self.next()
                return FoLess(a, self.variable())
            if self.peek() == "=":
                self.next()
                return FoEq(a, self.variable())
            self.err(f"expected '<' or '=' after variable {a!r}")
        self.err(f"unexpected token {tok!r}")


def parse_fo(text: str) -> FoFormula:
    p = _FoParser(text)
    out = p.sentence()
    if p.peek() != "":
        p.err(f"trailing input {p.peek()!r}")
    return out
