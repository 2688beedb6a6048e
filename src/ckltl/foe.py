"""First-order logic of order with the equal-level predicate (FO[<,E]).

The temporal-epistemic-counterfactual logic translates into FO[<,E] sentences
whose variables range over (trace, position) pairs.  `<` relates positions on
the same trace only; `E` relates equal positions across traces; `succ` and
`min` are kept as first-class sugar.  The translation is linear in the input
size (plus the inlined similarity formulas) and the bounded evaluator here is
deliberately brute force: it serves as an independent oracle for the direct
semantics engine, so it shares no code with it.  It ranges over integer
points, one per (universe trace, position) pair, so a variable bound to any
lasso presentation of a universe word evaluates as that word.

FO nodes are hash-consed like formula nodes: they subclass
`formula.HashConsed` and live in the same weak unique table, so structurally
equal subformulas are one object, equality and hashing are identity, and
`parse_fo(print_fo(f)) is f`.  They are not `Formula`s: `desugar` and
`to_source` reject them.  Their operands are registered in the formula
layer's children table, so `formula.children`, `subformulas` and
`node_count` walk and count FO sentences too.  `print_fo` prints through
`formula.render`, the printer loop of `to_source`.  `parse_fo` reads
through `formula.read`, the front end of `parse`: one tokenizer, one parse
loop, and one wording for a missing `)` and for trailing input.  It brings
only its operator tables, in which a quantifier is a prefix operator looser
than every connective, its atom reader and its token-validity rule.
Counting, free variables, printing and parsing are iterative; only the
translator and the evaluator recurse, once per level of their input.

Amendment: in both counterfactual cases the inner comparison variable (the
universally quantified trace the conditional's guarantee ranges over) carries
an extra conjunct E(x_c, x_t) pinning it to the evaluation level, since the
direct semantics compare traces at one position.  `faithful=True` drops the
pin and yields the unamended text for side-by-side inspection; its oracle
equivalence is not expected to hold.
"""

from __future__ import annotations

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
    Prev,
    Since,
    TracedAtom,
    TrueConst,
    Until,
    UWould,
    Would,
    _CHILDREN,
    _fields,
    _syntax_error,
    children,
    desugar,
    node_count,
    read,
    render,
    subformulas,
)
from .model import System
from .trace import LassoTrace, TraceUniverse, _require_int


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


# FO operands, in the table that `children` and `subformulas` read
_CHILDREN.update(dict.fromkeys((FoExists, FoForall), lambda f: (f.body,)))
_CHILDREN[FoNot] = lambda f: (f.child,)
_CHILDREN.update(dict.fromkeys(
    (FoAnd, FoOr, FoImplies, FoIff), lambda f: (f.left, f.right)))

fo_node_count = node_count  # the name the benchmark tracer reads


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
    """Finite evaluation domain: the universe's traces at positions 0..n, as
    integer points.  Point `k * (n + 1) + i` is universe trace k at position
    i, so the same trace is the same point whatever lasso presentation names
    it, and `<`, `=`, `succ`, `E` and `min` are integer arithmetic."""

    universe: TraceUniverse
    n: int

    def __post_init__(self):
        _require_int("n", self.n)
        if self.n < 0:
            raise ValueError("bound must be >= 0")


def eval_fo(
    dom: FoDomain,
    f: FoFormula,
    env: dict[str, tuple[LassoTrace, int]] | None = None,
) -> bool:
    """Brute-force evaluation over dom; quantifiers short-circuit and are
    memoized per assignment of their free variables.

    Every environment entry must name a point of the domain: a trace of its
    universe (any lasso presentation of it; all evaluate alike) at an int
    position within the bound."""
    for v, (t, i) in (env or {}).items():
        _require_int(f"{v}: position", i)
        if not 0 <= i <= dom.n:
            raise ValueError(f"{v}: position {i} outside the domain [0, {dom.n}]")
        if t not in dom.universe:
            raise ValueError(f"{v}: trace not in the domain universe")
    ev = _FoEvaluator(dom)
    missing = ev.fv(f) - set(env or {})
    if missing:
        raise ValueError(f"unbound variables: {sorted(missing)}")
    tix = dom.universe.index
    return ev.ev(f, {v: tix(t) * ev.w + i for v, (t, i) in (env or {}).items()})


class _FoEvaluator:
    """State of one `eval_fo` call: the letter of every point, free-variable
    sets and the quantifier memo.  Environments map variables to points."""

    def __init__(self, dom: FoDomain):
        self.w = w = dom.n + 1  # points per trace
        self.letters = [t.label_at(i) for t in dom.universe for i in range(w)]
        self.fv_cache: dict[FoFormula, frozenset[str]] = {}
        self.memo: dict[tuple, bool] = {}

    def fv(self, node: FoFormula) -> frozenset[str]:
        """Free variables of `node`.  `eval_fo` asks first for the root, whose
        postorder walk fills the cache for every subformula; later calls read
        it."""
        cache = self.fv_cache
        if node not in cache:
            for g in subformulas(node):
                cls = type(g)
                if cls in _QUANT_NAMES:
                    out = cache[g.body] - {g.var}
                elif cls is FoNot or cls in _INFIX:
                    out = frozenset().union(*[cache[c] for c in children(g)])
                elif cls is FoPred:
                    out = frozenset((g.trace_of, g.pos_of))
                elif cls in _COMPARE_NAMES or cls in _CALL_NAMES:
                    out = frozenset(_fields(g))  # every field is a variable
                else:
                    raise TypeError(f"not an FO node: {g!r}")
                cache[g] = out
        return cache[node]

    def ev(self, node: FoFormula, env: dict[str, int]) -> bool:
        ev, w = self.ev, self.w
        if isinstance(node, (FoExists, FoForall)):
            key = (node, tuple(sorted((v, env[v]) for v in self.fv(node))))
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
        if isinstance(node, FoPred):  # trace of one point, position of another
            a = env[node.trace_of]
            return node.name in self.letters[a - a % w + env[node.pos_of] % w]
        if isinstance(node, FoMin):
            return env[node.var] % w == 0
        a, b = env[node.left], env[node.right]
        if isinstance(node, FoLess):
            return a < b and a // w == b // w
        if isinstance(node, FoEq):
            return a == b
        if isinstance(node, FoEqualLevel):
            return a % w == b % w
        return b == a + 1 and b % w != 0  # FoSucc: `fv` has rejected the rest

    def quant(self, node, env) -> bool:
        sub = dict(env)
        stop = isinstance(node, FoExists)  # the body value that decides
        for p in range(len(self.letters)):
            sub[node.var] = p
            if self.ev(node.body, sub) == stop:
                return stop
        return not stop


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


def _emit(g: HashConsed, p: int, out: list, stack: list) -> None:
    cls = type(g)
    if cls in _QUANT_NAMES:
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


def print_fo(f: FoFormula) -> str:
    """Render `f` as text; `parse_fo(print_fo(f)) is f`."""
    return render(f, _P_QUANT, _PREC, _INFIX, _emit)


# A token of `formula._TOKEN` whose first character fails `isalpha()` and is
# not `_`, or a single character outside `_FO_PUNCT`, is one no rule accepts:
# the first of them is reported as an unexpected character.
_FO_PUNCT = frozenset(["<->", "->", "(", ")", "<", "=", ".", ",", "!", "&", "|"])


def _is_var(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _is_fo_token(tok: str) -> bool:
    return tok in _FO_PUNCT or _is_var(tok)


_fo_error = partial(_syntax_error, _is_fo_token)  # (text, k, message)


def _match(text: str, toks: list[str], k: int, shape: tuple) -> tuple[list[str], int]:
    """Read `shape` from token `k` on, a variable where it has None and that
    token elsewhere: the variables, and where they end."""
    names = []
    for want in shape:
        t = toks[k]
        if want is None:
            if not _is_var(t):
                raise _fo_error(text, k, "expected a variable name")
            names.append(t)
        elif t != want:
            raise _fo_error(text, k, f"expected {want!r}, found {t or 'end of input'!r}")
        k += 1
    return names, k


_PRED = ("(", None, ")")
_PRED_TR = ("(", "tr", "(", None, ")", ",", "pos", "(", None, ")", ")")


def _bound(text: str, toks: list[str], k: int) -> tuple[str, int]:
    """The variable the quantifier at token `k` binds, and where it ends."""
    (var,), end = _match(text, toks, k + 1, (None, "."))
    return var, end


# prefix operators: precedence, node[, variable reader]
_PREFIXES = {"!": (_P_ATOM, FoNot), **{t: (_P_QUANT, n, _bound) for t, n in _QUANTS.items()}}


def _fo_atom(text: str, toks: list[str], k: int) -> tuple[FoFormula, int]:
    """A predicate or a comparison of two variables."""
    t = toks[k]
    node = _CALLS.get(t)
    if node is not None:
        more = len(node.__slots__) - 1  # variables after the first
        names, end = _match(text, toks, k + 1, ("(", None) + (",", None) * more + (")",))
        return node(*names), end
    if t.startswith("P_") and len(t) > 2:
        tr = toks[k + 1] == "(" and toks[k + 2] == "tr"
        names, end = _match(text, toks, k + 1, _PRED_TR if tr else _PRED)
        return FoPred(t[2:], names[0], names[-1]), end
    if _is_var(t):
        node = _COMPARE.get(toks[k + 1])
        if node is None:
            raise _fo_error(text, k + 1, f"expected '<' or '=' after variable {t!r}")
        (var,), end = _match(text, toks, k + 2, (None,))
        return node(t, var), end
    raise _fo_error(text, k, f"unexpected token {t!r}" if t else "unexpected end of input")


def parse_fo(text: str) -> FoFormula:
    """Parse the text `print_fo` writes.

    A sentence is a run of quantifier prefixes, then operands joined by the
    binary connectives of `_BINARY`; an operand is a run of `!` before a
    parenthesized sentence or an atom.  Raises :class:`ParseError` with
    line/column on malformed input."""
    return read(text, _PREFIXES, _fo_atom, _BINARY, _fo_error)
