"""Second routes for differential tests: a deliberately naive bounded-window
evaluator, a recursive-descent parser for the formula syntax, and a naive
recursive node count and walk.

Differences from the engine are structural, not cosmetic: no memoization, no
zipped traces (relational formulas read trace variables from an environment),
observation equivalence recomputed per query, and each counterfactual variant
written out as its own textbook quantifier pattern instead of sharing a
negated-consequent core.  Agreement between this and the engine is therefore
evidence, not an echo.

The parser, `parse_reference`, reads the grammar of `ckltl.formula` with one
method per precedence tier, recursing on parentheses and on the right operand
of a right-associative connective; it shares the library's tokenizer and
error reporting, so its results and error messages must match `parse`'s
exactly on every input within its recursion depth.

`tree_size` and `distinct_postorder` recurse over a node's fields as its
class declares them, without the library's children table, so they check
`node_count`, `subformulas` and the walks that read the table on formulas and
FO sentences alike.

`is_name_reference` is the earlier definition of `formula._is_name`, through
the full tokenizer, and `window_reference` builds a context's window table
one proposition of one trace at a time, as the engine once did.

Earlier definitions kept to check their faster successors:
`desugar_reference` rebuilds every node over its rewritten fields through the
node's constructor, `canonical_reference` absorbs prefix cells into the
loop one at a time, rotating the loop and popping a list of cells, and
`generate_universe_reference` extends every prefix path, also those after
which no loop can be entered.
"""

from __future__ import annotations

import warnings
from functools import partial
from typing import Iterable

from ckltl import (
    And,
    Atom,
    EMight,
    Eventually,
    FalseConst,
    Formula,
    Globally,
    Historically,
    Iff,
    Implies,
    Know,
    LassoTrace,
    Might,
    Next,
    Not,
    Once,
    Or,
    Prev,
    Since,
    TracedAtom,
    TrueConst,
    Until,
    UWould,
    Would,
)
from ckltl.formula import (
    _BINARY,
    _CF_OPS,
    _P_IFF,
    _PREFIX_OPS,
    _TOKEN,
    _UNTIL_OPS,
    HashConsed,
    _fields,
    _is_ident,
    _is_token,
    _scan_end,
    _syntax_error,
    subformulas,
)
from ckltl.trace import (
    _LETTERS,
    SizeLimitExceeded,
    TraceUniverse,
    _indexed,
    _lasso,
    _minimal_period,
    _require_int,
)


def obs_eq(system, agent, t1, t2, i):
    obs = system.observation_of(agent)
    return all(
        (t1.label_at(j) & obs) == (t2.label_at(j) & obs) for j in range(i + 1)
    )


def naive(system, universe, n, t, f, i, env=None):
    """Truth of `f` on trace `t` at position `i` over the window [0, n]."""

    def ev(t, f, i, env):
        if isinstance(f, Atom):
            return f.name in t.label_at(i)
        if isinstance(f, TracedAtom):
            return f.name in env[f.trace_var].label_at(i)
        if isinstance(f, TrueConst):
            return True
        if isinstance(f, FalseConst):
            return False
        if isinstance(f, Not):
            return not ev(t, f.child, i, env)
        if isinstance(f, And):
            return ev(t, f.left, i, env) and ev(t, f.right, i, env)
        if isinstance(f, Or):
            return ev(t, f.left, i, env) or ev(t, f.right, i, env)
        if isinstance(f, Implies):
            return (not ev(t, f.left, i, env)) or ev(t, f.right, i, env)
        if isinstance(f, Iff):
            return ev(t, f.left, i, env) == ev(t, f.right, i, env)
        if isinstance(f, Next):
            return i + 1 <= n and ev(t, f.child, i + 1, env)
        if isinstance(f, Prev):
            return i > 0 and ev(t, f.child, i - 1, env)
        if isinstance(f, Until):
            return any(
                ev(t, f.right, k, env)
                and all(ev(t, f.left, j, env) for j in range(i, k))
                for k in range(i, n + 1)
            )
        if isinstance(f, Since):
            return any(
                ev(t, f.right, k, env)
                and all(ev(t, f.left, j, env) for j in range(k + 1, i + 1))
                for k in range(0, i + 1)
            )
        if isinstance(f, Eventually):
            return any(ev(t, f.child, k, env) for k in range(i, n + 1))
        if isinstance(f, Globally):
            return all(ev(t, f.child, k, env) for k in range(i, n + 1))
        if isinstance(f, Once):
            return any(ev(t, f.child, k, env) for k in range(0, i + 1))
        if isinstance(f, Historically):
            return all(ev(t, f.child, k, env) for k in range(0, i + 1))
        if isinstance(f, Know):
            return all(
                ev(t2, f.child, i, env)
                for t2 in universe
                if obs_eq(system, f.agent, t, t2, i)
            )
        if isinstance(f, (Would, Might, UWould, EMight)):
            return cf(t, f, i, env)
        raise TypeError(f"naive oracle got {f!r}")

    def sim(agent, ref, t1, t2, i):
        rf = system.similarity_of(agent)
        bound = {rf.params[0]: ref, rf.params[1]: t1, rf.params[2]: t2}
        return ev(ref, rf.formula, i, bound)

    def cf(t, f, i, env):
        a = f.agent
        traces = list(universe)
        acc = [
            x for x in traces if sim(a, t, t, x, i) and ev(x, f.ante, i, env)
        ]
        ante_holds = [x for x in traces if ev(x, f.ante, i, env)]
        if isinstance(f, Would):
            if not acc:
                return True
            return any(
                all(
                    ev(y, f.cons, i, env)
                    for y in ante_holds
                    if sim(a, t, y, x, i)
                )
                for x in acc
            )
        if isinstance(f, Might):
            # not (ante Would not-cons)
            if not acc:
                return False
            return all(
                any(
                    ev(y, f.cons, i, env)
                    for y in ante_holds
                    if sim(a, t, y, x, i)
                )
                for x in acc
            )
        if isinstance(f, UWould):
            return all(
                any(
                    ev(e, f.ante, i, env)
                    and sim(a, t, e, x, i)
                    and all(
                        ev(y, f.cons, i, env)
                        for y in ante_holds
                        if sim(a, t, y, e, i)
                    )
                    for e in traces
                )
                for x in acc
            )
        # EMight: not (ante UWould not-cons)
        if not acc:
            return False
        return any(
            all(
                any(
                    ev(y, f.cons, i, env)
                    for y in ante_holds
                    if sim(a, t, y, e, i)
                )
                for e in traces
                if ev(e, f.ante, i, env) and sim(a, t, e, x, i)
            )
            for x in acc
        )

    return ev(t, f, i, env or {})


# ---------------------------------------------------------------------------
# recursive-descent parser
# ---------------------------------------------------------------------------


class _Parser:
    __slots__ = ("text", "toks", "pos")

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text, 0, _scan_end(text)) + [""]  # "": end of input
        self.pos = 0

    def error(self, message: str):
        return _syntax_error(_is_token, self.text, self.pos, message)

    def expect(self, text: str) -> None:
        t = self.toks[self.pos]
        if t != text:
            raise self.error(f"expected {text!r}, found {t or 'end of input'!r}")
        self.pos += 1

    def agent_name(self) -> str:
        self.expect("[")
        t = self.toks[self.pos]
        if not _is_ident(t):
            raise self.error("expected an agent name")
        self.pos += 1
        self.expect("]")
        return t

    def binary(self, min_prec: int):
        f = self.cf()
        while True:
            op = _BINARY.get(self.toks[self.pos])
            if op is None or op[0] < min_prec:
                return f
            self.pos += 1
            prec, node, right_assoc = op
            f = node(f, self.binary(prec if right_assoc else prec + 1))

    def cf(self):
        f = self.until()
        node = _CF_OPS.get(self.toks[self.pos])
        if node is None:
            return f
        self.pos += 1
        agent = self.agent_name()
        f = node(agent, f, self.until())
        if self.toks[self.pos] in _CF_OPS:
            raise self.error("counterfactual operators do not associate; parenthesize")
        return f

    def until(self):
        f = self.unary()
        node = _UNTIL_OPS.get(self.toks[self.pos])
        if node is None:
            return f
        self.pos += 1
        return node(f, self.until())  # right associative

    def unary(self):
        toks = self.toks
        ops = []
        while True:
            t = toks[self.pos]
            if t in _PREFIX_OPS:
                self.pos += 1
                ops.append(_PREFIX_OPS[t])
            elif t == "K":
                self.pos += 1
                ops.append(partial(Know, self.agent_name()))
            else:
                break
        if t == "(":
            self.pos += 1
            f = self.binary(_P_IFF)
            self.expect(")")
        elif t == "true":
            self.pos += 1
            f = TrueConst()
        elif t == "false":
            self.pos += 1
            f = FalseConst()
        elif _is_ident(t):
            self.pos += 1
            if toks[self.pos] == "@":
                self.pos += 1
                v = toks[self.pos]
                if not _is_ident(v):
                    raise self.error("expected a trace variable after '@'")
                self.pos += 1
                f = TracedAtom(t, v)
            else:
                f = Atom(t)
        else:
            raise self.error(f"expected a formula, found {t or 'end of input'!r}")
        while ops:
            f = ops.pop()(f)
        return f


def parse_reference(text: str):
    """`text` parsed by recursive descent; raises `ParseError` like `parse`."""
    p = _Parser(text)
    f = p.binary(_P_IFF)
    t = p.toks[p.pos]
    if t:
        raise p.error(f"unexpected trailing input {t!r}")
    return f


def _operands(f) -> list:
    """The fields of `f` that are nodes, in constructor order."""
    return [v for v in (getattr(f, name) for name in type(f).__slots__)
            if isinstance(v, HashConsed)]


def tree_size(f) -> int:
    """Size of `f` as a tree, by recursion: a shared node counts once per
    occurrence."""
    return 1 + sum(tree_size(c) for c in _operands(f))


def distinct_postorder(f, seen=None) -> list:
    """The distinct nodes of `f`, each after its operands, left operand
    first, by recursion."""
    seen = set() if seen is None else seen
    out = []
    if f not in seen:
        seen.add(f)
        for c in _operands(f):
            out += distinct_postorder(c, seen)
        out.append(f)
    return out


def is_name_reference(text: str) -> bool:
    """Whether `text` is one identifier token: the tokenizer reads it whole."""
    return _TOKEN.findall(text) == [text] and _is_ident(text)


def window_reference(traces, w: int) -> list[dict]:
    """Per position j < w, proposition -> mask of the traces whose letter at
    j holds it (bit k: the k-th trace), one trace at a time."""
    props = [{} for _ in range(w)]
    for k, t in enumerate(traces):
        for j in range(w):
            for q in t.label_at(j):
                props[j][q] = props[j].get(q, 0) | 1 << k
    return props


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


def desugar_reference(f):
    """The core form of `f`: each distinct node, in postorder, rebuilt over
    its rewritten fields, through `_SUGAR` or its own constructor."""
    core = {}
    for g in subformulas(f):
        if not isinstance(g, Formula):
            raise TypeError(f"not a formula node: {g!r}")
        args = [core[v] if isinstance(v, Formula) else v for v in _fields(g)]
        core[g] = _SUGAR.get(type(g), type(g))(*args)
    return core[f]


def canonical_reference(t: LassoTrace) -> LassoTrace:
    """A new trace holding the canonical presentation of `t`'s word: the
    smallest loop period, then prefix cells that repeat the loop absorbed."""
    loop = _minimal_period(t.loop)
    prefix = list(t.prefix)
    while prefix and prefix[-1] == loop[-1]:
        loop = (loop[-1],) + loop[:-1]
        prefix.pop()
    return LassoTrace(tuple(prefix), loop)


def generate_universe_reference(
    system_or_kripke,
    max_prefix: int,
    max_loop: int,
    *,
    loop_states: Iterable[str] | None = None,
    max_traces: int = 1_000_000,
) -> TraceUniverse:
    """`trace.generate_universe` before it skipped dead prefixes: every
    prefix path is extended, whether or not a loop can follow it."""
    k = getattr(system_or_kripke, "kripke", system_or_kripke)
    _require_int("max_prefix", max_prefix)
    _require_int("max_loop", max_loop)
    _require_int("max_traces", max_traces)
    if max_prefix < 0 or max_loop < 1:
        raise ValueError("need max_prefix >= 0 and max_loop >= 1")
    if max_traces < 1:
        raise ValueError(f"need max_traces >= 1, got {max_traces}")
    allowed = set(loop_states) if loop_states is not None else None
    if allowed is not None:
        unknown = allowed - set(k.states)
        if unknown:
            raise ValueError(f"loop_states not in the model: {sorted(unknown)}")

    trans = k.transitions
    labels = {s: _LETTERS.setdefault(l, l) for s, l in k.labels.items()}
    # Filled on first use: `cycles` maps (first state, length) to the closed
    # loop paths from there, depth-first, as labels cut to their minimal
    # period; `loops` maps a last prefix state (None: empty prefix) to the
    # loops after it, by length, then first state, then depth-first.
    cycles: dict[tuple[str, int], list[tuple[frozenset, ...]]] = {}
    loops: dict[str | None, list[tuple[frozenset, ...]]] = {}

    def closed_loops(first: str, length: int) -> list[tuple[frozenset, ...]]:
        out = cycles.get((first, length))
        if out is None:
            out = cycles[first, length] = []
            paths = [(first,)]
            while paths:
                path = paths.pop()
                if len(path) < length:
                    paths += (path + (s,) for s in reversed(trans[path[-1]])
                              if allowed is None or s in allowed)
                elif first in trans[path[-1]]:
                    out.append(_minimal_period(tuple(labels[s] for s in path)))
        return out

    found: dict[LassoTrace, int] = {}  # canonical trace -> universe position
    # Depth-first over prefix paths, each before its extensions, the empty
    # prefix first; a path is kept as its last state and its label tuple.
    prefixes: list[tuple[str | None, tuple[frozenset, ...]]] = [(None, ())]
    while prefixes:
        last, prefix = prefixes.pop()
        succ = trans[last] if prefix else (k.initial,)
        after = loops.get(last)
        if after is None:
            after = loops[last] = [
                loop for length in range(1, max_loop + 1) for s in succ
                if allowed is None or s in allowed for loop in closed_loops(s, length)]
        for loop in after:
            # born canonical: absorb prefix letters repeating the loop (shared letters: `is`)
            n = len(prefix)
            while n and prefix[n - 1] is loop[-1]:
                loop = (loop[-1],) + loop[:-1]
                n -= 1
            t = _lasso(prefix[:n], loop, True)
            size = len(found)
            if found.setdefault(t, size) == size and size >= max_traces:
                raise SizeLimitExceeded(f"universe exceeds {max_traces} traces; "
                                        "raise the cap or tighten the bounds")
        if len(prefix) < max_prefix:
            prefixes += ((s, prefix + (labels[s],)) for s in reversed(succ))

    if not found:
        warnings.warn("generated universe is empty under the given bounds", stacklevel=2)
    return _indexed(tuple(found), found)
