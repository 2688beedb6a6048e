"""Evaluation of formulas on lasso traces over a finite trace universe.

A context's `bound` picks the semantics:

* None (exact) -- true infinite-word semantics.  On a set of traces with
  longest prefix P and loop lcm L, the values of a subformula repeat from
  P + a*L with period b*L, for a bound (a, b) proved from the formula
  structure alone, never read off computed values.  U, F and G pass over
  the period twice: from the least (U, F) or greatest (G) fixpoint to settle
  the value at its start, then from that value to fill it.

* N >= 0 (bounded) -- positions range over [0, N]; X is false at N, Y is
  false at 0, Until/Since witnesses are clipped to the window.  This mirrors the
  first-order translation over the same bounded domain exactly.

The evaluator handles the surface operators (Or, Implies, Iff, F, G, O, H,
Might, EMight) natively rather than desugaring first; `desugar` defines the
reference core form and the test suite holds both routes to the same values.

Memo layout.  Formula nodes are hash-consed where they are built (see
`formula`), so a structurally equal subformula is the same node wherever it
comes from (ICE, WCE, GCE and the similarity relations too), and a context
keys its tables by the node itself.  A trace set is the universe or a view
of it (below): every set has the universe's traces, in universe order, and
its shape.  A node's values on a set form one column, whose entry j packs a
known mask and, above it, a value mask: bit k stands for universe trace k.
Exact-mode columns span [0, P + (a+b)*L), and later positions fold back
into the period; bounded columns span [0, N].  Each request carries the
mask of traces it needs, so `&`, `|`, `->`, K and counterfactuals skip
operands per trace.  Node evaluations are generators suspended on one
explicit stack: nothing recurses per formula level or position.

All trace quantifiers (knowledge, counterfactuals, system-level checks) range
over one finite TraceUniverse.  Verdicts are therefore exact only relative to
the chosen universe, and a trace outside it has no meaning for them: every
public entry point takes universe traces only (any presentation of a
universe word), names a trace by its universe index, and refuses a position
below 0 or past the bounded window.

Similarity is answered in rows.  A row is, for one agent, a reference trace
t, a nearer trace y and a position i: the mask of the universe traces x for
which the relation accepts (t, y, x) at i.  A relation of the
all-positions shape -- a conjunction of `G B_k` and `H B_k` whose G-bodies
and H-bodies form the same set, every body pointwise (traced atoms, boolean
connectives, constants) -- does not depend on i: its row is the AND, over
the positions of a window, of a compiled block run on the universe's
proposition masks; `subset_similarity` and the gender-frozen hiring
relation have this shape.  Every other relation is evaluated on the row's
view (t, y) of the universe.  Counterfactuals are read off rows.  Neither
route checks what a relation holds: `RelationalFormula` did, when it was built.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import lcm

from .formula import (
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
    children,
    to_source,
)
from .model import System
from .trace import LassoTrace, TraceUniverse, format_trace

_CF_NODES = {Would: (False, False), Might: (False, True),
             UWould: (True, False), EMight: (True, True)}
_LEAVES = frozenset((Atom, TracedAtom, TrueConst, FalseConst))
_TEMPORAL = (Until, Eventually, Globally, Since, Once, Historically)  # future ones first


class StabilizationCapExceeded(RuntimeError):
    """A truth sequence needs more loop unrollings than the configured cap."""

    def __init__(self, trace: LassoTrace, formula: Formula, needed: int, cap: int):
        super().__init__(
            f"stabilization cap exceeded: stabilizing {to_source(formula)!r} on "
            f"{format_trace(trace)} needs {needed} loop unrollings, cap is {cap}"
        )
        self.needed = needed
        self.cap = cap


# Opcodes of a compiled pointwise block.  Registers hold ints read as trace
# masks at one position (bit k = value on the set's trace k); negative ints
# stand for masks with every high bit set, so negation is `~`.  `_HAS` reads
# a proposition of the reference's or nearer trace's letter, `_LOAD` of the
# universe's masks.
_LOAD, _HAS, _CONST, _NOT, _AND, _OR, _IMPLIES, _IFF = range(8)
_BINARY = {And: _AND, Or: _OR, Implies: _IMPLIES, Iff: _IFF}


def _all_positions_block(params: tuple[str, str, str], rel: Formula):
    """Compile `rel` into a flat op list when it has the all-positions shape,
    else return None.  Registers are keyed by node, so equal subformulas
    share one.

    The shape is a conjunction of `G B_k` and `H B_k` in which the set of
    G-bodies equals the set of H-bodies and every body is pointwise over the
    declared trace variables.  G from i and H up to i together cover every
    position, so the relation holds iff the conjunction of the bodies holds
    at every position, whatever i is."""
    conjuncts, stack = [], [rel]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += (g.right, g.left)
        else:
            conjuncts.append(g)
    if not all(isinstance(g, (Globally, Historically)) for g in conjuncts):
        return None
    g_bodies = dict.fromkeys(g.child for g in conjuncts if isinstance(g, Globally))
    h_bodies = {g.child for g in conjuncts if isinstance(g, Historically)}
    if g_bodies.keys() != h_bodies:
        return None
    ops: list[tuple] = []
    regs: dict[Formula, int] = {}  # node -> register (index of the op that fills it)
    roots = []
    for body in g_bodies:
        stack = [(body, False)]
        while stack:
            g, ready = stack.pop()
            if g in regs:
                continue
            if isinstance(g, TracedAtom):
                k = params.index(g.trace_var)
                op = (_HAS if k < 2 else _LOAD, k, g.name)
            elif isinstance(g, (TrueConst, FalseConst)):
                op = (_CONST, -1 if isinstance(g, TrueConst) else 0, None)
            elif not isinstance(g, (Not, *_BINARY)):
                return None
            elif not ready:
                stack.append((g, True))
                stack += ((c, False) for c in reversed(children(g)))
                continue
            elif isinstance(g, Not):
                op = (_NOT, regs[g.child], None)
            else:
                op = (_BINARY[type(g)], regs[g.left], regs[g.right])
            regs[g] = len(ops)
            ops.append(op)
        roots.append(regs[body])
    acc = roots[0]
    for r in roots[1:]:
        ops.append((_AND, acc, r))
        acc = len(ops) - 1
    return tuple(ops)


def _run_block(ops: tuple, masks: tuple) -> int:
    """Trace mask of a compiled block at one position, given the loads
    `masks` (see `EvalContext._loads`); the root is the last op."""
    r: list[int] = []
    push = r.append
    for code, a, b in ops:
        if code == _LOAD:
            push(masks[a].get(b, 0))
        elif code == _HAS:
            push(-(b in masks[a]))
        elif code == _AND:
            push(r[a] & r[b])
        elif code == _IFF:
            push(~(r[a] ^ r[b]))
        elif code == _NOT:
            push(~r[a])
        elif code == _IMPLIES:
            push(~r[a] | r[b])
        elif code == _OR:
            push(r[a] | r[b])
        else:
            push(a)
    return r[-1]


def _members(m: int):
    """Indices of the set bits of m, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _operands(f: Formula) -> tuple:
    """(l, r) of the recurrence v = r | l & v' that U, F, G (v' one position
    later) and S, O, H (v' one position earlier) follow; None reads as true
    for l and as false for r."""
    if isinstance(f, (Until, Since)):
        return f.left, f.right
    if isinstance(f, (Eventually, Once)):
        return None, f.child
    return f.child, None


def _step(l, r, k, x, other):
    """r | l & other at k on the traces x: l is asked only where `other`
    holds, and r only where that has not decided the value."""
    v = x & other
    if l is not None and v:
        v = yield l, k, v
    if r is not None and x & ~v:
        v |= yield r, k, x & ~v
    return v


class EvalContext:
    """Evaluation state: system, universe, bound (None: exact), and all memo tables.

    Columns are indexed by trace set and formula node (see the module
    docstring) and filled lazily, so building a context costs nothing per
    trace.  Caches persist across calls, so repeated checks over the same
    context are warm; results never depend on cache state.
    """

    __slots__ = ("system", "universe", "bound", "stabilization_cap",
                 "_bounds", "_shape", "_sets", "_parts", "_asks", "_rels")

    def __init__(self, system: System, universe: TraceUniverse, bound: int | None = None,
                 stabilization_cap: int = 64):
        if bound is not None and bound < 0:
            raise ValueError(f"bounded mode needs a bound >= 0, got {bound}")
        if stabilization_cap < 1:
            raise ValueError("stabilization cap must be positive")
        self.system = system
        self.universe = universe
        self.bound = bound
        self.stabilization_cap = stabilization_cap
        self._bounds: dict[Formula, tuple[int, int]] = {}  # met node -> (a, b)
        self._shape: tuple | None = None  # see `_uni`
        # None: the universe, (agent, t, y): a row's view -> node -> column
        self._sets: dict[tuple | None, dict] = {}
        self._parts: dict[str, list[list[int]]] = {}  # agent -> position -> classes
        self._asks = 0
        self._rels: dict[str, tuple] = {}

    @classmethod
    def exact(cls, system, universe, stabilization_cap: int = 64) -> "EvalContext":
        return cls(system, universe, None, stabilization_cap)

    @classmethod
    def bounded(cls, system, universe, bound: int) -> "EvalContext":
        if bound is None:
            raise ValueError(f"bounded mode needs a bound >= 0, got {bound}")
        return cls(system, universe, bound)

    def stats(self) -> dict[str, int]:
        """Deterministic work counters: nodes met, (node, trace set) columns,
        operand asks, known values, similarity rows, partitions built."""
        full = (1 << len(self.universe)) - 1
        cols = [col[0] for st in self._sets.values() for col in st.values()]
        return {
            "nodes": len(self._bounds), "columns": len(cols), "asks": self._asks,
            "values": sum((x & full).bit_count() for e in cols for x in e),
            "similarity": sum(len(r[3]) for r in self._rels.values())
            + sum(isinstance(k, tuple) for k in self._sets),
            "partitions": sum(map(len, self._parts.values())),
        }

    # -- nodes, traces and sets --

    def _meet(self, f: Formula) -> tuple[int, int]:
        """Structural stabilization bound (a, b) of `f`: on the universe and
        its views, values repeat from P + a*L with period b*L, where P is the
        universe's longest prefix and L the lcm of its loops.  The nodes of
        `f` that the context has not met yet get theirs, children first, in
        an iterative walk that stops at nodes met before."""
        bounds, stack = self._bounds, [f]
        while stack:
            g = stack[-1]
            if g in bounds:
                stack.pop()
                continue
            kids = children(g)
            unmet = [c for c in kids if c not in bounds]
            if unmet:
                stack += unmet
                continue
            stack.pop()
            kb = [bounds[c] for c in kids]
            if type(g) in _CF_NODES:  # may meet a relation first
                kb.append(bounds[self._rel(g.agent)[1]])
            elif type(g) not in self._OPS and type(g) not in _LEAVES:
                raise TypeError(f"evaluator got an unknown node: {g!r}")
            a, b = max((a for a, _ in kb), default=0), lcm(*(b for _, b in kb))
            if isinstance(g, (Since, Once, Historically)):
                # the running-Since bit over a settled block either latches or
                # follows a block-periodic recurrence; two blocks always suffice
                a, b = a + b, 2 * b
            elif isinstance(g, Prev):
                a += 1
            elif isinstance(g, Know):
                a = max(a, 1)  # observations that diverge do so below P + L
            bounds[g] = (a, b)
        return bounds[f]

    def _uni(self) -> tuple:
        """Universe traces, size, longest prefix P, loop lcm L and mask table, made lazily."""
        if self._shape is None:
            traces = self.universe.traces
            self._shape = (traces, len(traces), max((len(u.prefix) for u in traces), default=0),
                           lcm(*(len(u.loop) for u in traces)), [])
        return self._shape

    def _loads(self, j: int, t: int, y: int) -> tuple:
        """What traced atoms read at j in the row of (t, y): t's and y's
        letters, whose propositions hold on every trace, then the universe's
        proposition -> trace-mask dict, kept per position of [0, P + L),
        where j folds."""
        traces, _, p, l, tab = self._uni()
        j = j if j < p + l else p + (j - p) % l
        while len(tab) <= j:
            tab.append({})
            for k, u in enumerate(traces):
                for q in u.label_at(len(tab) - 1):
                    tab[-1][q] = tab[-1].get(q, 0) | 1 << k
        return traces[t].label_at(j), traces[y].label_at(j), tab[j]

    def _indices(self, i: int, *traces: LassoTrace) -> list[int]:
        """Universe indices of `traces`, any presentation of a universe word;
        every public entry point asks here, so a position below 0 or past
        the bounded window and a trace outside the universe are refused."""
        if i < 0:
            raise ValueError("positions start at 0")
        if self.bound is not None and i > self.bound:
            raise ValueError(f"position {i} outside the bounded window [0, {self.bound}]")
        for t in traces:
            if t not in self.universe:
                raise ValueError(f"trace not in the universe: {format_trace(t)}")
        return [self.universe.index(t) for t in traces]

    def _rel(self, agent: str) -> tuple[tuple, Formula, tuple | None, dict]:
        """(params, formula, compiled block or None, memo of block rows) of the
        agent's relation, whose nodes are met on first use."""
        got = self._rels.get(agent)
        if got is None:
            rf = self.system.similarity_of(agent)
            self._meet(rf.formula)
            block = _all_positions_block(rf.params, rf.formula)
            got = self._rels[agent] = (rf.params, rf.formula, block, {})
        return got

    # ------------------------------------------------------------------
    # columns
    # ------------------------------------------------------------------

    def value(self, t: LassoTrace, f: Formula, i: int) -> bool:
        """Truth of `f` on the universe trace `t` at position `i`, exact or
        within the bound."""
        (k,) = self._indices(i, t)
        return self._eval(f, None, i, 1 << k) != 0

    def _eval(self, f: Formula, view: tuple | None, i: int, m: int) -> int:
        """Values of `f` at `i` on the traces of mask `m` of the universe
        (`view` None) or of the view (agent, t, y) of a row.

        A node evaluation is a generator that fills its column and yields
        (node, position, mask) requests for operand values; it waits on one
        explicit stack while an operand's evaluation runs."""
        cols, (_, n, p, l, _), ops = self._sets.setdefault(view, {}), self._uni(), self._OPS
        stack, asks, g, j, x = [], 0, f, i, m
        while True:
            col = cols.get(g)
            if col is None:  # entries are added on request
                a, b = self._bounds.get(g) or self._meet(g)
                s, w = (None, None) if self.bound is not None else (  # no period
                    p + a * l, p + (a + b) * l)
                col = cols[g] = (bytearray() if n <= 4 else [], s, w)
            e, s, w = col
            if j >= len(e):
                if s is not None and j >= w:  # fold into the period
                    j = s + (j - s) % (w - s)
                if j >= len(e):
                    e.extend(bytes(j + 1 - len(e)))
            if e[j] & x == x:
                got = e[j] >> n & x
            elif type(g) in _LEAVES:
                e[j] |= x | self._leaf(g, view, j, x & ~e[j]) << n
                got = e[j] >> n & x
            else:
                stack.append((ops[type(g)](self, g, n, col, j, x & ~e[j]), e, j, x))
                got = None
            while stack:  # hand `got` to the innermost suspended evaluation
                gen, e, j, x = stack[-1]
                try:
                    g, j, x = gen.send(got)
                    asks += 1
                    break
                except StopIteration:
                    stack.pop()
                    got = e[j] >> n & x
            else:
                self._asks += asks
                return got

    def _leaf(self, f: Formula, view: tuple | None, j: int, x: int) -> int:
        """Value mask of an atom or constant at j on the traces of x.  In a
        view, which holds only a relation's nodes, a traced atom reads the
        loads of the agent's parameter it names, as in the compiled block."""
        if isinstance(f, (TrueConst, FalseConst)):
            return x if isinstance(f, TrueConst) else 0
        if view is None:
            key = f.name if isinstance(f, Atom) else (f.name, f.trace_var)
            traces = self.universe.traces
            return sum(1 << k for k in _members(x) if key in traces[k].label_at(j))
        params, loads = self._rel(view[0])[0], self._loads(j, *view[1:])
        k = params.index(f.trace_var)
        return x & (loads[k].get(f.name, 0) if k == 2 else -(f.name in loads[k]))

    def _horizon(self, t: LassoTrace, i: int, f: Formula) -> int:
        """Scan horizon for the forward operator `f` from i on `t`: one
        period past i and its periodic start, on the universe's shape; N + 1
        in bounded mode.  Raises when an operand's window spans more loop
        unrollings past the prefix (its a + b) than the cap."""
        if self.bound is not None:
            return self.bound + 1
        for g in children(f):
            if sum(self._bounds[g]) > self.stabilization_cap:
                raise StabilizationCapExceeded(t, g, sum(self._bounds[g]),
                                               self.stabilization_cap)
        (a, b), (p, l) = self._bounds[f], self._uni()[2:4]
        return max(i, p + a * l) + b * l

    # -- node evaluations: generators over (node, set size, column, j, needed mask)

    def _local(self, f, n, col, j, need):
        """Connectives, X and Y.  & and -> ask the right operand only where
        the left holds, | only where it fails."""
        if isinstance(f, Not):
            v = need & ~(yield f.child, j, need)
        elif isinstance(f, Prev):
            v = (yield f.child, j - 1, need) if j else 0
        elif isinstance(f, Next):
            v = (yield f.child, j + 1, need) if self.bound is None or j < self.bound else 0
        elif isinstance(f, Iff):
            v = need & ~((yield f.left, j, need) ^ (yield f.right, j, need))
        else:
            lv = yield f.left, j, need
            rest = need & ~lv if isinstance(f, Or) else lv
            rv = (yield f.right, j, rest) if rest else 0
            v = rv if isinstance(f, And) else need & ~rest | rv
        col[0][j] |= need | v << n

    def _temporal(self, f, n, col, j, need):
        """U, F, G pass backward down to j, and S, O, H forward up to j, from
        the nearest position whose value is known on `need`; else from the
        boundary: N + 1 (bounded), the period (exact) or position -1."""
        (e, s, w), (l, r) = col, _operands(f)
        nxt = need if r is None else 0  # G, H: greatest fixpoint; the rest least
        d = 1 if isinstance(f, _TEMPORAL[:3]) else -1
        end = -1 if d < 0 else self.bound + 1 if s is None else w
        if d > 0:
            if s is not None:  # checks the stabilization cap
                self._horizon(self.universe.traces[next(_members(need))], j, f)
            e.extend(bytes(max(0, end - len(e))))
        k = j + d
        while k != end and e[k] & need != need:
            k += d
        if k != end:
            nxt = e[k] >> n & need
        elif d > 0 and s is not None:  # the value at w is the one at s
            u = need & ~e[s]  # settled by a pass from the fixpoint seed
            if u:
                nxt &= u
                for k in range(w - 1, s - 1, -1):
                    v = e[k] >> n & u
                    if u & ~e[k]:
                        v |= yield from _step(l, r, k, u & ~e[k], nxt)
                    nxt = v
                e[s] |= u | nxt << n
            nxt, k = e[s] >> n & need, w
        for k in range(k - d, j - d, -d):
            x = need & ~e[k]
            if x:
                e[k] |= x | (yield from _step(l, r, k, x, nxt)) << n
            nxt = e[k] >> n & need

    def _know(self, f, n, col, j, need):
        """K[a]: a class of the agent's observation partition is in the column
        iff the child holds on all of it, asked member by member in universe
        order up to the first failure."""
        for cls in self._partition(f.agent, j):
            if cls & need:
                for k in _members(cls):
                    if not (yield f.child, j, 1 << k):
                        break
                else:
                    col[0][j] |= cls << n
                col[0][j] |= cls

    def _counterfactual(self, f, n, col, j, need):
        """Would and UWould from t.  A violator (antecedent trace on which
        the consequent fails) is at least as similar to t as the traces of
        its row.  Would holds iff some candidate (accessible antecedent
        trace) is in no violator's row; UWould iff each candidate is in the
        row of a threshold: an antecedent trace, accessible or not, in no
        violator's row."""
        universal, dual = _CF_NODES[type(f)]  # Might, EMight negate Would, UWould
        outside, viol = self._outside, None
        for k in _members(need):
            acc = self._row(f.agent, k, k, j, (1 << n) - 1)
            cands = (yield f.ante, j, acc) if acc else 0
            if cands and viol is None:
                ante = yield f.ante, j, (1 << n) - 1
                cons = yield f.cons, j, ante
                viol = cons if dual else ante & ~cons
            # vacuity: no accessible antecedent trace; else Would iff some
            # candidate escapes the violators, UWould iff none the thresholds
            ys = outside(f.agent, k, j, ante, viol) if cands and universal else viol
            holds = not cands or (outside(f.agent, k, j, cands, ys, True) == 0) == universal
            col[0][j] |= 1 << k | (holds != dual) << k << n

    _OPS = {Know: _know, **dict.fromkeys((Not, Next, Prev, And, Or, Implies, Iff), _local),
            **dict.fromkeys(_TEMPORAL, _temporal),
            **dict.fromkeys(_CF_NODES, _counterfactual)}

    def _outside(self, agent: str, t: int, i: int, xs: int, ys: int,
                 first: bool = False) -> int:
        """Traces of mask xs in none of the rows of (t, y), y in mask ys, at
        i; with `first`, those of the first block of xs that has one.  Blocks
        double in index span and are asked of each row in turn until covered,
        so a trace outside is found without asking every row on all of xs."""
        span, out = (xs & -xs).bit_length(), 0
        while xs and not (first and out):
            part, xs = xs & (1 << span) - 1, xs & -(1 << span)
            for y in _members(ys):
                if not part:
                    break
                part &= ~self._row(agent, t, y, i, part)
            out |= part
            span *= 2
        return out

    # ------------------------------------------------------------------
    # observation partitions and similarity
    # ------------------------------------------------------------------

    def _partition(self, agent: str, j: int) -> list[int]:
        """Classes (universe masks) of the traces that the agent cannot tell
        apart on positions 0..j, refined position by position (synchronous
        perfect recall).  Observations that ever diverge do so below P + L,
        so the partition is final from there."""
        traces, n, p, l = self._uni()[:4]
        parts = self._parts.setdefault(agent, [])
        obs = self.system.observation_of(agent)
        while len(parts) <= min(j, p + l - 1):
            i, split = len(parts), {}
            for c, cls in enumerate(parts[-1] if parts else [(1 << n) - 1]):
                for k in _members(cls):
                    key = (c, traces[k].label_at(i) & obs)
                    split[key] = split.get(key, 0) | 1 << k
            parts.append(list(split.values()))
        return parts[min(j, p + l - 1)]

    def similarity_holds(self, agent: str, t_ref: LassoTrace, t1: LassoTrace,
                         t2: LassoTrace, i: int) -> bool:
        """Does the agent's similarity formula accept (t_ref, t1, t2) at i?

        Reads "t1 is at least as similar to t_ref as t2, judged at position
        i", exact or within the context's bound: bit k of the row of (t_ref, t1) when
        t2 is universe trace k."""
        t, y, x = self._indices(i, t_ref, t1, t2)
        return self._row(agent, t, y, i, 1 << x) != 0

    def _row(self, agent: str, t: int, y: int, i: int, need: int) -> int:
        """Mask of the universe traces x of mask `need` for which the agent's
        relation accepts (t, y, x) at i; t, y and x are universe indices.

        A relation of the all-positions shape does not depend on i: its
        whole row, kept per agent, is the compiled block ANDed over the
        window, where t and y load their own labels and x the universe's
        proposition masks.  Bounded mode: [0, N].  Exact mode: [0, P + L),
        where every later position repeats one inside.  Any other relation
        is evaluated on `need` in the view of (t, y), which binds the
        agent's reference and nearer parameters to t and y."""
        _, rel, block, rows = self._rel(agent)
        if block is None:
            return self._eval(rel, (agent, t, y), i, need)
        row = rows.get((t, y))
        if row is None:
            w = sum(self._uni()[2:4]) if self.bound is None else self.bound + 1
            row, j = (1 << len(self.universe)) - 1, 0
            while row and j < w:
                row &= _run_block(block, self._loads(j, t, y))
                j += 1
            rows[(t, y)] = row
        return row & need


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def eval_at(ctx: EvalContext, t: LassoTrace, i: int, f: Formula) -> bool:
    """Truth of `f` (any surface form) on `t` at position `i`.

    The trace must belong to the context's universe: knowledge and
    counterfactual operators quantify over it, so a foreign trace would get
    meaningless epistemic verdicts; `EvalContext.value` refuses it."""
    return ctx.value(t, f, i)


@dataclass(frozen=True)
class TrailEntry:
    formula: str
    trace: str
    position: int
    value: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Verdict:
    """Result of a system-level check.

    `counterexample` is the first failing trace in universe order (None when
    the check holds); `counterexamples` lists every failing trace."""

    result: bool
    counterexample: str | None
    counterexamples: tuple[str, ...]
    position: int | None
    trail: tuple[TrailEntry, ...]

    def to_dict(self) -> dict:
        return {
            "result": self.result,
            "counterexample": self.counterexample,
            "counterexamples": list(self.counterexamples),
            "position": self.position,
            "trail": [e.to_dict() for e in self.trail],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def check_system(ctx: EvalContext, f: Formula) -> Verdict:
    """Conjunction of `f` at position 0 over every trace of the universe.

    Every trace is evaluated (no short-circuit), so the verdict lists all
    counterexamples; the reported one is the first in universe order."""
    holds = ctx._eval(f, None, 0, (1 << len(ctx.universe)) - 1)
    failing = [t for k, t in enumerate(ctx.universe) if not holds >> k & 1]
    if not failing:
        return Verdict(True, None, (), None, ())
    trail = tuple(explain(ctx, failing[0], 0, f))
    failing = tuple(map(format_trace, failing))
    return Verdict(False, failing[0], failing, 0, trail)


def explain(ctx: EvalContext, t: LassoTrace, i: int, f: Formula,
            limit: int = 50) -> list[TrailEntry]:
    """Evaluation trail: one entry per step down a single explanatory path
    (first false conjunct, witness position, violating trace, ...)."""
    out: list[TrailEntry] = []
    step = (f, t, i)
    while step is not None and len(out) < limit:
        g, tr, j = step
        step = None
        v = ctx.value(tr, g, j)
        out.append(TrailEntry(to_source(g), format_trace(tr), j, v))
        if isinstance(g, Not):
            step = (g.child, tr, j)
        elif isinstance(g, (And, Or, Implies)) and v == isinstance(g, Or):
            # the operand that decides: a false conjunct, a true disjunct, the
            # consequent of a false implication
            step = (g.left if ctx.value(tr, g.left, j) == v else g.right, tr, j)
        elif isinstance(g, Next):
            if ctx.bound is None or j < ctx.bound:
                step = (g.child, tr, j + 1)
        elif isinstance(g, Prev):
            if j > 0:
                step = (g.child, tr, j - 1)
        elif isinstance(g, _TEMPORAL):
            l, r = _operands(g)  # the first position that decides, from j on
            future = isinstance(g, _TEMPORAL[:3])
            ks = range(j, ctx._horizon(tr, j, g)) if future else range(j, -1, -1)
            if v and r is not None:
                step = next((r, tr, k) for k in ks if ctx.value(tr, r, k))
            elif not v and l is not None and (future or r is None):
                step = next(((l, tr, k) for k in ks if not ctx.value(tr, l, k)), (r, tr, j))
        elif isinstance(g, Know) and not v:  # the first alike trace that defeats it
            k, traces = ctx.universe.index(tr), ctx.universe.traces
            alike = next(c for c in ctx._partition(g.agent, j) if c >> k & 1)
            step = next((g.child, traces[x], j) for x in _members(alike)
                        if not ctx.value(traces[x], g.child, j))
        # atoms, constants, Iff, counterfactuals: stop here
    return out


# ---------------------------------------------------------------------------
# similarity validation and closest antecedents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimilarityViolation:
    kind: str  # 'irreflexive' | 'intransitive' | 'minimum'
    traces: tuple[str, ...]


@dataclass(frozen=True)
class SimilarityReport:
    agent: str
    reference: str
    position: int
    violations: tuple[SimilarityViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_similarity(ctx: EvalContext, agent: str, t_ref: LassoTrace,
                        i: int) -> SimilarityReport:
    """Check that the agent's similarity relation, viewed from `t_ref` at
    position `i`, is a preorder on the universe with the reference as minimum:
    reflexive on accessible traces, transitive, and no trace counts as at
    least as similar as the reference unless it is itself accessible."""
    (r,), traces = ctx._indices(i, t_ref), ctx.universe.traces
    full = (1 << len(traces)) - 1
    rows = [ctx._row(agent, r, k, i, full) for k in range(len(traces))]  # k at least as close
    accessible = rows[r]
    violations: list[SimilarityViolation] = []
    for k, v in enumerate(traces):
        if accessible >> k & 1 and not rows[k] >> k & 1:
            violations.append(SimilarityViolation("irreflexive", (format_trace(v),)))
    for k, u in enumerate(traces):
        for x in _members(rows[k]):
            for y in _members(rows[x] & ~rows[k]):
                trio = (format_trace(u), format_trace(traces[x]), format_trace(traces[y]))
                violations.append(SimilarityViolation("intransitive", trio))
    for k, v in enumerate(traces):
        if not accessible >> k & 1 and rows[k] >> r & 1:
            violations.append(SimilarityViolation("minimum", (format_trace(v),)))
    return SimilarityReport(agent, format_trace(t_ref), i, tuple(violations))


def closest_antecedents(ctx: EvalContext, agent: str, t: LassoTrace, i: int,
                        ante: Formula) -> tuple[LassoTrace, ...]:
    """Minimal elements (under the agent's similarity preorder seen from `t`
    at `i`) of the accessible traces satisfying `ante` at `i`."""
    (k,), traces = ctx._indices(i, t), ctx.universe.traces
    cands = ctx._eval(ante, None, i, ctx._row(agent, k, k, i, (1 << len(traces)) - 1))
    rows = {y: ctx._row(agent, k, y, i, cands) for y in _members(cands)}
    return tuple(traces[x] for x in rows if not any(  # nothing strictly closer
        rows[y] >> x & 1 and not rows[x] >> y & 1 for y in rows))
