"""Evaluation of formulas on lasso traces over a finite trace universe.

A context's `bound` picks the semantics:

* None (exact) -- true infinite-word semantics.  On a set of traces with
  longest prefix P and loop lcm L, the values of a subformula repeat with
  period L from P + (u-1)*L, for loop unrollings u proved from the formula
  structure alone, never read off computed values (`_meet` says why one
  period suffices).  U, F and G pass over the period twice: from the least
  (U, F) or greatest (G) fixpoint to settle the value at its start, then
  from that value to fill it.

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
A column's (start, end) and the window W (below) are the places the two
modes differ inside evaluation: (P + (u-1)*L, P + u*L) in exact mode, where
later positions fold back into the period, and (None, N + 1) in bounded
mode, whose columns span [0, N].  Each request carries the mask of traces
it needs, so `&`, `|`, `->`, K and counterfactuals skip operands per trace.
Node evaluations are generators suspended on one explicit stack: nothing
recurses per formula level or position.

At its first query a context reads each universe trace's letters on the
window [0, W), W = P + L exact and min(N + 1, P + L) bounded, into one table,
with each window position's proposition masks; later positions repeat one
inside.  Atoms, similarity cells and observation partitions read only it.

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
the positions j of a window, of cells, each the bodies' mask at j kept
under j and t's and y's letters there; `subset_similarity` and the
gender-frozen hiring relation have this shape.  Every other relation is
evaluated on the row's view (t, y) of the universe.  Counterfactuals are
read off rows.  Neither route checks what a relation holds:
`RelationalFormula` did, when it was built.
"""

from __future__ import annotations

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
    conjoin,
    subformulas,
    to_source,
)
from .model import System
from .trace import LassoTrace, TraceUniverse, _require_int, format_trace

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


def _all_positions_bodies(rel: Formula) -> tuple[Formula, ...] | None:
    """The nodes of the conjunction of the bodies, in postorder (the root
    last), when `rel` has the all-positions shape, else None.

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
    nodes = tuple(subformulas(conjoin(list(g_bodies))))
    pointwise = (TracedAtom, TrueConst, FalseConst, Not, And, Or, Implies, Iff)
    return nodes if all(isinstance(g, pointwise) for g in nodes) else None


def _cell(params: tuple[str, str, str], nodes: tuple, loads: tuple) -> int:
    """Trace mask of the root of `nodes` (see `_all_positions_bodies`) at one
    position, given the loads there: t's and y's letters, whose propositions
    hold on every trace, and the window table's proposition masks.  Masks are
    ints read as trace masks (bit k = value on universe trace k); negative
    ints stand for masks with every high bit set, so negation is `~`."""
    v: dict[Formula, int] = {}
    for g in nodes:
        c = type(g)
        if c is TracedAtom:
            k = params.index(g.trace_var)
            v[g] = loads[k].get(g.name, 0) if k == 2 else -(g.name in loads[k])
        elif c is Iff:
            v[g] = ~(v[g.left] ^ v[g.right])
        elif c is Not:
            v[g] = ~v[g.child]
        elif c is Implies:
            v[g] = ~v[g.left] | v[g.right]
        elif c is And:
            v[g] = v[g.left] & v[g.right]
        elif c is Or:
            v[g] = v[g.left] | v[g.right]
        else:
            v[g] = -(c is TrueConst)
    return v[g]


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
        _require_int("bound", 0 if bound is None else bound)
        _require_int("stabilization_cap", stabilization_cap)
        if bound is not None and bound < 0:
            raise ValueError(f"bounded mode needs a bound >= 0, got {bound}")
        if stabilization_cap < 1:
            raise ValueError("stabilization cap must be positive")
        self.system = system
        self.universe = universe
        self.bound = bound
        self.stabilization_cap = stabilization_cap
        self._bounds: dict[Formula, int] = {}  # met node -> loop unrollings
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
        operand asks, known values, similarity work (cells, accessibility
        rows and views made), partitions built."""
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

    def _meet(self, f: Formula) -> int:
        """Loop unrollings u >= 1 of `f`: on the universe and its views, its
        values repeat with period L from P + (u-1)*L, where P is the
        universe's longest prefix and L the lcm of its loops.  A leaf needs
        one; any other node the most of its operands (a counterfactual's
        relation too), one more for Y, S, O and H, and at least two for K.
        One block more suffices for S: once its operands repeat, each block
        of L positions maps the bit e entering it to `A | B & e` leaving it,
        a monotone map on one bit, so a constant or the identity, and the
        bit entering the second block enters every later one.  Nodes of `f`
        not met yet get theirs, in `subformulas` order (children first)."""
        bounds = self._bounds
        for g in subformulas(f):
            if g in bounds:
                continue
            u = max((bounds[c] for c in children(g)), default=1)
            if type(g) in _CF_NODES:  # may meet a relation first
                u = max(u, bounds[self._rel(g.agent)[1]])
            elif type(g) not in self._OPS and type(g) not in _LEAVES:
                raise TypeError(f"evaluator got an unknown node: {g!r}")
            if isinstance(g, (Since, Once, Historically, Prev)):
                u += 1
            elif isinstance(g, Know):
                u = max(u, 2)  # observations that diverge do so below P + L
            bounds[g] = u
        return bounds[f]

    def _uni(self) -> tuple:
        """Universe size, longest prefix P, loop lcm L and the window table."""
        if self._shape is None:
            traces = self.universe.traces
            p = max((len(u.prefix) for u in traces), default=0)
            l = lcm(*(len(u.loop) for u in traces))
            w = p + l if self.bound is None else min(self.bound + 1, p + l)
            words = [tuple(map(u.label_at, range(w))) for u in traces]
            # per position, each (shared) letter's traces first; then each
            # letter's mask is ORed into its propositions once
            at = [{} for _ in range(w)]
            for k, word in enumerate(words):
                bit = 1 << k
                for masks, letter in zip(at, word):
                    masks[letter] = masks.get(letter, 0) | bit
            props = [{} for _ in range(w)]
            for tab, masks in zip(props, at):
                for letter, m in masks.items():
                    for q in letter:
                        tab[q] = tab.get(q, 0) | m
            self._shape = (len(traces), p, l, words, props)
        return self._shape

    def _indices(self, i: int, *traces: LassoTrace) -> list[int]:
        """Universe indices of `traces`, any presentation of a universe word;
        every public entry point asks here, so a position below 0 or past
        the bounded window, one that is not an int and a trace outside the
        universe are refused."""
        _require_int("position", i)
        if i < 0:
            raise ValueError("positions start at 0")
        if self.bound is not None and i > self.bound:
            raise ValueError(f"position {i} outside the bounded window [0, {self.bound}]")
        for t in traces:
            if t not in self.universe:
                raise ValueError(f"trace not in the universe: {format_trace(t)}")
        return [self.universe.index(t) for t in traces]

    def _rel(self, agent: str) -> tuple[tuple, Formula, tuple | None, dict]:
        """(params, formula, `_all_positions_bodies` or None, memo) of the
        agent's relation, whose nodes are met on first use.  The memo holds
        cells under (j, t's letter at j, y's letter at j) and accessibility
        rows under t (see `_row`)."""
        got = self._rels.get(agent)
        if got is None:
            rf = self.system.similarity_of(agent)
            self._meet(rf.formula)
            got = self._rels[agent] = (rf.params, rf.formula,
                                       _all_positions_bodies(rf.formula), {})
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
        cols, (n, p, l, _, _), ops = self._sets.setdefault(view, {}), self._uni(), self._OPS
        stack, asks, g, j, x = [], 0, f, i, m
        while True:
            col = cols.get(g)
            if col is None:  # entries are added on request
                u = self._bounds.get(g) or self._meet(g)
                s, w = (None, self.bound + 1) if self.bound is not None else (
                    p + (u - 1) * l, p + u * l)  # bounded: no period
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
        """Value mask of an atom or constant at j (folded into the window) on
        the traces of x; a view's traced atom is a one-node cell of t and y."""
        if isinstance(f, (TrueConst, FalseConst)):
            return x if isinstance(f, TrueConst) else 0
        _, p, l, words, props = self._uni()
        j = j if j < len(props) else p + (j - p) % l
        if view is None:
            return x & props[j].get(f.name if isinstance(f, Atom) else (f.name, f.trace_var), 0)
        agent, t, y = view
        return x & _cell(self._rel(agent)[0], (f,), (words[t][j], words[y][j], props[j]))

    # -- node evaluations: generators over (node, set size, column, j, needed mask)

    def _local(self, f, n, col, j, need):
        """Connectives, X and Y.  & and -> ask the right operand only where
        the left holds, | only where it fails; X is false at a bounded end."""
        if isinstance(f, Not):
            v = need & ~(yield f.child, j, need)
        elif isinstance(f, Prev):
            v = (yield f.child, j - 1, need) if j else 0
        elif isinstance(f, Next):
            v = (yield f.child, j + 1, need) if col[1] is not None or j + 1 < col[2] else 0
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
        column's end (U, F, G) or position -1.  Exact mode raises when an
        operand needs more loop unrollings than the cap."""
        (e, s, w), (l, r) = col, _operands(f)
        nxt = need if r is None else 0  # G, H: greatest fixpoint; the rest least
        d = 1 if isinstance(f, _TEMPORAL[:3]) else -1
        end, cap = w if d > 0 else -1, self.stabilization_cap
        for g in children(f) if d > 0 and s is not None else ():
            if self._bounds[g] > cap:
                t = self.universe.traces[next(_members(need))]
                raise StabilizationCapExceeded(t, g, self._bounds[g], cap)
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
        apart on positions 0..j, refined position by position on the window
        table's letters (synchronous perfect recall).  Observations that ever
        diverge do so below P + L, so the partition is final past the window."""
        n, _, _, words, props = self._uni()
        parts = self._parts.setdefault(agent, [])
        obs, last = self.system.observation_of(agent), min(j, len(props) - 1)
        while len(parts) <= last:
            i, split = len(parts), {}
            for c, cls in enumerate(parts[-1] if parts else [(1 << n) - 1]):
                for k in _members(cls):
                    key = (c, words[k][i] & obs)
                    split[key] = split.get(key, 0) | 1 << k
            parts.append(list(split.values()))
        return parts[last]

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

        A relation of the all-positions shape does not depend on i: its row
        is the AND, over the window, of one cell per position j, the bodies'
        mask at j where t and y load their letters from the window table and
        x its proposition masks.  A cell depends on j and the two letters
        only, and is kept under them; the AND stops once nothing of `need` is
        left.  Accessibility rows (t = y) are kept whole, per t.  Any other
        relation is evaluated on `need` in the view of (t, y), which binds the
        agent's reference and nearer parameters to t and y."""
        params, rel, nodes, memo = self._rel(agent)
        if nodes is None:
            return self._eval(rel, (agent, t, y), i, need)
        if t == y and t in memo:
            return memo[t] & need
        n, _, _, words, props = self._uni()
        row = (1 << n) - 1 if t == y else need
        for j, (a, b, tab) in enumerate(zip(words[t], words[y], props)):
            key = (j, a, b)
            cell = memo.get(key)
            if cell is None:
                cell = memo[key] = _cell(params, nodes, (a, b, tab))
            row &= cell
            if not row:
                break
        if t == y:
            memo[t] = row
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


def check_system(ctx: EvalContext, f: Formula) -> Verdict:
    """Conjunction of `f` at position 0 over every trace of the universe.

    Every trace is evaluated (no short-circuit), so the verdict lists all
    counterexamples; the reported one is the first in universe order."""
    holds = ctx._eval(f, None, 0, (1 << len(ctx.universe)) - 1)
    # one pass over the mask's bits, low bit (the first trace) first
    bits = format(holds, f"0{len(ctx.universe)}b")[::-1]
    failing = [t for t, b in zip(ctx.universe, bits) if b == "0"]
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
        _, s, w = ctx._sets[None][g]  # bounded: (None, N + 1)
        out.append(TrailEntry(to_source(g), format_trace(tr), j, v))
        if isinstance(g, Not):
            step = (g.child, tr, j)
        elif isinstance(g, (And, Or, Implies)) and v == isinstance(g, Or):
            # the operand that decides: a false conjunct, a true disjunct, the
            # consequent of a false implication
            step = (g.left if ctx.value(tr, g.left, j) == v else g.right, tr, j)
        elif isinstance(g, Next):
            if s is not None or j + 1 < w:
                step = (g.child, tr, j + 1)
        elif isinstance(g, Prev):
            if j > 0:
                step = (g.child, tr, j - 1)
        elif isinstance(g, _TEMPORAL):
            l, r = _operands(g)  # the first position that decides, from j on
            future = isinstance(g, _TEMPORAL[:3])
            ks = range(j, w if s is None else max(j, s) + w - s) if future else range(j, -1, -1)
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
