"""Evaluation of formulas on lasso traces over a finite trace universe.

Two modes:

* exact-lasso -- true infinite-word semantics.  On a set of traces with
  longest prefix P and loop lcm L, the values of a subformula repeat from
  P + a*L with period b*L, for a bound (a, b) proved from the formula
  structure alone, never read off computed values.  U, F and G pass over
  the period twice: from the least (U, F) or greatest (G) fixpoint to settle
  the value at its start, then from that value to fill it.

* bounded(N) -- positions range over [0, N]; X is false at N, Y is false at 0,
  Until/Since witnesses are clipped to the window.  This mirrors the
  first-order translation over the same bounded domain exactly.

The evaluator handles the surface operators (Or, Implies, Iff, F, G, O, H,
Might, EMight) natively rather than desugaring first; `desugar` defines the
reference core form and the test suite holds both routes to the same values.

Memo layout.  Formula nodes are hash-consed where they are built (see
`formula`), so a structurally equal subformula is the same node wherever it
comes from (ICE, WCE, GCE and the similarity relations too), and a context
keys its tables by the node itself.  The universe is one trace set, in
universe order; a trace outside it (a zipped triple, say) is a set of its
own.  A node's values on a set form one column, whose entry j packs a known
mask and, above it, a value mask: bit k stands for the set's trace k.
Exact-mode columns span [0, P + (a+b)*L), and later positions fold back
into the period; bounded columns span [0, N].  Each request carries the
mask of traces it needs, so `&`, `|`, `->`, K and counterfactuals skip
operands per trace.  Node evaluations are generators suspended on one
explicit stack: nothing recurses per formula level or position.

All trace quantifiers (knowledge, counterfactuals, system-level checks) range
over one finite TraceUniverse.  Verdicts are therefore exact only relative to
the chosen universe.

Similarity relations of the all-positions shape -- a conjunction of `G B_k`
and `H B_k` whose G-bodies and H-bodies form the same set, every body
pointwise (traced atoms, boolean connectives, constants) -- are answered from
per-trace proposition bitmasks over the whole position window, with no zipped
trace; `subset_similarity` and the gender-frozen hiring relation have this
shape.  Every other relation is evaluated on the zipped trace triple.
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
    subformulas,
    to_source,
)
from .model import System
from .trace import LassoTrace, TraceUniverse, format_trace, zip3

EXACT_LASSO = "exact-lasso"
BOUNDED = "bounded"

_CF_NODES = {Would: (False, False), Might: (False, True),
             UWould: (True, False), EMight: (True, True)}
_LEAVES = frozenset((Atom, TracedAtom, TrueConst, FalseConst))
_TEMPORAL = (Until, Eventually, Globally, Since, Once, Historically)  # future ones first


class StabilizationCapExceeded(RuntimeError):
    """A truth sequence needs more loop unrollings than the configured cap."""

    def __init__(self, trace: LassoTrace, formula: Formula, needed: int, cap: int):
        super().__init__(
            f"stabilizing {to_source(formula)!r} on {format_trace(trace)} needs "
            f"{needed} loop unrollings, cap is {cap}"
        )
        self.needed = needed
        self.cap = cap


_MISSING = object()
_ID_BITS = 32  # trace ids are packed into int memo keys at this width

# Opcodes of a compiled pointwise block.  Registers hold ints read as bit
# vectors over positions (bit j = value at position j); negative ints stand
# for vectors with every high bit set, so negation is `~`.
_LOAD, _CONST, _NOT, _AND, _OR, _IMPLIES, _IFF = range(7)
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
    if len(set(params)) != len(params):
        return None
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
                if g.trace_var not in params:
                    return None
                op = (_LOAD, params.index(g.trace_var), g.name)
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


def _run_block(ops: tuple, masks: list[dict[str, int]]) -> int:
    """Bit vector of a compiled block over the traces whose per-proposition
    bitmasks are `masks` (one per trace variable); the root is the last op."""
    r: list[int] = []
    push = r.append
    for code, a, b in ops:
        if code == _LOAD:
            push(masks[a].get(b, 0))
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


def _leaf(f: Formula, st: tuple, j: int) -> int:
    """Entry of an atom or constant at j: known on every trace."""
    full = (1 << st[1]) - 1
    if isinstance(f, (TrueConst, FalseConst)):
        return full | (full if isinstance(f, TrueConst) else 0) << st[1]
    key = f.name if isinstance(f, Atom) else (f.name, f.trace_var)
    return full | sum(1 << k for k, t in enumerate(st[0]) if key in t.label_at(j)) << st[1]


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
    """Evaluation state: system, universe, mode, and all memo tables.

    Columns are indexed by trace set and formula node (see the module
    docstring) and filled lazily, so building a context costs nothing per
    trace.  Caches persist across calls, so repeated checks over the same
    context are warm; results never depend on cache state.
    """

    __slots__ = ("system", "universe", "mode", "bound", "stabilization_cap",
                 "_pins", "_bounds", "_sets", "_parts", "_asks",
                 "_tid", "_rels", "_masks", "_zips")

    def __init__(self, system: System, universe: TraceUniverse, mode: str = EXACT_LASSO,
                 bound: int | None = None, stabilization_cap: int = 64):
        if mode not in (EXACT_LASSO, BOUNDED):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == BOUNDED:
            if bound is None or bound < 0:
                raise ValueError("bounded mode needs a bound >= 0")
        elif bound is not None:
            raise ValueError("exact-lasso mode takes no bound")
        if stabilization_cap < 1:
            raise ValueError("stabilization cap must be positive")
        self.system = system
        self.universe = universe
        self.mode = mode
        self.bound = bound
        self.stabilization_cap = stabilization_cap
        self._bounds: dict[Formula, tuple[int, int]] = {}  # met node -> (a, b)
        # -1: the universe, k: the foreign trace of id k; each set is (traces,
        # size, longest prefix, loop lcm, node -> column)
        self._sets: dict[int, tuple] = {}
        self._parts: dict[str, list[list[int]]] = {}  # agent -> position -> classes
        self._asks = 0
        self._tid: dict[int, int] = {}  # id(trace) -> id; the universe and sets pin them
        self._pins: list[LassoTrace] = []  # traces that share a universe trace's id
        self._rels: dict[str, tuple] = {}
        self._masks: dict[tuple[int, int], dict[str, int]] = {}
        self._zips: dict[tuple, LassoTrace] = {}

    @classmethod
    def exact(cls, system, universe, stabilization_cap: int = 64) -> "EvalContext":
        return cls(system, universe, EXACT_LASSO, None, stabilization_cap)

    @classmethod
    def bounded(cls, system, universe, bound: int) -> "EvalContext":
        return cls(system, universe, BOUNDED, bound)

    def stats(self) -> dict[str, int]:
        """Deterministic work counters: nodes met, (node, trace set) columns,
        operand asks, known values, similarity answers, partitions built."""
        cols = [(col[0], (1 << st[1]) - 1)
                for st in self._sets.values() for col in st[4].values()]
        return {
            "nodes": len(self._bounds), "columns": len(cols), "asks": self._asks,
            "values": sum((x & full).bit_count() for e, full in cols for x in e),
            "similarity": sum(len(r[3]) for r in self._rels.values()),
            "partitions": sum(map(len, self._parts.values())),
        }

    # -- nodes, traces and sets --

    def _meet(self, f: Formula) -> tuple[int, int]:
        """Structural stabilization bound (a, b) of `f`: on any trace set, its
        values repeat from P + a*L with period b*L, where P is the set's
        longest prefix and L the lcm of its loops.  The nodes of `f` that the
        context has not met yet get theirs, children first, in an iterative
        walk that stops at nodes met before.  Knowledge and counterfactuals
        range over the universe, whose shape dominates the zipped triples
        that similarity is evaluated on."""
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

    def _uset(self) -> tuple:
        """The universe's trace set, made on first use: universe traces take
        their universe order as ids."""
        st = self._sets.get(-1)
        if st is None:
            traces = self.universe.traces
            self._tid.update((id(u), k) for k, u in enumerate(traces))
            st = self._sets[-1] = (
                traces, len(traces), max((len(u.prefix) for u in traces), default=0),
                lcm(*(len(u.loop) for u in traces)), {},
            )
        return st

    def _trace_id(self, t: LassoTrace) -> int:
        k = self._tid.get(id(t))
        if k is None:
            self._uset()
            k = self._tid.get(id(t))
        if k is not None:
            return k
        if t in self.universe:  # another object for a universe word: share its bit
            k = self.universe.index(t)
            self._pins.append(t)
        else:  # a trace outside the universe: a set of its own
            k = len(self.universe) + len(self._sets) - 1
            self._sets[k] = ((t,), 1, len(t.prefix), len(t.loop), {})
        self._tid[id(t)] = k
        return k

    def _rel(self, agent: str) -> tuple[tuple, Formula, tuple | None, dict]:
        """(params, formula, compiled block or None, memo of similarity
        answers) of the agent's relation, whose nodes are met on first use."""
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
        """Truth of `f` on `t` at position `i` (mode aware)."""
        k = self._trace_id(t)
        if k < len(self.universe):
            return self._eval(f, self._sets[-1], i, 1 << k) != 0
        return self._eval(f, self._sets[k], i, 1) != 0  # a set of its own

    def _eval(self, f: Formula, st: tuple, i: int, m: int) -> int:
        """Values of `f` at `i` on the traces of mask `m` of set `st`.

        A node evaluation is a generator that fills its column and yields
        (node, position, mask) requests for operand values; it waits on one
        explicit stack while an operand's evaluation runs."""
        n, cols, ops = st[1], st[4], self._OPS
        stack, asks, g, j, x = [], 0, f, i, m
        while True:
            col = cols.get(g)
            if col is None:  # entries are added on request
                if st is not self._sets[-1] and (type(g) is Know or type(g) in _CF_NODES):
                    raise ValueError(f"{to_source(g)!r} quantifies over the universe, "
                                     f"which lacks the trace {format_trace(st[0][0])}")
                a, b = self._bounds.get(g) or self._meet(g)
                s, w = (None, None) if self.mode == BOUNDED else (  # no period
                    st[2] + a * st[3], st[2] + (a + b) * st[3])
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
                e[j] = _leaf(g, st, j)
                got = e[j] >> n & x
            else:
                stack.append((ops[type(g)](self, g, st, col, j, x & ~e[j]), e, j, x))
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

    def _horizon(self, t: LassoTrace, i: int, f: Formula) -> int:
        """Scan horizon for the forward operator `f` from i: one period past
        i and its periodic start, on the universe's shape joined with t's
        own; N + 1 in bounded mode.  Raises when an operand's window spans
        more loop unrollings past the prefix (its a + b) than the cap."""
        if self.mode == BOUNDED:
            return self.bound + 1
        for g in children(f):
            if sum(self._bounds[g]) > self.stabilization_cap:
                raise StabilizationCapExceeded(t, g, sum(self._bounds[g]),
                                               self.stabilization_cap)
        (a, b), st = self._bounds[f], self._uset()
        p, l = max(st[2], len(t.prefix)), lcm(st[3], len(t.loop))
        return max(i, p + a * l) + b * l

    # -- node evaluations: generators over (node, set, column, j, needed mask)

    def _local(self, f, st, col, j, need):
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
        col[0][j] |= need | v << st[1]

    def _temporal(self, f, st, col, j, need):
        """U, F, G pass backward down to j, and S, O, H forward up to j, from
        the nearest position whose value is known on `need`; else from the
        boundary: N + 1 (bounded), the period (exact) or position -1."""
        (e, s, w), (l, r), n = col, _operands(f), st[1]
        nxt = need if r is None else 0  # G, H: greatest fixpoint; the rest least
        d = 1 if isinstance(f, _TEMPORAL[:3]) else -1
        end = -1 if d < 0 else self.bound + 1 if s is None else w
        if d > 0:
            if j >= end:  # bounded, past N: no witness left
                e[j] |= need | nxt << n
                return
            if s is not None:  # checks the stabilization cap
                self._horizon(st[0][(need & -need).bit_length() - 1], j, f)
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

    def _know(self, f, st, col, j, need):
        """K[a]: a class of the agent's observation partition is in the column
        iff the child holds on all of it, asked member by member in universe
        order up to the first failure."""
        for cls in self._partition(f.agent, j):
            if cls & need:
                for k in _members(cls):
                    if not (yield f.child, j, 1 << k):
                        break
                else:
                    col[0][j] |= cls << st[1]
                col[0][j] |= cls

    def _counterfactual(self, f, st, col, j, need):
        universal, dual = _CF_NODES[type(f)]  # Might, EMight negate Would, UWould
        n, sim, viol = st[1], self.similarity_holds, None
        for k in _members(need):
            t = st[0][k]
            acc = sum(1 << x for x, u in enumerate(st[0]) if sim(f.agent, t, t, u, j))
            cands = (yield f.ante, j, acc) if acc else 0
            if cands and viol is None:
                ante = yield f.ante, j, (1 << n) - 1
                cons = yield f.cons, j, ante
                viol = cons if dual else ante & ~cons
            # vacuity: no accessible antecedent trace
            holds = not cands or self._cf(f.agent, t, j, cands, ante, viol, universal)
            col[0][j] |= 1 << k | (holds != dual) << k << n

    _OPS = {Know: _know, **dict.fromkeys((Not, Next, Prev, And, Or, Implies, Iff), _local),
            **dict.fromkeys(_TEMPORAL, _temporal),
            **dict.fromkeys(_CF_NODES, _counterfactual)}

    def _cf(self, agent: str, t: LassoTrace, i: int, cands: int, ante: int,
            viol: int, universal: bool) -> bool:
        """Truth of the Would (universal=False) or UWould (universal=True)
        conditional from `t` at `i`, given the universe masks of the
        accessible antecedent traces, of all antecedent traces and of the
        violators (antecedent traces on which the consequent fails)."""
        traces = self.universe.traces
        sim = self.similarity_holds
        violators = [traces[y] for y in _members(viol)]
        candidates = [traces[x] for x in _members(cands)]
        if not universal:
            # some accessible antecedent threshold below which ante forces cons
            return any(not any(sim(agent, t, y, x, i) for y in violators)
                       for x in candidates)
        # universal form: every accessible antecedent trace must see a
        # threshold at least as similar; thresholds need not be accessible
        thresholds = [e for e in map(traces.__getitem__, _members(ante))
                      if not any(sim(agent, t, y, e, i) for y in violators)]
        return all(any(sim(agent, t, e, x, i) for e in thresholds) for x in candidates)

    # ------------------------------------------------------------------
    # observation partitions and similarity
    # ------------------------------------------------------------------

    def _partition(self, agent: str, j: int) -> list[int]:
        """Classes (universe masks) of the traces that the agent cannot tell
        apart on positions 0..j, refined position by position (synchronous
        perfect recall).  Observations that ever diverge do so below P + L,
        so the partition is final from there."""
        traces, n, p, l, _ = self._uset()
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
        i", in the context's own mode.  A relation of the all-positions shape
        does not depend on i and is decided from per-trace bitmasks over the
        whole window; any other is evaluated on the zipped trace."""
        params, rel, block, memo = self._rel(agent)
        tid = self._tid
        try:
            key = (tid[id(t_ref)] << _ID_BITS | tid[id(t1)]) << _ID_BITS | tid[id(t2)]
        except KeyError:
            key = (
                self._trace_id(t_ref) << _ID_BITS | self._trace_id(t1)
            ) << _ID_BITS | self._trace_id(t2)
        bitwise = block is not None and (self.mode == EXACT_LASSO or i <= self.bound)
        if not bitwise:
            key = (key, i)
        got = memo.get(key, _MISSING)
        if got is _MISSING:
            if bitwise:
                got = self._block_holds(block, (t_ref, t1, t2))
            else:
                z = self._zip(agent, params, t_ref, t1, t2)
                got = self.value(z, rel, i)
            memo[key] = got
        return got

    def _block_holds(self, block: tuple, traces: tuple) -> bool:
        """Does a compiled all-positions block hold at every position of the
        window?  Bounded mode: [0, N].  Exact mode: [0, P + L) with P the
        largest prefix and L the lcm of the loops over the universe and the
        three traces.  Every later position of the zipped triple repeats one
        inside; taking the universe's shape too gives all universe traces one
        window, so each trace's bitmasks are built once."""
        if self.mode == BOUNDED:
            width = self.bound + 1
        else:
            pmax, llcm = self._uset()[2:4]
            width = max(pmax, *(len(t.prefix) for t in traces)) + lcm(
                llcm, *(len(t.loop) for t in traces)
            )
        full = (1 << width) - 1
        masks = [self._trace_masks(t, width) for t in traces]
        return _run_block(block, masks) & full == full

    def _trace_masks(self, t: LassoTrace, width: int) -> dict[str, int]:
        """Proposition -> bitmask of the positions in [0, width) where it holds."""
        key = (self._trace_id(t), width)
        got = self._masks.get(key)
        if got is None:
            got = {}
            for j in range(width):
                for p in t.label_at(j):
                    got[p] = got.get(p, 0) | 1 << j
            self._masks[key] = got
        return got

    def _zip(self, agent, params, t1, t2, t3) -> LassoTrace:
        key = (agent, self._trace_id(t1), self._trace_id(t2), self._trace_id(t3))
        z = self._zips.get(key)
        if z is None:
            z = self._zips[key] = zip3(t1, t2, t3, params)
        return z


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def eval_at(ctx: EvalContext, t: LassoTrace, i: int, f: Formula) -> bool:
    """Truth of `f` (any surface form) on `t` at position `i`.

    The trace must belong to the context's universe: knowledge and
    counterfactual operators quantify over it, so a foreign trace would get
    meaningless epistemic verdicts."""
    if i < 0:
        raise ValueError("positions start at 0")
    if ctx.mode == BOUNDED and i > ctx.bound:
        raise ValueError(f"position {i} outside the bounded window [0, {ctx.bound}]")
    if t not in ctx.universe:
        raise ValueError(f"trace not in the universe: {format_trace(t)}")
    return ctx.value(t, f, i)


def similarity_holds(ctx: EvalContext, agent: str, t_ref: LassoTrace, t1: LassoTrace,
                     t2: LassoTrace, i: int) -> bool:
    return ctx.similarity_holds(agent, t_ref, t1, t2, i)


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
    holds = ctx._eval(f, ctx._uset(), 0, (1 << len(ctx.universe)) - 1)
    failing = [t for k, t in enumerate(ctx.universe) if not holds >> k & 1]
    if not failing:
        return Verdict(True, None, (), None, ())
    first = failing[0]
    trail = tuple(explain(ctx, first, 0, f))
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
            if not (ctx.mode == BOUNDED and j >= ctx.bound):
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


@dataclass(frozen=True)
class SatisfactionTable:
    """Truth of every subformula at positions 0..positions-1 of one trace.

    `unrollings` is the smallest number of loop copies after which consecutive
    per-copy value vectors repeat (the values themselves come from the exact
    engine and stay exact beyond the table)."""

    trace: str
    positions: int
    unrollings: int
    order: tuple[str, ...]
    rows: dict[str, tuple[bool, ...]]


def stabilize(ctx: EvalContext, t: LassoTrace, f: Formula) -> SatisfactionTable:
    if ctx.mode != EXACT_LASSO:
        raise ValueError("stabilize requires exact-lasso mode")
    subs = list(subformulas(f))
    p, l = len(t.prefix), len(t.loop)

    def block(k: int) -> tuple[bool, ...]:
        return tuple(ctx.value(t, g, p + k * l + j) for g in subs for j in range(l))

    cap = ctx.stabilization_cap
    c = 1  # block(c - 1) is read back from the memo, not evaluated again
    while c <= cap and block(c) != block(c - 1):
        c += 1
    if c > cap:
        raise StabilizationCapExceeded(t, f, cap + 1, cap)
    positions = p + c * l
    order = tuple(to_source(g) for g in subs)
    rows = {to_source(g): tuple(ctx.value(t, g, j) for j in range(positions))
            for g in subs}
    return SatisfactionTable(format_trace(t), positions, c, order, rows)


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
    traces = ctx.universe.traces
    sim = ctx.similarity_holds
    rel = {(u, v): sim(agent, t_ref, u, v, i) for u in traces for v in traces}
    accessible = {v: ctx.similarity_holds(agent, t_ref, t_ref, v, i) for v in traces}
    violations: list[SimilarityViolation] = []
    for v in traces:
        if accessible[v] and not rel[(v, v)]:
            violations.append(SimilarityViolation("irreflexive", (format_trace(v),)))
    for u in traces:
        for v in traces:
            if not rel[(u, v)]:
                continue
            for w in traces:
                if rel[(v, w)] and not rel[(u, w)]:
                    trio = (format_trace(u), format_trace(v), format_trace(w))
                    violations.append(SimilarityViolation("intransitive", trio))
    for v in traces:
        if not accessible[v] and ctx.similarity_holds(agent, t_ref, v, t_ref, i):
            violations.append(SimilarityViolation("minimum", (format_trace(v),)))
    return SimilarityReport(agent, format_trace(t_ref), i, tuple(violations))


def closest_antecedents(ctx: EvalContext, agent: str, t: LassoTrace, i: int,
                        ante: Formula) -> tuple[LassoTrace, ...]:
    """Minimal elements (under the agent's similarity preorder seen from `t`
    at `i`) of the accessible traces satisfying `ante` at `i`."""
    sim = ctx.similarity_holds
    cands = [x for x in ctx.universe
             if sim(agent, t, t, x, i) and ctx.value(x, ante, i)]
    return tuple(x for x in cands if not any(  # nothing strictly closer
        sim(agent, t, y, x, i) and not sim(agent, t, x, y, i) for y in cands))
