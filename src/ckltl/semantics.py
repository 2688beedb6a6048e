"""Evaluation of formulas on lasso traces over a finite trace universe.

Two modes:

* exact-lasso -- true infinite-word semantics.  Truth values of every
  subformula on every trace form an eventually periodic position sequence.
  The engine derives a proven (start, period) bound for each sequence from the
  formula structure and the prefix/loop shapes of the traces involved, then
  minimizes it against computed values; forward fixpoint operators are
  resolved by scanning one period past the stabilization start.  Proof
  obligations never rest on an empirically observed repeat.

* bounded(N) -- positions range over [0, N]; X is false at N, Y is false at 0,
  Until/Since witnesses are clipped to the window.  This mirrors the
  first-order translation over the same bounded domain exactly.

The evaluator handles the surface operators (Or, Implies, Iff, F, G, O, H,
Might, EMight) natively rather than desugaring first; `desugar` defines the
reference core form and the test suite holds both routes to the same values.

Memo layout.  Formula nodes are hash-consed where they are built (see
`formula`), so a structurally equal subformula is the same node wherever it
comes from (ICE, WCE, GCE and the similarity relations too), and a context
keys its tables by the node itself.  The first time a context meets a node it
records the node's stabilization bound, and those of the nodes below it that
it has not met yet.  Traces get ids on first use: universe traces their
universe order (shared by any other object for the same word), any other
trace the next free id.  The values of node f on trace k form one bytearray
row, filled in position order in both modes.

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
from math import ceil, lcm

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
from .trace import (
    LassoTrace,
    TraceUniverse,
    format_trace,
    obs_divergence_point,
    zip3,
)

EXACT_LASSO = "exact-lasso"
BOUNDED = "bounded"

_CF_NODES = {Would: (False, False), Might: (False, True),
             UWould: (True, False), EMight: (True, True)}


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
_NO_ROW = b""  # pads a node's row list up to the trace ids seen so far
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


class EvalContext:
    """Evaluation state: system, universe, mode, and all memo tables.

    Tables are indexed by formula nodes and trace ids (see the module docstring)
    and filled lazily, so building a context costs nothing per trace.
    Caches persist across calls, so repeated checks over the same context are
    warm; results never depend on cache state.
    """

    __slots__ = ("system", "universe", "mode", "bound", "stabilization_cap",
                 "_pins", "_bounds", "_rows", "_stab",
                 "_tid", "_traces", "_shape", "_rels", "_divs", "_masks", "_zips")

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
        self._bounds: dict[Formula, tuple[int, int, bool]] = {}  # met node -> (a, b, global)
        self._rows: dict[Formula, list] = {}  # met node -> trace id -> row
        self._stab: dict[tuple[Formula, int], tuple[int, int]] = {}  # -> (start, period)
        self._tid: dict[int, int] = {}  # id(trace) -> trace id; `_traces` pins
        self._pins: list[LassoTrace] = []  # traces that share a universe trace's id
        self._traces: list[LassoTrace] = []
        self._shape: tuple[int, int] | None = None  # universe max prefix, loop lcm
        self._rels: dict[str, tuple] = {}
        self._divs: dict[str, dict[int, int | None]] = {}
        self._masks: dict[tuple[int, int], dict[str, int]] = {}
        self._zips: dict[tuple, LassoTrace] = {}

    @classmethod
    def exact(cls, system, universe, stabilization_cap: int = 64) -> "EvalContext":
        return cls(system, universe, EXACT_LASSO, None, stabilization_cap)

    @classmethod
    def bounded(cls, system, universe, bound: int) -> "EvalContext":
        return cls(system, universe, BOUNDED, bound)

    def stats(self) -> dict[str, int]:
        """Deterministic work counters: nodes met, filled rows, stored values,
        similarity and divergence memo entries."""
        rows = [row for per_node in self._rows.values() for row in per_node if row]
        return {
            "nodes": len(self._bounds), "rows": len(rows), "values": sum(map(len, rows)),
            "similarity": sum(len(r[3]) for r in self._rels.values()),
            "divergence": sum(map(len, self._divs.values())),
        }

    # -- nodes and trace ids --

    def _meet(self, f: Formula) -> list:
        """Row list of `f`.  The nodes of `f` that the context has not met
        yet get their bounds and empty row lists, children first, in an
        iterative walk that stops at nodes met before."""
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
            bounds[g] = self._node_bound(g, kids)  # may meet a relation first
            self._rows[g] = []
        return self._rows[f]

    def _node_bound(self, f: Formula, kids: tuple[Formula, ...]) -> tuple[int, int, bool]:
        """Trace-independent stabilization bound (a, b, global) of a new node.

        On any trace the value sequence of `f` is periodic from P0 + a*L0
        with period b*L0, where (P0, L0) are the trace's own prefix and loop
        lengths when `global` is false and the maximum prefix / lcm of loops
        across the universe (joined with the trace's own) when `global` is
        true.  Knowledge and counterfactuals force `global`: their value
        draws on every universe trace and on zipped triples, and the
        universe-wide bound dominates those shapes."""
        kb = [self._bounds[c] for c in kids]
        if isinstance(f, (Atom, TracedAtom, TrueConst, FalseConst)):
            return (0, 1, False)
        if isinstance(f, (Not, Next, Eventually, Globally)):
            return kb[0]
        if isinstance(f, Prev):
            a, b, g = kb[0]
            return (a + 1, b, g)
        if isinstance(f, (Once, Historically)):
            a, b, g = kb[0]
            return (a + b, 2 * b, g)
        if isinstance(f, Know):
            a, b, _ = kb[0]
            # observation divergence points lie below max-prefix + loop-lcm
            return (max(a, 1), b, True)
        if type(f) in _CF_NODES:
            kb.append(self._bounds[self._rel(f.agent)[1]])
            return (max(a for a, _, _ in kb), lcm(*(b for _, b, _ in kb)), True)
        if not isinstance(f, (And, Or, Implies, Iff, Until, Since)):
            raise TypeError(f"evaluator got an unknown node: {f!r}")
        (a1, b1, g1), (a2, b2, g2) = kb
        a, b = max(a1, a2), lcm(b1, b2)
        if isinstance(f, Since):
            # the running-Since bit over a settled block either latches or
            # follows a block-periodic recurrence; two blocks always suffice
            return (a + b, 2 * b, g1 or g2)
        return (a, b, g1 or g2)

    def _trace_id(self, t: LassoTrace) -> int:
        k = self._tid.get(id(t))
        if k is not None:
            return k
        if self._shape is None:
            # first query: universe traces take their universe order as ids
            traces = self.universe.traces
            self._tid.update((id(u), k) for k, u in enumerate(traces))
            self._traces += traces
            self._shape = (max((len(u.prefix) for u in traces), default=0),
                           lcm(*(len(u.loop) for u in traces)) if traces else 1)
            k = self._tid.get(id(t))
            if k is not None:
                return k
        if t in self.universe:  # another object for a universe word: share its rows
            k = self.universe.index(t)
            self._pins.append(t)
        else:
            k = len(self._traces)
            self._traces.append(t)
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
    # values
    # ------------------------------------------------------------------

    def value(self, t: LassoTrace, f: Formula, i: int) -> bool:
        """Truth of `f` on `t` at position `i` (mode aware)."""
        rows = self._rows.get(f)
        if rows is None:
            rows = self._meet(f)
        k = self._tid.get(id(t))
        if k is None:
            k = self._trace_id(t)
        if k >= len(rows):
            rows += [_NO_ROW] * (len(self._traces) - len(rows))
        row = rows[k]
        if i < len(row):
            return row[i] == 1
        # not stored: fold i into the proved period when there is one, else
        # extend the row in position order (inline: one frame per level)
        if row is _NO_ROW:
            row = rows[k] = bytearray()
        stab = self._stab.get((f, k))
        if stab is not None and i >= stab[0]:
            i = stab[0] + (i - stab[0]) % stab[1]
        while len(row) <= i:
            row.append(self._compute(t, f, len(row)))
        return row[i] == 1

    def _compute(self, t: LassoTrace, f: Formula, i: int) -> bool:
        if isinstance(f, Atom):
            return f.name in t.label_at(i)
        if isinstance(f, TracedAtom):
            return (f.name, f.trace_var) in t.label_at(i)
        if isinstance(f, Not):
            return not self.value(t, f.child, i)
        if isinstance(f, And):
            return self.value(t, f.left, i) and self.value(t, f.right, i)
        if isinstance(f, Or):
            return self.value(t, f.left, i) or self.value(t, f.right, i)
        if isinstance(f, Implies):
            return not self.value(t, f.left, i) or self.value(t, f.right, i)
        if isinstance(f, Iff):
            return self.value(t, f.left, i) == self.value(t, f.right, i)
        if isinstance(f, TrueConst):
            return True
        if isinstance(f, FalseConst):
            return False
        if isinstance(f, Next):
            if self.mode == BOUNDED and i >= self.bound:
                return False
            return self.value(t, f.child, i + 1)
        if isinstance(f, Prev):
            if i == 0:
                return False
            return self.value(t, f.child, i - 1)
        # Rows fill in position order, so the value at i - 1 is known; where
        # the expansion law (l U r = r | l & X(l U r)) equates it with the
        # value at i, reuse it, so that filling a row up to i costs O(i).
        if isinstance(f, Until):
            if i and not self.value(t, f.right, i - 1) and self.value(t, f.left, i - 1):
                return self.value(t, f, i - 1)
            for k in range(i, self._horizon(t, i, f.left, f.right)):
                if self.value(t, f.right, k):
                    return True
                if not self.value(t, f.left, k):
                    return False
            return False
        if isinstance(f, (Eventually, Globally)):
            stop = isinstance(f, Eventually)  # the child value that decides
            if i and self.value(t, f.child, i - 1) != stop:
                return self.value(t, f, i - 1)
            for k in range(i, self._horizon(t, i, f.child)):
                if self.value(t, f.child, k) == stop:
                    return stop
            return not stop
        if isinstance(f, Since):
            # exists k <= i with right at k and left throughout (k, i]
            if self.value(t, f.right, i):
                return True
            if i == 0:
                return False
            return self.value(t, f.left, i) and self.value(t, f, i - 1)
        if isinstance(f, Once):
            if self.value(t, f.child, i):
                return True
            return i > 0 and self.value(t, f, i - 1)
        if isinstance(f, Historically):
            if not self.value(t, f.child, i):
                return False
            return i == 0 or self.value(t, f, i - 1)
        if isinstance(f, Know):
            for t2 in self.universe:
                if self._obs_eq(f.agent, t, t2, i) and not self.value(t2, f.child, i):
                    return False
            return True
        # (universal, dual): Might and EMight negate Would and UWould
        universal, dual = _CF_NODES[type(f)]
        return self._cf(t, f.agent, f.ante, f.cons, i, universal, dual) != dual

    def _horizon(self, t: LassoTrace, i: int, *operands: Formula) -> int:
        """Scan horizon for forward fixpoint operators: one joint period past
        max(position, stabilization starts of the operands)."""
        if self.mode == BOUNDED:
            return self.bound + 1
        stabs = [self._ensure_stab(t, g) for g in operands]
        return max(i, *(s for s, _ in stabs)) + lcm(*(p for _, p in stabs))

    def _cf(self, t: LassoTrace, agent: str, ante: Formula, cons: Formula, i: int,
            universal: bool, negate_cons: bool) -> bool:
        """Truth of the Would (universal=False) or UWould (universal=True)
        conditional; with negate_cons the consequent is read negated, which
        yields the duals Might = !(ante Would !cons) and EMight = !(ante
        UWould !cons) without building new formula objects."""
        traces = self.universe.traces
        sim = self.similarity_holds
        val = self.value
        candidates = [x for x in traces if sim(agent, t, t, x, i) and val(x, ante, i)]
        if not candidates:
            return True  # vacuity: no accessible antecedent trace
        violators = [y for y in traces
                     if val(y, ante, i) and val(y, cons, i) == negate_cons]
        if not universal:
            # some accessible antecedent threshold below which ante forces cons
            return any(not any(sim(agent, t, y, x, i) for y in violators)
                       for x in candidates)
        # universal form: every accessible antecedent trace must see a
        # threshold at least as similar; thresholds need not be accessible
        thresholds = [e for e in traces if val(e, ante, i)
                      and not any(sim(agent, t, y, e, i) for y in violators)]
        return all(any(sim(agent, t, e, x, i) for e in thresholds) for x in candidates)

    # ------------------------------------------------------------------
    # observation equivalence and similarity
    # ------------------------------------------------------------------

    def _div_point(self, agent: str, t1: LassoTrace, t2: LassoTrace):
        divs = self._divs.get(agent)
        if divs is None:
            divs = self._divs[agent] = {}
        key = self._trace_id(t1) << _ID_BITS | self._trace_id(t2)
        got = divs.get(key, _MISSING)
        if got is _MISSING:
            got = divs[key] = obs_divergence_point(self.system, agent, t1, t2)
        return got

    def _obs_eq(self, agent: str, t1: LassoTrace, t2: LassoTrace, i: int) -> bool:
        d = self._div_point(agent, t1, t2)
        return d is None or d > i

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
            pmax, llcm = self._shape
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

    # ------------------------------------------------------------------
    # stabilization (exact mode)
    # ------------------------------------------------------------------

    def _ensure_stab(self, t: LassoTrace, f: Formula) -> tuple[int, int]:
        """Proved-and-minimized (start, period) for the value sequence of
        (t, f): for i >= start, value(i) == value(start + (i-start) % period)."""
        k = self._trace_id(t)
        got = self._stab.get((f, k))
        if got is not None:
            return got
        a, b, glob = self._bounds[f]
        pt, lt = len(t.prefix), len(t.loop)
        if glob:
            pmax, llcm = self._shape
            p0, l0 = max(pt, pmax), lcm(lt, llcm)
        else:
            p0, l0 = pt, lt
        s, p = p0 + a * l0, b * l0
        needed = ceil(max(0, s + p - pt) / lt)
        if needed > self.stabilization_cap:
            raise StabilizationCapExceeded(t, f, needed, self.stabilization_cap)
        # minimize within the proved window: the minimal eventual period of an
        # eventually periodic sequence divides any valid one
        for d in range(1, p + 1):
            if p % d == 0 and all(
                self.value(t, f, j + d) == self.value(t, f, j)
                for j in range(s, s + p)
            ):
                p = d
                break
        while s > 0 and self.value(t, f, s - 1 + p) == self.value(t, f, s - 1):
            s -= 1
        got = self._stab[(f, k)] = (s, p)
        return got


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
    failing = [t for t in ctx.universe if not ctx.value(t, f, 0)]
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
        elif isinstance(g, And):
            if not v:
                loser = g.left if not ctx.value(tr, g.left, j) else g.right
                step = (loser, tr, j)
        elif isinstance(g, Or):
            if v:
                winner = g.left if ctx.value(tr, g.left, j) else g.right
                step = (winner, tr, j)
        elif isinstance(g, Implies):
            if not v:
                step = (g.right, tr, j)
        elif isinstance(g, Next):
            if not (ctx.mode == BOUNDED and j >= ctx.bound):
                step = (g.child, tr, j + 1)
        elif isinstance(g, Prev):
            if j > 0:
                step = (g.child, tr, j - 1)
        elif isinstance(g, (Until, Eventually)):
            right = g.right if isinstance(g, Until) else g.child
            left = g.left if isinstance(g, Until) else None
            hor = ctx._horizon(tr, j, *children(g))
            if v:
                for k in range(j, hor):
                    if ctx.value(tr, right, k):
                        step = (right, tr, k)
                        break
            elif left is not None:
                for k in range(j, hor):
                    if not ctx.value(tr, left, k):
                        step = (left, tr, k)
                        break
                else:
                    step = (right, tr, j)
        elif isinstance(g, Globally):
            if not v:
                for k in range(j, ctx._horizon(tr, j, g.child)):
                    if not ctx.value(tr, g.child, k):
                        step = (g.child, tr, k)
                        break
        elif isinstance(g, (Since, Once)):
            right = g.right if isinstance(g, Since) else g.child
            if v:
                for k in range(j, -1, -1):
                    if ctx.value(tr, right, k):
                        step = (right, tr, k)
                        break
        elif isinstance(g, Historically):
            if not v:
                for k in range(j, -1, -1):
                    if not ctx.value(tr, g.child, k):
                        step = (g.child, tr, k)
                        break
        elif isinstance(g, Know):
            if not v:
                for t2 in ctx.universe:
                    seen_alike = ctx._obs_eq(g.agent, tr, t2, j)
                    if seen_alike and not ctx.value(t2, g.child, j):
                        step = (g.child, t2, j)
                        break
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
    prev = block(0)
    c = None
    for k in range(1, cap + 1):
        cur = block(k)
        if cur == prev:
            c = k
            break
        prev = cur
    if c is None:
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
