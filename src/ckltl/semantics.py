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
from dataclasses import dataclass, field
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
    conjoin,
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

_CF_NODES = (Would, Might, UWould, EMight)


class StabilizationCapExceeded(RuntimeError):
    """A truth sequence needs more loop unrollings than the configured cap."""

    def __init__(self, trace: LassoTrace, formula: Formula, needed: int, cap: int):
        super().__init__(
            f"stabilizing {to_source(formula)!r} on {format_trace(trace)} needs "
            f"{needed} loop unrollings, cap is {cap}"
        )
        self.needed = needed
        self.cap = cap


@dataclass(slots=True)
class _Seq:
    """Truth values of one (trace, formula) pair, extended on demand.

    Once (start, period) is set, every value at position >= start equals the
    value at start + ((i - start) mod period)."""

    trace: LassoTrace
    formula: Formula
    vals: list[bool] = field(default_factory=list)
    start: int | None = None
    period: int | None = None


_MISSING = object()

# Opcodes of a compiled pointwise block.  Registers hold ints read as bit
# vectors over positions (bit j = value at position j); negative ints stand
# for vectors with every high bit set, so negation is `~`.
_LOAD, _CONST, _NOT, _AND, _OR, _IMPLIES, _IFF = range(7)
_BINARY = {And: _AND, Or: _OR, Implies: _IMPLIES, Iff: _IFF}


def _all_positions_block(params: tuple[str, str, str], rel: Formula):
    """Compile `rel` into a flat op list when it has the all-positions shape,
    else return None.

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
    if set(g_bodies) != h_bodies:
        return None
    ops: list[tuple] = []
    regs: dict = {}  # node key -> register (index of the op that fills it)

    def key(g: Formula):
        return (g.name, g.trace_var) if isinstance(g, TracedAtom) else id(g)

    stack = [(conjoin(list(g_bodies)), False)]
    while stack:
        g, ready = stack.pop()
        if key(g) in regs:
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
            stack.extend((c, False) for c in reversed(children(g)))
            continue
        elif isinstance(g, Not):
            op = (_NOT, regs[key(g.child)], None)
        else:
            op = (_BINARY[type(g)], regs[key(g.left)], regs[key(g.right)])
        regs[key(g)] = len(ops)
        ops.append(op)
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

    Caches persist across calls, so repeated checks over the same context are
    warm; results never depend on cache state.
    """

    def __init__(
        self,
        system: System,
        universe: TraceUniverse,
        mode: str = EXACT_LASSO,
        bound: int | None = None,
        stabilization_cap: int = 64,
    ):
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
        self._objs: dict[int, object] = {}
        self._seqs: dict[tuple[int, int], _Seq] = {}
        self._bmemo: dict[tuple[int, int, int], bool] = {}
        self._zips: dict[tuple[str, int, int, int], LassoTrace] = {}
        self._divs: dict[tuple[str, int, int], int | None] = {}
        self._sims: dict[tuple, bool] = {}
        self._rels: dict[str, tuple[tuple[str, str, str], Formula, tuple | None]] = {}
        self._masks: dict[tuple[int, int], dict[str, int]] = {}
        self._bounds: dict[int, tuple[int, int, bool]] = {}
        for t in universe:
            self._key(t)
        self._uni_pmax = max((len(t.prefix) for t in universe), default=0)
        self._uni_llcm = lcm(*(len(t.loop) for t in universe)) if len(universe) else 1

    @classmethod
    def exact(cls, system, universe, stabilization_cap: int = 64) -> "EvalContext":
        return cls(system, universe, EXACT_LASSO, None, stabilization_cap)

    @classmethod
    def bounded(cls, system, universe, bound: int) -> "EvalContext":
        return cls(system, universe, BOUNDED, bound)

    # -- object identity keys (objects pinned so ids stay unique) --

    def _key(self, obj) -> int:
        k = id(obj)
        if k not in self._objs:
            self._objs[k] = obj
        return k

    def _rel(self, agent: str) -> tuple[tuple[str, str, str], Formula, tuple | None]:
        """(params, formula, compiled block or None) of the agent's relation."""
        got = self._rels.get(agent)
        if got is None:
            rf = self.system.similarity_of(agent)
            got = (rf.params, rf.formula, _all_positions_block(rf.params, rf.formula))
            self._rels[agent] = got
            self._key(got[1])
        return got

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------

    def value(self, t: LassoTrace, f: Formula, i: int) -> bool:
        """Truth of `f` on `t` at position `i` (mode aware)."""
        if self.mode == BOUNDED:
            key = (self._key(f), self._key(t), i)
            got = self._bmemo.get(key, _MISSING)
            if got is _MISSING:
                got = self._compute(t, f, i)
                self._bmemo[key] = got
            return got
        seq = self._seq(t, f)
        if seq.start is not None and i >= seq.start:
            i = seq.start + (i - seq.start) % seq.period
        vals = seq.vals
        while len(vals) <= i:
            vals.append(self._compute(t, f, len(vals)))
        return vals[i]

    def _seq(self, t: LassoTrace, f: Formula) -> _Seq:
        key = (self._key(t), self._key(f))
        seq = self._seqs.get(key)
        if seq is None:
            seq = _Seq(t, f)
            self._seqs[key] = seq
        return seq

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
        if isinstance(f, Until):
            for k in range(i, self._horizon(t, f.left, f.right, i)):
                if self.value(t, f.right, k):
                    return True
                if not self.value(t, f.left, k):
                    return False
            return False
        if isinstance(f, Eventually):
            for k in range(i, self._horizon(t, f.child, None, i)):
                if self.value(t, f.child, k):
                    return True
            return False
        if isinstance(f, Globally):
            for k in range(i, self._horizon(t, f.child, None, i)):
                if not self.value(t, f.child, k):
                    return False
            return True
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
                if self._obs_eq(f.agent, t, t2, i) and not self.value(
                    t2, f.child, i
                ):
                    return False
            return True
        if isinstance(f, Would):
            return self._cf(t, f.agent, f.ante, f.cons, i, False, False)
        if isinstance(f, Might):
            return not self._cf(t, f.agent, f.ante, f.cons, i, False, True)
        if isinstance(f, UWould):
            return self._cf(t, f.agent, f.ante, f.cons, i, True, False)
        if isinstance(f, EMight):
            return not self._cf(t, f.agent, f.ante, f.cons, i, True, True)
        raise TypeError(f"evaluator got an unknown node: {f!r}")

    def _horizon(
        self, t: LassoTrace, left: Formula, right: Formula | None, i: int
    ) -> int:
        """Scan horizon for forward fixpoint operators: one joint period past
        max(position, stabilization starts)."""
        if self.mode == BOUNDED:
            return self.bound + 1
        s1, p1 = self._ensure_stab(t, left)
        if right is None:
            return max(i, s1) + p1
        s2, p2 = self._ensure_stab(t, right)
        return max(i, s1, s2) + lcm(p1, p2)

    def _cf(
        self,
        t: LassoTrace,
        agent: str,
        ante: Formula,
        cons: Formula,
        i: int,
        universal: bool,
        negate_cons: bool,
    ) -> bool:
        """Truth of the Would (universal=False) or UWould (universal=True)
        conditional; with negate_cons the consequent is read negated, which
        yields the duals Might = !(ante Would !cons) and EMight = !(ante
        UWould !cons) without building new formula objects."""
        traces = self.universe.traces
        candidates = [
            x
            for x in traces
            if self.similarity_holds(agent, t, t, x, i) and self.value(x, ante, i)
        ]
        if not candidates:
            return True  # vacuity: no accessible antecedent trace
        violators = [
            y
            for y in traces
            if self.value(y, ante, i) and self.value(y, cons, i) == negate_cons
        ]
        if not universal:
            # some accessible antecedent threshold below which ante forces cons
            for x in candidates:
                if not any(
                    self.similarity_holds(agent, t, y, x, i) for y in violators
                ):
                    return True
            return False
        # universal form: every accessible antecedent trace must see a
        # threshold at least as similar; thresholds need not be accessible
        thresholds = [
            e
            for e in traces
            if self.value(e, ante, i)
            and not any(self.similarity_holds(agent, t, y, e, i) for y in violators)
        ]
        for x in candidates:
            if not any(self.similarity_holds(agent, t, e, x, i) for e in thresholds):
                return False
        return True

    # ------------------------------------------------------------------
    # observation equivalence and similarity
    # ------------------------------------------------------------------

    def _div_point(self, agent: str, t1: LassoTrace, t2: LassoTrace):
        key = (agent, self._key(t1), self._key(t2))
        got = self._divs.get(key, _MISSING)
        if got is _MISSING:
            got = obs_divergence_point(self.system, agent, t1, t2)
            self._divs[key] = got
        return got

    def _obs_eq(self, agent: str, t1: LassoTrace, t2: LassoTrace, i: int) -> bool:
        d = self._div_point(agent, t1, t2)
        return d is None or d > i

    def similarity_holds(
        self,
        agent: str,
        t_ref: LassoTrace,
        t1: LassoTrace,
        t2: LassoTrace,
        i: int,
    ) -> bool:
        """Does the agent's similarity formula accept (t_ref, t1, t2) at i?

        Reads "t1 is at least as similar to t_ref as t2, judged at position
        i", in the context's own mode.  A relation of the all-positions shape
        does not depend on i and is decided from per-trace bitmasks over the
        whole window; any other is evaluated on the zipped trace."""
        params, rel, block = self._rel(agent)
        bitwise = block is not None and (self.mode == EXACT_LASSO or i <= self.bound)
        key = (agent, self._key(t_ref), self._key(t1), self._key(t2))
        if not bitwise:
            key += (i,)
        got = self._sims.get(key, _MISSING)
        if got is _MISSING:
            if bitwise:
                got = self._block_holds(block, (t_ref, t1, t2))
            else:
                z = self._zip(agent, params, t_ref, t1, t2)
                got = self.value(z, rel, i)
            self._sims[key] = got
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
            width = max(self._uni_pmax, *(len(t.prefix) for t in traces)) + lcm(
                self._uni_llcm, *(len(t.loop) for t in traces)
            )
        full = (1 << width) - 1
        masks = [self._trace_masks(t, width) for t in traces]
        return _run_block(block, masks) & full == full

    def _trace_masks(self, t: LassoTrace, width: int) -> dict[str, int]:
        """Proposition -> bitmask of the positions in [0, width) where it holds."""
        key = (self._key(t), width)
        got = self._masks.get(key)
        if got is None:
            got = {}
            for j in range(width):
                for p in t.label_at(j):
                    got[p] = got.get(p, 0) | 1 << j
            self._masks[key] = got
        return got

    def _zip(self, agent, params, t1, t2, t3) -> LassoTrace:
        key = (agent, self._key(t1), self._key(t2), self._key(t3))
        z = self._zips.get(key)
        if z is None:
            z = zip3(t1, t2, t3, params)
            self._zips[key] = z
            self._key(z)
        return z

    # ------------------------------------------------------------------
    # stabilization (exact mode)
    # ------------------------------------------------------------------

    def _struct_bound(self, f: Formula) -> tuple[int, int, bool]:
        """Trace-independent stabilization bound (a, b, global).

        On any trace the value sequence of `f` is periodic from P0 + a*L0
        with period b*L0, where (P0, L0) are the trace's own prefix and loop
        lengths when `global` is false and the maximum prefix / lcm of loops
        across the universe (joined with the trace's own) when `global` is
        true.  Knowledge and counterfactuals force `global`: their value
        draws on every universe trace and on zipped triples, and the
        universe-wide bound dominates those shapes."""
        k = self._key(f)
        got = self._bounds.get(k)
        if got is not None:
            return got
        if isinstance(f, (Atom, TracedAtom, TrueConst, FalseConst)):
            out = (0, 1, False)
        elif isinstance(f, (Not, Next, Eventually, Globally)):
            out = self._struct_bound(f.child)
        elif isinstance(f, Prev):
            a, b, g = self._struct_bound(f.child)
            out = (a + 1, b, g)
        elif isinstance(f, (And, Or, Implies, Iff, Until)):
            a1, b1, g1 = self._struct_bound(f.left)
            a2, b2, g2 = self._struct_bound(f.right)
            out = (max(a1, a2), lcm(b1, b2), g1 or g2)
        elif isinstance(f, Since):
            a1, b1, g1 = self._struct_bound(f.left)
            a2, b2, g2 = self._struct_bound(f.right)
            a, b = max(a1, a2), lcm(b1, b2)
            # the running-Since bit over a settled block either latches or
            # follows a block-periodic recurrence; two blocks always suffice
            out = (a + b, 2 * b, g1 or g2)
        elif isinstance(f, (Once, Historically)):
            a, b, g = self._struct_bound(f.child)
            out = (a + b, 2 * b, g)
        elif isinstance(f, Know):
            a, b, _ = self._struct_bound(f.child)
            # observation divergence points lie below max-prefix + loop-lcm
            out = (max(a, 1), b, True)
        elif isinstance(f, _CF_NODES):
            a1, b1, _ = self._struct_bound(f.ante)
            a2, b2, _ = self._struct_bound(f.cons)
            ar, br, _ = self._struct_bound(self._rel(f.agent)[1])
            out = (max(a1, a2, ar), lcm(b1, b2, br), True)
        else:
            raise TypeError(f"evaluator got an unknown node: {f!r}")
        self._bounds[k] = out
        return out

    def _ensure_stab(self, t: LassoTrace, f: Formula) -> tuple[int, int]:
        """Proved-and-minimized (start, period) for the value sequence of
        (t, f): for i >= start, value(i) == value(start + (i-start) % period)."""
        seq = self._seq(t, f)
        if seq.start is not None:
            return seq.start, seq.period
        a, b, glob = self._struct_bound(f)
        pt, lt = len(t.prefix), len(t.loop)
        if glob:
            p0, l0 = max(pt, self._uni_pmax), lcm(lt, self._uni_llcm)
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
        seq.start, seq.period = s, p
        return s, p


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


def similarity_holds(
    ctx: EvalContext,
    agent: str,
    t_ref: LassoTrace,
    t1: LassoTrace,
    t2: LassoTrace,
    i: int,
) -> bool:
    return ctx.similarity_holds(agent, t_ref, t1, t2, i)


@dataclass(frozen=True)
class TrailEntry:
    formula: str
    trace: str
    position: int
    value: bool

    def to_dict(self) -> dict:
        return {
            "formula": self.formula,
            "trace": self.trace,
            "position": self.position,
            "value": self.value,
        }


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
    return Verdict(
        False,
        format_trace(first),
        tuple(format_trace(t) for t in failing),
        0,
        trail,
    )


def explain(
    ctx: EvalContext, t: LassoTrace, i: int, f: Formula, limit: int = 50
) -> list[TrailEntry]:
    """Evaluation trail: one entry per step down a single explanatory path
    (first false conjunct, witness position, violating trace, ...)."""
    out: list[TrailEntry] = []

    def emit(g: Formula, tr: LassoTrace, j: int) -> bool:
        v = ctx.value(tr, g, j)
        out.append(TrailEntry(to_source(g), format_trace(tr), j, v))
        return v

    def walk(g: Formula, tr: LassoTrace, j: int) -> None:
        if len(out) >= limit:
            return
        v = emit(g, tr, j)
        if isinstance(g, Not):
            walk(g.child, tr, j)
        elif isinstance(g, And):
            if not v:
                loser = g.left if not ctx.value(tr, g.left, j) else g.right
                walk(loser, tr, j)
        elif isinstance(g, Or):
            if v:
                winner = g.left if ctx.value(tr, g.left, j) else g.right
                walk(winner, tr, j)
        elif isinstance(g, Implies):
            if not v:
                walk(g.right, tr, j)
        elif isinstance(g, Next):
            if not (ctx.mode == BOUNDED and j >= ctx.bound):
                walk(g.child, tr, j + 1)
        elif isinstance(g, Prev):
            if j > 0:
                walk(g.child, tr, j - 1)
        elif isinstance(g, (Until, Eventually)):
            right = g.right if isinstance(g, Until) else g.child
            left = g.left if isinstance(g, Until) else None
            hor = (
                ctx._horizon(tr, left, right, j)
                if left is not None
                else ctx._horizon(tr, right, None, j)
            )
            if v:
                for k in range(j, hor):
                    if ctx.value(tr, right, k):
                        walk(right, tr, k)
                        return
            elif left is not None:
                for k in range(j, hor):
                    if not ctx.value(tr, left, k):
                        walk(left, tr, k)
                        return
                walk(right, tr, j)
        elif isinstance(g, Globally):
            if not v:
                for k in range(j, ctx._horizon(tr, g.child, None, j)):
                    if not ctx.value(tr, g.child, k):
                        walk(g.child, tr, k)
                        return
        elif isinstance(g, (Since, Once)):
            right = g.right if isinstance(g, Since) else g.child
            if v:
                for k in range(j, -1, -1):
                    if ctx.value(tr, right, k):
                        walk(right, tr, k)
                        return
        elif isinstance(g, Historically):
            if not v:
                for k in range(j, -1, -1):
                    if not ctx.value(tr, g.child, k):
                        walk(g.child, tr, k)
                        return
        elif isinstance(g, Know):
            if not v:
                for t2 in ctx.universe:
                    if ctx._obs_eq(g.agent, tr, t2, j) and not ctx.value(
                        t2, g.child, j
                    ):
                        walk(g.child, t2, j)
                        return
        # atoms, constants, Iff, counterfactuals: stop here

    walk(f, t, i)
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
        return tuple(
            ctx.value(t, g, p + k * l + j) for g in subs for j in range(l)
        )

    prev = block(0)
    c = None
    for k in range(1, ctx.stabilization_cap + 1):
        cur = block(k)
        if cur == prev:
            c = k
            break
        prev = cur
    if c is None:
        raise StabilizationCapExceeded(
            t, f, ctx.stabilization_cap + 1, ctx.stabilization_cap
        )
    positions = p + c * l
    order = tuple(to_source(g) for g in subs)
    rows = {
        to_source(g): tuple(ctx.value(t, g, j) for j in range(positions))
        for g in subs
    }
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


def validate_similarity(
    ctx: EvalContext, agent: str, t_ref: LassoTrace, i: int
) -> SimilarityReport:
    """Check that the agent's similarity relation, viewed from `t_ref` at
    position `i`, is a preorder on the universe with the reference as minimum:
    reflexive on accessible traces, transitive, and no trace counts as at
    least as similar as the reference unless it is itself accessible."""
    traces = ctx.universe.traces
    rel = {
        (u, v): ctx.similarity_holds(agent, t_ref, u, v, i)
        for u in traces
        for v in traces
    }
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
                    violations.append(
                        SimilarityViolation(
                            "intransitive",
                            (format_trace(u), format_trace(v), format_trace(w)),
                        )
                    )
    for v in traces:
        if not accessible[v] and ctx.similarity_holds(agent, t_ref, v, t_ref, i):
            violations.append(SimilarityViolation("minimum", (format_trace(v),)))
    return SimilarityReport(agent, format_trace(t_ref), i, tuple(violations))


def closest_antecedents(
    ctx: EvalContext, agent: str, t: LassoTrace, i: int, ante: Formula
) -> tuple[LassoTrace, ...]:
    """Minimal elements (under the agent's similarity preorder seen from `t`
    at `i`) of the accessible traces satisfying `ante` at `i`."""
    cands = [
        x
        for x in ctx.universe
        if ctx.similarity_holds(agent, t, t, x, i) and ctx.value(x, ante, i)
    ]
    out = []
    for x in cands:
        strictly_closer = any(
            ctx.similarity_holds(agent, t, y, x, i)
            and not ctx.similarity_holds(agent, t, x, y, i)
            for y in cands
        )
        if not strictly_closer:
            out.append(x)
    return tuple(out)
