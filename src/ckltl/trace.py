"""Lasso traces, trace universes, and observation machinery.

A lasso trace `u . v^omega` denotes an ultimately periodic infinite word of
label sets: `prefix` cells first, then the nonempty `loop` repeated forever.
Universes are finite ordered collections of lasso traces standing in for the
(generally infinite) set of traces of a structure; all trace quantifiers in
the semantics range over one universe.

Letters are hash-consed: every cell of every trace is the one object that a
process-wide letter table holds for its label set, so a trace keeps one
pointer per position and equal letters are shared between traces.  The
table is strong and never shrinks (frozensets cannot be weakly referenced);
it holds one entry per distinct letter ever seen, which stays tiny next to
the cells it replaces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from math import lcm
from typing import Iterable, Iterator

from .formula import memo


class SizeLimitExceeded(RuntimeError):
    """Universe generation hit the configured trace-count cap."""


class LassoTrace:
    """Ultimately periodic trace: `prefix` then `loop` forever (loop nonempty).

    Labels are frozensets; ordinary traces carry proposition names, zipped
    traces carry `(proposition, trace_var)` pairs.  The constructor replaces
    each cell by the letter table's equal letter (see the module docstring),
    so the caller's own label sets are not kept.

    A trace is an immutable value: equality and hashing go by presentation
    (`prefix`, `loop`), the hash is computed once, at construction, and the
    canonical form once, at the first `canonical()` call.  A canonical trace
    records that with a flag rather than a reference to itself, so a trace
    never refers back to itself.
    """

    __slots__ = ("prefix", "loop", "_hash", "_canon")

    def __new__(cls, prefix: tuple[frozenset, ...], loop: tuple[frozenset, ...]):
        if not loop:
            raise ValueError("lasso loop must be nonempty")
        letter = _LETTERS.setdefault
        return _lasso(tuple(map(letter, prefix, prefix)), tuple(map(letter, loop, loop)))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"lasso traces are immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return LassoTrace, (self.prefix, self.loop)

    def __repr__(self) -> str:
        return f"LassoTrace(prefix={self.prefix!r}, loop={self.loop!r})"

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not LassoTrace:
            return NotImplemented
        return (self._hash == other._hash and self.prefix == other.prefix
                and self.loop == other.loop)

    def __hash__(self) -> int:
        return self._hash

    def label_at(self, i: int) -> frozenset:
        if i < 0:
            raise IndexError("trace positions start at 0")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.loop[(i - len(self.prefix)) % len(self.loop)]

    def canonical(self) -> "LassoTrace":
        """Unique minimal representation of the denoted word: smallest loop
        period, then every prefix cell that merely repeats the loop absorbed
        into it."""
        c = self._canon
        if c is None:
            loop, prefix = _minimal_period(self.loop), self.prefix
            # absorbing the cells `prefix[n-k:]` turns the loop right by k
            p, n, k = len(loop), len(prefix), 0
            while k < n and prefix[n - 1 - k] == loop[-1 - k % p]:
                k += 1
            if k == 0 and p == len(self.loop):
                c = True
            else:
                r = p - k % p
                c = _lasso(prefix[:n - k], loop[r:] + loop[:r], True)
            _set_canon(self, c)
        return self if c is True else c


# label set -> its letter, the one object every trace cell with that label
# set is; strong and never shrinking (see the module docstring)
_LETTERS: dict[frozenset, frozenset] = {}

# the slot descriptors' setters, which bypass the raising `__setattr__`
_set_prefix, _set_loop, _set_hash, _set_canon = (
    getattr(LassoTrace, name).__set__ for name in LassoTrace.__slots__)


def _lasso(prefix: tuple, loop: tuple, canon: bool | None = None) -> LassoTrace:
    """Trace whose cells are letters already and whose loop is nonempty:
    the constructor without its table lookups.  `canon` is True when the
    caller knows the presentation is canonical, None when not known yet."""
    t = object.__new__(LassoTrace)
    _set_prefix(t, prefix)
    _set_loop(t, loop)
    _set_hash(t, hash((prefix, loop)))
    _set_canon(t, canon)
    return t


def _minimal_period(loop: tuple[frozenset, ...]) -> tuple[frozenset, ...]:
    n = len(loop)
    for d in range(1, n):
        if n % d == 0 and loop == loop[:d] * (n // d):
            return loop[:d]
    return loop


# ---------------------------------------------------------------------------
# Trace literals:  "{} ; {a,b} | {c}" -- prefix cells before '|', loop after.
# ---------------------------------------------------------------------------


def parse_trace_literal(text: str) -> LassoTrace:
    """Parse `"{p} ; {q} | {r}"` style notation (cells are `,`-separated
    proposition sets in braces, `;` between cells, one `|` before the loop);
    a name is nonempty, without whitespace, braces, `|`, `;` or `,`."""
    parts = text.split("|")
    if len(parts) != 2:
        raise ValueError(f"trace literal needs exactly one '|', before the loop: {text!r}")
    prefix, loop = (tuple(_parse_cells(part, text)) for part in parts)
    if not loop:
        raise ValueError(f"trace literal has an empty loop: {text!r}")
    return LassoTrace(prefix, loop)


def _parse_cells(part: str, text: str) -> list[frozenset]:
    cells = []
    for chunk in part.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("{") and chunk.endswith("}")):
            raise ValueError(f"malformed trace cell {chunk!r} in {text!r}")
        inner = chunk[1:-1].strip()
        names = [p.strip() for p in inner.split(",")] if inner else []
        for p in names:  # `|`, `;` and `,` were split on already
            if not p or "{" in p or "}" in p or any(c.isspace() for c in p):
                raise ValueError(f"bad proposition name {p!r} in trace literal {text!r}")
        cells.append(frozenset(names))
    return cells


def format_trace(trace: LassoTrace) -> str:
    """Canonical literal for a trace (propositions sorted inside each cell);
    a zipped trace's `(p, var)` label reads `p@var`."""

    def cell(s: frozenset) -> str:
        return "{" + ",".join(sorted(p if isinstance(p, str) else "@".join(p) for p in s)) + "}"

    pre = " ; ".join(cell(c) for c in trace.prefix)
    loop = " ; ".join(cell(c) for c in trace.loop)
    return f"{pre} | {loop}" if pre else f"| {loop}"


# ---------------------------------------------------------------------------
# Zipping for relational formulas
# ---------------------------------------------------------------------------


def zip3(
    t1: LassoTrace,
    t2: LassoTrace,
    t3: LassoTrace,
    names: tuple[str, str, str],
) -> LassoTrace:
    """Zip three traces into one whose labels tag each proposition with the
    trace variable it came from: position i carries
    `{(p, names[k]) | p in tk[i]}`.  Kept only because perfbench's tracer
    wraps it by name until the benchmark re-points it.

    The result's prefix length is the max of the inputs' prefix lengths and
    its loop length the lcm of theirs, so `label_at` agrees with the pointwise
    construction at every position.
    """
    traces = (t1, t2, t3)
    pre_len = max(len(t.prefix) for t in traces)
    loop_len = lcm(*(len(t.loop) for t in traces))

    def cell(i: int) -> frozenset:
        out = set()
        for t, name in zip(traces, names):
            for p in t.label_at(i):
                out.add((p, name))
        return frozenset(out)

    prefix = tuple(cell(i) for i in range(pre_len))
    loop = tuple(cell(pre_len + j) for j in range(loop_len))
    return LassoTrace(prefix, loop)


# ---------------------------------------------------------------------------
# Observation projections
# ---------------------------------------------------------------------------


def obs_divergence_point(system, agent: str, t1: LassoTrace, t2: LassoTrace):
    """Smallest position where the agent's observations of t1 and t2 differ,
    or None if they never do.  Decided exactly: positions beyond
    max-prefix + lcm-of-loops repeat earlier ones.  Kept only because
    perfbench's tracer wraps it by name until the benchmark re-points it."""
    obs = system.observation_of(agent)
    bound = max(len(t1.prefix), len(t2.prefix)) + lcm(len(t1.loop), len(t2.loop))
    for j in range(bound):
        if (t1.label_at(j) & obs) != (t2.label_at(j) & obs):
            return j
    return None


# ---------------------------------------------------------------------------
# Universes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceUniverse:
    """Finite ordered set of distinct lasso traces, indexed by denoted word."""

    traces: tuple[LassoTrace, ...]
    # canonical trace -> position; derived from `traces`, so left out of
    # equality and hashing
    _index: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[LassoTrace, int] = {}
        for k, t in enumerate(self.traces):
            if index.setdefault(t.canonical(), k) != k:
                raise ValueError(f"duplicate trace in universe: {format_trace(t)}")
        object.__setattr__(self, "_index", index)

    def __iter__(self) -> Iterator[LassoTrace]:
        return iter(self.traces)

    def __len__(self) -> int:
        return len(self.traces)

    def index(self, trace: LassoTrace) -> int:
        k = self._index.get(trace.canonical())
        if k is None:
            raise KeyError(f"trace not in universe: {format_trace(trace)}")
        return k

    def __contains__(self, trace: LassoTrace) -> bool:
        return trace.canonical() in self._index


def _indexed(traces: tuple[LassoTrace, ...], index: dict) -> TraceUniverse:
    """Universe over `traces`, distinct words whose canonical forms `index`
    maps to their positions, keeping `index` as its own: the constructor
    without its pass over the traces."""
    u = object.__new__(TraceUniverse)
    u.__dict__.update(traces=traces, _index=index)
    return u


def universe_of(traces: Iterable[LassoTrace]) -> TraceUniverse:
    """Universe from explicit traces (canonicalized, order-preserving dedup)."""
    index: dict[LassoTrace, int] = {}
    for t in traces:
        index.setdefault(t.canonical(), len(index))
    return _indexed(tuple(index), index)


def _require_int(what: str, value) -> None:
    """Refuse a count that is not an `int`, or is a `bool`, naming it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an int, got {value!r}")


def _live_transitions(trans: dict, allowed: frozenset | None, max_loop: int) -> dict:
    """`trans` without the steps into dead states, `trans` itself when there
    are none.  A state is live when a loop of at most `max_loop` states, all
    of them in `allowed` (None: any), can be entered from it after one step
    or more; a prefix that ends in a dead state has no lasso.  Every state on
    such a loop is live, so no loop loses a step."""
    # the first states of such loops, by breadth-first search; each is live,
    # since its loop leads back to it
    live: set[str] = set()
    for s in trans if allowed is None else allowed:
        frontier, seen = {s}, {s}
        for _ in range(max_loop):
            if any(s in trans[x] for x in frontier):
                live.add(s)
                break
            frontier = {y for x in frontier for y in trans[x]
                        if allowed is None or y in allowed} - seen
            seen |= frontier
    grown = True
    while grown and len(live) < len(trans):  # until no other state has a live successor
        grown = False
        for x, succ in trans.items():
            if x not in live and not live.isdisjoint(succ):
                live.add(x)
                grown = True
    if len(live) == len(trans):
        return trans
    return {x: tuple(y for y in succ if y in live) for x, succ in trans.items()}


class _Key(tuple):
    """A universe's memo key, hashed by its first seven items: the
    successor and label tuples after them cost a string hash per edge, and
    equal keys still hash alike."""

    __slots__ = ()

    def __hash__(self):
        return hash(self[:7])


def generate_universe(
    system_or_kripke,
    max_prefix: int,
    max_loop: int,
    *,
    loop_states: Iterable[str] | None = None,
    max_traces: int = 1_000_000,
) -> TraceUniverse:
    """Enumerate every initial lasso of the structure with |prefix| <= max_prefix
    and |loop| <= max_loop, deduplicated by denoted word.

    All state steps respect the transition relation, including the step from
    the last prefix state into the loop and the loop-closing step.  If
    `loop_states` is given, every loop state must belong to it.  The steps
    into states from which no such loop can be entered are dropped first, so
    dead prefixes cost nothing.  Raises
    :class:`SizeLimitExceeded` when more than `max_traces` distinct traces
    would be produced; warns when the result is empty, on every such call.

    The result is shared through `formula.memo`: while a universe lives, a
    call on an equal structure (states, initial state, successor tuples and
    labels) with equal bounds (`max_prefix`, `max_loop`, the set of loop
    states and `max_traces`) returns it without generating it again.  The
    key lists the transitions in their map's order, so an equal structure
    that lists them in another order generates its own.  A refused call
    records nothing.
    """
    k = getattr(system_or_kripke, "kripke", system_or_kripke)
    _require_int("max_prefix", max_prefix)
    _require_int("max_loop", max_loop)
    _require_int("max_traces", max_traces)
    if max_prefix < 0 or max_loop < 1:
        raise ValueError("need max_prefix >= 0 and max_loop >= 1")
    if max_traces < 1:
        raise ValueError(f"need max_traces >= 1, got {max_traces}")
    if isinstance(loop_states, str):
        raise ValueError(f"loop_states must be a collection of state names, got {loop_states!r}")
    allowed = frozenset(loop_states) if loop_states is not None else None
    if allowed is not None:
        unknown = allowed - set(k.states)
        if unknown:
            raise ValueError(f"loop_states not in the model: {sorted(unknown)}")
    trans, labels = k.transitions, k.labels
    key = _Key((_generate, tuple(k.states), k.initial, max_prefix, max_loop, allowed, max_traces,
                tuple(trans), tuple(trans.values()), tuple(labels), tuple(labels.values())))
    universe = memo(key, partial(_generate, k, max_prefix, max_loop, allowed, max_traces))
    if not universe.traces:
        warnings.warn("generated universe is empty under the given bounds", stacklevel=2)
    return universe


def _generate(k, max_prefix: int, max_loop: int, allowed: frozenset | None,
              max_traces: int) -> TraceUniverse:
    """`generate_universe`'s enumeration, on arguments it has checked."""
    trans = _live_transitions(k.transitions, allowed, max_loop)
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

    return _indexed(tuple(found), found)
