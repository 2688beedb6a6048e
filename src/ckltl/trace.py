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
from math import lcm
from typing import Iterable, Iterator


class SizeLimitExceeded(RuntimeError):
    """Universe generation hit the configured trace-count cap."""


class NotAPathOfModel(ValueError):
    """A user-supplied trace is not realizable as an initial path."""


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
            loop = _minimal_period(self.loop)
            prefix = list(self.prefix)
            while prefix and prefix[-1] == loop[-1]:
                loop = (loop[-1],) + loop[:-1]
                prefix.pop()
            if len(loop) == len(self.loop) and len(prefix) == len(self.prefix):
                c = True
            else:
                c = _lasso(tuple(prefix), loop, True)
            _set_canon(self, c)
        return self if c is True else c

    def same_word(self, other: "LassoTrace") -> bool:
        return self.canonical() == other.canonical()


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
    proposition sets in braces, `;` between cells, `|` before the loop)."""
    if "|" not in text:
        raise ValueError(f"trace literal needs a '|' before the loop: {text!r}")
    pre_text, loop_text = text.split("|", 1)
    prefix = tuple(_parse_cells(pre_text))
    loop = tuple(_parse_cells(loop_text))
    if not loop:
        raise ValueError(f"trace literal has an empty loop: {text!r}")
    return LassoTrace(prefix, loop)


def _parse_cells(text: str) -> list[frozenset]:
    cells = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("{") and chunk.endswith("}")):
            raise ValueError(f"malformed trace cell: {chunk!r}")
        inner = chunk[1:-1].strip()
        if inner:
            cells.append(frozenset(p.strip() for p in inner.split(",")))
        else:
            cells.append(frozenset())
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
    `{(p, names[k]) | p in tk[i]}`.

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
    max-prefix + lcm-of-loops repeat earlier ones."""
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
    """Finite ordered set of distinct lasso traces with provenance."""

    traces: tuple[LassoTrace, ...]
    origins: tuple[str, ...] = field(default=())  # 'model' or 'user', per trace
    provenance: str = "user"
    # canonical trace -> position; derived from `traces`, so left out of
    # equality and hashing
    _index: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.origins:
            object.__setattr__(self, "origins", tuple("user" for _ in self.traces))
        if len(self.origins) != len(self.traces):
            raise ValueError("origins must align with traces")
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


def _indexed(traces: tuple[LassoTrace, ...], index: dict, origins: tuple[str, ...],
             provenance: str) -> TraceUniverse:
    """Universe over `traces`, distinct words whose canonical forms `index`
    maps to their positions, keeping `index` as its own: the constructor
    without its pass over the traces."""
    u = object.__new__(TraceUniverse)
    u.__dict__.update(traces=traces, origins=origins, provenance=provenance, _index=index)
    return u


def universe_of(traces: Iterable[LassoTrace], provenance: str = "user") -> TraceUniverse:
    """Universe from explicit traces (canonicalized, order-preserving dedup)."""
    index: dict[LassoTrace, int] = {}
    for t in traces:
        index.setdefault(t.canonical(), len(index))
    return _indexed(tuple(index), index, ("user",) * len(index), provenance)


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
    `loop_states` is given, every loop state must belong to it.  Raises
    :class:`SizeLimitExceeded` when more than `max_traces` distinct traces
    would be produced; warns when the result is empty.
    """
    k = getattr(system_or_kripke, "kripke", system_or_kripke)
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
    note = (
        f"generated(max_prefix={max_prefix}, max_loop={max_loop}"
        + (f", loop_states={sorted(allowed)}" if allowed is not None else "")
        + ")"
    )
    return _indexed(tuple(found), found, ("model",) * len(found), note)


def is_model_trace(kripke, trace: LassoTrace) -> bool:
    """True iff the denoted word is the label sequence of some initial path.

    Product construction: pair the structure with the word's position automaton
    (prefix positions, then loop positions cycling) and ask whether an infinite
    path exists from the start, i.e. whether the start can reach a cycle in the
    reachable, label-consistent product graph.
    """
    t = trace.canonical()
    p, l = len(t.prefix), len(t.loop)

    def letter(pos: int) -> frozenset:
        return t.prefix[pos] if pos < p else t.loop[(pos - p) % l]

    def next_pos(pos: int) -> int:
        n = pos + 1
        if n < p + l:
            return n
        return p + ((n - p) % l)

    start = (kripke.initial, 0)
    if kripke.labels[kripke.initial] != letter(0):
        return False
    # forward reachability, recording each reachable node's number of
    # successors and its predecessors
    preds = {start: []}
    succ_count = {}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        s, pos = node
        np = next_pos(pos)
        want = letter(np)
        succs = [(s2, np) for s2 in kripke.transitions[s] if kripke.labels[s2] == want]
        succ_count[node] = len(succs)
        for nxt in succs:
            if nxt not in preds:
                preds[nxt] = []
                frontier.append(nxt)
            preds[nxt].append(node)
    # trim dead ends: a node dies once all its successors have died; each
    # edge is looked at once, so the trimming is linear in the graph
    dead = [node for node, n in succ_count.items() if n == 0]
    while dead:
        node = dead.pop()
        if node == start:
            return False
        for pred in preds[node]:
            succ_count[pred] -= 1
            if succ_count[pred] == 0:
                dead.append(pred)
    return True


def add_trace(universe: TraceUniverse, trace: LassoTrace, system=None) -> TraceUniverse:
    """Universe with `trace` appended (no-op if the word is already present).

    When `system` is given, the trace must be realizable as an initial path of
    its structure; otherwise :class:`NotAPathOfModel` is raised.
    """
    if system is not None:
        k = getattr(system, "kripke", system)
        if not is_model_trace(k, trace):
            raise NotAPathOfModel(
                f"not an initial path of the model: {format_trace(trace)}"
            )
    c = trace.canonical()
    if c in universe:
        return universe
    index = dict(universe._index)
    index[c] = len(universe)
    origin = "user" if system is None else "model"
    return _indexed(universe.traces + (c,), index, universe.origins + (origin,),
                    universe.provenance)
