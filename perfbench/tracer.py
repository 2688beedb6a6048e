"""In-memory span tracer that wraps the public entry points of `ckltl`.

Spans are aggregated by (name, parent name) with a count, inclusive time and
self time; nothing is written until the run ends.  Wrappers are installed by
rebinding module attributes (and two `EvalContext` methods) at run time and
return the wrapped results unchanged; nothing under `src/` is edited.

`EvalContext.value` is recorded per node type as `semantics.op.<kind>`, so
its self time splits the evaluator's work by operator.  Each wrapper adds one
Python frame, so a recursion that passes through `value` reaches the
interpreter's recursion limit at about two thirds of the depth it reaches
untraced.
"""

from __future__ import annotations

import sys
from time import perf_counter

import ckltl
import ckltl.formula as F
import ckltl.semantics as semantics

OP_KIND = {}
for _kind, _types in (
    ("atom", (F.Atom, F.TracedAtom, F.TrueConst, F.FalseConst)),
    ("bool", (F.Not, F.And, F.Or, F.Implies, F.Iff)),
    ("future", (F.Next, F.Until, F.Eventually, F.Globally)),
    ("past", (F.Prev, F.Since, F.Once, F.Historically)),
    ("K", (F.Know,)),
    ("CF", (F.Would, F.Might, F.UWould, F.EMight)),
):
    for _t in _types:
        OP_KIND[_t] = f"semantics.op.{_kind}"
OP_KINDS = ("atom", "bool", "future", "past", "K", "CF")

# (span name, defining module, function name); a function that calls itself
# through its module global keeps the unwrapped binding in its own module,
# so only calls from other layers are spans.
FUNCTIONS = (
    ("formula.parse", "ckltl.formula", "parse"),
    ("formula.to_source", "ckltl.formula", "to_source"),
    ("formula.desugar", "ckltl.formula", "desugar"),
    ("specs.build", "ckltl.specs", "build_ice"),
    ("specs.build", "ckltl.specs", "build_wce"),
    ("specs.build", "ckltl.specs", "build_gce"),
    ("specs.build", "ckltl.specs", "build_ece"),
    ("specs.build", "ckltl.specs", "position_variant"),
    ("model.load_system", "ckltl.model", "load_system"),
    ("trace.generate_universe", "ckltl.trace", "generate_universe"),
    ("trace.zip3", "ckltl.trace", "zip3"),
    ("trace.obs_divergence", "ckltl.trace", "obs_divergence_point"),
    ("semantics.check_system", "ckltl.semantics", "check_system"),
    ("semantics.explain", "ckltl.semantics", "explain"),
    ("foe.translate", "ckltl.foe", "translate_at"),
    ("foe.eval_fo", "ckltl.foe", "eval_fo"),
)
SELF_RECURSIVE = {"desugar"}


class Tracer:
    def __init__(self):
        self.stack = [["root", 0.0]]  # [name, time covered by child spans]
        self.spans: dict[tuple[str, str], list] = {}  # -> [count, incl, self]
        self.active: dict[str, int] = {}
        self.outer: dict[str, float] = {}  # inclusive time, outermost spans only
        self.value_nodes: dict[int, object] = {}  # pinned, so ids stay unique
        self.sim_keys: set = set()
        self.pinned: dict[int, object] = {}
        self.fo_nodes = 0
        self._undo: list = []

    # -- spans --------------------------------------------------------------

    def _close(self, name, frame, parent, dt):
        parent[1] += dt
        key = (name, parent[0])
        s = self.spans.get(key)
        if s is None:
            s = self.spans[key] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dt
        s[2] += dt - frame[1]

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span (used for the benchmark's own check and
        setup spans, and by the function wrappers)."""
        stack, active = self.stack, self.active
        parent = stack[-1]
        frame = [name, 0.0]
        stack.append(frame)
        active[name] = active.get(name, 0) + 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            active[name] -= 1
            if not active[name]:
                self.outer[name] = self.outer.get(name, 0.0) + dt
            self._close(name, frame, parent, dt)

    def _function_wrapper(self, name, fn):
        span = self.span
        if name == "foe.translate":
            def wrapper(*args, **kwargs):
                out = span(name, fn, *args, **kwargs)
                self.fo_nodes += ckltl.foe.fo_node_count(out)
                return out
        else:
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # The two hot wrappers below inline `span` and `_close`: they run once
    # per evaluator call, millions of times per pass.

    def _value_wrapper(self, fn):
        stack, spans, nodes = self.stack, self.spans, self.value_nodes

        def value(ctx, t, f, i):
            name = OP_KIND.get(type(f), "semantics.op.other")
            nodes[id(f)] = f
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(ctx, t, f, i)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[1] += dt
                s = spans.get((name, parent[0]))
                if s is None:
                    s = spans[(name, parent[0])] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]

        value.__wrapped__ = fn
        return value

    def _similarity_wrapper(self, fn):
        stack, spans, outer = self.stack, self.spans, self.outer
        keys, pinned = self.sim_keys, self.pinned
        name = "semantics.similarity"  # never nests in itself

        def similarity_holds(ctx, agent, t_ref, t1, t2, i):
            pinned[id(ctx)] = ctx
            keys.add((id(ctx), agent, id(t_ref), id(t1), id(t2), i))
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(ctx, agent, t_ref, t1, t2, i)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[1] += dt
                outer[name] = outer.get(name, 0.0) + dt
                s = spans.get((name, parent[0]))
                if s is None:
                    s = spans[(name, parent[0])] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]

        similarity_holds.__wrapped__ = fn
        return similarity_holds

    # -- installation ----------------------------------------------------------

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "ckltl" or k.startswith("ckltl."))]
        for name, modname, attr in FUNCTIONS:
            home = sys.modules[modname]
            orig = getattr(home, attr)
            wrapper = self._function_wrapper(name, orig)
            for m in modules:
                if m is home and attr in SELF_RECURSIVE:
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._rebind(m, key, wrapper)
        cls = semantics.EvalContext
        self._rebind(cls, "value", self._value_wrapper(cls.value))
        self._rebind(cls, "similarity_holds", self._similarity_wrapper(cls.similarity_holds))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        self.pinned.clear()

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit)."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, _parent), (n, _incl, own) in self.spans.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own

        def incl(name):
            return (self.outer.get(name, 0.0), "s")

        out = {
            "formula.parse_s": incl("formula.parse"),
            "formula.to_source_s": incl("formula.to_source"),
            "formula.desugar_s": incl("formula.desugar"),
            "specs.build_s": incl("specs.build"),
            "model.load_system_s": incl("model.load_system"),
            "trace.generate_universe_s": incl("trace.generate_universe"),
            "trace.zip3_calls": (calls.get("trace.zip3", 0), "count"),
            "trace.zip3_s": incl("trace.zip3"),
            "trace.obs_divergence_calls": (calls.get("trace.obs_divergence", 0), "count"),
            "trace.obs_divergence_s": incl("trace.obs_divergence"),
            "semantics.check_system_s": incl("semantics.check_system"),
            "semantics.explain_s": incl("semantics.explain"),
        }
        value_calls = sum(calls.get(f"semantics.op.{k}", 0) for k in OP_KINDS)
        value_calls += calls.get("semantics.op.other", 0)
        queries = calls.get("semantics.similarity", 0)
        out.update({
            "semantics.value_calls": (value_calls, "count"),
            "semantics.value_nodes": (len(self.value_nodes), "count"),
            "semantics.similarity_queries": (queries, "count"),
            "semantics.similarity_distinct": (len(self.sim_keys), "count"),
            # distinct / queries; the base is semantics.similarity_queries
            "semantics.similarity_reuse": (
                len(self.sim_keys) / queries if queries else 0.0, "ratio"),
            "semantics.similarity_s": incl("semantics.similarity"),
        })
        for k in OP_KINDS:
            name = f"semantics.op.{k}"
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        out.update({
            "foe.translate_s": incl("foe.translate"),
            "foe.fo_nodes": (self.fo_nodes, "count"),
            "foe.eval_fo_s": incl("foe.eval_fo"),
        })
        return out

    def span_table(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "count": n,
             "inclusive_s": incl, "self_s": own}
            for (name, parent), (n, incl, own) in sorted(self.spans.items())
        ]
