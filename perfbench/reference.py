"""A second, textbook evaluator used to cross-validate recorded verdicts.

It shares no code with the engine: each operator is its quantifier pattern
over the window [0, n], relational formulas read trace variables from an
environment instead of zipped traces, observation equivalence is recomputed
from labels, and each counterfactual is written out on its own.  Results are
memoized per (trace, formula, position, environment), which is the only thing
that makes it fast enough for a 150-trace universe.

Exact lasso semantics and the window agree when every trace of the universe
is constant from position `settled` on and the window reaches past it; see
`window_for`.
"""

from __future__ import annotations

from ckltl import (
    And,
    Atom,
    EMight,
    Eventually,
    FalseConst,
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
)


def window_for(universe, depth_of_next: int = 1) -> int:
    """A window on which the bounded reading equals the exact one for
    formulas evaluated at positions <= depth_of_next: every trace must end in
    a one-letter loop, so each trace (and each zip of traces) is constant from
    its longest prefix on."""
    if any(len(t.loop) != 1 for t in universe):
        raise ValueError("reference window needs one-letter loops")
    settled = max(len(t.prefix) for t in universe)
    return settled + depth_of_next + 1


class Reference:
    def __init__(self, system, universe, n: int):
        self.system = system
        self.traces = tuple(universe)
        self.n = n
        self.memo: dict = {}
        self.pins: list = []  # formulas whose ids key the memo

    def holds(self, t, f, i: int) -> bool:
        self.pins.append(f)
        return self.ev(t, f, i, ())

    def _obs_eq(self, agent, t1, t2, i):
        obs = self.system.observation_of(agent)
        return all((t1.label_at(j) & obs) == (t2.label_at(j) & obs) for j in range(i + 1))

    def _sim(self, agent, ref, t1, t2, i):
        rf = self.system.similarity_of(agent)
        env = tuple(zip(rf.params, (ref, t1, t2)))
        return self.ev(ref, rf.formula, i, env)

    def ev(self, t, f, i, env) -> bool:
        key = (id(t), id(f), i, tuple((v, id(x)) for v, x in env))
        got = self.memo.get(key)
        if got is None:
            got = self._ev(t, f, i, env)
            self.memo[key] = got
        return got

    def _ev(self, t, f, i, env) -> bool:
        ev, n = self.ev, self.n
        if isinstance(f, Atom):
            return f.name in t.label_at(i)
        if isinstance(f, TracedAtom):
            return f.name in dict(env)[f.trace_var].label_at(i)
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
            return any(ev(t, f.right, k, env)
                       and all(ev(t, f.left, j, env) for j in range(i, k))
                       for k in range(i, n + 1))
        if isinstance(f, Since):
            return any(ev(t, f.right, k, env)
                       and all(ev(t, f.left, j, env) for j in range(k + 1, i + 1))
                       for k in range(0, i + 1))
        if isinstance(f, Eventually):
            return any(ev(t, f.child, k, env) for k in range(i, n + 1))
        if isinstance(f, Globally):
            return all(ev(t, f.child, k, env) for k in range(i, n + 1))
        if isinstance(f, Once):
            return any(ev(t, f.child, k, env) for k in range(0, i + 1))
        if isinstance(f, Historically):
            return all(ev(t, f.child, k, env) for k in range(0, i + 1))
        if isinstance(f, Know):
            return all(ev(t2, f.child, i, env) for t2 in self.traces
                       if self._obs_eq(f.agent, t, t2, i))
        if isinstance(f, (Would, Might, UWould, EMight)):
            return self._cf(t, f, i, env)
        raise TypeError(f"reference evaluator got {f!r}")

    def _cf(self, t, f, i, env) -> bool:
        a, ev, sim = f.agent, self.ev, self._sim
        traces = self.traces
        ante_holds = [x for x in traces if ev(x, f.ante, i, env)]
        acc = [x for x in ante_holds if sim(a, t, t, x, i)]
        if isinstance(f, Would):
            return not acc or any(
                all(ev(y, f.cons, i, env) for y in ante_holds if sim(a, t, y, x, i))
                for x in acc)
        if isinstance(f, Might):  # not (ante Would not-cons)
            return bool(acc) and all(
                any(ev(y, f.cons, i, env) for y in ante_holds if sim(a, t, y, x, i))
                for x in acc)
        if isinstance(f, UWould):
            return all(
                any(sim(a, t, e, x, i)
                    and all(ev(y, f.cons, i, env) for y in ante_holds if sim(a, t, y, e, i))
                    for e in ante_holds)
                for x in acc)
        # EMight: not (ante UWould not-cons)
        return bool(acc) and any(
            all(any(ev(y, f.cons, i, env) for y in ante_holds if sim(a, t, y, e, i))
                for e in ante_holds if sim(a, t, e, x, i))
            for x in acc)
