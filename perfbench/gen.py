"""Seeded random generators owned by the benchmark.

They start from the property-test generators of the repository but live here,
so that editing a test cannot change a workload.  Everything is driven by an
explicit random.Random instance; the same seed gives the same inputs.
"""

from __future__ import annotations

import random

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
    KripkeStructure,
    LassoTrace,
    Might,
    Next,
    Not,
    Once,
    Or,
    Prev,
    Since,
    System,
    TrueConst,
    Until,
    UWould,
    Would,
    subset_similarity,
    universe_of,
)

PROPS = ("p", "q", "s")
AGENTS = ("a", "b")


def gen_letter(r: random.Random, props=PROPS) -> frozenset:
    return frozenset(p for p in props if r.random() < 0.4)


def gen_trace(r: random.Random, props=PROPS, max_prefix=3, max_loop=3) -> LassoTrace:
    prefix = tuple(gen_letter(r, props) for _ in range(r.randint(0, max_prefix)))
    loop = tuple(gen_letter(r, props) for _ in range(r.randint(1, max_loop)))
    return LassoTrace(prefix, loop)


def gen_universe(r: random.Random, props=PROPS, max_traces=6, max_prefix=3, max_loop=3):
    n = r.randint(1, max_traces)
    return universe_of(gen_trace(r, props, max_prefix, max_loop) for _ in range(n))


def gen_system(r: random.Random, props=PROPS, agents=AGENTS) -> System:
    n = r.randint(1, 5)
    states = tuple(f"s{i}" for i in range(n))
    labels = {s: gen_letter(r, props) for s in states}
    transitions = {s: tuple(sorted(r.sample(states, r.randint(1, n)))) for s in states}
    kripke = KripkeStructure(states, states[0], transitions, tuple(props), labels)
    observation = {a: frozenset(p for p in props if r.random() < 0.6) for a in agents}
    similarity = {}
    for a in agents:
        alphabet = tuple(p for p in props if r.random() < 0.7) or (props[0],)
        similarity[a] = subset_similarity(alphabet)
    return System(kripke, tuple(agents), observation, similarity)


def gen_formula(r: random.Random, depth: int, props=PROPS, agents=AGENTS, past=3, know=2, cf=1):
    """Random surface formula of nesting depth <= `depth`.

    `past`, `know` and `cf` are feature budgets along any branch; they keep the
    formula inside the engine's proven stabilization bounds and the
    first-order oracle's quantifier nesting tractable."""

    def leaf():
        roll = r.random()
        if roll < 0.8:
            return Atom(r.choice(props))
        return TrueConst() if roll < 0.9 else FalseConst()

    def go(d, past, know, cf):
        if d <= 0:
            return leaf()
        ops = ["not", "and", "atom", "next", "until", "or", "implies", "iff",
               "eventually", "globally"]
        if past > 0:
            ops += ["prev", "since", "once", "hist"]
        if know > 0:
            ops += ["know", "know"]
        if cf > 0:
            ops += ["would", "uwould", "might", "emight"]
        op = r.choice(ops)
        if op == "atom":
            return leaf()
        if op == "not":
            return Not(go(d - 1, past, know, cf))
        if op == "next":
            return Next(go(d - 1, past, know, cf))
        if op == "prev":
            return Prev(go(d - 1, past - 1, know, cf))
        if op == "eventually":
            return Eventually(go(d - 1, past, know, cf))
        if op == "globally":
            return Globally(go(d - 1, past, know, cf))
        if op == "once":
            return Once(go(d - 1, past - 1, know, cf))
        if op == "hist":
            return Historically(go(d - 1, past - 1, know, cf))
        if op == "know":
            return Know(r.choice(agents), go(d - 1, past, know - 1, cf))
        if op in ("would", "uwould", "might", "emight"):
            # shallow, quantifier-free operands keep the FO oracle tractable
            ante = go(min(d - 1, 2), min(past, 1), 0, 0)
            cons = go(min(d - 1, 2), min(past, 1), 0, 0)
            cls = {"would": Would, "uwould": UWould, "might": Might, "emight": EMight}[op]
            return cls(r.choice(agents), ante, cons)
        left = go(d - 1, past, know, cf)
        right = go(d - 1, past, know, cf)
        return {"and": And, "or": Or, "implies": Implies, "iff": Iff,
                "until": Until, "since": Since}[op](left, right)

    return go(depth, past, know, cf)

