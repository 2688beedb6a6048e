"""Seeded random generators shared by the property tests.

Everything is driven by an explicit random.Random instance so failures
reproduce from the seed printed by the calling test.  Feature budgets keep
generated formulas inside the engine's proven stabilization bounds (each
nested past operator needs one more loop unrolling) and keep the first-order
oracle's quantifier nesting tractable.
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
    return universe_of(
        gen_trace(r, props, max_prefix, max_loop) for _ in range(n)
    )


def gen_system(r: random.Random, props=PROPS, agents=AGENTS) -> System:
    n = r.randint(1, 5)
    states = tuple(f"s{i}" for i in range(n))
    labels = {s: gen_letter(r, props) for s in states}
    transitions = {
        s: tuple(sorted(r.sample(states, r.randint(1, n)))) for s in states
    }
    kripke = KripkeStructure(states, states[0], transitions, tuple(props), labels)
    observation = {
        a: frozenset(p for p in props if r.random() < 0.6) for a in agents
    }
    similarity = {}
    for a in agents:
        alphabet = tuple(p for p in props if r.random() < 0.7) or (props[0],)
        similarity[a] = subset_similarity(alphabet)
    return System(kripke, tuple(agents), observation, similarity)


def gen_formula(
    r: random.Random,
    depth: int,
    props=PROPS,
    agents=AGENTS,
    past=3,
    know=2,
    cf=1,
    surface=True,
    future=True,
):
    """Random formula of nesting depth <= `depth`.

    `past`, `know` and `cf` are remaining-feature budgets along any branch;
    `surface=False` restricts to core constructors.  `future=False` keeps the
    formula insensitive to everything right of the evaluation position: no
    forward temporal operators and no counterfactuals (similarity templates
    contain G)."""
    if not future:
        cf = 0

    def leaf():
        roll = r.random()
        if roll < 0.8:
            return Atom(r.choice(props))
        return TrueConst() if roll < 0.9 else FalseConst()

    def go(d, past, know, cf):
        if d <= 0:
            return leaf()
        ops = ["not", "and", "atom"]
        if future:
            ops += ["next", "until"]
        if surface:
            ops += ["or", "implies", "iff"]
            if future:
                ops += ["eventually", "globally"]
        if past > 0:
            ops += ["prev", "since"]
            if surface:
                ops += ["once", "hist"]
        if know > 0:
            ops += ["know", "know"]
        if cf > 0:
            ops += ["would", "uwould"]
            if surface:
                ops += ["might", "emight"]
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
            # keep counterfactual operands shallow and quantifier-free so the
            # first-order oracle stays tractable
            ante = go(min(d - 1, 2), min(past, 1), 0, 0)
            cons = go(min(d - 1, 2), min(past, 1), 0, 0)
            cls = {"would": Would, "uwould": UWould, "might": Might, "emight": EMight}[op]
            return cls(r.choice(agents), ante, cons)
        left = go(d - 1, past, know, cf)
        right = go(d - 1, past, know, cf)
        if op == "and":
            return And(left, right)
        if op == "or":
            return Or(left, right)
        if op == "implies":
            return Implies(left, right)
        if op == "iff":
            return Iff(left, right)
        if op == "until":
            return Until(left, right)
        return Since(left, right)

    return go(depth, past, know, cf)


def gen_temporal(r: random.Random, depth: int, props=PROPS, past=3):
    """Knowledge- and counterfactual-free formula (plain temporal logic)."""
    return gen_formula(r, depth, props, (), past=past, know=0, cf=0)
