"""Pinned verdicts: a change that claims to keep verdicts byte-identical is
held to these digests.

The seeded part draws `tests/gen.py` instances, each with a stabilization cap
and a bound, and checks the formula in an exact and a bounded context.  One
sha256 takes every verdict's result and counterexamples and every
`StabilizationCapExceeded` message; a second takes the explain trails, which
may change by design where the first may not.  Relations take both routes:
the all-positions shape (subset similarity, and a body with `|` and `false`)
and relations off that shape.  Work counters other than `values` are not
pinned: a change to the engine's bookkeeping may move them.
"""

import json
import random
from hashlib import sha256

from ckltl import (
    EvalContext,
    RelationalFormula,
    StabilizationCapExceeded,
    System,
    build_ece,
    build_gce,
    build_ice,
    build_wce,
    check_system,
    explain,
    generate_universe,
    parse,
    position_variant,
)
from ckltl.hiring import START, build_restricted, hiring_vocabulary

from gen import gen_formula, gen_system, gen_universe
from test_semantics import OTHER_SHAPES

BODY = "((p@pi1 | false) -> (p@pi2 | q@pi))"
ON_SHAPE = f"G {BODY} & H {BODY}"
OFF_SHAPES = OTHER_SHAPES + ["G (p@pi1 | false -> p@pi2) & H (q@pi1 -> q@pi2 | false)"]


def draw(i):
    """Instance i: a system whose relations are subset similarity (i % 3 ==
    0), the all-positions `ON_SHAPE` (1) or one of `OFF_SHAPES` per agent
    (2), the second agent's over other parameter names; a universe, a
    formula, a cap, a bound and one (trace, position) to explain."""
    r = random.Random(i)
    s = gen_system(r)
    if i % 3:
        rels = {a: RelationalFormula((v, v + "1", v + "2"), parse(
                    (ON_SHAPE if i % 3 == 1 else r.choice(OFF_SHAPES)).replace("pi", v)))
                for a, v in zip(s.agents, ("pi", "rho"))}
        s = System(s.kripke, s.agents, s.observation, rels)
    u = gen_universe(r)
    f = gen_formula(r, depth=r.randint(1, 5))
    cap, n = r.choice((2, 8, 64)), r.randint(0, 6)
    return s, u, f, cap, n, r.choice(u.traces), r.randint(0, n)


def digests(count):
    """(verdict digest, trail digest, number of cap errors) over instances
    0..count-1, exact context first."""
    verdicts, trails, caps = sha256(), sha256(), 0
    for i in range(count):
        s, u, f, cap, n, t, j = draw(i)
        for ctx in (EvalContext.exact(s, u, cap), EvalContext.bounded(s, u, n)):
            try:
                v = check_system(ctx, f)
                trail = explain(ctx, t, j, f)
            except StabilizationCapExceeded as e:
                verdicts.update(f"{i} cap {e}\n".encode())
                caps += 1
                continue
            verdicts.update(f"{i} {json.dumps([v.result, v.counterexamples])}\n".encode())
            trails.update(json.dumps([[e.to_dict() for e in v.trail],
                                      [e.to_dict() for e in trail]]).encode() + b"\n")
    return verdicts.hexdigest(), trails.hexdigest(), caps


def test_seeded_verdicts_are_pinned():
    assert digests(1500) == (
        "458d769559ba6a908c1db96792a611f9876c4649d819b560796f7d34fa320ada",
        "3c06bd33fd7c960d202a60f29e1cf9a320ef8a1c8d317dcb5da61afc8ab15508",
        14,
    )


def test_hiring_checks_on_625_traces_are_pinned():
    # fresh context per check; the digest is that of the verdict's JSON with
    # sorted keys, `values` the number of values the check computed
    s = build_restricted()
    u = generate_universe(s, max_prefix=3, max_loop=1, loop_states=(START,))
    assert len(u) == 625
    vocab = hiring_vocabulary()
    ice = build_ice(vocab, "a")
    got = {}
    for name, f in (("ICE@1", position_variant(ice, 1)), ("ICE@2", position_variant(ice, 2)),
                    ("WCE", build_wce(vocab, "a")), ("GCE", build_gce(vocab, "a", "a")),
                    ("ECE", build_ece(vocab, "a", "r"))):
        ctx = EvalContext.exact(s, u)
        v = check_system(ctx, f)
        got[name] = (sha256(json.dumps(v.to_dict(), sort_keys=True).encode()).hexdigest(),
                     ctx.stats()["values"])
    assert got == {
        "ICE@1": ("b2f5127a1f64806a91022298dc59404fff56ac842ef523c4e54e0dd62935e8ad", 68085),
        "ICE@2": ("a100ed5ff85c24f48f59ab595cb867d030e2f04d4d03d42a5c815ab2a5b49535", 80950),
        "WCE": ("c6c13e7b44ead303796d3b6a6fe2b86406796f5af2b48f188e8e3d0e25f11b6b", 103753),
        "GCE": ("46da06cfc7a0de18f4f8f39f5870a4b0ba773ed455a3315594557ecf70b5e1a7", 705361),
        "ECE": ("ab63f62bf873ef3516f246912c4d13ef08f50fe88bc9649b66761872999c7c16", 167581),
    }
