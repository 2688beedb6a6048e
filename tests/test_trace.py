"""Lasso traces: canonical forms, literals, universes, zipping."""

import copy
import pickle
import random
import warnings
from math import lcm

import pytest

from ckltl import (
    KripkeStructure,
    LassoTrace,
    SizeLimitExceeded,
    TraceUniverse,
    format_trace,
    generate_universe,
    obs_divergence_point,
    parse_trace_literal,
    universe_of,
    zip3,
)

from ckltl.trace import _LETTERS

from gen import gen_system, gen_trace, gen_universe

P = frozenset({"p"})
Q = frozenset({"q"})
E = frozenset()


def tr(text):
    return parse_trace_literal(text)


def test_loop_must_be_nonempty():
    with pytest.raises(ValueError):
        LassoTrace((P,), ())


def test_trace_is_an_immutable_value():
    t = LassoTrace((P, Q), (P, Q))
    # equality and hashing go by presentation, not by denoted word
    assert t == LassoTrace((P, Q), (P, Q)) and hash(t) == hash(LassoTrace((P, Q), (P, Q)))
    assert t != LassoTrace((), (P, Q)) and t.canonical() == LassoTrace((), (P, Q)).canonical()
    assert t != (t.prefix, t.loop)
    for field in ("prefix", "loop"):
        with pytest.raises(AttributeError):
            setattr(t, field, ())
        with pytest.raises(AttributeError):
            delattr(t, field)
    assert repr(LassoTrace((P,), (E,))) == (
        "LassoTrace(prefix=(frozenset({'p'}),), loop=(frozenset(),))")
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert twin == t and hash(twin) == hash(t)
        assert twin.canonical() == t.canonical() == LassoTrace((), (P, Q))


def test_canonical_form_is_computed_once():
    t = LassoTrace((P, Q), (P, Q))
    c = t.canonical()
    assert t.canonical() is c and c.canonical() is c
    already = LassoTrace((E,), (P,))
    assert already.canonical() is already and already.canonical() is already


def letters_of(t):
    return t.prefix + t.loop


def is_letter(cell):
    return _LETTERS.get(cell) is cell


def test_equal_cells_are_one_letter():
    # traces built from equal but distinct label sets share the cell objects
    a = LassoTrace((frozenset({"p"}), frozenset()), (frozenset({"p", "q"}),))
    b = LassoTrace((frozenset(), frozenset(["p"])), (frozenset(["q", "p"]),))
    assert a.prefix[0] is b.prefix[1] and a.prefix[1] is b.prefix[0]
    assert a.loop[0] is b.loop[0] and all(map(is_letter, letters_of(a) + letters_of(b)))
    r = random.Random(3)
    cells = [frozenset({"p"}) if r.random() < 0.5 else frozenset() for _ in range(2000)]
    long = LassoTrace(tuple(cells[:-1]), tuple(cells[-1:]))
    assert long.prefix == tuple(cells[:-1])
    assert len({id(c) for c in letters_of(long)}) <= 4


def test_every_construction_route_gives_letters():
    r = random.Random(11)
    for _ in range(50):
        t = gen_trace(r)
        pickled = pickle.loads(pickle.dumps(t))
        for u in (t, t.canonical(), pickled, pickled.canonical(), tr(format_trace(t)),
                  zip3(t, gen_trace(r), t, ("pi", "pi1", "pi2"))):
            assert all(map(is_letter, letters_of(u))), format_trace(u)
    # fresh label sets, never interned before, through the literal parser
    fresh = tr("{letter_test_x} | {letter_test_x,letter_test_y}")
    assert all(map(is_letter, letters_of(fresh)))
    # the universe generator builds from its structure's labels without the
    # constructor's lookups, so those must be letters too
    k = KripkeStructure(("s0", "s1"), "s0", {"s0": ("s0", "s1"), "s1": ("s0", "s1")},
                        ("gen_x",), {"s0": frozenset(), "s1": frozenset({"gen_x"})})
    for t in generate_universe(k, max_prefix=3, max_loop=2):
        assert all(map(is_letter, letters_of(t))), format_trace(t)


def test_label_at():
    t = LassoTrace((P, E), (Q, E))
    assert [t.label_at(i) for i in range(7)] == [P, E, Q, E, Q, E, Q]
    with pytest.raises(IndexError):
        t.label_at(-1)


def test_canonical_minimal_period():
    t = LassoTrace((), (P, Q, P, Q))
    assert t.canonical() == LassoTrace((), (P, Q))


def test_canonical_absorbs_trailing_prefix():
    # {p} ; {q} | {p} ; {q}  denotes the same word as  | {p} ; {q}
    t = LassoTrace((P, Q), (P, Q))
    assert t.canonical() == LassoTrace((), (P, Q))
    # absorption can rotate the loop
    t = LassoTrace((E, P), (Q, P))
    assert t.canonical() == LassoTrace((E,), (P, Q))


def test_same_word_is_presentation_invariant():
    r = random.Random(7)
    for _ in range(200):
        t = gen_trace(r)
        unrolled = LassoTrace(t.prefix + t.loop, t.loop)
        doubled = LassoTrace(t.prefix, t.loop + t.loop)
        assert t.canonical() == unrolled.canonical() == doubled.canonical()
        # and the canonical form denotes the same pointwise labels
        c = t.canonical()
        for i in range(len(t.prefix) + 2 * len(t.loop) + 3):
            assert c.label_at(i) == t.label_at(i)


def test_trace_literal_roundtrip():
    fixed = ["| {}", "{p} | {q}", "{p,q} ; {} | {p} ; {q}", "| {p,q,s}"]
    for text in fixed:
        assert format_trace(tr(text)) == text
    r = random.Random(8)
    for _ in range(200):
        t = gen_trace(r)
        assert tr(format_trace(t)) == t


def test_trace_literal_rejects_garbage():
    for bad in ["{p}", "{p} |", "| p", "{p | {q}", "| {p};{q",
                # a second '|', an empty name, names holding a space or braces
                "{p} | {q} | {r}", "{p,} | {}", "| {,}", "| {p q}", "| {}{}", "{p}{q} | {}"]:
        with pytest.raises(ValueError) as e:
            tr(bad)
        assert repr(bad) in str(e.value), bad


def test_zip3_positional_oracle():
    names = ("pi", "pi1", "pi2")
    r = random.Random(9)
    for _ in range(100):
        t1, t2, t3 = gen_trace(r), gen_trace(r), gen_trace(r)
        z = zip3(t1, t2, t3, names)
        assert len(z.prefix) == max(len(t.prefix) for t in (t1, t2, t3))
        assert len(z.loop) == lcm(*(len(t.loop) for t in (t1, t2, t3)))
        for i in range(len(z.prefix) + 2 * len(z.loop)):
            want = frozenset(
                (p, name)
                for t, name in zip((t1, t2, t3), names)
                for p in t.label_at(i)
            )
            assert z.label_at(i) == want


def test_format_trace_renders_zipped_labels():
    z = zip3(tr("{p} | {}"), tr("| {q}"), tr("{} ; {p,q} | {p}"), ("pi", "pi1", "pi2"))
    assert format_trace(z) == (
        "{p@pi,q@pi1} ; {p@pi2,q@pi1,q@pi2} | {p@pi2,q@pi1}"
    )


def test_universe_rejects_duplicates_and_preserves_order():
    t1, t2 = tr("| {p}"), tr("| {q}")
    with pytest.raises(ValueError):
        TraceUniverse((t1, tr("{p} | {p}")))
    u = universe_of([t2, t1, tr("{q} | {q}")])  # third is t2 again
    assert u.traces == (t2.canonical(), t1.canonical())
    assert u.index(tr("{q};{q} | {q}")) == 0
    assert tr("| {p,q}") not in u


def test_universe_index_by_canonical_form():
    r = random.Random(11)
    u = gen_universe(r)
    for k, t in enumerate(u.traces):
        assert u.index(t) == k and t in u
        # an equal object, and another presentation of the same word
        copy = LassoTrace(t.prefix, t.loop)
        unrolled = LassoTrace(t.prefix + t.loop, t.loop + t.loop)
        assert u.index(copy) == u.index(unrolled) == k
    unknown = LassoTrace((), (frozenset({"never-seen"}),))
    assert unknown not in u
    with pytest.raises(KeyError):
        u.index(unknown)
    # the index is derived state: equal universes compare and hash equal
    same = TraceUniverse(u.traces)
    assert same == u and hash(same) == hash(u)
    assert same != TraceUniverse(u.traces[:-1])


def test_obs_divergence_point_matches_brute_scan():
    r = random.Random(10)
    for _ in range(150):
        s = gen_system(r)
        agent = r.choice(s.agents)
        u = gen_universe(r)
        t1, t2 = r.choice(u.traces), r.choice(u.traces)
        got = obs_divergence_point(s, agent, t1, t2)
        obs = s.observation_of(agent)
        horizon = (
            max(len(t1.prefix), len(t2.prefix))
            + 2 * lcm(len(t1.loop), len(t2.loop))
        )
        brute = next(
            (
                j
                for j in range(horizon)
                if (t1.label_at(j) & obs) != (t2.label_at(j) & obs)
            ),
            None,
        )
        assert got == brute


def two_state_kripke():
    return KripkeStructure(
        states=("s0", "s1"),
        initial="s0",
        transitions={"s0": ("s0", "s1"), "s1": ("s0",)},
        aps=("p",),
        labels={"s0": frozenset(), "s1": frozenset({"p"})},
    )


def test_generate_universe_enumerates_exactly():
    k = two_state_kripke()
    u = generate_universe(k, max_prefix=1, max_loop=2)
    words = {format_trace(t) for t in u}
    # hand enumeration of initial lassos with |prefix|<=1, |loop|<=2,
    # up to denoted word:
    #   loop (s0)               -> | {}        (also reached via prefix s0)
    #   loop (s0 s1)            -> | {} ; {p}
    #   prefix s0, loop (s0 s1) -> {} | {} ; {p}
    #   prefix s0, loop (s1 s0) -> same word as | {} ; {p} (prefix absorbed)
    # a loop (s1) is impossible: s1 has no self edge
    assert words == {"| {}", "| {} ; {p}", "{} | {} ; {p}"}


def test_generate_universe_loop_states():
    k = two_state_kripke()
    u = generate_universe(k, max_prefix=2, max_loop=2, loop_states=("s0",))
    assert all(set(t.loop) <= {frozenset()} for t in u)
    with pytest.raises(ValueError):
        generate_universe(k, max_prefix=1, max_loop=1, loop_states=("zz",))


def test_generate_universe_size_cap_and_empty_warning():
    k = two_state_kripke()
    with pytest.raises(SizeLimitExceeded):
        generate_universe(k, max_prefix=3, max_loop=3, max_traces=2)
    with pytest.warns(UserWarning):
        u = generate_universe(k, max_prefix=0, max_loop=1, loop_states=("s1",))
    assert len(u) == 0


def test_generate_universe_refuses_a_cap_below_one():
    k = two_state_kripke()
    for cap in (0, -1):
        with pytest.raises(ValueError, match="max_traces"):
            generate_universe(k, max_prefix=1, max_loop=1, max_traces=cap)


# ---------------------------------------------------------------------------
# generate_universe against a brute-force reference enumerator
# ---------------------------------------------------------------------------


def reference_universe(k, max_prefix, max_loop, loop_states=None):
    """Every initial lasso state path, in the generator's documented order
    (prefix paths depth-first, each before its extensions; after a prefix,
    loops by length, then first state, then depth-first), canonicalized and
    deduplicated in that order."""
    ok = lambda s: loop_states is None or s in loop_states
    trans = k.transitions

    def successors(path):
        return trans[path[-1]] if path else (k.initial,)

    def prefix_paths(path):
        yield path
        if len(path) < max_prefix:
            for s in successors(path):
                yield from prefix_paths(path + (s,))

    def walks(path, length):
        if len(path) == length:
            yield path
            return
        for s in trans[path[-1]]:
            if ok(s):
                yield from walks(path + (s,), length)

    out = {}
    for prefix in prefix_paths(()):
        for length in range(1, max_loop + 1):
            for first in filter(ok, successors(prefix)):
                for loop in walks((first,), length):
                    if loop[0] in trans[loop[-1]]:
                        t = LassoTrace(tuple(k.labels[s] for s in prefix),
                                       tuple(k.labels[s] for s in loop))
                        out.setdefault(t.canonical(), None)
    return list(out)


def test_generate_universe_matches_reference_enumerator():
    r = random.Random(14)
    for case in range(300):
        k = gen_system(r).kripke
        max_prefix, max_loop = r.randint(0, 3), r.randint(1, 3)
        loop_states = None
        if r.random() < 0.5:
            loop_states = tuple(s for s in k.states if r.random() < 0.6)
        want = reference_universe(k, max_prefix, max_loop, loop_states)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty universes
            u = generate_universe(k, max_prefix, max_loop, loop_states=loop_states,
                                  max_traces=max(len(want), 1))  # a cap below 1 is refused
        assert list(u.traces) == want, case
        assert all(t.canonical() is t for t in u)
        assert all(u.index(t) == i for i, t in enumerate(want))
        if len(want) > 1:
            with pytest.raises(SizeLimitExceeded):
                generate_universe(k, max_prefix, max_loop, loop_states=loop_states,
                                  max_traces=len(want) - 1)
