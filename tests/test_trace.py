"""Lasso traces: canonical forms, literals, universes, zipping."""

import copy
import gc
import itertools
import pickle
import random
import time
import warnings
from math import lcm
from pathlib import Path

import pytest

from ckltl import (
    KripkeStructure,
    LassoTrace,
    SizeLimitExceeded,
    TraceUniverse,
    format_trace,
    generate_universe,
    load_system,
    parse_trace_literal,
    universe_of,
)

from ckltl import formula, trace
from ckltl.trace import _LETTERS, obs_divergence_point, zip3

from gen import gen_system, gen_trace, gen_universe
from oracle import canonical_reference, generate_universe_reference

P = frozenset({"p"})
Q = frozenset({"q"})
E = frozenset()


def tr(text):
    return parse_trace_literal(text)


def test_canonical_matches_the_general_algorithm():
    # absorbing cells by index gives the rotate-and-pop result, and a trace
    # is its own canonical form exactly when its presentation is
    r = random.Random(3131)
    traces = [gen_trace(r, max_prefix=4, max_loop=r.choice((1, 1, 3))) for _ in range(2000)]
    for _ in range(1000):  # repeated loops after prefixes that end in loop copies
        loop = gen_trace(r, max_prefix=0, max_loop=4).loop * r.randint(1, 2)
        tail = (loop * 3)[r.randint(0, 3 * len(loop)):]
        traces.append(LassoTrace(gen_trace(r, max_prefix=2).prefix + tail, loop))
    traces += [tr(text) for text in ("{p} | {p}", "| {p}", "{q} | {p}", "{p} ; {q} | {q}",
                                     "{p} ; {q} | {p} ; {q}", "{} ; {} | {}")]
    traces += [LassoTrace((P, Q) * 1000, (P,)), LassoTrace((Q,) + (P,) * 1999, (P,))]
    zipped = frozenset({("p", "pi"), ("q", "pi1")})
    traces += [LassoTrace((zipped,), (zipped,)), LassoTrace((frozenset(),), (zipped,))]
    for t in traces:
        want = canonical_reference(t)
        c = t.canonical()
        assert c == want and (c is t) == (want == t) and c.canonical() is c
        assert t.canonical() is c


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


def test_generate_universe_refuses_negative_bounds():
    k = two_state_kripke()
    for max_prefix, max_loop in ((-1, 1), (1, 0)):
        with pytest.raises(ValueError, match="^need max_prefix >= 0 and max_loop >= 1$"):
            generate_universe(k, max_prefix, max_loop)


@pytest.mark.parametrize("arg", ["max_prefix", "max_loop", "max_traces"])
def test_generate_universe_refuses_counts_that_are_not_ints(arg):
    # max_prefix 1.5 enumerated prefixes of length 2; a float max_loop
    # raised a TypeError
    k = two_state_kripke()
    for bad in (1.5, True, "1"):
        with pytest.raises(ValueError) as e:
            generate_universe(k, **{"max_prefix": 1, "max_loop": 1, arg: bad})
        assert str(e.value) == f"{arg} must be an int, got {bad!r}"


def test_generate_universe_refuses_a_cap_below_one():
    k = two_state_kripke()
    for cap in (0, -1):
        with pytest.raises(ValueError, match="max_traces"):
            generate_universe(k, max_prefix=1, max_loop=1, max_traces=cap)


def test_generate_universe_refuses_a_string_of_loop_states():
    # "s0" was iterated: "loop_states not in the model: ['0', 's']"
    with pytest.raises(ValueError, match="^loop_states must be a collection of state names, "
                                         "got 's0'$"):
        generate_universe(two_state_kripke(), max_prefix=1, max_loop=1, loop_states="s0")


# ---------------------------------------------------------------------------
# one universe per structure and bounds, while it lives
# ---------------------------------------------------------------------------

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def universe_keys():
    return [key for key in formula._TABLE if key[0] is trace._generate]


def test_equal_structures_share_their_universe():
    # two files, one structure: the variants differ in observations only
    explainable = load_system(FIXTURES / "explainable.json")
    frozen = load_system(FIXTURES / "gender_frozen.json")
    assert explainable.kripke == frozen.kripke and explainable is not frozen
    bounds = {"max_prefix": 2, "max_loop": 1, "loop_states": ("s0",)}
    u = generate_universe(explainable, **bounds)
    assert generate_universe(frozen, **bounds) is u
    assert generate_universe(frozen.kripke, **{**bounds, "loop_states": ["s0"]}) is u
    k = frozen.kripke  # labels given in another order, and one left out
    labels = dict(reversed(k.labels.items()))
    del labels["s0"]
    relabeled = KripkeStructure(k.states, k.initial, k.transitions, k.aps, labels)
    assert relabeled == k and generate_universe(relabeled, **bounds) is u
    # the key hashes states and bounds only: structures that differ in one
    # successor list or one label collide in the table but share nothing
    d = k.states[1]
    for other in (
            KripkeStructure(k.states, k.initial, {**k.transitions, "s0": ("s0", d)},
                            k.aps, k.labels),
            KripkeStructure(k.states, k.initial, k.transitions, k.aps,
                            {**k.labels, d: frozenset()})):
        v = generate_universe(other, **bounds)
        assert v is not u and v.traces == generate_universe_reference(other, **bounds).traces
    for other in ({"max_prefix": 1}, {"max_loop": 2}, {"loop_states": None},
                  {"max_traces": 500}):
        v = generate_universe(frozen, **{**bounds, **other})
        assert v is not u, other
        assert generate_universe(explainable, **{**bounds, **other}) is v, other


def test_a_universe_leaves_the_table_when_it_dies():
    before = len(universe_keys())
    u = generate_universe(two_state_kripke(), max_prefix=3, max_loop=2)
    assert len(universe_keys()) == before + 1
    del u
    gc.collect()
    assert len(universe_keys()) == before


def test_a_refused_call_records_nothing():
    k = two_state_kripke()
    before = universe_keys()
    for _ in range(2):  # a recorded failure would not raise again
        with pytest.raises(SizeLimitExceeded):
            generate_universe(k, max_prefix=3, max_loop=3, max_traces=2)
        with pytest.raises(ValueError):
            generate_universe(k, max_prefix=3, max_loop=0)
    assert universe_keys() == before
    u = generate_universe(k, max_prefix=3, max_loop=3, max_traces=100)
    assert len(u) > 2 and len(universe_keys()) == len(before) + 1
    # True equals 1 as a dict key, but is still refused while the 1 lives
    one = generate_universe(k, max_prefix=1, max_loop=1)
    with pytest.raises(ValueError, match="^max_prefix must be an int, got True$"):
        generate_universe(k, max_prefix=True, max_loop=1)
    assert generate_universe(k, max_prefix=1, max_loop=1) is one


def test_an_empty_universe_warns_on_every_call():
    k = two_state_kripke()
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            u = generate_universe(k, max_prefix=0, max_loop=1, loop_states=("s1",))
        assert len(u) == 0
        assert [(str(w.message), w.filename) for w in caught] == [
            ("generated universe is empty under the given bounds", __file__)]


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


def _generated(generate, k, max_prefix, max_loop, loop_states, max_traces=1_000_000):
    """The traces, or the exception's type, and the warnings of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = list(generate(k, max_prefix, max_loop, loop_states=loop_states,
                                max_traces=max_traces).traces)
        except SizeLimitExceeded as e:
            got = str(e)
    return got, [str(w.message) for w in caught]


def test_skipping_dead_prefixes_changes_no_trace_and_no_order():
    # every subset of the states as loop states, the empty one included
    r = random.Random(34)
    for case in range(40):
        k = gen_system(r).kripke
        subsets = [None] + [c for n in range(len(k.states) + 1)
                            for c in itertools.combinations(k.states, n)]
        for loop_states in subsets:
            max_prefix, max_loop = r.randint(0, 4), r.randint(1, 3)
            args = (k, max_prefix, max_loop, loop_states)
            want = _generated(generate_universe_reference, *args)
            assert _generated(generate_universe, *args) == want, (case, args)
            if len(want[0]) > 1:  # the cap trips at the same trace
                cap = len(want[0]) // 2
                assert (_generated(generate_universe, *args, cap)
                        == _generated(generate_universe_reference, *args, cap)), (case, args)


def test_a_model_without_loop_states_is_not_walked():
    # every prefix up to length 7 was walked: 108 s before
    system = load_system(Path(__file__).resolve().parents[1] / "fixtures" / "restricted.json")
    start = time.perf_counter()
    with pytest.warns(UserWarning, match="empty"):
        u = generate_universe(system, max_prefix=7, max_loop=1, loop_states=[])
    assert len(u) == 0 and time.perf_counter() - start < 2
