"""Evaluation engine checks.

The heavy lifting is the dual-route comparison against tests/oracle.py: a
deliberately naive recursive evaluator with none of the engine's caching,
stabilization bounds, or operator fusion.  Any disagreement between the two
is a bug in one of them.
"""

import gc
import random
import sys
from math import lcm

import pytest

from ckltl import (
    And,
    Atom,
    EMight,
    EvalContext,
    Eventually,
    Globally,
    Implies,
    Know,
    LassoTrace,
    Might,
    Next,
    Not,
    Once,
    Prev,
    RelationalFormula,
    RelationalFormulaError,
    StabilizationCapExceeded,
    System,
    Until,
    UWould,
    Would,
    build_gce,
    check_system,
    closest_antecedents,
    desugar,
    eval_at,
    explain,
    format_trace,
    parse,
    parse_trace_literal,
    subformulas,
    subset_similarity,
    universe_of,
    validate_similarity,
)
from ckltl.hiring import (
    build_explainable,
    build_gender_frozen,
    decision_trace,
    hiring_vocabulary,
    single_round_universe,
)
from ckltl.model import SIM_PARAMS, KripkeStructure
from ckltl.trace import obs_divergence_point, zip3

from gen import gen_formula, gen_system, gen_temporal, gen_trace, gen_universe
from oracle import naive, window_reference


def tr(text):
    return parse_trace_literal(text)


# similarity relations that are not of the all-positions shape, so the engine
# evaluates them on row views
OTHER_SHAPES = [
    "p@pi2 & !p@pi1",  # position-local
    "G (p@pi1 -> p@pi2)",  # G without H
    "G (p@pi1 -> p@pi2) & H (q@pi1 -> q@pi2)",  # different bodies
    "G (X p@pi1 -> p@pi2) & H (X p@pi1 -> p@pi2)",  # temporal body
]


# ---------------------------------------------------------------------------
# dual routes


def test_bounded_engine_matches_naive_oracle():
    r = random.Random(100)
    # each instance again under view-route relations drawn from their own
    # stream, the second agent's over other parameter names
    shapes = random.Random(107)
    for _ in range(250):
        s = gen_system(r)
        u = gen_universe(r)
        f = gen_formula(r, depth=r.randint(1, 4))
        n = r.randint(0, 6)
        i = r.randint(0, n)
        t = r.choice(u.traces)
        zipped = {a: RelationalFormula((v, v + "1", v + "2"),
                                       parse(shapes.choice(OTHER_SHAPES).replace("pi", v)))
                  for a, v in zip(s.agents, ("pi", "rho"))}
        for system in (s, System(s.kripke, s.agents, s.observation, zipped)):
            ctx = EvalContext.bounded(system, u, n)
            assert eval_at(ctx, t, i, f) == naive(system, u, n, t, f, i), (
                f"formula={f}, trace={t}, i={i}, n={n}"
            )


# a gender-freeze-shaped all-positions relation: p pinned, subset on q
FREEZE_BODY = "(p@pi1 <-> p@pi) & (p@pi2 <-> p@pi) & (!(q@pi <-> q@pi1) -> !(q@pi <-> q@pi2))"


def test_whole_universe_checks_match_naive_oracle():
    # check_system asks every trace at once, so cells are shared across
    # references; windows fall on both sides of P + L
    r = random.Random(108)
    freeze = RelationalFormula(SIM_PARAMS, parse(f"G ({FREEZE_BODY}) & H ({FREEZE_BODY})"))
    for _ in range(200):
        s = gen_system(r)
        u = gen_universe(r)
        f = gen_formula(r, depth=r.randint(1, 4))
        while not any(isinstance(g, (Would, Might, UWould, EMight)) for g in subformulas(f)):
            f = gen_formula(r, depth=r.randint(1, 4))
        n = r.randint(0, 6)
        frozen = System(s.kripke, s.agents, s.observation, dict.fromkeys(s.agents, freeze))
        for system in (s, frozen):
            got = check_system(EvalContext.bounded(system, u, n), f).counterexamples
            want = tuple(format_trace(t) for t in u if not naive(system, u, n, t, f, 0))
            assert got == want, f"formula={f}, n={n}"


def test_exact_surface_matches_exact_desugared():
    r = random.Random(101)
    for _ in range(200):
        s = gen_system(r)
        u = gen_universe(r)
        f = gen_formula(r, depth=r.randint(1, 4))
        i = r.randint(0, 3)
        t = r.choice(u.traces)
        ctx = EvalContext.exact(s, u, stabilization_cap=256)
        assert eval_at(ctx, t, i, f) == eval_at(ctx, t, i, desugar(f))


def test_exact_value_is_presentation_invariant():
    r = random.Random(102)
    for _ in range(150):
        s = gen_system(r)
        u = gen_universe(r)
        f = gen_temporal(r, depth=r.randint(1, 4))
        t = r.choice(u.traces)
        i = r.randint(0, 2)
        ctx = EvalContext.exact(s, u, stabilization_cap=256)
        got = eval_at(ctx, t, i, f)
        # same word, different lasso split; fresh context so nothing is shared
        t2 = LassoTrace(t.prefix + t.loop, t.loop)
        u2 = universe_of([t2 if x.canonical() == t.canonical() else x for x in u.traces])
        ctx2 = EvalContext.exact(s, u2, stabilization_cap=256)
        assert eval_at(ctx2, t2, i, f) == got


def test_pure_past_agrees_between_modes():
    # past operators (and knowledge over them) only look left, so a bound
    # can never cut them off
    r = random.Random(103)
    for _ in range(150):
        s = gen_system(r)
        u = gen_universe(r)
        f = gen_formula(r, depth=3, future=False)
        n = r.randint(0, 5)
        i = r.randint(0, n)
        t = r.choice(u.traces)
        exact = EvalContext.exact(s, u, stabilization_cap=256)
        bounded = EvalContext.bounded(s, u, n)
        assert eval_at(exact, t, i, f) == eval_at(bounded, t, i, f)


def test_exact_globally_implies_bounded_globally():
    # with a bound-insensitive body, G over the truncated word is weaker
    # and F is stronger
    r = random.Random(104)
    for _ in range(150):
        s = gen_system(r)
        u = gen_universe(r)
        body = gen_formula(r, depth=2, future=False)
        t = r.choice(u.traces)
        n = r.randint(0, 5)
        exact = EvalContext.exact(s, u, stabilization_cap=256)
        bounded = EvalContext.bounded(s, u, n)
        g = Globally(body)
        if eval_at(exact, t, 0, g):
            assert eval_at(bounded, t, 0, g)
        f = Eventually(body)
        if eval_at(bounded, t, 0, f):
            assert eval_at(exact, t, 0, f)


# ---------------------------------------------------------------------------
# counterfactuals on a pinned universe


def cf_fixture():
    """Four one-letter lassos over {p, q}; one agent seeing everything."""
    k = KripkeStructure(
        states=("e", "sp", "sq", "spq"),
        initial="e",
        transitions={s: ("e", "sp", "sq", "spq") for s in ("e", "sp", "sq", "spq")},
        aps=("p", "q"),
        labels={
            "e": frozenset(),
            "sp": frozenset({"p"}),
            "sq": frozenset({"q"}),
            "spq": frozenset({"p", "q"}),
        },
    )
    s = System(
        kripke=k,
        agents=("a",),
        observation={"a": frozenset({"p", "q"})},
        similarity={"a": subset_similarity(("p", "q"))},
    )
    u = universe_of([tr("| {}"), tr("| {p}"), tr("| {q}"), tr("| {p,q}")])
    return s, u


def test_counterfactuals_on_pinned_universe():
    s, u = cf_fixture()
    ctx = EvalContext.exact(s, u)
    idle = u.traces[0]

    # From the idle trace, | {p} and | {q} are incomparable minimal
    # (p|q)-worlds under the subset ordering.  The existential reading lets
    # each threshold speak for itself, so both opposite WOULDs hold and both
    # MIGHTs fail; the universal variants do not have that artifact.
    assert eval_at(ctx, idle, 0, parse("(p | q) WOULD[a] p"))
    assert eval_at(ctx, idle, 0, parse("(p | q) WOULD[a] !p"))
    assert not eval_at(ctx, idle, 0, parse("(p | q) MIGHT[a] p"))
    assert not eval_at(ctx, idle, 0, parse("(p | q) UWOULD[a] p"))
    assert not eval_at(ctx, idle, 0, parse("(p | q) UWOULD[a] !p"))
    assert eval_at(ctx, idle, 0, parse("(p | q) EMIGHT[a] p"))
    assert eval_at(ctx, idle, 0, parse("(p | q) EMIGHT[a] !p"))

    # strengthening the antecedent pins the world down
    assert eval_at(ctx, idle, 0, parse("(p & q) UWOULD[a] p"))
    assert eval_at(ctx, idle, 0, parse("p MIGHT[a] p"))
    assert not eval_at(ctx, idle, 0, parse("p MIGHT[a] q"))

    # vacuity: unsatisfiable antecedent
    assert eval_at(ctx, idle, 0, parse("(p & !p) WOULD[a] q"))
    assert eval_at(ctx, idle, 0, parse("(p & !p) UWOULD[a] q"))
    assert not eval_at(ctx, idle, 0, parse("(p & !p) MIGHT[a] q"))
    assert not eval_at(ctx, idle, 0, parse("(p & !p) EMIGHT[a] q"))

    # from | {p}: the closest p-world is itself
    tp = u.traces[1]
    assert eval_at(ctx, tp, 0, parse("p UWOULD[a] p"))
    assert not eval_at(ctx, tp, 0, parse("p MIGHT[a] q"))


def test_closest_antecedents_on_pinned_universe():
    s, u = cf_fixture()
    ctx = EvalContext.exact(s, u)
    idle, tp, tq, tpq = u.traces
    got = closest_antecedents(ctx, "a", idle, 0, parse("p | q"))
    assert set(got) == {tp, tq}
    got = closest_antecedents(ctx, "a", idle, 0, parse("p & q"))
    assert set(got) == {tpq}
    assert closest_antecedents(ctx, "a", idle, 0, parse("p & !p")) == ()


def test_duality_laws_and_truth_axiom():
    r = random.Random(105)
    for _ in range(120):
        s = gen_system(r)
        u = gen_universe(r)
        ctx = EvalContext.exact(s, u, stabilization_cap=256)
        ante = gen_formula(r, depth=2, know=0, cf=0)
        cons = gen_formula(r, depth=2, know=0, cf=0)
        body = gen_formula(r, depth=2, know=0, cf=0)
        a = r.choice(s.agents)
        t = r.choice(u.traces)
        i = r.randint(0, 2)
        might = eval_at(ctx, t, i, Might(a, ante, cons))
        would_not = eval_at(ctx, t, i, Would(a, ante, Not(cons)))
        assert might == (not would_not)
        emight = eval_at(ctx, t, i, EMight(a, ante, cons))
        uwould_not = eval_at(ctx, t, i, UWould(a, ante, Not(cons)))
        assert emight == (not uwould_not)
        # knowledge is veridical: K[a] body -> body
        if eval_at(ctx, t, i, Know(a, body)):
            assert eval_at(ctx, t, i, body)


def test_know_is_exact_quantification_over_obs_equivalent_traces():
    s, u = cf_fixture()
    limited = System(
        kripke=s.kripke,
        agents=("a",),
        observation={"a": frozenset({"p"})},  # blind to q
        similarity=dict(s.similarity.items()),
    )
    ctx = EvalContext.exact(limited, u)
    idle, tp, tq, tpq = u.traces
    # idle and | {q} look alike; | {p} and | {p,q} look alike
    assert eval_at(ctx, tp, 0, parse("K[a] p"))
    assert not eval_at(ctx, tp, 0, parse("K[a] q"))
    assert not eval_at(ctx, tpq, 0, parse("K[a] q"))
    assert eval_at(ctx, idle, 0, parse("K[a] !p"))
    assert not eval_at(ctx, idle, 0, parse("K[a] !q"))


# ---------------------------------------------------------------------------
# verdicts, trails, tables


def test_check_system_reports_all_counterexamples_in_order():
    s, u = cf_fixture()
    ctx = EvalContext.exact(s, u)
    v = check_system(ctx, parse("p | q"))
    assert not v.result
    assert v.counterexample == "| {}"
    assert v.counterexamples == ("| {}",)
    assert v.position == 0
    assert v.trail  # explanation attached to the first failure

    v = check_system(ctx, parse("p"))
    assert v.counterexamples == ("| {}", "| {q}")

    v = check_system(ctx, parse("true"))
    assert v.result and v.counterexample is None and v.trail == ()

    d = v.to_dict()
    assert d["result"] is True and d["counterexamples"] == []


def test_explain_trail_walks_to_the_failure():
    s, u = cf_fixture()
    ctx = EvalContext.exact(s, u)
    tp = u.traces[1]
    f = parse("G (p -> q)")
    trail = explain(ctx, tp, 0, f)
    assert trail[0].formula == "G (p -> q)"
    assert trail[0].value is False
    assert trail[0].position == 0
    # the walk descends to the failing position of the body, then into the
    # false implication's consequent
    srcs = [(e.formula, e.value) for e in trail]
    assert ("p -> q", False) in srcs
    assert srcs[-1] == ("q", False)
    assert all(e.trace == "| {p}" for e in trail)

    # a holding G stops at the root: there is no single witness to show
    assert len(explain(ctx, u.traces[0], 0, f)) == 1

    long_trail = explain(ctx, tp, 0, parse("G ((p -> q) & (p -> q))"), limit=2)
    assert len(long_trail) <= 2


def test_explain_crosses_traces_for_knowledge():
    s, u = cf_fixture()
    limited = System(
        kripke=s.kripke,
        agents=("a",),
        observation={"a": frozenset({"p"})},
        similarity=dict(s.similarity.items()),
    )
    ctx = EvalContext.exact(limited, u)
    idle = u.traces[0]
    trail = explain(ctx, idle, 0, parse("K[a] !q"))
    assert trail[0].value is False
    # the witness lives on the observationally equivalent trace | {q}
    steps = [(e.formula, e.trace, e.value) for e in trail]
    assert ("!q", "| {q}", False) in steps
    assert steps[-1] == ("q", "| {q}", True)


def test_bounded_explain_stays_in_the_window_and_matches_naive_oracle():
    # bounded trails read the window's end off their columns: every step is
    # the naive oracle's value at a position of [0, N], and a false X at N
    # has no later position to show
    r = random.Random(109)
    x_at_end = 0
    for _ in range(300):
        s, u = gen_system(r), gen_universe(r)
        f = gen_formula(r, depth=r.randint(1, 5))
        n = r.randint(0, 6)
        t, i = r.choice(u.traces), r.randint(0, n)
        trail = explain(EvalContext.bounded(s, u, n), t, i, f)
        for k, e in enumerate(trail):
            g, x = parse(e.formula), u.traces[u.index(parse_trace_literal(e.trace))]
            assert 0 <= e.position <= n, (f, n, e)
            assert e.value == naive(s, u, n, x, g, e.position), (f, n, e)
            if isinstance(g, Next) and not e.value and e.position == n:
                assert k == len(trail) - 1, (f, n, trail)
                x_at_end += 1
    assert x_at_end > 0


def test_library_calls_leave_no_reference_cycles():
    # every object these calls make is freed by reference counting alone, so
    # a context, domain or universe never waits for the cyclic collector
    from pathlib import Path

    from ckltl import build_ice, load_system, position_variant
    from ckltl.foe import FoDomain, eval_fo, translate

    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "unexplainable.json"
    system = load_system(fixture)
    ice1 = position_variant(build_ice(hiring_vocabulary(), "a"), 1)
    small = universe_of([tr("{p} | {}"), tr("| {p}")])
    sentence = translate(desugar(parse("F p & G (p -> X !p)")), system)
    gc.collect()
    gc.disable()
    try:
        load_system(fixture)
        u = single_round_universe(system)
        verdict = check_system(EvalContext.exact(system, u), ice1)
        assert not verdict.result and verdict.trail  # explain ran
        eval_fo(FoDomain(small, 3), sentence)
        RelationalFormula(("pi", "pi1", "rho"), parse("G (p@pi <-> p@pi1) & !q@rho"))
        del u, verdict
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stabilization_cap_trips_on_deep_past_nesting():
    # a forward scan over a deeply nested past body needs one loop unrolling
    # per past level and one for the atoms; a tiny cap refuses the work
    s, u = cf_fixture()
    t = tr("{p} ; {q} | {} ; {p} ; {q}")
    u2 = universe_of(list(u.traces) + [t])
    ctx = EvalContext.exact(s, u2, stabilization_cap=2)
    f = parse("G (p S (q S (p S (q S p))))")
    with pytest.raises(StabilizationCapExceeded) as e:
        eval_at(ctx, t, 0, f)
    assert (e.value.needed, e.value.cap) == (5, 2)
    # a roomy cap handles the same query
    roomy = EvalContext.exact(s, u2, stabilization_cap=256)
    eval_at(roomy, t, 0, f)
    # evaluating the bare past body at a fixed position never needs the cap:
    # the engine just walks the recurrence left of the position
    eval_at(ctx, t, 1, f.child)


def test_past_values_repeat_with_the_loop_lcm():
    # an exact context folds a column into one period of L positions from
    # P + (u-1)*L; a bounded one never folds, so on [0, P + 8L] it judges
    # the fold.  Past-only formulas mean the same in both.  A rule with one
    # unrolling too few (S, O and H keeping their operands' count) fails
    r = random.Random(2901)
    for case in range(300):
        s, u = gen_system(r), gen_universe(r)
        f = gen_formula(r, depth=r.randint(2, 6), past=5, future=False)
        p = max(len(t.prefix) for t in u)
        n = p + 8 * lcm(*(len(t.loop) for t in u))
        exact = EvalContext.exact(s, u, stabilization_cap=10_000)
        bounded = EvalContext.bounded(s, u, n)
        for t in u:
            for i in range(n + 1):
                assert eval_at(exact, t, i, f) == eval_at(bounded, t, i, f), (case, f, t, i)


def test_window_table_matches_a_per_trace_reference():
    # `_uni` groups each position's traces by their shared letter before it
    # ORs masks into propositions; the reference sets one bit per trace and
    # proposition.  Exact and bounded contexts, bound 0, windows that end
    # before and past P + L, universes wider than one 30-bit int digit
    r = random.Random(2507)
    empty_letters = 0
    for case in range(40):
        u = gen_universe(r, max_traces=r.choice((6, 80)), max_prefix=4)
        if case % 4 == 0:  # a trace that is the empty letter everywhere
            u = universe_of(u.traces + (LassoTrace((), (frozenset(),)),))
        s, traces = gen_system(r), u.traces
        p = max(len(t.prefix) for t in traces)
        l = lcm(*(len(t.loop) for t in traces))
        for bound in (None, 0, r.randrange(p + l), p + l + r.randrange(3)):
            w = p + l if bound is None else min(bound + 1, p + l)
            n, p2, l2, words, props = EvalContext(s, u, bound)._uni()
            assert (n, p2, l2) == (len(traces), p, l)
            assert words == [tuple(t.label_at(j) for j in range(w)) for t in traces]
            assert props == window_reference(traces, w), (case, bound)
            empty_letters += sum(not a for word in words for a in word)
    assert empty_letters
    n, _, _, words, props = EvalContext(s, universe_of([]), 2)._uni()
    assert (n, words, props) == (0, [], [{}])


def test_wide_bounded_window_past_operators_reach_position_0():
    # the only attribute sits at position 0, so each past operator at N
    # depends on the whole window; a past operator fills its column in one
    # forward pass, so this needs no recursion proportional to N
    s, _ = cf_fixture()
    n = 1000
    for first, truths in (
        ("{p}", (True, True, True)),
        ("{q}", (False, False, False)),
        ("{p,q}", (True, False, True)),
    ):
        t = tr(first + " ; {} ; {} | {}")
        ctx = EvalContext.bounded(s, universe_of([t]), n)
        t = ctx.universe.traces[0]
        srcs = ("O p", "H !q", "!q S p")
        got = tuple(eval_at(ctx, t, n, parse(src)) for src in srcs)
        assert got == truths, first


def test_forward_operator_rows_fill_in_linear_time():
    # F, G and U fill their column in one backward pass that reuses the value
    # one position later, so querying every position of an n-position window
    # costs O(n) operand asks in all, not a fresh O(n) scan per position
    s, _ = cf_fixture()
    n = 1000
    u = universe_of([tr(" ; ".join(["{q}"] * (n + 1)) + " | {p}")])
    t = u.traces[0]
    # q on [0, n], p from n + 1 on: inside the bounded window p never holds
    for src, exact, bounded in (("F p", True, False), ("G q", False, True),
                                ("q U p", True, False)):
        for ctx, want in ((EvalContext.exact(s, u), exact),
                          (EvalContext.bounded(s, u, n), bounded)):
            for i in range(n, -1, -1):  # each query needs one new position
                assert eval_at(ctx, t, i, parse(src)) == want, (src, ctx.bound, i)
            asks = ctx.stats()["asks"]
            assert asks < 10 * n, (src, ctx.bound, asks)


def test_deep_formula_evaluates_within_the_recursion_limit():
    # node evaluations wait on one explicit stack instead of recursing, so
    # 2,000-deep chains and a 5,000-term disjunction evaluate under the
    # default recursion limit of 1000, in both modes
    s, u = cf_fixture()
    u = universe_of(list(u.traces) + [tr("{p} ; {} | {q}")])
    n, p, q = 2000, Atom("p"), Atom("q")

    def chain(op, f):
        for _ in range(n):
            f = op(f)
        return f

    def has(x, t, j):
        return x in t.label_at(j)

    cases = (  # formula, position, closed form given the window end (None: exact)
        (chain(Next, p), 0, lambda t, N: N is None and has("p", t, n)),
        (chain(Not, p), 1, lambda t, N: has("p", t, 1)),
        (chain(Once, p), 1, lambda t, N: has("p", t, 0) or has("p", t, 1)),
        # p U (p U (... U q)) is p U q; no universe trace has p then q
        (chain(lambda f: Until(p, f), q), 0, lambda t, N: has("q", t, 0)),
        (parse(" | ".join(["p"] * 4999 + ["q"])), 0,
         lambda t, N: has("p", t, 0) or has("q", t, 0)),
    )
    assert sys.getrecursionlimit() == 1000
    for ctx in (EvalContext.exact(s, u), EvalContext.bounded(s, u, 2)):
        for f, i, closed in cases:
            assert [eval_at(ctx, t, i, f) for t in u] == [closed(t, ctx.bound) for t in u]


def test_stats_count_hash_consed_nodes_and_rows():
    s = build_explainable()
    ctx = EvalContext.exact(s, single_round_universe(s))
    assert ctx.stats() == {
        "nodes": 0, "columns": 0, "values": 0, "asks": 0, "similarity": 0,
        "partitions": 0,
    }
    gce = build_gce(hiring_vocabulary(), "a", "a")
    check_system(ctx, gce)
    rel = s.similarity_of("a").formula
    got = ctx.stats()
    # structurally equal subformulas share one node, the relation's included
    assert got["nodes"] == len(set(subformulas(gce)) | set(subformulas(rel))) == 835
    assert got["values"] >= got["columns"] > 0 and got["asks"] > 0
    assert got["similarity"] > 0 and got["partitions"] > 0
    # an equal formula built separately is the same object: no new work
    again = build_gce(hiring_vocabulary(), "a", "a")
    assert again is gce
    check_system(ctx, again)
    assert ctx.stats() == got


def test_copies_of_universe_traces_share_their_rows():
    s, u = cf_fixture()
    ctx = EvalContext.exact(s, u)
    f = parse("((p | q) MIGHT[a] p) & F q")
    truths = [eval_at(ctx, t, 1, f) for t in u]
    before = ctx.stats()
    # the same words in another presentation: no new columns or memo entries
    copies = [LassoTrace(t.prefix + t.loop, t.loop) for t in u]
    assert [eval_at(ctx, t, 1, f) for t in copies] == truths
    assert ctx.stats() == before


def test_observation_classes_follow_divergence_points():
    # two universe traces share an agent's observation class at j iff their
    # observations have not diverged by j
    r = random.Random(107)
    for _ in range(60):
        s = gen_system(r)
        u = gen_universe(r)
        ctx = EvalContext.exact(s, u)
        horizon = max(len(t.prefix) for t in u) + lcm(*(len(t.loop) for t in u))
        for a in s.agents:
            for j in range(horizon + 2):
                classes, covered = ctx._partition(a, j), 0
                for c in classes:  # nonempty, disjoint, covering the universe
                    assert c and not c & covered
                    covered |= c
                assert covered == (1 << len(u)) - 1
                cls = [next(c for c in classes if c >> k & 1) for k in range(len(u))]
                for x, t1 in enumerate(u):
                    for y, t2 in enumerate(u):
                        d = obs_divergence_point(s, a, t1, t2)
                        assert (cls[x] == cls[y]) == (d is None or d > j), (a, j, t1, t2)


def test_quantifiers_reject_traces_outside_the_universe():
    s, u = cf_fixture()
    foreign, t = tr("{q} | {p} ; {}"), u.traces[0]
    for ctx in (EvalContext.exact(s, u), EvalContext.bounded(s, u, 3)):
        # every entry point names the trace, whether or not the formula
        # quantifies over the universe
        calls = [(ctx.value, (foreign, parse(src), 0))
                 for src in ("K[a] p", "p MIGHT[a] q", "F (p & K[a] p)", "q & X F p")]
        calls += [(ctx.similarity_holds, ("a", *trio, 0))
                  for trio in ((foreign, t, t), (t, foreign, t), (t, t, foreign))]
        calls += [(validate_similarity, (ctx, "a", foreign, 0)),
                  (closest_antecedents, (ctx, "a", foreign, 0, parse("p")))]
        for call, args in calls:
            with pytest.raises(ValueError) as e:
                call(*args)
            assert str(e.value) == "trace not in the universe: {q} | {p} ; {}", args


def test_knowledge_inside_a_relation_is_refused():
    # the constructor is the one check, so no relation holding K reaches a
    # context
    with pytest.raises(RelationalFormulaError) as e:
        RelationalFormula(("pi", "pi1", "pi2"), parse("G (K[a] p@pi1 -> p@pi2)"))
    assert str(e.value) == "not a relational formula: forbidden-operator: K at root.child.left"


def test_position_and_mode_validation():
    s, u = cf_fixture()
    t, p = u.traces[0], parse("p")
    exact, bounded = EvalContext.exact(s, u), EvalContext.bounded(s, u, 3)
    # one check for every entry point: no position below 0 or past N
    for ctx, i, msg in ((exact, -1, "positions start at 0"),
                        (bounded, -1, "positions start at 0"),
                        (bounded, 4, "position 4 outside the bounded window [0, 3]")):
        for call, args in ((eval_at, (ctx, t, i, p)), (ctx.value, (t, p, i)),
                           (ctx.similarity_holds, ("a", t, t, t, i)),
                           (validate_similarity, (ctx, "a", t, i)),
                           (closest_antecedents, (ctx, "a", t, i, p))):
            with pytest.raises(ValueError) as e:
                call(*args)
            assert str(e.value) == msg, (call, i)
    assert eval_at(bounded, u.traces[1], 3, p) and validate_similarity(bounded, "a", t, 3).ok
    for make, bound in ((EvalContext.bounded, -1), (EvalContext.bounded, None), (EvalContext, -1)):
        with pytest.raises(ValueError, match=f"needs a bound >= 0, got {bound}"):
            make(s, u, bound)
    with pytest.raises(ValueError, match="^stabilization cap must be positive$"):
        EvalContext(s, u, None, 0)
    with pytest.raises(ValueError):
        eval_at(exact, tr("| {p} ; {p,q}"), 0, parse("p"))  # foreign trace


# ---------------------------------------------------------------------------
# similarity diagnostics


@pytest.mark.parametrize("arg", ["bound", "stabilization_cap"])
def test_context_refuses_counts_that_are_not_ints(arg):
    # 2.5 was accepted, and `check_system` failed on it with a TypeError;
    # True checked as bound 1
    s, u = cf_fixture()
    for bad in (2.5, True, "2"):
        with pytest.raises(ValueError) as e:
            EvalContext(s, u, **{"bound": None, "stabilization_cap": 64, arg: bad})
        assert str(e.value) == f"{arg} must be an int, got {bad!r}"


def test_validate_similarity_clean_on_subset_template():
    s, u = cf_fixture()
    ctx = EvalContext.exact(s, u)
    for t in u:
        report = validate_similarity(ctx, "a", t, 0)
        assert report.ok
        assert report.violations == ()


def test_validate_similarity_flags_bad_relation():
    s, u = cf_fixture()
    # "closer" iff the far trace has p right now: not reflexive, not minimal
    bogus = RelationalFormula(("pi", "pi1", "pi2"), parse("p@pi2 & !p@pi1"))
    bad = System(
        kripke=s.kripke,
        agents=("a",),
        observation={"a": frozenset({"p", "q"})},
        similarity={"a": bogus},
    )
    ctx = EvalContext.exact(bad, u)
    report = validate_similarity(ctx, "a", u.traces[0], 0)
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert "irreflexive" in kinds or "minimum" in kinds


def differ_fixture():
    """`| {}` and `| {p}`, under a relation of the all-positions shape whose
    body holds where the near and far traces differ on p: written with `|`
    and a constant, irreflexive and intransitive."""
    s, _ = cf_fixture()
    body = "((p@pi1 & !p@pi2) | (!p@pi1 & p@pi2) | false)"
    differ = RelationalFormula(("pi", "pi1", "pi2"), parse(f"G {body} & H {body}"))
    return System(s.kripke, ("a",), s.observation, {"a": differ}), universe_of(
        [tr("| {}"), tr("| {p}")])


def test_validate_similarity_reports_intransitive_rows():
    s, u = differ_fixture()
    e, p = map(format_trace, u.traces)
    for n in (0, 2):
        bounded = EvalContext.bounded(s, u, n)
        assert_routes_agree(bounded, "a", u.traces, range(n + 1), oracle_universe=u)
    ctx = EvalContext.exact(s, u)
    assert_routes_agree(ctx, "a", u.traces, (0, 1, 3))
    intransitive = [("intransitive", (e, p, e)), ("intransitive", (p, e, p))]
    for t, other in zip(u.traces, (p, e)):
        report = validate_similarity(ctx, "a", t, 0)
        assert [(v.kind, v.traces) for v in report.violations] == [
            ("irreflexive", (other,)), *intransitive]
    assert views(ctx) == 0  # every row came from cells


# ---------------------------------------------------------------------------
# similarity queries: bitmask kernel against the zipped route


def views(ctx):
    """Row views the context has made to answer similarity queries."""
    return sum(isinstance(key, tuple) for key in ctx._sets)


def assert_routes_agree(ctx, agent, traces, positions, oracle_universe=None):
    """`similarity_holds` equals the relation evaluated on the zipped triple,
    for every triple of the universe traces `traces`, in a context of the
    same bound whose universe is those zipped triples; in bounded mode, when
    a universe is given, also the naive oracle's environment-based reading."""
    rf = ctx.system.similarity_of(agent)
    trios = [(x, y, z) for x in traces for y in traces for z in traces]
    zipped = universe_of(zip3(*trio, rf.params) for trio in trios)
    zctx = EvalContext(ctx.system, zipped, ctx.bound)
    for x, y, z in trios:
        for i in positions:
            got = ctx.similarity_holds(agent, x, y, z, i)
            assert got == zctx.value(zip3(x, y, z, rf.params), rf.formula, i), (x, y, z, i)
            if oracle_universe is not None:
                env = dict(zip(rf.params, (x, y, z)))
                assert got == naive(
                    ctx.system, oracle_universe, ctx.bound, x,
                    rf.formula, i, env,
                ), (x, y, z, i)


def test_similarity_kernel_matches_zipped_route():
    r = random.Random(106)
    for _ in range(12):
        s = gen_system(r)
        u = gen_universe(r, max_traces=4)
        # two more traces, with longer prefixes and loops than the others
        more = [gen_trace(r, max_prefix=5, max_loop=4) for _ in range(2)]
        u = universe_of(list(u.traces) + more)
        contexts = [(EvalContext.exact(s, u), (0, 1, 4))]
        contexts += [(EvalContext.bounded(s, u, n), range(n + 1)) for n in (0, 2, 5)]
        for ctx, positions in contexts:
            for a in s.agents:
                assert_routes_agree(ctx, a, u.traces, positions)
        # one past a bounded window is refused, not answered
        for ctx, _ in contexts[1:]:
            t = u.traces[0]
            with pytest.raises(ValueError):
                ctx.similarity_holds(s.agents[0], t, t, t, ctx.bound + 1)
        assert [views(ctx) for ctx, _ in contexts] == [0] * len(contexts)


def test_similarity_kernel_on_the_gender_frozen_relation():
    s = build_gender_frozen()
    u = single_round_universe(s)
    traces = [
        u.traces[0],
        decision_trace("sales", "f", "sales", "f"),
        decision_trace("sales", "m", "sales", "f"),
        decision_trace("it", "f", "sales", "f"),
        decision_trace("it", "m", "it", "m"),
        # added to the universe: a longer prefix and a two-letter loop
        LassoTrace(
            (frozenset(), frozenset({"a_f", "a_it"}), frozenset({"a_m"})),
            (frozenset({"a_f"}), frozenset()),
        ),
    ]
    u = universe_of(list(u.traces) + traces[-1:])
    for ctx, positions in (
        (EvalContext.exact(s, u), (0, 1, 3)),
        (EvalContext.bounded(s, u, 2), (0, 1, 2)),
    ):
        for a in s.agents:
            assert_routes_agree(ctx, a, traces, positions)
        assert views(ctx) == 0


@pytest.mark.parametrize("src", OTHER_SHAPES)
def test_other_similarity_shapes_take_the_zipped_route(src):
    s, u = cf_fixture()
    # a second agent holds the same relation over other parameter names, so
    # the views of one agent's rows cannot serve the other's
    rels = {a: RelationalFormula((v, v + "1", v + "2"), parse(src.replace("pi", v)))
            for a, v in (("a", "pi"), ("b", "rho"))}
    system = System(s.kripke, ("a", "b"), dict.fromkeys(rels, s.observation["a"]), rels)
    u = universe_of(list(u.traces) + [tr("{p} | {q} ; {}")])
    exact, bounded = EvalContext.exact(system, u), EvalContext.bounded(system, u, 3)
    for a in rels:
        assert_routes_agree(exact, a, u.traces, (0, 2))
        assert_routes_agree(bounded, a, u.traces, (0, 2, 3), u)
    assert views(exact) and views(bounded)


def test_outside_matches_its_definition():
    # `_outside(t, i, xs, ys)` is xs less every row of (t, y), y in ys, each
    # row asked on the whole universe in a second context; on the cell route
    # (subset similarity) and the view route, exact and bounded, with empty
    # xs and empty ys.  With `first` it is a part of that, empty iff it is.
    r, shapes = random.Random(109), random.Random(110)
    made = {True: 0, False: 0}  # route (views made?) -> contexts
    for k in range(120):
        s = gen_system(r)
        if k % 2:
            rel = RelationalFormula(SIM_PARAMS, parse(shapes.choice(OTHER_SHAPES)))
            s = System(s.kripke, s.agents, s.observation, dict.fromkeys(s.agents, rel))
        u = gen_universe(r)
        n, full = len(u), (1 << len(u)) - 1
        bound = r.choice((None, r.randint(0, 5)))
        ctx, ref = EvalContext(s, u, bound), EvalContext(s, u, bound)
        for _ in range(8):
            a, t, i = r.choice(s.agents), r.randrange(n), r.randint(0, 5 if bound is None else bound)
            xs, ys = r.getrandbits(n), r.getrandbits(n)
            for xs, ys in ((xs, ys), (0, ys), (xs, 0)):
                rows = 0
                for y in range(n):
                    if ys >> y & 1:
                        rows |= ref._row(a, t, y, i, full)
                want = xs & ~rows
                assert ctx._outside(a, t, i, xs, ys) == want, (k, a, t, i, xs, ys)
                got = ctx._outside(a, t, i, xs, ys, True)
                assert (got == 0) == (want == 0) and got & ~want == 0, (k, a, t, i, xs, ys)
        made[views(ctx) > 0] += 1
    assert made[True] and made[False]
