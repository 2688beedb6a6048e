"""The hiring case study: structures, universes, observation, similarity."""

import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import pytest

from ckltl import (
    EvalContext,
    Globally,
    RelationalFormula,
    System,
    build_gce,
    build_ice,
    build_wce,
    check_system,
    eval_at,
    format_trace,
    generate_universe,
    parse,
    position_variant,
    system_to_dict,
    universe_of,
    validate_similarity,
)
from ckltl.hiring import (
    AGENTS,
    APS,
    START,
    VARIANTS,
    build_explainable,
    build_gender_frozen,
    build_restricted,
    build_unexplainable,
    decision_label,
    decision_trace,
    export_fixtures,
    hiring_vocabulary,
    idle_trace,
    single_round_universe,
)

from test_semantics import views

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_variant_inventory():
    assert set(VARIANTS) == {
        "explainable",
        "unexplainable",
        "restricted",
        "gender-frozen",
    }
    for build in VARIANTS.values():
        assert build().validate() == []


def test_state_counts():
    assert len(build_explainable().kripke.states) == 37
    assert len(build_unexplainable().kripke.states) == 37
    assert len(build_gender_frozen().kripke.states) == 37
    assert len(build_restricted().kripke.states) == 25


def test_decision_labels():
    assert decision_label("it", "f", "sales", "f") == frozenset(
        {"a_it", "a_f", "r_sales", "r_f"}
    )
    assert decision_label("sales", "f", "sales", "f") == frozenset(
        {"a_sales", "a_f", "r_sales", "r_f", "offer"}
    )
    # gender mismatch alone blocks the offer
    assert "offer" not in decision_label("sales", "m", "sales", "f")


def test_offer_states_count():
    k = build_explainable().kripke
    offers = [s for s in k.states if "offer" in k.labels[s]]
    assert len(offers) == 6  # 3 jobs x 2 genders, both sides equal
    k = build_restricted().kripke
    offers = [s for s in k.states if "offer" in k.labels[s]]
    assert len(offers) == 4


def test_single_round_universe_layout():
    s = build_explainable()
    u = single_round_universe(s)
    assert len(u) == 37
    assert u.traces[0] == idle_trace()  # idle first, then decisions
    offer_traces = [t for t in u if "offer" in t.label_at(1)]
    assert len(offer_traces) == 6
    # every decision state appears exactly once at position 1
    seen = {t.label_at(1) for t in u.traces[1:]}
    assert len(seen) == 36
    # all traces are quiet from position 2 on
    assert all(t.label_at(2) == frozenset() for t in u)

    u = single_round_universe(build_restricted())
    assert len(u) == 25
    assert sum(1 for t in u if "offer" in t.label_at(1)) == 4


def test_decision_trace_membership():
    s = build_explainable()
    u = single_round_universe(s)
    t = decision_trace("it", "f", "sales", "f")
    assert t in u
    assert t.label_at(1) == decision_label("it", "f", "sales", "f")
    assert idle_trace() in u
    # restricted universe has no accounting applicants
    u_r = single_round_universe(build_restricted())
    assert decision_trace("accounting", "m", "accounting", "m") not in u_r


def test_observation_maps():
    full = build_explainable()
    limited = build_unexplainable()
    assert set(full.agents) == set(limited.agents) == set(AGENTS)
    for ag in AGENTS:
        assert full.observation_of(ag) == frozenset(APS)
    assert "r_sales" not in limited.observation_of("a")
    assert "a_sales" not in limited.observation_of("r")
    assert "offer" in limited.observation_of("a")
    assert "offer" in limited.observation_of("r")
    assert "a_sales" in limited.observation_of("a")


def test_observation_collapses_decisions_for_the_applicant():
    # under limited observation the applicant cannot split decisions that
    # agree on its own attributes and the outcome
    s = build_unexplainable()
    u = single_round_universe(s)
    ctx = EvalContext.exact(s, u)
    t1 = decision_trace("sales", "f", "it", "m")
    t2 = decision_trace("sales", "f", "accounting", "f")
    assert not eval_at(ctx, t1, 1, parse("K[a] r_it"))
    assert eval_at(ctx, t1, 1, parse("K[a] a_sales"))
    # with full observation the same knowledge is available
    s_full = build_explainable()
    ctx_full = EvalContext.exact(s_full, single_round_universe(s_full))
    assert eval_at(ctx_full, t1, 1, parse("K[a] r_it"))
    assert t2 in single_round_universe(s)


def test_similarity_is_a_preorder_with_reference_minimum():
    # spec invariant for both the plain and gender-frozen relations, checked
    # from a decision trace and from idle, at both single-round positions
    for build in (build_explainable, build_gender_frozen):
        s = build()
        u = single_round_universe(s)
        ctx = EvalContext.exact(s, u)
        for t_ref in (u.traces[0], decision_trace("sales", "f", "sales", "f")):
            for i in (0, 1):
                for ag in AGENTS:
                    report = validate_similarity(ctx, ag, t_ref, i)
                    assert report.ok, (ag, i, report.violations[:3])


def test_gender_freeze_blocks_gender_flips():
    s = build_gender_frozen()
    u = single_round_universe(s)
    ctx = EvalContext.exact(s, u)
    t = decision_trace("sales", "f", "sales", "f")
    flipped = decision_trace("sales", "m", "sales", "f")
    same = decision_trace("it", "f", "sales", "f")
    # accessibility viewed from t: gender flips are not comparable
    assert not ctx.similarity_holds("a", t, t, flipped, 1)
    assert ctx.similarity_holds("a", t, t, same, 1)
    # the recruiter keeps the plain relation
    assert ctx.similarity_holds("r", t, t, flipped, 1)
    # the plain-similarity variant accepts the flip for the applicant too
    s2 = build_explainable()
    ctx2 = EvalContext.exact(s2, single_round_universe(s2))
    assert ctx2.similarity_holds("a", t, t, flipped, 1)


def test_two_round_verdicts_are_pinned():
    # the full two-round restricted universe: every lasso of at most three
    # prefix letters that then idles in the start state; the idle trace
    # defeats all three checks, and WCE and GCE fail on every trace
    s = build_restricted()
    u = generate_universe(s, max_prefix=3, max_loop=1, loop_states=(START,))
    assert len(u) == 625
    vocab = hiring_vocabulary()
    every = "e1921ab4b478924bcd7fef05276a141aa08e96f6b81d2adab935980dde6ff048"
    for name, f, count, digest in (
        ("ICE@1", position_variant(build_ice(vocab, "a"), 1), 225,
         "f9d90c1f1af4ca90afa0af98ff2face48f019327766053401493112538d692d2"),
        ("WCE", build_wce(vocab, "a"), 625, every),
        ("GCE", build_gce(vocab, "a", "a"), 625, every),
    ):
        v = check_system(EvalContext.exact(s, u), f)
        assert (v.result, len(v.counterexamples), v.counterexample) == (
            False, count, "| {}"), name
        assert sha256("\n".join(v.counterexamples).encode()).hexdigest() == digest, name


def test_g_only_similarity_matches_the_compiled_route_at_scale():
    # every fifth trace of the two-round restricted universe, 125 traces:
    # with `G B` in place of each agent's `G B & H B`, the relation is off
    # the all-positions shape and every row is a view of the universe; the
    # verdicts are those of the compiled block
    s = build_restricted()
    full = generate_universe(s, max_prefix=3, max_loop=1, loop_states=(START,))
    u = universe_of(full.traces[::5])
    g_only = {a: RelationalFormula(s.similarity_of(a).params, s.similarity_of(a).formula.left)
              for a in s.agents}
    assert all(isinstance(rf.formula, Globally) for rf in g_only.values())
    s_g = System(s.kripke, s.agents, s.observation, g_only)
    vocab = hiring_vocabulary()
    for f in (position_variant(build_ice(vocab, "a"), 1), build_wce(vocab, "a"),
              build_gce(vocab, "a", "a")):
        compiled, viewed = EvalContext.exact(s, u), EvalContext.exact(s_g, u)
        assert check_system(viewed, f).to_dict() == check_system(compiled, f).to_dict()
        assert views(viewed) and not views(compiled)


@pytest.mark.parametrize("max_prefix, size, digest", [
    (3, 625, "e1921ab4b478924bcd7fef05276a141aa08e96f6b81d2adab935980dde6ff048"),
    (4, 15_625, "6cc436a9d863436c6401cc9250ce2c7db8ecf9cbe59de9553839ab8e8c3a9a85"),
])
def test_restricted_universe_order_is_pinned(max_prefix, size, digest):
    # the two- and three-round restricted universes, trace by trace in
    # enumeration order: a change of order would reorder every verdict's
    # counterexample list
    u = generate_universe(build_restricted(), max_prefix=max_prefix, max_loop=1,
                          loop_states=(START,))
    assert len(u) == size
    assert sha256("\n".join(map(format_trace, u)).encode()).hexdigest() == digest
    assert all(t.canonical() is t for t in u)


def test_gender_frozen_universe_order_is_pinned():
    # the two-round universe of the full structure (the gender-frozen
    # variant's), recorded before the generator kept its per-state loop tables
    u = generate_universe(build_gender_frozen(), max_prefix=3, max_loop=1,
                          loop_states=(START,))
    assert len(u) == 1_369
    assert sha256("\n".join(map(format_trace, u)).encode()).hexdigest() == (
        "0958b47217068bbebbfaa80152646a53bd2d7c77531cd1e1aca3670cfecf2228")
    assert all(t.canonical() is t for t in u)


def test_vocabulary_matches_every_variant():
    v = hiring_vocabulary()
    assert v.agents() == ("a", "r")
    assert v.outcome == "offer"
    assert len(v.literals_of("a")) == 10
    for build in VARIANTS.values():
        s = build()
        aps = set(s.kripke.aps)
        assert v.outcome in aps and set(v.agents()) <= set(s.agents)
        assert all(set(props) <= aps for props in v.positives.values())


def test_shipped_fixtures_are_in_sync(tmp_path):
    names = export_fixtures(tmp_path)
    assert names == [
        "explainable.json",
        "gender_frozen.json",
        "restricted.json",
        "unexplainable.json",
    ]
    for name in names:
        shipped = FIXTURES / name
        assert shipped.exists(), f"missing shipped fixture {name}"
        assert shipped.read_text() == (tmp_path / name).read_text(), (
            f"fixtures/{name} is stale; regenerate with export_fixtures()"
        )


def test_fixtures_load_back_to_the_builders():
    from ckltl import load_system

    for name, build in VARIANTS.items():
        fname = f"{name.replace('-', '_')}.json"
        loaded = load_system(FIXTURES / fname)
        assert system_to_dict(loaded) == system_to_dict(build())


ROOT = Path(__file__).resolve().parent.parent


def test_setups_leave_nothing_in_the_unique_table():
    # the benchmark's single-round set-up, twice in a fresh process: the
    # table's memo entries live with the formulas, so nothing carries over
    code = """
import gc, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import workloads
from ckltl.formula import _TABLE
w = workloads.Hiring1Round(workloads.Path(sys.argv[1]), 1)
sizes = []
for pass_no in range(2):
    checks = w.setup(pass_no)
    sizes.append(len(_TABLE))
    del checks
    gc.collect()
    sizes.append(len(_TABLE))
print(*sizes)
"""
    out = subprocess.run([sys.executable, "-c", code, str(ROOT)], capture_output=True,
                         text=True, check=True).stdout
    live, after, live_again, after_again = map(int, out.split())
    assert live > 0 and live_again == live and after == after_again == 0
