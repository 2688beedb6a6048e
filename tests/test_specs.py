"""Requirement builders and the entailment probe."""

import json

import pytest

from ckltl import (
    And,
    AttributeVocabulary,
    EvalContext,
    Globally,
    Implies,
    Know,
    Might,
    Next,
    Not,
    Or,
    build_ece,
    build_gce,
    build_ice,
    build_wce,
    entailment_probe,
    eval_at,
    parse,
    position_variant,
    subformulas,
    to_source,
)

from test_semantics import cf_fixture


def small_vocab():
    return AttributeVocabulary(
        positives={"a": ("x", "y"), "b": ("z",)}, outcome="win"
    )


def mights(f):
    return [to_source(m.ante) for m in subformulas(f) if isinstance(m, Might)]


def test_literals_and_complements():
    # the closure is the positives, then their complements, as (name, sign) pairs
    v = small_vocab()
    assert v.literals_of("a") == (("x", True), ("y", True), ("x", False), ("y", False))
    assert v.agents() == ("a", "b")


def test_satisfiable_pairs_counts():
    v = small_vocab()
    # 4 literals -> C(4,2)=6 unordered pairs minus 2 complementary = 4, in
    # literal order; a negative literal reads `!name`
    assert mights(build_ice(v, "a")) == ["x & y", "x & !y", "y & !x", "!x & !y"]
    # two complementary literals fall back to the reflexive pairs, which
    # collapse to the bare literals
    assert mights(build_ice(v, "b")) == ["z", "!z"]


def test_gce_drops_duplicate_literals_in_insertion_order():
    # an attribute of two agents is one pair of literals, at its first occurrence
    v = AttributeVocabulary(positives={"a": ("y",), "b": ("x", "y")}, outcome="win")
    assert to_source(build_gce(v, "a", "b")) == (
        "G (!win -> K[a] ((y & x) MIGHT[b] win) | K[a] ((y & !x) MIGHT[b] win)"
        " | K[a] ((!y & x) MIGHT[b] win) | K[a] ((!y & !x) MIGHT[b] win))")


def test_ice_shape():
    v = small_vocab()
    f = build_ice(v, "a")
    assert isinstance(f, Globally)
    assert isinstance(f.child, Implies)
    assert to_source(f.child.left) == "!win"
    knows = [g for g in subformulas(f) if isinstance(g, Know)]
    mights = [g for g in subformulas(f) if isinstance(g, Might)]
    assert len(knows) == len(mights) == 4
    assert all(k.agent == "a" for k in knows)
    assert all(m.agent == "a" and to_source(m.cons) == "win" for m in mights)
    # each knowledge disjunct wraps exactly one conditional
    for k in knows:
        assert isinstance(k.child, Might)
    # builders emit parseable source
    assert parse(to_source(f)) == f


def test_wce_has_a_single_conditional_with_disjoined_antecedent():
    v = small_vocab()
    f = build_wce(v, "a")
    knows = [g for g in subformulas(f) if isinstance(g, Know)]
    mights = [g for g in subformulas(f) if isinstance(g, Might)]
    assert len(knows) == len(mights) == 1
    ante = mights[0].ante
    disjuncts = _flatten_or(ante)
    assert len(disjuncts) == 4
    assert parse(to_source(f)) == f


def _flatten_or(f):
    if isinstance(f, Or):
        return _flatten_or(f.left) + _flatten_or(f.right)
    return [f]


def test_gce_ranges_over_all_agents_literals():
    v = small_vocab()
    f = build_gce(v, "b", "a")
    knows = [g for g in subformulas(f) if isinstance(g, Know)]
    mights = [g for g in subformulas(f) if isinstance(g, Might)]
    # union of both closures: x,y,!x,!y,z,!z -> C(6,2)=15 minus 3
    # complementary = 12
    assert len(knows) == len(mights) == 12
    assert all(k.agent == "b" for k in knows)
    assert all(m.agent == "a" for m in mights)
    assert parse(to_source(f)) == f


def test_ece_uses_one_agents_attributes_with_another_evaluator():
    v = small_vocab()
    f = build_ece(v, "b", "a")
    knows = [g for g in subformulas(f) if isinstance(g, Know)]
    mights = [g for g in subformulas(f) if isinstance(g, Might)]
    # b's closure is z, !z: complementary, so reflexive fallback -> 2 pairs
    assert len(knows) == len(mights) == 2
    assert all(k.agent == "a" for k in knows)
    assert all(m.agent == "a" for m in mights)
    antes = {to_source(m.ante) for m in mights}
    assert antes == {"z", "!z"}


def test_each_literal_sequence_gets_its_own_requirement():
    # the table keys a requirement by the literals in order, so a vocabulary
    # whose literals differ, or come in another order, is not served another's
    v = small_vocab()
    gce = build_gce(v, "a", "a")
    assert build_gce(small_vocab(), "a", "a") is gce
    swapped = AttributeVocabulary(positives={"b": ("z",), "a": ("x", "y")}, outcome="win")
    assert build_gce(swapped, "a", "a") is not gce
    assert mights(build_gce(swapped, "a", "a"))[0] == "z & x"
    reordered = AttributeVocabulary(positives={"a": ("y", "x"), "b": ("z",)}, outcome="win")
    f = build_ice(reordered, "a")
    assert f is not build_ice(v, "a")
    assert mights(f) == ["y & x", "y & !x", "x & !y", "!y & !x"]
    # knower, counterfactual agent, outcome and shape are part of the key;
    # the ECE of an agent's own attributes is its ICE
    assert len({build_gce(v, "a", "a"), build_gce(v, "b", "a"), build_gce(v, "a", "b"),
                build_ice(v, "a"), build_wce(v, "a"), build_ece(v, "a", "a"),
                build_ice(AttributeVocabulary(v.positives, "lose"), "a")}) == 6


def test_empty_attribute_set_is_an_error():
    v = AttributeVocabulary(positives={"a": ()}, outcome="win")
    with pytest.raises(ValueError):
        build_ice(v, "a")
    with pytest.raises(ValueError):
        build_wce(v, "a")


def test_unknown_agent_is_an_error():
    v = small_vocab()
    with pytest.raises(KeyError):
        build_ice(v, "zz")


def test_position_variant():
    v = small_vocab()
    f = build_ice(v, "a")
    assert position_variant(f, 0) == f.child
    k2 = position_variant(f, 2)
    assert isinstance(k2, Next) and isinstance(k2.child, Next)
    assert k2.child.child == f.child
    with pytest.raises(ValueError):
        position_variant(parse("p -> q"), 1)
    with pytest.raises(ValueError):
        position_variant(f, -1)


# ---------------------------------------------------------------------------
# entailment probe


def test_probe_of_formula_against_itself():
    s, u = cf_fixture()
    f = parse("G (p -> p)")
    report = entailment_probe(f, f, [("all", s, u)])
    assert report.inclusion_consistent
    assert report.inclusion_counterexamples == ()
    assert report.strictness_witnesses == ()
    assert len(report.members) == 1
    m = report.members[0]
    assert m.label == "all"
    assert m.holds_first and m.holds_second
    assert m.first.result and m.second.result


def test_probe_finds_strictness_witness():
    s, u = cf_fixture()
    stronger = parse("G p")
    weaker = parse("G (p | !p)")
    report = entailment_probe(stronger, weaker, [("m", s, u)])
    assert report.inclusion_consistent
    # the member satisfies the weak formula but not the strong one
    assert report.strictness_witnesses == ("m",)
    m = report.members[0]
    assert not m.holds_first and m.holds_second
    assert m.first.counterexample == "| {}"


def test_probe_flags_inclusion_failure():
    s, u = cf_fixture()
    report = entailment_probe(parse("G (p | !p)"), parse("G p"), [("w", s, u)])
    assert not report.inclusion_consistent
    assert report.inclusion_counterexamples == ("w",)
    assert report.strictness_witnesses == ()


def test_probe_report_serialization_and_text():
    s, u = cf_fixture()
    r1 = entailment_probe(parse("G p"), parse("G (p | !p)"), [("w", s, u)])
    r2 = entailment_probe(parse("G p"), parse("G (p | !p)"), [("w", s, u)])
    assert r1.to_dict() == r2.to_dict()  # deterministic
    d = json.loads(json.dumps(r1.to_dict()))  # JSON-ready as it stands
    assert d["first"] == "G p"
    assert d["members"][0]["label"] == "w"
    text = r1.to_text()
    assert "G p" in text and "G (p | !p)" in text
    assert "[w] f1=unsat f2=sat" in text
    assert "consistent with Mod(f1) <= Mod(f2)" in text
    assert "strictness witnessed by: w" in text
    assert "f1 counterexample: | {} (2 failing)" in text

    r3 = entailment_probe(parse("G (p | !p)"), parse("G p"), [("w", s, u)])
    assert "inclusion violated by: w" in r3.to_text()
    r4 = entailment_probe(parse("G p"), parse("G p"), [("w", s, u)])
    assert "no strictness witness in this family" in r4.to_text()
