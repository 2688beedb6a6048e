"""Structures, validation, the JSON model format, similarity templates."""

import json
import random

import pytest

from ckltl import (
    And,
    Globally,
    Historically,
    InvariantViolation,
    KripkeStructure,
    ModelFormatError,
    System,
    TracedAtom,
    UnknownAgentError,
    load_system,
    save_system,
    subset_similarity,
    system_from_dict,
    system_to_dict,
    to_source,
    validate_relational,
)
from ckltl.model import SIM_PARAMS

from gen import gen_system


def tiny_kripke():
    return KripkeStructure(
        states=("s0", "s1"),
        initial="s0",
        transitions={"s0": ("s1",), "s1": ("s0", "s1")},
        aps=("p", "q"),
        labels={"s0": frozenset(), "s1": frozenset({"p"})},
    )


def tiny_system():
    return System(
        kripke=tiny_kripke(),
        agents=("a",),
        observation={"a": frozenset({"p"})},
        similarity={"a": subset_similarity(("p", "q"))},
    )


def test_valid_structures_have_no_problems():
    assert tiny_kripke().validate() == []
    assert tiny_system().validate() == []


def test_kripke_keeps_private_copies_of_its_mappings():
    transitions = {"s0": ("s1",), "s1": ("s0", "s1")}
    labels = {"s0": frozenset(), "s1": frozenset({"p"})}
    k = KripkeStructure(("s0", "s1"), "s0", transitions, ("p", "q"), labels)
    transitions["s0"] = ()
    labels["s1"] = frozenset({"zz"})
    del labels["s0"]
    assert k.validate() == []
    assert k.transitions == {"s0": ("s1",), "s1": ("s0", "s1")}
    assert k.labels == {"s0": frozenset(), "s1": frozenset({"p"})}
    assert k == tiny_kripke()


def test_system_keeps_private_copies_of_its_mappings():
    obs, sim = {"a": frozenset({"p"})}, {"a": subset_similarity(("p", "q"))}
    s = System(tiny_kripke(), ("a",), obs, sim)
    del sim["a"]
    obs["a"] = frozenset({"zz"})
    assert s.validate() == []
    assert s.observation_of("a") == frozenset({"p"})
    assert s.similarity_of("a") == subset_similarity(("p", "q"))


def test_kripke_validation_catches_each_defect():
    k = tiny_kripke()
    bad = KripkeStructure(k.states, "nope", k.transitions, k.aps, k.labels)
    assert any("initial" in p for p in bad.validate())

    bad = KripkeStructure(k.states, k.initial, {"s0": ("s1",), "s1": ()}, k.aps, k.labels)
    assert any("serial" in p for p in bad.validate())

    bad = KripkeStructure(k.states, k.initial, {"s0": ("sX",), "s1": ("s0",)}, k.aps, k.labels)
    assert any("leaves the state set" in p for p in bad.validate())

    bad = KripkeStructure(
        k.states, k.initial, k.transitions, ("p",), {"s0": frozenset(), "s1": frozenset({"zz"})}
    )
    assert any("undeclared" in p for p in bad.validate())

    bad = KripkeStructure(("s0", "s0"), "s0", {"s0": ("s0",)}, k.aps, {"s0": frozenset()})
    assert any("duplicate" in p for p in bad.validate())


def test_system_validation_domain_mismatch():
    s = tiny_system()
    bad = System(s.kripke, ("a", "b"), s.observation, s.similarity)
    problems = bad.validate()
    assert any("observation" in p for p in problems)
    assert any("similarity" in p for p in problems)


def test_system_validation_unknown_observed_prop():
    s = tiny_system()
    bad = System(s.kripke, ("a",), {"a": frozenset({"zz"})}, s.similarity)
    assert any("undeclared" in p for p in bad.validate())


def test_unknown_agent_lookups():
    s = tiny_system()
    with pytest.raises(UnknownAgentError):
        s.observation_of("zz")
    with pytest.raises(UnknownAgentError):
        s.similarity_of("zz")


def test_subset_similarity_shape():
    rf = subset_similarity(("p", "q"))
    assert rf.params == SIM_PARAMS
    body = rf.formula
    assert isinstance(body, And)
    assert isinstance(body.left, Globally)
    assert isinstance(body.right, Historically)
    # future and past halves share the same block object
    assert body.left.child is body.right.child
    src = to_source(body)
    for var in SIM_PARAMS:
        assert f"@{var}" in src


def test_subset_similarity_accepts_any_iterable_of_props():
    rf = subset_similarity(("p", "q"))
    assert subset_similarity(p for p in ("p", "q")).formula is rf.formula
    assert subset_similarity(["p", "q"], list(SIM_PARAMS)) == rf
    # the parameters are part of the relation, not only its wrapper
    other = subset_similarity(("p", "q"), ("u", "v", "w"))
    assert other.formula is not rf.formula and "@u" in to_source(other.formula)


def test_subset_similarity_is_valid_by_construction():
    for props in [("p",), ("p", "q"), ("q", "p", "s"), ("a_job", "r_gen", "offer")]:
        for params in [SIM_PARAMS, ("u", "v", "w")]:
            rf = subset_similarity(props, params)
            assert rf == validate_relational(rf.formula, params)
    with pytest.raises(ValueError, match="duplicate trace parameters"):
        subset_similarity(("p",), ("pi", "pi", "pi2"))


def test_json_roundtrip_identity():
    s = tiny_system()
    d = system_to_dict(s)
    s2 = system_from_dict(d)
    assert s2.kripke == s.kripke
    assert s2.agents == s.agents
    assert {a: frozenset(o) for a, o in s2.observation.items()} == {
        a: frozenset(o) for a, o in s.observation.items()
    }
    for a in s.agents:
        assert to_source(s2.similarity_of(a).formula) == to_source(
            s.similarity_of(a).formula
        )


def test_json_roundtrip_random_systems():
    r = random.Random(31)
    for _ in range(25):
        s = gen_system(r)
        s2 = system_from_dict(system_to_dict(s))
        assert s2.kripke == s.kripke
        assert system_to_dict(s2) == system_to_dict(s)


def test_save_and_load(tmp_path):
    s = tiny_system()
    path = tmp_path / "m.json"
    save_system(s, path)
    s2 = load_system(path)
    assert system_to_dict(s2) == system_to_dict(s)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_system(path)

    path.write_text(json.dumps({"states": []}))
    with pytest.raises(ModelFormatError):
        load_system(path)


def test_from_dict_rejects_bad_similarity():
    d = system_to_dict(tiny_system())
    d["agents"][0]["similarity"]["formula"] = "p & q"  # untraced atoms
    with pytest.raises(ModelFormatError):
        system_from_dict(d)


def test_from_dict_rejects_bad_similarity_params():
    # repeated names, a string (not split into letters), too few, non-strings
    for params in (["pi", "pi", "pi2"], "xyz", ["pi", "pi1"], ["pi", "pi1", 2], None):
        d = system_to_dict(tiny_system())
        d["agents"][0]["similarity"]["params"] = params
        with pytest.raises(ModelFormatError) as e:
            system_from_dict(d)
        assert str(e.value) == ("agent 'a': similarity params must be a list of 3"
                                f" distinct trace variable names, got {params!r}")


def test_from_dict_rejects_invariant_violations():
    d = system_to_dict(tiny_system())
    d["initial"] = "missing"
    with pytest.raises(InvariantViolation):
        system_from_dict(d)
