"""Structures, validation, the JSON model format, similarity templates."""

import json
import random
from pathlib import Path

import pytest

from ckltl import (
    And,
    Globally,
    Historically,
    InvariantViolation,
    KripkeStructure,
    ModelFormatError,
    RelationalFormula,
    System,
    TracedAtom,
    UnknownAgentError,
    load_system,
    save_system,
    subset_similarity,
    system_from_dict,
    system_to_dict,
    to_source,
)
from ckltl import formula
from ckltl.model import SIM_PARAMS

from gen import gen_system

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


def test_kripke_validation_lists_every_defect_in_order():
    bad = KripkeStructure(
        states=("s0", "s1", "s2", "s1"),
        initial="sZ",
        transitions={"s0": ("s1", "sX", "s0", "sY"), "s1": (), "s2": ("s2",), "sU": ("s0",)},
        aps=("p",),
        labels={"s0": frozenset({"p", "zz", "aa"}), "s2": frozenset({"q"}), "sV": frozenset()},
    )
    assert bad.validate() == [
        "duplicate state ids",
        "initial state 'sZ' is not a state",
        "transition 's0' -> 'sX' leaves the state set",
        "transition 's0' -> 'sY' leaves the state set",
        "state 's0' is labeled with undeclared propositions ['aa', 'zz']",
        "state 's1' has no successor (relation must be serial)",
        "state 's2' is labeled with undeclared propositions ['q']",
        "state 's1' has no successor (relation must be serial)",
        "transitions declared for unknown state 'sU'",
        "labels declared for unknown state 'sV'",
    ]


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
            assert rf == RelationalFormula(params, rf.formula)
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


def test_from_dict_refuses_what_is_not_a_list_of_strings():
    # a string would load as its letters; the message names the field and
    # its state or agent
    for keys, bad, what in ((("aps",), "pq", "aps"),
                            (("states", 1, "labels"), "p", "state 's1': labels"),
                            (("transitions", "s0"), "s1", "state 's0': transitions"),
                            (("agents", 0, "observes"), "pq", "agent 'a': observes"),
                            (("agents", 0, "observes"), ["p", 1], "agent 'a': observes")):
        d = system_to_dict(tiny_system())
        node = d
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = bad
        with pytest.raises(ModelFormatError) as e:
            system_from_dict(d)
        assert str(e.value) == f"{what} must be a list of strings, got {bad!r}"
    d = system_to_dict(tiny_system())
    d["transitions"] = [["s0", "s1"]]
    with pytest.raises(ModelFormatError, match="malformed model file"):
        system_from_dict(d)


@pytest.mark.parametrize("keys, bad, what", [
    (("initial",), ["s0"], "initial"),
    (("states", 0, "id"), 0, "state id"),
    (("agents", 0, "name"), ["a"], "agent name"),
    (("agents", 0, "similarity", "formula"), 5, "agent 'a': similarity formula"),
    (("agents", 0, "similarity", "formula"), ["x"], "agent 'a': similarity formula"),
], ids=["list-initial", "numeric-state-id", "list-agent-name", "numeric-formula",
        "list-formula"])
def test_from_dict_refuses_what_is_not_a_string(keys, bad, what):
    # a non-string used to reach a hash, `parse` or a state lookup, and fail
    # there with an error that names no field
    d = system_to_dict(tiny_system())
    node = d
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = bad
    with pytest.raises(ModelFormatError) as e:
        system_from_dict(d)
    assert str(e.value) == f"{what} must be a string, got {bad!r}"


def test_equal_relations_are_checked_once_while_one_lives(monkeypatch):
    # two hiring fixtures, four agents, one relation: the check walks it
    # (through `formula.children`) for the first agent only.  The parameters
    # are renamed so that no relation built elsewhere is alive.
    walked, children = [], formula.children
    monkeypatch.setattr(formula, "children", lambda f: walked.append(f) or children(f))
    dicts = [json.loads((FIXTURES / name).read_text().replace("pi", "once_pi"))
             for name in ("explainable.json", "unexplainable.json")]
    systems = [system_from_dict(d) for d in dicts]
    rel = systems[0].similarity_of("a")
    assert all(s.similarity_of(a) == rel for s in systems for a in s.agents)
    assert walked.count(rel.formula) == 1


def test_from_dict_rejects_invariant_violations():
    d = system_to_dict(tiny_system())
    d["initial"] = "missing"
    with pytest.raises(InvariantViolation):
        system_from_dict(d)
    d["initial"] = "nope"
    with pytest.raises(InvariantViolation, match="^initial state 'nope' is not a state$"):
        system_from_dict(d)
