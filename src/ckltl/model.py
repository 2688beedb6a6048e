"""Finite multi-agent structures: states, transitions, observation and
similarity maps, plus the JSON file format.

A structure is serial (every state has a successor).  Each agent owns a set of
observable propositions and a relational similarity formula over three trace
variables (reference, closer candidate, farther candidate) that induces its
counterfactual accessibility and comparative-similarity relations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .formula import (
    And,
    Globally,
    Historically,
    Iff,
    Implies,
    Not,
    ParseError,
    RelationalFormula,
    RelationalFormulaError,
    TracedAtom,
    _is_name,
    conjoin,
    memo,
    parse,
    to_source,
)


class ModelFormatError(ValueError):
    """Malformed model file (bad JSON, missing or mistyped fields)."""


class InvariantViolation(ValueError):
    """A structural invariant of the model does not hold."""

    def __init__(self, problems: list[str]):
        self.problems = tuple(problems)
        super().__init__("; ".join(problems))


class UnknownAgentError(KeyError):
    def __init__(self, agent: str):
        super().__init__(agent)
        self.agent = agent

    def __str__(self) -> str:
        return f"unknown agent: {self.agent!r}"


@dataclass(frozen=True)
class KripkeStructure:
    """States with labels and a serial transition relation.

    Treated as immutable after construction; all mappings are private copies.
    """

    states: tuple[str, ...]
    initial: str
    transitions: Mapping[str, tuple[str, ...]]
    aps: tuple[str, ...]
    labels: Mapping[str, frozenset]

    def __post_init__(self):
        object.__setattr__(self, "transitions", dict(self.transitions))
        object.__setattr__(self, "labels", dict(self.labels))

    def validate(self) -> list[str]:
        problems = []
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            problems.append("duplicate state ids")
        if self.initial not in state_set:
            problems.append(f"initial state {self.initial!r} is not a state")
        ap_set = set(self.aps)
        if len(ap_set) != len(self.aps):
            problems.append("duplicate propositions")
        problems += [f"proposition {p!r} is not a formula identifier"
                     for p in self.aps if not _is_name(p)]
        for s in self.states:
            succ = self.transitions.get(s, ())
            if not succ:
                problems.append(f"state {s!r} has no successor (relation must be serial)")
            elif not state_set.issuperset(succ):  # one C-level test per sound state
                for s2 in succ:
                    if s2 not in state_set:
                        problems.append(f"transition {s!r} -> {s2!r} leaves the state set")
            label = self.labels.get(s, frozenset())
            if not ap_set.issuperset(label):
                problems.append(f"state {s!r} is labeled with undeclared propositions "
                                f"{sorted(label - ap_set)}")
        for s in self.transitions:
            if s not in state_set:
                problems.append(f"transitions declared for unknown state {s!r}")
        for s in self.labels:
            if s not in state_set:
                problems.append(f"labels declared for unknown state {s!r}")
        return problems


@dataclass(frozen=True)
class System:
    """A structure with per-agent observations and similarity (private copies)."""

    kripke: KripkeStructure
    agents: tuple[str, ...]
    observation: Mapping[str, frozenset]
    similarity: Mapping[str, RelationalFormula]

    def __post_init__(self):
        object.__setattr__(self, "observation", dict(self.observation))
        object.__setattr__(self, "similarity", dict(self.similarity))

    def observation_of(self, agent: str) -> frozenset:
        try:
            return frozenset(self.observation[agent])
        except KeyError:
            raise UnknownAgentError(agent) from None

    def similarity_of(self, agent: str) -> RelationalFormula:
        try:
            return self.similarity[agent]
        except KeyError:
            raise UnknownAgentError(agent) from None

    def validate(self) -> list[str]:
        """Every broken invariant, as messages.  A relation's parameters and
        propositions are not looked at: building the relation refused any
        that formulas cannot write, so no relation's nodes are walked."""
        problems = self.kripke.validate()
        agent_set = set(self.agents)
        if len(agent_set) != len(self.agents):
            problems.append("duplicate agent names")
        problems += [f"agent name {a!r} is not a formula identifier"
                     for a in self.agents if not _is_name(a)]
        for mapping, what in ((self.observation, "observation"), (self.similarity, "similarity")):
            if set(mapping) != agent_set:
                problems.append(
                    f"{what} map domain {sorted(mapping)} differs from agents {sorted(agent_set)}"
                )
        ap_set = set(self.kripke.aps)
        for a, obs in self.observation.items():
            extra = set(obs) - ap_set
            if extra:
                problems.append(
                    f"agent {a!r} observes undeclared propositions {sorted(extra)}"
                )
        return problems


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------
#
# {
#   "aps": ["p", ...],
#   "states": [{"id": "s0", "labels": ["p", ...]}, ...],
#   "initial": "s0",
#   "transitions": {"s0": ["s0", "s1"], ...},
#   "agents": [
#     {"name": "a",
#      "observes": ["p", ...],
#      "similarity": {"params": ["pi", "pi1", "pi2"], "formula": "..."}}
#   ]
# }


def system_to_dict(system: System) -> dict:
    k = system.kripke
    return {
        "aps": list(k.aps),
        "states": [{"id": s, "labels": sorted(k.labels[s])} for s in k.states],
        "initial": k.initial,
        "transitions": {s: list(k.transitions[s]) for s in k.states},
        "agents": [
            {
                "name": a,
                "observes": sorted(system.observation[a]),
                "similarity": {
                    "params": list(system.similarity[a].params),
                    "formula": to_source(system.similarity[a].formula),
                },
            }
            for a in system.agents
        ],
    }


def _strings(value, what: str, *args) -> tuple[str, ...]:
    """`value`, a JSON list of strings, as a tuple; a string is refused too.
    The message names `what.format(*args)`, built only when it is raised."""
    if not (isinstance(value, list) and all(map(str.__instancecheck__, value))):
        raise ModelFormatError(f"{what.format(*args)} must be a list of strings, got {value!r}")
    return tuple(value)


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ModelFormatError(f"{what} must be a string, got {value!r}")
    return value


def system_from_dict(data: dict) -> System:
    try:
        aps = _strings(data["aps"], "aps")
        state_items = data["states"]
        states = tuple(_string(item["id"], "state id") for item in state_items)
        labels = {s: frozenset(_strings(item["labels"], "state {!r}: labels", s))
                  for s, item in zip(states, state_items)}
        initial = _string(data["initial"], "initial")
        transitions = {s: _strings(ts, "state {!r}: transitions", s)
                       for s, ts in data["transitions"].items()}
        agent_items = data["agents"]
        if not isinstance(agent_items, list):
            raise ModelFormatError(
                f"agents must be a list of agent entries, got {agent_items!r}")
    except (KeyError, TypeError, AttributeError) as exc:  # transitions with no `.items()`
        raise ModelFormatError(f"malformed model file: {exc}") from exc
    kripke = KripkeStructure(states, initial, transitions, aps, labels)
    agents = []
    observation = {}
    similarity = {}
    for item in agent_items:
        try:
            name = _string(item["name"], "agent name")
            obs = frozenset(_strings(item["observes"], "agent {!r}: observes", name))
            params = item["similarity"]["params"]
            formula_text = _string(item["similarity"]["formula"],
                                   f"agent {name!r}: similarity formula")
        except (KeyError, TypeError) as exc:
            raise ModelFormatError(f"malformed agent entry: {exc}") from exc
        if not (isinstance(params, list) and all(isinstance(p, str) for p in params)
                and len(set(params)) == len(params) == 3):
            raise ModelFormatError(
                f"agent {name!r}: similarity params must be a list of 3 distinct"
                f" trace variable names, got {params!r}"
            )
        agents.append(name)
        observation[name] = obs
        try:
            similarity[name] = RelationalFormula(tuple(params), parse(formula_text))
        except (ParseError, RelationalFormulaError) as exc:
            raise ModelFormatError(
                f"agent {name!r}: bad similarity formula: {exc}"
            ) from exc
    system = System(kripke, tuple(agents), observation, similarity)
    problems = system.validate()
    if problems:
        raise InvariantViolation(problems)
    return system


def load_system(path) -> System:
    """Load and fully validate a model file.

    Raises :class:`ModelFormatError` on malformed input and
    :class:`InvariantViolation` when a structural rule fails.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    return system_from_dict(data)


def save_system(system: System, path) -> None:
    Path(path).write_text(
        json.dumps(system_to_dict(system), indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Similarity templates
# ---------------------------------------------------------------------------

SIM_PARAMS = ("pi", "pi1", "pi2")


def subset_similarity(
    props, params: tuple[str, str, str] = SIM_PARAMS
) -> RelationalFormula:
    """Change-set containment similarity over the given propositions.

    The candidate bound to the second parameter is at least as similar to the
    reference as the third-parameter candidate when, at every position (future
    and past), every proposition on which the closer candidate differs from
    the reference also differs on the farther candidate::

        G (AND_p (!(p@pi <-> p@pi1) -> !(p@pi <-> p@pi2)))
      & H (AND_p ...)

    The induced relation is a preorder with the reference itself as minimum.
    The unique table maps the propositions and parameters to the checked
    relation while it lives, so building it again returns it without
    building or checking its body.
    """
    props = tuple(props)
    ref, near, far = params  # `RelationalFormula` refuses repeated ones

    def build() -> RelationalFormula:
        parts = []
        for p in props:
            on_ref = TracedAtom(p, ref)
            differs_near = Not(Iff(on_ref, TracedAtom(p, near)))
            differs_far = Not(Iff(on_ref, TracedAtom(p, far)))
            parts.append(Implies(differs_near, differs_far))
        # G and H over the same pointwise block: the evaluator recognises this
        # all-positions shape and ANDs the block's cells, one per position;
        # other relations are evaluated on views of the universe that bind
        # the reference and nearer traces
        block = conjoin(parts)
        return RelationalFormula(tuple(params), And(Globally(block), Historically(block)))

    return memo((subset_similarity, props, ref, near, far), build)
