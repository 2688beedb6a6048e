"""Builders for counterfactual-explainability requirements, and empirical
entailment probes between requirement families.

The requirements share one shape: at every moment that the outcome is absent,
the knower must know that some pair of attribute literals might
(counterfactually) have produced it.  The families differ in where the pair
disjunction sits and whose attributes feed it:

* ICE  -- G(!outcome -> OR_{a,b} K[ag]((a & b) MIGHT[ag] outcome))
* WCE  -- G(!outcome -> K[ag]((OR_{a,b} a & b) MIGHT[ag] outcome))
* GCE  -- ICE shape, pairs drawn from two agents' literal closures
* ECE  -- ICE shape, K and MIGHT moved to another agent

Pairs range over unordered, distinct, jointly satisfiable literal pairs
(never p & !p).  Entailment between families is probed empirically over a
concrete family of systems; the probe reports evidence and never asserts an
inclusion that the verdicts do not show.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

from .formula import (
    And,
    Atom,
    Formula,
    Globally,
    Implies,
    Know,
    Might,
    Next,
    Not,
    disjoin,
    memo,
    to_source,
)
from .semantics import EvalContext, Verdict, check_system


@dataclass(frozen=True)
class AttributeVocabulary:
    """Per-agent attribute propositions plus the outcome proposition.

    `positives` maps an agent to its positive attribute propositions; the
    literal closure of an agent is those plus their negations, in that order,
    each literal a `(name, positive)` pair."""

    positives: Mapping[str, tuple[str, ...]]
    outcome: str

    def agents(self) -> tuple[str, ...]:
        return tuple(self.positives)

    def literals_of(self, agent: str) -> tuple[tuple[str, bool], ...]:
        if agent not in self.positives:
            raise KeyError(f"no attributes declared for agent {agent!r}")
        pos = self.positives[agent]
        return tuple((p, True) for p in pos) + tuple((p, False) for p in pos)


def _pair_positions(names: Sequence[str]) -> list[tuple[int, int]]:
    """Unordered distinct jointly-satisfiable literal pairs, as index pairs in
    input order.  Two literals are equal or complementary exactly when their
    names match, so only names are compared.  When no such pair exists (an
    attribute and its negation only), falls back to the self-pairs (i, i),
    which builders collapse to the bare literal."""
    n = len(names)
    out = [(i, j) for i in range(n) for j in range(i + 1, n) if names[i] != names[j]]
    return out or [(i, i) for i in range(n)]


def _antecedents(lits: Iterable[tuple[str, bool]]) -> list[Formula]:
    """`a & b` for each satisfiable pair of the (name, sign) literals,
    duplicates dropped (a self-pair is the bare literal)."""
    lits = list(dict.fromkeys(lits))
    if not lits:
        raise ValueError("empty attribute set")
    forms = [Atom(name) if positive else Not(Atom(name)) for name, positive in lits]
    pairs = _pair_positions([name for name, _ in lits])
    return [forms[i] if i == j else And(forms[i], forms[j]) for i, j in pairs]


def _requirement(
    vocab: AttributeVocabulary, agents: Iterable[str], knower: str, cf_agent: str,
    joint_antecedent: bool,
) -> Formula:
    """The requirement over the agents' literals, in the unique table under
    those literals, so a requirement still alive is not built again."""
    lits = tuple(lit for agent in agents for lit in vocab.literals_of(agent))
    outcome = vocab.outcome

    def build() -> Formula:
        antes, offer = _antecedents(lits), Atom(outcome)
        if joint_antecedent:
            body = Know(knower, Might(cf_agent, disjoin(antes), offer))
        else:
            body = disjoin([Know(knower, Might(cf_agent, ante, offer)) for ante in antes])
        return Globally(Implies(Not(offer), body))

    return memo((_requirement, lits, knower, cf_agent, outcome, joint_antecedent), build)


def build_ice(vocab: AttributeVocabulary, agent: str) -> Formula:
    """Internal explainability: at each outcome-less moment the agent knows,
    for some pair of its own attribute literals, that the pair might have
    produced the outcome."""
    return _requirement(vocab, [agent], agent, agent, False)


def build_wce(vocab: AttributeVocabulary, agent: str) -> Formula:
    """Weak variant: one knowledge operator around a single counterfactual
    whose antecedent disjoins all the pairs."""
    return _requirement(vocab, [agent], agent, agent, True)


def build_gce(vocab: AttributeVocabulary, knower: str, cf_agent: str) -> Formula:
    """General variant: pairs drawn from every agent's literal closure in the
    vocabulary (insertion order, duplicates dropped)."""
    return _requirement(vocab, vocab.agents(), knower, cf_agent, False)


def build_ece(vocab: AttributeVocabulary, attr_agent: str, agent: str) -> Formula:
    """External variant: pairs over `attr_agent`'s literals, knowledge and
    counterfactual judged by `agent`."""
    return _requirement(vocab, [attr_agent], agent, agent, False)


def position_variant(f: Formula, k: int) -> Formula:
    """The body of a G-shaped requirement checked at position k only:
    G(body) -> X^k(body)."""
    if not isinstance(f, Globally):
        raise ValueError("position_variant needs a G-shaped formula")
    if k < 0:
        raise ValueError("position must be >= 0")
    out = f.child
    for _ in range(k):
        out = Next(out)
    return out


# ---------------------------------------------------------------------------
# entailment probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeMember:
    label: str
    holds_first: bool
    holds_second: bool
    first: Verdict
    second: Verdict


@dataclass(frozen=True)
class ProbeReport:
    """Empirical evidence about the inclusion Mod(f1) <= Mod(f2) over one
    family of systems.  `inclusion_consistent` means no member satisfied f1
    while falsifying f2; strictness witnesses satisfied f2 but not f1.  The
    report never claims more than the family shows."""

    first: str
    second: str
    members: tuple[ProbeMember, ...]
    inclusion_consistent: bool
    inclusion_counterexamples: tuple[str, ...]
    strictness_witnesses: tuple[str, ...]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = [
            "entailment probe",
            f"  f1: {self.first}",
            f"  f2: {self.second}",
        ]
        for m in self.members:
            lines.append(
                f"  [{m.label}] f1={'sat' if m.holds_first else 'unsat'} "
                f"f2={'sat' if m.holds_second else 'unsat'}"
            )
            for tag, v in (("f1", m.first), ("f2", m.second)):
                if not v.result:
                    lines.append(
                        f"    {tag} counterexample: {v.counterexample} "
                        f"({len(v.counterexamples)} failing)"
                    )
        if self.inclusion_consistent:
            lines.append("  family is consistent with Mod(f1) <= Mod(f2)")
        else:
            lines.append(
                "  inclusion violated by: "
                + ", ".join(self.inclusion_counterexamples)
            )
        if self.strictness_witnesses:
            lines.append(
                "  strictness witnessed by: " + ", ".join(self.strictness_witnesses)
            )
        else:
            lines.append("  no strictness witness in this family")
        return "\n".join(lines)


def entailment_probe(
    f1: Formula,
    f2: Formula,
    family: Sequence,
) -> ProbeReport:
    """Check f1 and f2 on every family member and classify the evidence.

    Family entries are (label, system, universe) triples."""
    members = []
    for label, system, universe in family:
        ctx = EvalContext.exact(system, universe)
        v1 = check_system(ctx, f1)
        v2 = check_system(ctx, f2)
        members.append(ProbeMember(label, v1.result, v2.result, v1, v2))
    bad = tuple(m.label for m in members if m.holds_first and not m.holds_second)
    wit = tuple(m.label for m in members if m.holds_second and not m.holds_first)
    return ProbeReport(
        to_source(f1),
        to_source(f2),
        tuple(members),
        not bad,
        bad,
        wit,
    )
