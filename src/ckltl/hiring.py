"""A two-agent hiring market: every system variant used in the worked
explainability analysis, plus its canonical single-round trace universe.

An applicant (`a`) and a recruiter (`r`) each carry a job attribute
(accounting / sales / it) and a gender attribute (m / f).  A decision state
records one choice of all four; `offer` holds exactly when the applicant's
attributes match what the recruiter is looking for.  The structure is fully
connected with an attribute-free start state, so a single round is: start,
one decision, then idle forever.

Variants:

* explainable    -- both agents observe everything
* unexplainable  -- each agent observes only its own attributes and `offer`
* restricted     -- applicant job limited to {sales, it}; full observation
* gender_frozen  -- full observation, but the applicant's similarity relation
                    refuses to compare traces that alter a_m/a_f anywhere
"""

from __future__ import annotations

from pathlib import Path

from .formula import (
    And,
    Globally,
    Historically,
    Iff,
    RelationalFormula,
    TracedAtom,
    conjoin,
)
from .model import (
    SIM_PARAMS,
    KripkeStructure,
    System,
    save_system,
    subset_similarity,
)
from .specs import AttributeVocabulary
from .trace import LassoTrace, TraceUniverse, generate_universe

JOBS = ("accounting", "sales", "it")
GENDERS = ("m", "f")
APPLICANT = "a"
RECRUITER = "r"
AGENTS = (APPLICANT, RECRUITER)

ATTRIBUTES = {
    APPLICANT: ("a_accounting", "a_sales", "a_it", "a_m", "a_f"),
    RECRUITER: ("r_accounting", "r_sales", "r_it", "r_m", "r_f"),
}
OFFER = "offer"
APS = ATTRIBUTES[APPLICANT] + ATTRIBUTES[RECRUITER] + (OFFER,)

START = "s0"


def decision_label(a_job: str, a_gen: str, r_job: str, r_gen: str) -> frozenset:
    """Label of the decision state (a_job, a_gen, r_job, r_gen); `offer`
    iff the applicant matches the recruiter's sought profile."""
    label = {f"a_{a_job}", f"a_{a_gen}", f"r_{r_job}", f"r_{r_gen}"}
    if a_job == r_job and a_gen == r_gen:
        label.add(OFFER)
    return frozenset(label)


def build_hiring_kripke(include_accounting_for_applicant: bool = True) -> KripkeStructure:
    """Fully connected structure: the unlabeled start state plus one state
    per decision (37 states, or 25 when the applicant job set drops
    accounting)."""
    a_jobs = (
        JOBS
        if include_accounting_for_applicant
        else tuple(j for j in JOBS if j != "accounting")
    )
    states = [START]
    labels = {START: frozenset()}
    for x in a_jobs:
        for y in GENDERS:
            for v in JOBS:
                for w in GENDERS:
                    s = f"{x}_{y}_{v}_{w}"
                    states.append(s)
                    labels[s] = decision_label(x, y, v, w)
    all_states = tuple(states)
    transitions = {s: all_states for s in all_states}
    return KripkeStructure(all_states, START, transitions, APS, labels)


def _gender_freeze(params: tuple[str, str, str] = SIM_PARAMS):
    """Both compared traces must agree with the reference on the applicant's
    gender at every position, future and past."""
    ref, near, far = params
    parts = []
    for p in ("a_m", "a_f"):
        on_ref = TracedAtom(p, ref)
        parts.append(Iff(TracedAtom(p, near), on_ref))
        parts.append(Iff(TracedAtom(p, far), on_ref))
    block = conjoin(parts)
    return And(Globally(block), Historically(block))


def attribute_similarity() -> RelationalFormula:
    """Subset similarity over the ten attribute propositions; `offer` is
    deliberately not part of the comparison alphabet."""
    return subset_similarity(ATTRIBUTES[APPLICANT] + ATTRIBUTES[RECRUITER])


def gender_frozen_similarity() -> RelationalFormula:
    base = attribute_similarity()
    return RelationalFormula(base.params, And(base.formula, _gender_freeze(base.params)))


def _hiring(limited: bool = False, frozen: bool = False,
            include_accounting_for_applicant: bool = True) -> System:
    """The recipe of every variant: both agents observe every proposition,
    or (`limited`) each only its own attributes plus `offer`; both compare
    by subset similarity, the applicant by the gender-frozen variant when
    `frozen`."""
    if limited:
        obs = {ag: frozenset(ATTRIBUTES[ag]) | {OFFER} for ag in AGENTS}
    else:
        obs = {ag: frozenset(APS) for ag in AGENTS}
    sigma = attribute_similarity()
    sim = {APPLICANT: gender_frozen_similarity() if frozen else sigma, RECRUITER: sigma}
    return System(build_hiring_kripke(include_accounting_for_applicant), AGENTS, obs, sim)


def build_explainable() -> System:
    return _hiring()


def build_unexplainable() -> System:
    return _hiring(limited=True)


def build_restricted() -> System:
    return _hiring(include_accounting_for_applicant=False)


def build_gender_frozen() -> System:
    return _hiring(frozen=True)


VARIANTS = {
    "explainable": build_explainable,
    "unexplainable": build_unexplainable,
    "restricted": build_restricted,
    "gender-frozen": build_gender_frozen,
}


def hiring_vocabulary() -> AttributeVocabulary:
    return AttributeVocabulary(positives=dict(ATTRIBUTES), outcome=OFFER)


def single_round_universe(system_or_kripke) -> TraceUniverse:
    """All traces of the shape start, one decision, idle forever (the idle
    trace included): 37 traces for the full structure, 25 restricted."""
    return generate_universe(
        system_or_kripke, max_prefix=2, max_loop=1, loop_states=(START,)
    )


def idle_trace() -> LassoTrace:
    return LassoTrace((), (frozenset(),)).canonical()


def decision_trace(a_job: str, a_gen: str, r_job: str, r_gen: str) -> LassoTrace:
    """The single-round trace whose second letter is the given decision."""
    return LassoTrace(
        (frozenset(), decision_label(a_job, a_gen, r_job, r_gen)),
        (frozenset(),),
    ).canonical()


def export_fixtures(directory) -> list[str]:
    """Write every variant to the model file format; returns the file names."""
    out = []
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, build in sorted(VARIANTS.items()):
        fname = f"{name.replace('-', '_')}.json"
        save_system(build(), directory / fname)
        out.append(fname)
    return out
