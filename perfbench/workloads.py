"""The benchmark's workloads.

A workload turns (checkout root, seed) into passes.  `setup(pass_no)` builds
everything a pass needs (systems, universes, requirement formulas and fresh
evaluation contexts) and returns the pass's checks in order.  Every check
carries a verifier whose reference does not come from the engine under test
alone: hand-written ground truths, closed forms, the FO oracle, or verdict
digests recorded once by `record.py` and cross-validated there.

Library functions are looked up through their modules at call time
(`ckltl.check_system`, not a name imported here), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import product
from math import comb
from pathlib import Path
from typing import Callable

import ckltl
import ckltl.foe
import ckltl.hiring
from ckltl import (
    AttributeVocabulary,
    KripkeStructure,
    LassoTrace,
    Might,
    Not,
    System,
    Would,
    subset_similarity,
    universe_of,
)

from gen import gen_formula, gen_system, gen_universe

HERE = Path(__file__).resolve().parent
REFS_FILE = HERE / "refs.json"

# the library's default; the exact-mode law checks use the tests' 256
LAW_CAP = 256


@dataclass
class Check:
    name: str  # names the input when the check fails
    run: Callable[[], object]
    verify: Callable[[object], "str | None"]  # None, or why the output is wrong


def verdict_digest(v) -> str:
    return hashlib.sha256(
        json.dumps(v.to_dict(), sort_keys=True).encode()
    ).hexdigest()


def load_refs() -> dict:
    return json.loads(REFS_FILE.read_text())


def digest_verifier(expected: str):
    def verify(v):
        got = verdict_digest(v)
        return None if got == expected else f"verdict digest {got[:12]} != {expected[:12]}"
    return verify


# ---------------------------------------------------------------------------
# hiring, single round
# ---------------------------------------------------------------------------

VARIANT_FILES = {
    "explainable": "explainable.json",
    "unexplainable": "unexplainable.json",
    "restricted": "restricted.json",
    "gender-frozen": "gender_frozen.json",
}
IDLE = "| {}"


def hiring_requirements(variant: str):
    """(label, formula) in check order; each built separately, as a user
    checking one requirement at a time would."""
    vocab = ckltl.hiring.hiring_vocabulary()
    out = [
        ("ICE@1", ckltl.position_variant(ckltl.build_ice(vocab, "a"), 1)),
        ("ICE", ckltl.build_ice(vocab, "a")),
        ("WCE", ckltl.build_wce(vocab, "a")),
        ("GCE", ckltl.build_gce(vocab, "a", "a")),
    ]
    if variant == "restricted":
        out.append(("GCE@1", ckltl.position_variant(ckltl.build_gce(vocab, "a", "a"), 1)))
    if variant == "gender-frozen":
        out.append(("ECE@1", ckltl.position_variant(ckltl.build_ece(vocab, "a", "r"), 1)))
    return out


def _ground_truths() -> dict:
    """Hand-written truths of the acceptance criteria for the @1 checks."""
    pi = ckltl.format_trace(ckltl.hiring.decision_trace("it", "f", "sales", "f"))
    pi2 = ckltl.format_trace(ckltl.hiring.decision_trace("it", "f", "accounting", "f"))

    def idle_only(v):
        return not v.result and v.counterexamples == (IDLE,) and v.counterexample == IDLE

    return {
        # all 36 decision traces are explainable; the idle trace is not
        "explainable/ICE@1": (idle_only, "fails on | {} only"),
        "unexplainable/ICE@1": (
            lambda v: not v.result and len(v.counterexamples) == 31
            and pi in v.counterexamples and IDLE in v.counterexamples,
            "fails on 31 traces, pi and | {} among them"),
        "restricted/ICE@1": (
            lambda v: not v.result and pi2 in v.counterexamples,
            "fails, pi'' among the counterexamples"),
        "gender-frozen/ICE@1": (
            lambda v: not v.result and len(v.counterexamples) == 19,
            "fails on 19 traces"),
        "restricted/GCE@1": (idle_only, "fails on | {} only"),
        "gender-frozen/ECE@1": (idle_only, "fails on | {} only"),
    }


def truth_verifier(pred, text):
    def verify(v):
        return None if pred(v) else f"expected: {text}; got {len(v.counterexamples)} counterexamples"
    return verify


class Hiring1Round:
    """The four hiring variants on their single-round universes."""

    name = "hiring-1round"

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.refs = load_refs()[self.name]
        self.truths = _ground_truths()

    def setup(self, pass_no: int) -> list[Check]:
        checks = []
        for variant, fname in VARIANT_FILES.items():
            system = ckltl.load_system(self.root / "fixtures" / fname)
            universe = ckltl.hiring.single_round_universe(system)
            ctx = ckltl.EvalContext.exact(system, universe)
            for label, f in hiring_requirements(variant):
                key = f"{variant}/{label}"
                if key in self.truths:
                    verify = truth_verifier(*self.truths[key])
                else:
                    verify = digest_verifier(self.refs[key])
                checks.append(Check(key, lambda c=ctx, f=f: ckltl.check_system(c, f), verify))
        return checks


# ---------------------------------------------------------------------------
# hiring, two rounds
# ---------------------------------------------------------------------------

TWO_ROUND_SIZES = (25, 50, 75, 100, 150)


def two_round_universe(system):
    return ckltl.generate_universe(system, max_prefix=3, max_loop=1, loop_states=("s0",))


def two_round_sample(full, size: int):
    """The sample of the given size: a fixed seeded draw from the full
    universe, kept in universe order, so its verdict digest can be recorded
    once.  Draws of one size differ in cost by up to a third, so the run seed
    does not redraw them: every run checks the same samples in the same
    order."""
    r = random.Random(f"hiring-2round/{size}/0")
    picked = sorted(r.sample(range(len(full)), size))
    return universe_of(full.traces[k] for k in picked)


class Hiring2Round:
    """ICE@1 on fixed seeded samples of the 625-trace two-round restricted
    universe, 25 to 150 traces, a fresh context per sample."""

    name = "hiring-2round"

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.refs = load_refs()[self.name]

    def setup(self, pass_no: int) -> list[Check]:
        system = ckltl.load_system(self.root / "fixtures" / "restricted.json")
        full = two_round_universe(system)
        vocab = ckltl.hiring.hiring_vocabulary()
        checks = []
        for size in TWO_ROUND_SIZES:
            universe = two_round_sample(full, size)
            ctx = ckltl.EvalContext.exact(system, universe)
            f = ckltl.position_variant(ckltl.build_ice(vocab, "a"), 1)
            checks.append(Check(f"ICE@1/sample-{size}",
                                lambda c=ctx, f=f: ckltl.check_system(c, f),
                                digest_verifier(self.refs[str(size)])))
        return checks


# ---------------------------------------------------------------------------
# large inputs: closed forms over explicit label sequences
# ---------------------------------------------------------------------------


def _plain_system() -> System:
    k = KripkeStructure(("s0",), "s0", {"s0": ("s0",)}, ("p", "q"), {"s0": frozenset()})
    return System(k, ("a",), {"a": frozenset({"p", "q"})},
                  {"a": subset_similarity(("p", "q"))})


def _letter(r: random.Random, p_rate: float, q_rate: float) -> frozenset:
    return frozenset(x for x, rate in (("p", p_rate), ("q", q_rate)) if r.random() < rate)


def _has(t: LassoTrace, j: int, x: str) -> bool:
    return x in t.label_at(j)


# Exact mode.  Positions at or beyond prefix + loop repeat earlier ones, so
# every closed form below scans [0, prefix + loop) at most.
def _cf_hop_or_fp(t, L):  # H O p | F p at L
    return _has(t, 0, "p") or any("p" in c for c in t.loop)


def _since(t, i, left, right) -> bool:  # left S right at i
    for k in range(i, -1, -1):
        if right(k):
            return True
        if not left(k):
            return False
    return False


def _cf_q_since_p(t, L):  # q S p at L
    return _since(t, L, lambda k: _has(t, k, "q"), lambda k: _has(t, k, "p"))


def _cf_g_q_implies_op(t, L):  # G (q -> O p) at 0
    seen_p = False
    for j in range(len(t.prefix) + len(t.loop)):
        seen_p = seen_p or _has(t, j, "p")
        if _has(t, j, "q") and not seen_p:
            return False
    return True


def _cf_p_until_q_late(t, L):  # p U q at L
    for k in range(L, len(t.prefix) + 2 * len(t.loop)):
        if _has(t, k, "q"):
            return True
        if not _has(t, k, "p"):
            return False
    return False


EXACT_KINDS = (
    ("H O p | F p", "L", _cf_hop_or_fp),
    ("q S p", "L", _cf_q_since_p),
    ("G (q -> O p)", "0", _cf_g_q_implies_op),
    ("p U q", "L", _cf_p_until_q_late),
)


# Bounded mode over the window [0, N].
def _bf_p_in_window(t, n):  # O p at N, and F p at 0
    return any(_has(t, j, "p") for j in range(n + 1))


def _bf_hist_not_q(t, n):  # H !q at N
    return not any(_has(t, j, "q") for j in range(n + 1))


def _bf_not_q_since_p(t, n):  # !q S p at N
    return _since(t, n, lambda k: not _has(t, k, "q"), lambda k: _has(t, k, "p"))


BOUNDED_KINDS = (
    ("O p", "N", _bf_p_in_window),
    ("H !q", "N", _bf_hist_not_q),
    ("!q S p", "N", _bf_not_q_since_p),
    ("F p", "0", _bf_p_in_window),
)


def gce_vocabulary(k: int) -> AttributeVocabulary:
    return AttributeVocabulary(
        positives={"a": tuple(f"a{j}" for j in range(k)),
                   "b": tuple(f"b{j}" for j in range(k))},
        outcome="o",
    )


def gce_round_trip(k: int):
    """Build a GCE over k attributes per agent, print it, parse it back,
    compare with the original and desugar it."""
    f = ckltl.build_gce(gce_vocabulary(k), "a", "a")
    src = ckltl.to_source(f)
    back = ckltl.parse(src)
    same = back == f
    core = ckltl.desugar(f)
    return src.count("K[a]"), same, type(core).__name__, type(core.child).__name__


def gce_verifier(k: int):
    pairs = comb(4 * k, 2) - 2 * k  # distinct literal pairs minus p & !p

    def verify(out):
        want = (pairs, True, "Not", "Until")  # desugared G is !(true U !...)
        return None if out == want else f"expected {want}, got {out}"
    return verify


class LargeInputs:
    """Knowledge- and counterfactual-free inputs of large size: long
    prefixes in exact mode, wide windows in bounded mode, and GCE formulas
    over many attributes through the formula layer.

    Sizes form a fixed grid over each range and the seed draws the labels, so
    every pass does about the same work and meets the same known overflows."""

    name = "large-inputs"
    PREFIXES = (500, 1000, 1500, 2000)
    WINDOWS = (200, 400, 600, 800, 1000)
    ATTRIBUTES = (4, 6, 8, 10, 12)

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def setup(self, pass_no: int) -> list[Check]:
        r = random.Random(f"{self.seed}/{pass_no}")
        system = _plain_system()
        checks = []
        for (src, at, closed), L in product(EXACT_KINDS, self.PREFIXES):
            # p in the loop and nowhere before it: F p at every prefix
            # position scans up to the loop, which fixes the cost of a pass
            prefix = tuple(_letter(r, 0.0, 0.5) for _ in range(L))
            loop = [_letter(r, 0.3, 0.5) for _ in range(r.randint(1, 3))]
            j = r.randrange(len(loop))
            loop[j] = loop[j] | {"p"}
            t = LassoTrace(prefix, tuple(loop))
            universe = universe_of([t])
            ctx = ckltl.EvalContext.exact(system, universe)
            f = ckltl.parse(src)
            i = L if at == "L" else 0
            u_t = universe.traces[0]
            checks.append(self._check(f"exact {src} @ {i}, prefix {L}",
                                      lambda c=ctx, t=u_t, i=i, f=f: ckltl.eval_at(c, t, i, f),
                                      closed(t, L)))
        for (src, at, closed), n in product(BOUNDED_KINDS, self.WINDOWS):
            # attributes only at position 0, so past operators recurse to it
            prefix = (_letter(r, 0.5, 0.5),) + tuple(
                frozenset() for _ in range(r.randint(0, 30)))
            t = LassoTrace(prefix, (frozenset(),) * r.randint(1, 3))
            universe = universe_of([t])
            ctx = ckltl.EvalContext.bounded(system, universe, n)
            f = ckltl.parse(src)
            i = n if at == "N" else 0
            u_t = universe.traces[0]
            checks.append(self._check(f"bounded({n}) {src} @ {i}",
                                      lambda c=ctx, t=u_t, i=i, f=f: ckltl.eval_at(c, t, i, f),
                                      closed(t, n)))
        for k in self.ATTRIBUTES:
            checks.append(Check(f"GCE round trip, {k} attributes per agent",
                                lambda k=k: gce_round_trip(k), gce_verifier(k)))
        return checks

    @staticmethod
    def _check(name, run, expected: bool) -> Check:
        def verify(got):
            return None if got == expected else f"expected {expected}, got {got}"
        return Check(name, run, verify)


# ---------------------------------------------------------------------------
# oracle cross-check
# ---------------------------------------------------------------------------


class OracleXcheck:
    """Tiny seeded instances: bounded engine vs translate_at + eval_fo, and
    Might/Would duality in exact mode."""

    name = "oracle-xcheck"
    INSTANCES = 250

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def setup(self, pass_no: int) -> list[Check]:
        r = random.Random(f"{self.seed}/{pass_no}")
        checks = []
        for k in range(self.INSTANCES):
            s = gen_system(r)
            u = gen_universe(r)
            f = ckltl.desugar(gen_formula(r, depth=r.randint(1, 5)))
            n = r.randint(0, 4)
            i = r.randint(0, n)
            t = r.choice(u.traces)
            bctx = ckltl.EvalContext.bounded(s, u, n)
            ectx = ckltl.EvalContext.exact(s, u, stabilization_cap=LAW_CAP)
            agent = r.choice(s.agents)
            ante = gen_formula(r, depth=2, know=0, cf=0)
            cons = gen_formula(r, depth=2, know=0, cf=0)
            might = Might(agent, ante, cons)
            would_not = Would(agent, ante, Not(cons))
            j = r.randint(0, 2)
            dom = ckltl.foe.FoDomain(u, n)

            def run(s=s, f=f, t=t, i=i, bctx=bctx, ectx=ectx, dom=dom, j=j,
                    might=might, would_not=would_not):
                direct = ckltl.eval_at(bctx, t, i, f)
                fo = ckltl.foe.translate_at(f, s)
                oracle = ckltl.foe.eval_fo(dom, fo, {"x0": (t, i)})
                m = ckltl.eval_at(ectx, t, j, might)
                w = ckltl.eval_at(ectx, t, j, would_not)
                return direct, oracle, m, w

            checks.append(Check(f"instance {pass_no}/{k}", run, _oracle_verify))
        return checks


def _oracle_verify(out):
    direct, oracle, m, w = out
    if direct != oracle:
        return f"engine {direct} != FO oracle {oracle}"
    if m == w:
        return f"Might {m} is not the dual of Would-not {w}"
    return None


WORKLOADS = {w.name: w for w in (Hiring1Round, Hiring2Round, LargeInputs, OracleXcheck)}
