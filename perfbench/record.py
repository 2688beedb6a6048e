"""Record the verdict digests that the hiring workloads check against.

    python3 perfbench/record.py          # writes perfbench/refs.json

Each digest is the SHA-256 of `Verdict.to_dict()` from the engine.  Before a
digest is written, the whole verdict is cross-validated against the textbook
evaluator in `reference.py`: the result, every counterexample, the reported
position and the value of every trail entry.  Any disagreement aborts the
recording.  The @1 hiring checks are not recorded: they are checked against
the hand-written truths of the acceptance criteria.

Run it again only when the verdict schema changes on purpose.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ckltl  # noqa: E402
from reference import Reference, window_for  # noqa: E402
from workloads import (  # noqa: E402
    REFS_FILE,
    TWO_ROUND_SIZES,
    VARIANT_FILES,
    hiring_requirements,
    two_round_sample,
    two_round_universe,
    verdict_digest,
)


def cross_validate(system, universe, f, verdict) -> None:
    ref = Reference(system, universe, window_for(universe))
    failing = [ckltl.format_trace(t) for t in universe if not ref.holds(t, f, 0)]
    problems = []
    if verdict.result != (not failing):
        problems.append(f"result {verdict.result}, reference failing {len(failing)}")
    if list(verdict.counterexamples) != failing:
        problems.append(f"counterexamples differ: {len(verdict.counterexamples)} vs {len(failing)}")
    if failing and (verdict.counterexample != failing[0] or verdict.position != 0):
        problems.append("first counterexample or position differs")
    by_name = {ckltl.format_trace(t): t for t in universe}
    for e in verdict.trail:
        g = ckltl.parse(e.formula)
        if ref.holds(by_name[e.trace], g, e.position) != e.value:
            problems.append(f"trail entry {e.formula[:60]!r} @ {e.position} on {e.trace}")
    if problems:
        raise SystemExit("cross-validation failed: " + "; ".join(problems))


def record(system, universe, f, label: str) -> str:
    t0 = time.perf_counter()
    ctx = ckltl.EvalContext.exact(system, universe)
    v = ckltl.check_system(ctx, f)
    t1 = time.perf_counter()
    cross_validate(system, universe, f, v)
    print(f"{label}: {len(universe)} traces, {len(v.counterexamples)} failing, "
          f"engine {t1 - t0:.2f} s, reference {time.perf_counter() - t1:.2f} s", flush=True)
    return verdict_digest(v)


def main() -> int:
    refs = {"hiring-1round": {}, "hiring-2round": {}}
    for variant, fname in VARIANT_FILES.items():
        system = ckltl.load_system(ROOT / "fixtures" / fname)
        universe = ckltl.hiring.single_round_universe(system)
        for label, f in hiring_requirements(variant):
            if "@" in label:
                continue
            key = f"{variant}/{label}"
            refs["hiring-1round"][key] = record(system, universe, f, key)
    system = ckltl.load_system(ROOT / "fixtures" / "restricted.json")
    full = two_round_universe(system)
    vocab = ckltl.hiring.hiring_vocabulary()
    for size in TWO_ROUND_SIZES:
        f = ckltl.position_variant(ckltl.build_ice(vocab, "a"), 1)
        universe = two_round_sample(full, size)
        refs["hiring-2round"][str(size)] = record(system, universe, f, f"2round {size}")
    REFS_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
