"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload hiring-1round --pairs 10 [--seed 1]

Runs `perfbench/run.py --workload W --seed N --seconds S --trace 0` in the
PARENT checkout and in the CHANGE checkout, one process after the other, the
parent first on odd pairs and the change first on even ones, and reads the
JSON object on the last line of each run's output.  Pair k runs both sides
with seed `--seed` + k - 1, so a claim can be checked again on fresh seeds.  For each end-to-end
metric it prints each side's median and quartiles, how many pairs the change
won, and whether a gain may be claimed: the change wins at least nine tenths
of the pairs, ties counting for neither, and the medians differ by more than
the distance between the parent's quartiles.  Which direction is better comes
from the parent's `BENCHMARK.json` (lower when it names no direction).

Exits 1 when a run fails, prints no JSON last line, or reports
`correct: false`.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str = "lower") -> dict:
    """The comparison of one metric over pairs `(parent[i], change[i])`."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair, and a pair or more")
    sign = 1 if better == "lower" else -1
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    gap = sign * (p2 - c2)  # positive when the change's median is better
    return {
        "parent": (p1, p2, p3), "change": (c1, c2, c3),
        "won": won, "pairs": len(parent), "gap": gap, "parent_iqr": p3 - p1,
        "claim_holds": won * 10 >= 9 * len(parent) and gap > p3 - p1,
    }


def directions(checkout: Path) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from the checkout's BENCHMARK.json."""
    try:
        spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}
    return {m["name"]: m.get("better", "lower") for m in spec.get("end_to_end", [])}


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON object of one benchmark run; exits on a failed run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.exit(f"bench_pairs: run in {checkout} failed (exit {proc.returncode}):\n"
                 f"{proc.stderr.strip()[-2000:]}")
    if result.get("correct") is not True:
        sys.exit(f"bench_pairs: run in {checkout} reports correct: {result.get('correct')}")
    return result


def report(name: str, unit: str, s: dict) -> str:
    fmt = "{:.6g} [{:.6g}, {:.6g}]".format
    return (f"{name} ({unit}): parent {fmt(s['parent'][1], s['parent'][0], s['parent'][2])}"
            f"  change {fmt(s['change'][1], s['change'][0], s['change'][2])}"
            f"  change won {s['won']} of {s['pairs']}"
            f"  median gap {s['gap']:.6g} vs parent IQR {s['parent_iqr']:.6g}"
            f"  claim {'holds' if s['claim_holds'] else 'not met'}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            results[side].append(run(getattr(args, side), args.workload,
                                     args.seed + pair - 1, args.seconds))
        print(f"pair {pair}: " + "  ".join(
            f"{side} failed {results[side][-1].get('failed')} " + " ".join(
                f"{name} {m['value']:.6g}" for name, m in results[side][-1]["metrics"].items())
            for side in order), flush=True)
    better = directions(args.parent)
    first = results["parent"][0]["metrics"]
    for name, metric in first.items():
        values = {side: [r["metrics"][name]["value"] for r in runs]
                  for side, runs in results.items()}
        print(report(name, metric["unit"],
                     summarize(values["parent"], values["change"], better.get(name, "lower"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
