"""ckltl benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload hiring-1round --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from `src/`, and
the process re-executes itself once with PYTHONHASHSEED fixed.  Each check
starts after the previous verdict.  Set-up builds the contexts fresh for
every pass, because every `ckltl check`/`demo` invocation pays that cost;
importing the package is not timed.  The timed phase runs one whole pass,
and further passes while the next one should end within `--seconds` of check
time.  Every output is verified; a check
fails when it raises, exceeds the per-check time limit, or returns a wrong
verdict.

End-to-end metrics on the last line: setup_s (median set-up time, scaled by a
calibration loop, see `calibration_loop`) and peak_rss_mb.  Printed and
written to the result file: checks_per_s (median over passes of the
successful checks per second of check time), latency_p50_s, latency_tail_s
and failed_share.  They stay off the last line because on a shared host the
speed of the checks drifts by up to a third between runs of equal work, the
median and tail rest on one or two checks when a run holds 5 to 18 of them,
the tail reads as infinite when more than ten checks fail, and failed_share
is 0 on most workloads.  Compare them between two commits with alternating
paired runs.

With `--trace 0` the last line carries the end-to-end metrics.  With
`--trace 1` the run makes one untraced and one traced pass over the same
inputs and the last line carries the per-layer metrics, including the
overhead of tracing.  Details, spans and the environment go to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

CHECK_LIMIT_S = 60  # per-check time limit; beyond it the check fails
RUN_GUARD_S = 150  # no check starts later than this after process start
SETUP_SAMPLES = (5, 30)  # set-ups timed per run: at least, at most
SETUP_BUDGET_S = 1.5  # further set-ups stop once this much time is spent
CAL_ITERATIONS = 30_000
CAL_REFERENCE_S = 0.008  # calibration loop time on the reference processor
HASH_SEED = "0"


class CheckTimeout(BaseException):
    """Raised by the alarm handler; BaseException so that no handler in the
    library mistakes it for an ordinary error."""


def _on_alarm(signum, frame):
    raise CheckTimeout()


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import ckltl
    except ImportError as e:
        sys.exit(f"perfbench: cannot import ckltl from {src}: {e}")
    if not Path(ckltl.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: ckltl was imported from {ckltl.__file__}, not {src}")
    return ckltl


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# running checks
# ---------------------------------------------------------------------------


def calibration_loop() -> float:
    """Time of fixed interpreter work: dict updates, integer and string
    operations.

    On a shared host the speed of short, cache-resident work such as a
    set-up can swing by a factor of two between runs.  Each set-up is timed
    right after this loop and scaled by it, so that it reads as it would on a
    processor where the loop takes CAL_REFERENCE_S.  The loop does not touch
    the program, so a change to the program moves scaled and raw set-up time
    alike.  Checks are long and bound by memory, and do not follow the loop;
    their times are reported raw."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    acc = 0
    for i in range(CAL_ITERATIONS):
        k = (i * 7919) % 1021
        d[k] = d.get(k, 0) + i
        acc += len(str(i))
    return time.perf_counter() - t0


class Outcomes:
    def __init__(self):
        self.latencies: list[float] = []  # successful checks only
        self.failures: list[tuple[str, str]] = []  # (input, reason)
        self.wrong = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failures)

    def run(self, check, wrap=None, deadline=None) -> float:
        """Run one check; returns its wall time."""
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError
        out, failure = None, None
        signal.setitimer(signal.ITIMER_REAL, CHECK_LIMIT_S)
        t0 = time.perf_counter()
        try:
            out = wrap("check", check.run) if wrap else check.run()
        except CheckTimeout:
            failure = f"over the {CHECK_LIMIT_S} s limit"
        except Exception as e:  # RecursionError, StabilizationCapExceeded, ...
            failure = f"{type(e).__name__}: {str(e)[:120]}"
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        if failure is None:
            reason = check.verify(out)
            if reason is None:
                self.latencies.append(dt)
                return dt
            self.wrong += 1
            failure = f"wrong output: {reason}"
        self.failures.append((check.name, failure))
        return dt


def nearest_rank(sorted_vals: list[float], k: int) -> float:
    return sorted_vals[k] if k < len(sorted_vals) else math.inf


def latency_summary(o: Outcomes) -> dict:
    """Median and tail over every attempted check; a failed check counts as
    beyond any limit."""
    vals = sorted(o.latencies)
    n = o.attempted
    out = {"samples": n, "p50": nearest_rank(vals, math.ceil(n / 2) - 1)}
    if n >= 11:
        k = n - 11  # the highest rank with ten samples beyond it
        out["tail"] = nearest_rank(vals, k)
        out["tail_percentile"] = 100.0 * (k + 1) / n
    else:
        out["tail"] = None
        out["tail_percentile"] = None
    return out


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _print_failures(o: Outcomes, label: str) -> None:
    if o.failures:
        print(f"failing inputs ({label}, {len(o.failures)} of {o.attempted} checks):")
        for name, reason in o.failures:
            print(f"  {name}: {reason}")


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def timed_setup(workload, pass_no: int, wrap=None):
    t0 = time.perf_counter()
    checks = wrap("setup", workload.setup, pass_no) if wrap else workload.setup(pass_no)
    return checks, time.perf_counter() - t0


def run_pass(o: Outcomes, checks: list, deadline: float,
             wrap=None) -> tuple[float, bool]:
    """Run the checks in order, dropping each once it has run, so that a
    context shared by several checks is freed after the last of them.
    Returns the check time and whether the run guard cut the pass short."""
    busy = 0.0
    checks.reverse()
    while checks:
        try:
            busy += o.run(checks.pop(), wrap, deadline)
        except TimeoutError:
            return busy, True
    return busy, False


def run_untraced(workload, seconds: float, started: float) -> tuple[dict, Outcomes, dict]:
    deadline = started + RUN_GUARD_S
    # set-ups in a fresh heap, before any check has left garbage behind
    setups, raw_setups, cals = [], [], []
    while len(setups) < SETUP_SAMPLES[0] or (
            sum(raw_setups) < SETUP_BUDGET_S and len(setups) < SETUP_SAMPLES[1]):
        cals.append(calibration_loop())
        raw_setups.append(timed_setup(workload, 0)[1])
        setups.append(raw_setups[-1] * CAL_REFERENCE_S / cals[-1])
    o = Outcomes()
    wall = 0.0
    rates = []  # successful checks per second of check time, per whole pass
    cut = False
    busy = 0.0
    # at least one pass; another only while it should end within `seconds`
    while not cut and (not rates or wall + busy <= seconds):
        checks, _ = timed_setup(workload, len(rates))
        ok_before = len(o.latencies)
        busy, cut = run_pass(o, checks, deadline)
        wall += busy
        if not cut:
            rates.append((len(o.latencies) - ok_before) / busy)
    lat = latency_summary(o)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        # the median over passes follows a drift in the machine's speed less
        "checks_per_s": statistics.median(rates) if rates else 0.0,
        "latency_p50_s": lat["p50"],
        "latency_tail_s": lat["tail"],
        "latency_tail_percentile": lat["tail_percentile"],
        "latency_samples": lat["samples"],
        "failed_share": len(o.failures) / o.attempted if o.attempted else 0.0,
        "passes": len(rates) + cut,
        "pass_rates": rates,
        "timed_s": wall,
        "setup_samples": setups,
        "setup_samples_raw": raw_setups,
        "calibration_s": cals,
        "cut_by_run_guard": cut,
    }
    return metrics, o, extra


def run_traced(workload, started: float) -> tuple[dict, Outcomes, dict]:
    """One untraced and one traced pass over the same inputs (pass 0)."""
    from tracer import Tracer

    deadline = started + RUN_GUARD_S

    def timed_pass(o, wrap=None):
        t0 = time.perf_counter()
        checks, _ = timed_setup(workload, 0, wrap)
        _, cut = run_pass(o, checks, deadline, wrap)
        return time.perf_counter() - t0, cut

    plain = Outcomes()
    untraced_s, cut = timed_pass(plain)
    tracer = Tracer()
    tracer.install()
    traced = Outcomes()
    try:
        traced_s, cut_traced = timed_pass(traced, tracer.span)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace_overhead"] = (traced_s / untraced_s, "ratio")
    extra = {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "untraced": plain,
        "cut_by_run_guard": cut or cut_traced,
        "spans": tracer.span_table(),
    }
    traced.wrong += plain.wrong
    return metrics, traced, extra


def run_one(args) -> int:
    started = time.monotonic()
    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    env = environment(args.seed)
    if args.trace:
        metrics, o, extra = run_traced(workload, started)
    else:
        metrics, o, extra = run_untraced(workload, args.seconds, started)

    print(f"workload: {args.workload}  trace: {args.trace}  "
          + "  ".join(f"{k}: {v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name}: {_fmt(value)} {unit}")
    if not args.trace:
        print(f"checks_per_s: {_fmt(extra['checks_per_s'])} 1/s")
        print(f"latency_p50_s: {_fmt(extra['latency_p50_s'])} s")
        print(f"latency_tail_s: {_fmt(extra['latency_tail_s'])} s "
              f"(p{_fmt(extra['latency_tail_percentile'])} of {extra['latency_samples']} checks)")
        print(f"failed_share: {_fmt(extra['failed_share'])} ratio "
              f"({len(o.failures)} of {o.attempted} checks)")
        print(f"passes: {extra['passes']}  timed: {_fmt(extra['timed_s'])} s of wall time")
        _print_failures(o, "timed passes")
    else:
        _print_failures(extra["untraced"], "untraced pass")
        _print_failures(o, "traced pass")
    if not args.trace:
        raw, cal = extra["setup_samples_raw"], extra["calibration_s"]
        print(f"setup_s is scaled to a calibration loop of {CAL_REFERENCE_S} s: raw median "
              f"{_fmt(statistics.median(raw))} s, loop median {_fmt(statistics.median(cal))} s, "
              f"{len(raw)} set-ups")
    if extra.get("cut_by_run_guard"):
        print(f"note: the run guard of {RUN_GUARD_S} s stopped the timed phase early")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": o.attempted,
        "failures": [{"input": n, "reason": r} for n, r in o.failures],
        **{k: v for k, v in extra.items() if k != "untraced"},
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(_finite(record), indent=1) + "\n")

    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"perfbench: metrics without a finite value: {', '.join(bad)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": o.wrong == 0,
        "attempted": o.attempted,
        "failed": len(o.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _finite(v):
    """JSON-safe copy: an infinite latency (failed checks beyond the rank)
    becomes null."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return v


def run_all(args) -> int:
    """Every workload, one after another, each in its own process."""
    _import_package()
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing decides set and dict layouts: with a random seed per
        # process, set-up time differs between runs of equal work
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
