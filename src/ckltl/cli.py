"""Command-line front end.

Subcommands: check (evaluate a formula over a universe), translate (emit the
first-order form), validate (similarity preorder report), universe (list
generated traces), demo (run a packaged hiring variant end to end).  With
--stats, `check` and `demo` add the context's work counters to their report.

Exit status: 0 success / satisfied, 1 not satisfied (or violations found),
2 bad input, 3 internal error (reported as one line on stderr; an exhausted
resource such as memory counts as one).  Each subcommand returns its report;
`main` writes it once, as JSON under --json or as text, in UTF-8 to stdout or
--out.  Output is deterministic byte-for-byte for fixed inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shlex
import sys
import warnings
from pathlib import Path

from . import foe, hiring
from .formula import Atom, Formula, ParseError, TracedAtom, desugar, parse, subformulas, to_source
from .model import InvariantViolation, ModelFormatError, System, UnknownAgentError, load_system
from .semantics import (
    EvalContext,
    StabilizationCapExceeded,
    Verdict,
    check_system,
    validate_similarity,
)
from .specs import build_ece, build_gce, build_ice, position_variant
from .trace import (
    SizeLimitExceeded,
    TraceUniverse,
    format_trace,
    generate_universe,
    parse_trace_literal,
    universe_of,
)


class InputError(Exception):
    """Any user-input problem; reported on stderr with exit status 2."""


def _load_model(args) -> System:
    if not args.model:
        raise InputError("--model is required")
    try:
        return load_system(args.model)
    except FileNotFoundError:
        raise InputError(f"model file not found: {args.model}")
    except OSError as e:
        raise InputError(f"cannot read model file: {e}")
    except (ModelFormatError, InvariantViolation) as e:
        raise InputError(f"bad model file: {e}")


def _load_formula(args, system) -> Formula:
    """The formula of --formula or --formula-file; an atom the model does not
    declare, or a traced atom (which only a similarity relation binds), is
    bad input."""
    if bool(args.formula) == bool(args.formula_file):
        raise InputError("need exactly one of --formula / --formula-file")
    src = args.formula
    if args.formula_file:
        try:
            src = Path(args.formula_file).read_text(encoding="utf-8")
        except OSError as e:
            raise InputError(f"cannot read formula file: {e}")
        except UnicodeDecodeError as e:
            raise InputError(f"bad formula file: {args.formula_file} is not UTF-8 text: {e}")
    try:
        f = parse(src)
    except ParseError as e:
        raise InputError(f"bad formula: {e}")
    aps = set(system.kripke.aps)
    for g in subformulas(f):
        if isinstance(g, TracedAtom):
            raise InputError(f"bad formula: traced atom {to_source(g)} outside a "
                             "similarity relation")
        if isinstance(g, Atom) and g.name not in aps:
            raise InputError(f"bad formula: undeclared proposition {g.name!r}")
    return f


def _build_universe(args, system) -> TraceUniverse:
    if args.trace:
        generated = [flag for flag, value in (("--universe-prefix", args.universe_prefix),
                                              ("--universe-loop", args.universe_loop),
                                              ("--loop-states", args.loop_states),
                                              ("--max-traces", args.max_traces))
                     if value is not None]
        if generated:
            raise InputError(f"give either --trace literals or {', '.join(generated)}, "
                             "not both")
        try:
            traces = [parse_trace_literal(s) for s in args.trace]
        except ValueError as e:
            raise InputError(f"bad trace literal: {e}")
        for s, t in zip(args.trace, traces):
            extra = frozenset().union(*t.prefix, *t.loop).difference(system.kripke.aps)
            if extra:
                raise InputError(f"bad trace literal: {s!r} names undeclared proposition "
                                 f"{min(extra)!r}")
        return universe_of(traces)
    if args.universe_prefix is None or args.universe_loop is None:
        raise InputError(
            "need --trace literals or both --universe-prefix and --universe-loop"
        )
    max_traces = 100_000 if args.max_traces is None else args.max_traces
    for flag, value, least in (("--universe-prefix", args.universe_prefix, 0),
                               ("--universe-loop", args.universe_loop, 1),
                               ("--max-traces", max_traces, 1)):
        if value < least:
            raise InputError(f"{flag} must be at least {least}")
    loop_states = None
    if args.loop_states is not None:  # an empty list allows no loop state
        loop_states = [s.strip() for s in args.loop_states.split(",") if s.strip()]
    try:
        with warnings.catch_warnings():
            # an empty universe is reported below, as an input error
            warnings.simplefilter("ignore", UserWarning)
            universe = generate_universe(
                system,
                args.universe_prefix,
                args.universe_loop,
                loop_states=loop_states,
                max_traces=max_traces,
            )
    except (ValueError, SizeLimitExceeded) as e:
        raise InputError(str(e))
    if not universe:
        raise InputError(
            f"the model has no trace within --universe-prefix {args.universe_prefix} "
            f"--universe-loop {args.universe_loop}"
            + ("" if loop_states is None else f" --loop-states {shlex.quote(args.loop_states)}")
        )
    return universe


def _context(args, system, universe) -> EvalContext:
    # the cap is checked in bounded mode too, which has no use for it
    if args.stabilization_cap < 1:
        raise InputError("--stabilization-cap must be at least 1")
    if args.bounded is not None:
        if args.bounded < 0:
            raise InputError("--bounded must be at least 0")
        return EvalContext.bounded(system, universe, args.bounded)
    return EvalContext.exact(system, universe, args.stabilization_cap)


def _emit(args, data, text: str) -> None:
    """Write a subcommand's report: `data` as indented JSON under --json
    (`translate` has no JSON form and passes None), else `text`; UTF-8 bytes
    to --out or to stdout, whatever the locale's encoding."""
    body = (json.dumps(data, indent=2) if data is not None and args.json else text) + "\n"
    raw = body.encode("utf-8")
    if args.out:
        try:
            Path(args.out).write_bytes(raw)
        except OSError as e:
            raise InputError(f"cannot write output file: {e}")
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(raw)
    else:
        sys.stdout.write(body)


def _verdict_text(v: Verdict, universe) -> str:
    lines = [
        f"result: {'satisfied' if v.result else 'not satisfied'}",
        f"universe: {len(universe)} traces",
    ]
    if not v.result:
        lines.append(f"counterexample: {v.counterexample}")
        lines.append(f"failing: {len(v.counterexamples)} of {len(universe)}")
        lines.append("trail:")
        for e in v.trail:
            lines.append(
                f"  {e.formula} @ {e.position} on {e.trace}: "
                f"{'true' if e.value else 'false'}"
            )
    return "\n".join(lines)


# (exit status, JSON-ready report or None, text report)
Report = tuple[int, object, str]


def _with_stats(args, ctx: EvalContext, data: dict, text: str) -> tuple[dict, str]:
    """The report, with the context's work counters added under --stats: a
    `stats` key in `data`, a last `stats: name=count ...` line in `text`."""
    if not args.stats:
        return data, text
    stats = ctx.stats()
    return ({**data, "stats": stats},
            text + "\nstats: " + " ".join(f"{k}={n}" for k, n in stats.items()))


def _cmd_check(args) -> Report:
    system = _load_model(args)
    f = _load_formula(args, system)
    universe = _build_universe(args, system)
    ctx = _context(args, system, universe)
    v = check_system(ctx, f)
    return ((0 if v.result else 1),
            *_with_stats(args, ctx, v.to_dict(), _verdict_text(v, universe)))


def _cmd_translate(args) -> Report:
    system = _load_model(args)
    f = _load_formula(args, system)
    fo = foe.translate(desugar(f), system, faithful=args.faithful)
    return 0, None, foe.print_fo(fo)


def _cmd_validate(args) -> Report:
    system = _load_model(args)
    universe = _build_universe(args, system)
    ctx = _context(args, system, universe)
    if args.position < 0:
        raise InputError("--position must be at least 0")
    if args.bounded is not None and args.position > args.bounded:
        raise InputError(f"--position {args.position} is past the --bounded window "
                         f"[0, {args.bounded}]")
    reports = [
        validate_similarity(ctx, agent, t, args.position)
        for agent in system.agents
        for t in universe
    ]
    lines = []
    for r in reports:
        status = "ok" if r.ok else f"{len(r.violations)} violations"
        lines.append(f"[{r.agent}] from {r.reference} @ {r.position}: {status}")
        for x in r.violations:
            lines.append(f"  {x.kind}: {', '.join(x.traces)}")
    return ((0 if all(r.ok for r in reports) else 1),
            [dataclasses.asdict(r) for r in reports], "\n".join(lines))


def _cmd_universe(args) -> Report:
    system = _load_model(args)
    traces = [format_trace(t) for t in _build_universe(args, system)]
    return 0, traces, "\n".join(traces)


def _demo_requirements(variant: str):
    vocab = hiring.hiring_vocabulary()
    reqs = [("ICE@1 for the applicant", position_variant(build_ice(vocab, "a"), 1))]
    if variant == "restricted":
        reqs.append(
            ("GCE@1 over both agents' attributes",
             position_variant(build_gce(vocab, "a", "a"), 1))
        )
    if variant == "gender-frozen":
        reqs.append(
            ("ECE@1 judged by the recruiter",
             position_variant(build_ece(vocab, "a", "r"), 1))
        )
    return reqs


def _cmd_demo(args) -> Report:
    if args.list:
        names = sorted(hiring.VARIANTS)
        return 0, names, "\n".join(names)
    if args.variant is None:
        raise InputError("need a variant name (or --list)")
    build = hiring.VARIANTS.get(args.variant)
    if build is None:
        raise InputError(
            f"unknown variant {args.variant!r}; one of {', '.join(sorted(hiring.VARIANTS))}"
        )
    system = build()
    universe = hiring.single_round_universe(system)
    ctx = EvalContext(system, universe)
    results = [(name, check_system(ctx, f)) for name, f in _demo_requirements(args.variant)]
    payload = {
        "variant": args.variant,
        "states": len(system.kripke.states),
        "traces": len(universe),
        "checks": [{"name": name, **v.to_dict()} for name, v in results],
    }
    lines = [
        f"variant: {args.variant}",
        f"states: {len(system.kripke.states)}",
        f"universe: {len(universe)} traces",
    ]
    for name, v in results:
        lines.append(f"{name}: {'satisfied' if v.result else 'not satisfied'}")
        if not v.result:
            lines.append(f"  counterexample: {v.counterexample}")
            lines.append(f"  failing: {len(v.counterexamples)} of {len(universe)}")
    return 0, *_with_stats(args, ctx, payload, "\n".join(lines))


def _add_common(p: argparse.ArgumentParser, formula=False, universe=True,
                context=True) -> None:
    p.add_argument("--model", help="model file (JSON)")
    if formula:
        p.add_argument("--formula", help="formula source text")
        p.add_argument("--formula-file", help="file with formula source")
    p.add_argument("--out", default=None, help="write the report here")
    if not universe:
        return
    p.add_argument("--universe-prefix", type=int, default=None, metavar="P")
    p.add_argument("--universe-loop", type=int, default=None, metavar="L")
    p.add_argument("--loop-states", default=None, metavar="S0,S1,...")
    p.add_argument(
        "--trace",
        action="append",
        default=[],
        metavar="LIT",
        help='trace literal like "{p} ; {} | {q}"; repeat for more',
    )
    p.add_argument("--max-traces", type=int, default=None, metavar="M",
                   help="cap on generated traces (default 100000)")
    if context:  # only the subcommands that evaluate take a context's settings
        p.add_argument("--bounded", type=int, default=None, metavar="N")
        p.add_argument("--stabilization-cap", type=int, default=64)
    p.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ckltl",
        description="model checking for counterfactual and epistemic trace properties",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    stats_help = "add the context's work counters to the report"
    p = sub.add_parser("check", help="evaluate a formula over a trace universe")
    _add_common(p, formula=True)
    p.add_argument("--stats", action="store_true", help=stats_help)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("translate", help="first-order form of a formula")
    _add_common(p, formula=True, universe=False)
    p.add_argument("--faithful", action="store_true")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("validate", help="similarity preorder report")
    _add_common(p)
    p.add_argument("--position", type=int, default=0)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("universe", help="list the generated universe")
    _add_common(p, context=False)
    p.set_defaults(func=_cmd_universe)

    p = sub.add_parser("demo", help="run a packaged hiring variant")
    p.add_argument("variant", nargs="?", default=None)
    p.add_argument("--list", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true", help=stats_help)
    p.set_defaults(func=_cmd_demo)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status, data, text = args.func(args)
        _emit(args, data, text)
        return status
    except (InputError, UnknownAgentError, StabilizationCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # never let a crash read as "not satisfied" (status 1)
        detail = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
