"""Command-line interface: exit codes, output shapes, determinism."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from ckltl import (
    KripkeStructure,
    RelationalFormula,
    System,
    cli,
    desugar,
    parse,
    save_system,
    subset_similarity,
)
from ckltl.cli import build_parser, main
from ckltl.foe import print_fo, translate

from test_semantics import cf_fixture, differ_fixture


@pytest.fixture
def model(tmp_path):
    s, _ = cf_fixture()
    path = tmp_path / "model.json"
    save_system(s, path)
    return str(path)


TRACES = ["--trace", "| {}", "--trace", "| {p}", "--trace", "| {q}",
          "--trace", "| {p,q}"]


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_check_deeply_parenthesized_formula(model, capsys):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        code, out, err = run(capsys, ["check", "--model", model, "--formula",
                                      "(" * 300 + "p" + ")" * 300, *TRACES])
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (1, "") and "result: not satisfied" in out


def test_check_satisfied(model, capsys):
    code, out, err = run(
        capsys, ["check", "--model", model, "--formula", "p | !p", *TRACES]
    )
    assert code == 0
    assert "result: satisfied" in out
    assert "universe: 4 traces" in out
    assert err == ""


def test_check_unsatisfied_lists_counterexamples(model, capsys):
    code, out, _ = run(
        capsys, ["check", "--model", model, "--formula", "p", *TRACES]
    )
    assert code == 1
    assert "result: not satisfied" in out
    assert "counterexample: | {}" in out
    assert "failing: 2 of 4" in out
    assert "trail:" in out
    assert "p @ 0 on | {}: false" in out


def test_check_json_shape(model, capsys):
    code, out, _ = run(
        capsys,
        ["check", "--model", model, "--formula", "p", "--json", *TRACES],
    )
    assert code == 1
    d = json.loads(out)
    assert d["result"] is False
    assert d["counterexample"] == "| {}"
    assert d["counterexamples"] == ["| {}", "| {q}"]
    assert d["trail"][0]["formula"] == "p"


def test_check_is_deterministic(model, capsys):
    argv = ["check", "--model", model, "--formula",
            "(p | q) WOULD[a] p", "--json", *TRACES]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


def test_check_generated_universe(model, capsys):
    code, out, _ = run(
        capsys,
        ["check", "--model", model, "--formula", "F p",
         "--universe-prefix", "1", "--universe-loop", "1"],
    )
    assert code == 1
    assert "universe:" in out


def test_check_bounded_mode_differs_from_exact(model, capsys):
    argv = ["check", "--model", model, "--formula", "F p",
            "--trace", "{} ; {p} | {}"]
    assert run(capsys, argv)[0] == 0
    assert run(capsys, [*argv, "--bounded", "0"])[0] == 1
    assert run(capsys, [*argv, "--bounded", "3"])[0] == 0


def test_check_out_file(model, capsys, tmp_path):
    report = tmp_path / "report.txt"
    code, out, _ = run(
        capsys,
        ["check", "--model", model, "--formula", "true",
         "--out", str(report), *TRACES],
    )
    assert code == 0
    assert out == ""
    assert "result: satisfied" in report.read_text()


def test_formula_file(model, capsys, tmp_path):
    src = tmp_path / "f.ck"
    src.write_text("G (p -> p)")
    code, out, _ = run(
        capsys,
        ["check", "--model", model, "--formula-file", str(src), *TRACES],
    )
    assert code == 0


def test_input_errors_exit_2(model, capsys, tmp_path):
    cases = [
        # no model
        ["check", "--formula", "p", *TRACES],
        # missing model file
        ["check", "--model", str(tmp_path / "nope.json"),
         "--formula", "p", *TRACES],
        # both formula sources
        ["check", "--model", model, "--formula", "p",
         "--formula-file", "x", *TRACES],
        # neither formula source
        ["check", "--model", model, *TRACES],
        # unparseable formula
        ["check", "--model", model, "--formula", "p &", *TRACES],
        # bad trace literal
        ["check", "--model", model, "--formula", "p", "--trace", "{p}"],
        # no universe at all
        ["check", "--model", model, "--formula", "p"],
        # unknown loop state
        ["check", "--model", model, "--formula", "p",
         "--universe-prefix", "1", "--universe-loop", "1",
         "--loop-states", "zz"],
        # formula names an agent the model lacks
        ["check", "--model", model, "--formula", "K[zz] p", *TRACES],
        # unknown demo variant
        ["demo", "zz"],
        # demo without a variant
        ["demo"],
    ]
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
    # numeric flags out of range: the message names the flag
    check = ["check", "--model", model, "--formula", "p", *TRACES]
    validate = ["validate", "--model", model, *TRACES]
    generated = ["universe", "--model", model, "--universe-prefix", "1", "--universe-loop", "1"]
    for flag, argv in (
        ("--universe-prefix", [*generated, "--universe-prefix", "-1"]),
        ("--universe-loop", [*generated, "--universe-loop", "0"]),
        ("--max-traces", [*generated, "--max-traces", "0"]),
        ("--max-traces", [*generated, "--max-traces", "-1"]),
        ("--bounded", [*check, "--bounded", "-1"]),
        ("--stabilization-cap", [*check, "--stabilization-cap", "0"]),
        ("--stabilization-cap", [*check, "--bounded", "3", "--stabilization-cap", "0"]),
        ("--position", [*validate, "--position", "-1"]),
        ("--position", [*validate, "--bounded", "1", "--position", "5"]),
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {flag} "), (argv, err)
    assert run(capsys, [*validate, "--bounded", "1", "--position", "1"])[0] == 0
    # a bad model file: the message names the field and its state or agent,
    # or the structural rule it breaks; the first two loaded before, though
    # no formula can name that proposition or agent, and the last eight
    # exited 3 with an internal error (InvariantViolation, AttributeError or
    # TypeError)
    for keys, bad, detail in (
        (("aps",), ["p", "q", "x y"], "proposition 'x y' is not a formula identifier"),
        (("agents", 0, "name"), "K", "agent name 'K' is not a formula identifier"),
        (("agents", 0, "observes"), "pq",
         "agent 'a': observes must be a list of strings, got 'pq'"),
        (("agents", 0, "similarity", "formula"), "K[a] p@pi",
         "agent 'a': bad similarity formula: not a relational formula:"
         " forbidden-operator: K at root"),
        (("initial",), "nope", "initial state 'nope' is not a state"),
        (("states", 0, "id"), 0, "state id must be a string, got 0"),
        (("agents", 0, "similarity", "formula"), 5,
         "agent 'a': similarity formula must be a string, got 5"),
        (("agents", 0, "similarity", "formula"), ["x"],
         "agent 'a': similarity formula must be a string, got ['x']"),
        (("initial",), ["s0"], "initial must be a string, got ['s0']"),
        (("agents", 0, "name"), ["a"], "agent name must be a string, got ['a']"),
        (("aps",), ["p", "q", "p"], "duplicate propositions"),
        (("agents",), 5, "agents must be a list of agent entries, got 5"),
        (("agents",), None, "agents must be a list of agent entries, got None"),
    ):
        data = json.loads(Path(model).read_text())
        node = data
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["check", "--model", str(path), "--formula", "p", *TRACES])
        assert (code, out, err) == (2, "", f"error: bad model file: {detail}\n"), keys


def test_unreadable_model_file_exits_2(capsys, tmp_path):
    # a directory: exited 3 with an internal IsADirectoryError before
    code, out, err = run(capsys, ["universe", "--model", str(tmp_path), "--trace", "| {}"])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read model file: ") and str(tmp_path) in err


def test_unreadable_formula_file_exits_2(model, capsys, tmp_path):
    code, out, err = run(capsys, ["check", "--model", model, "--formula-file", str(tmp_path),
                                  *TRACES])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read formula file: ") and str(tmp_path) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind", ["model", "formula-file"])
def test_file_that_is_not_utf8_exits_2(model, capsys, tmp_path, kind):
    # exited 3 with an internal UnicodeDecodeError before
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe{}")
    if kind == "model":
        argv, what = ["universe", "--model", str(bad), "--trace", "| {}"], "model"
    else:
        argv, what = ["check", "--model", model, "--formula-file", str(bad), *TRACES], "formula"
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad {what} file: {bad} is not UTF-8 text: ")
    assert err.count("\n") == 1


def test_an_unwritable_similarity_parameter_exits_2(model, capsys, tmp_path):
    # the relation refuses the name when it is built; one line names the
    # agent and the name
    data = json.loads(Path(model).read_text())
    data["agents"][0]["similarity"] = {"params": ["pi", "pi 1", "pi2"],
                                       "formula": "G (p@pi <-> p@pi2)"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["check", "--model", str(path), "--formula", "p", *TRACES])
    assert (code, out, err) == (2, "", "error: bad model file: agent 'a': bad similarity"
                                " formula: not a relational formula: unwritable-name: pi 1"
                                " at params\n")


def test_unwritable_out_file_exits_2(model, capsys, tmp_path):
    # a missing directory: exited 3 with an internal FileNotFoundError before
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, ["universe", "--model", model, "--trace", "| {}",
                                  "--out", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output file: ") and str(target) in err



def test_out_file_is_utf8_under_an_ascii_locale(tmp_path):
    # the report was written in the locale's encoding: exit 3 with an
    # internal UnicodeEncodeError under an ASCII locale, to `--out` and to
    # stdout alike
    k = KripkeStructure(("s0", "s1"), "s0", {"s0": ("s0", "s1"), "s1": ("s1",)},
                        ("café",), {"s0": frozenset(), "s1": frozenset({"café"})})
    save_system(System(k, ("a",), {"a": frozenset({"café"})},
                       {"a": subset_similarity(("café",))}), tmp_path / "m.json")
    (tmp_path / "f.txt").write_text("café", encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-X", "utf8=0", "-m", "ckltl.cli", "check",
            "--model", str(tmp_path / "m.json"), "--formula-file", str(tmp_path / "f.txt"),
            "--universe-prefix", "0", "--universe-loop", "1"]
    proc = subprocess.run([*argv, "--out", str(tmp_path / "r.txt")], capture_output=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", b"")
    report = (tmp_path / "r.txt").read_bytes()
    assert report.endswith("trail:\n  café @ 0 on | {}: false\n".encode("utf-8"))
    proc = subprocess.run(argv, capture_output=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, report, b"")


HIRING = str(Path(__file__).resolve().parents[1] / "fixtures" / "explainable.json")


@pytest.mark.parametrize("generated, flags", [
    (["--universe-prefix", "2", "--universe-loop", "1", "--loop-states", "s0"],
     "--universe-prefix, --universe-loop, --loop-states"),
    (["--loop-states", "s0"], "--loop-states"),
    # ignored before, although a cap below 1 is refused when generating
    (["--max-traces", "0"], "--max-traces"),
], ids=["bounds", "loop-states", "max-traces"])
def test_trace_literals_and_generated_universe_do_not_mix(capsys, generated, flags):
    # the generation flags were dropped silently, and the one literal checked
    argv = ["check", "--model", HIRING, "--formula", "F offer", "--trace", "| {}", *generated]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: give either --trace literals or {flags}, not both\n")


@pytest.mark.parametrize("argv, detail", [
    # a typo of `offer` in the formula
    (["check", "--formula", "F offr", "--trace", "{a_it} | {offer}"],
     "bad formula: undeclared proposition 'offr'"),
    # a trace the model cannot produce
    (["check", "--formula", "F offer", "--trace", "| {zzz}"],
     "bad trace literal: '| {zzz}' names undeclared proposition 'zzz'"),
    (["validate", "--trace", "| {offer}", "--trace", "{zzz} | {}"],
     "bad trace literal: '{zzz} | {}' names undeclared proposition 'zzz'"),
    (["universe", "--trace", "| {zzz}"],
     "bad trace literal: '| {zzz}' names undeclared proposition 'zzz'"),
    # only a similarity relation binds trace variables
    (["check", "--formula", "offer@pi", "--trace", "| {offer}"],
     "bad formula: traced atom offer@pi outside a similarity relation"),
    (["translate", "--formula", "p@pi"],
     "bad formula: traced atom p@pi outside a similarity relation"),
])
def test_undeclared_names_exit_2(capsys, argv, detail):
    code, out, err = run(capsys, [argv[0], "--model", HIRING, *argv[1:]])
    assert (code, out, err) == (2, "", f"error: {detail}\n")


def test_empty_generated_universe_is_an_input_error(model, capsys):
    # no loop state allowed: no trace, so no verdict to give; every
    # subcommand that builds a universe says so in one line, with no warning
    bounds = ["--model", model, "--universe-prefix", "1", "--universe-loop", "2",
              "--loop-states", ","]
    for argv in (["check", "--formula", "p", *bounds], ["validate", *bounds],
                 ["universe", *bounds]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would exit 3
            code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err == ("error: the model has no trace within --universe-prefix 1 "
                       "--universe-loop 2 --loop-states ,\n"), argv


@pytest.mark.parametrize("states, shown", [("", "''"), (",", ","), (" , ", "' , '")],
                         ids=["empty", "comma", "spaced-comma"])
def test_loop_states_that_name_no_state_allow_no_loop(capsys, states, shown):
    # an empty value listed the unrestricted universe: it allows no loop
    # state, like any other value that names none
    restricted = str(Path(HIRING).with_name("restricted.json"))
    code, out, err = run(capsys, ["universe", "--model", restricted, "--universe-prefix", "1",
                                  "--universe-loop", "1", "--loop-states", states])
    assert (code, out) == (2, "")
    assert err == ("error: the model has no trace within --universe-prefix 1 "
                   f"--universe-loop 1 --loop-states {shown}\n")


def test_no_loop_state_ends_generation_at_once(capsys):
    # every prefix up to length 7 was walked first, for minutes
    restricted = str(Path(HIRING).with_name("restricted.json"))
    start = time.perf_counter()
    code, out, err = run(capsys, ["universe", "--model", restricted, "--universe-prefix", "7",
                                  "--universe-loop", "1", "--loop-states", ""])
    assert (code, out) == (2, "") and time.perf_counter() - start < 2
    assert err == ("error: the model has no trace within --universe-prefix 7 "
                   "--universe-loop 1 --loop-states ''\n")


@pytest.mark.parametrize("argv, message", [
    (["check", "--formula", "offer", "--bounded", "-1"], "--bounded must be at least 0"),
    (["check", "--formula", "offer", "--stabilization-cap", "0"],
     "--stabilization-cap must be at least 1"),
    (["validate", "--position", "-1"], "--position must be at least 0"),
    (["validate", "--bounded", "1", "--position", "5"],
     "--position 5 is past the --bounded window [0, 1]"),
], ids=["bounded", "stabilization-cap", "position", "window"])
def test_numeric_flags_are_checked_before_the_universe_is_built(capsys, monkeypatch, argv,
                                                                message):
    # these were checked after generation: a large universe was enumerated
    # first, and here the patched generator made them exit 3
    def generate(*args, **kwargs):
        raise RuntimeError("the universe was generated")

    monkeypatch.setattr(cli, "generate_universe", generate)
    restricted = str(Path(HIRING).with_name("restricted.json"))
    code, out, err = run(capsys, [argv[0], "--model", restricted, *argv[1:],
                                  "--universe-prefix", "5", "--universe-loop", "1"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_bad_numeric_flag_comes_before_a_bad_trace_literal(model, capsys):
    code, out, err = run(capsys, ["check", "--model", model, "--formula", "p",
                                  "--trace", "{p}", "--bounded", "-1"])
    assert (code, out, err) == (2, "", "error: --bounded must be at least 0\n")


def test_stabilization_cap_in_a_zipped_relation_is_an_input_error(capsys, tmp_path):
    # the relation is off the all-positions shape, so the cap trips while a
    # row's view is evaluated; check and validate both report it as bad
    # input, and the message names the universe trace it tripped on
    s, _ = cf_fixture()
    rel = RelationalFormula(
        ("pi", "pi1", "pi2"), parse("G (p@pi1 S (q@pi2 S (p@pi1 S (q@pi2 S p@pi))))"))
    path = tmp_path / "deep.json"
    save_system(System(s.kripke, ("a",), s.observation, {"a": rel}), path)
    universe = ["--trace", "| {p}", "--trace", "{p} ; {} | {p}", "--stabilization-cap", "2"]
    for argv in (["check", "--model", str(path), "--formula", "p MIGHT[a] true", *universe],
                 ["validate", "--model", str(path), *universe]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: stabilization cap exceeded: stabilizing "), argv
        assert err.count("\n") == 1, argv
        named = err.split("' on ", 1)[1].split(" needs ", 1)[0]
        assert named in ("| {p}", "{p} ; {} | {p}"), err


def test_internal_error_exits_3_with_one_line(model, capsys, monkeypatch):
    def crash(ctx, f):
        raise RuntimeError("evaluator broke\non two lines")

    monkeypatch.setattr(cli, "check_system", crash)
    code, out, err = run(
        capsys, ["check", "--model", model, "--formula", "p", *TRACES]
    )
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: evaluator broke on two lines\n"


def test_deep_formula_never_reads_as_not_satisfied(model, capsys, tmp_path):
    # a 600-term disjunction (valid: it contains p and !p) nests deeper than
    # a recursive evaluator gets; it must either hold or be an internal error
    src = tmp_path / "deep.ck"
    src.write_text(" | ".join(["p"] * 300 + ["!p"] * 300))
    code, out, err = run(
        capsys,
        ["check", "--model", model, "--formula-file", str(src), *TRACES],
    )
    assert code in (0, 3), (code, err)
    if code == 3:
        assert err.startswith("internal error: RecursionError")
        assert err.count("\n") == 1
    else:
        assert "result: satisfied" in out


def test_wide_formula_gets_a_verdict(model, capsys, tmp_path):
    # a 10,000-term disjunction evaluates on the evaluator's explicit stack,
    # so it gets a verdict rather than an internal error
    src = tmp_path / "wide.ck"
    src.write_text(" | ".join(["p"] * 9999 + ["q"]))
    code, out, err = run(
        capsys,
        ["check", "--model", model, "--formula-file", str(src), *TRACES],
    )
    assert code in (0, 1), (code, err)
    assert err == ""
    assert "result: not satisfied" in out and "failing: 1 of 4" in out


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [x for x in readme.read_text().splitlines() if x.startswith("ckltl ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        assert callable(args.func), line


def test_translate_matches_library(model, capsys):
    s, _ = cf_fixture()
    f = "p U (q & Y p)"
    code, out, _ = run(
        capsys, ["translate", "--model", model, "--formula", f]
    )
    assert code == 0
    assert out.rstrip("\n") == print_fo(translate(desugar(parse(f)), s))


def test_translate_faithful_differs_on_counterfactuals(model, capsys):
    f = "(p | q) WOULD[a] p"
    _, amended, _ = run(capsys, ["translate", "--model", model, "--formula", f])
    _, unpinned, _ = run(
        capsys, ["translate", "--model", model, "--formula", f, "--faithful"]
    )
    assert amended != unpinned
    # the pin is one extra equal-level conjunct
    assert amended.count("E(") == unpinned.count("E(") + 1


def test_universe_rejects_context_flags(model, capsys):
    # `universe` builds no evaluation context, so it takes neither of its settings
    base = ["universe", "--model", model, "--trace", "| {}"]
    for extra in (["--bounded", "3"], ["--stabilization-cap", "0"]):
        with pytest.raises(SystemExit) as e:
            main(base + extra)
        assert e.value.code == 2, extra
        assert "unrecognized arguments" in capsys.readouterr().err
    assert run(capsys, base) == (0, "| {}\n", "")


def test_demo_takes_no_cap(capsys):
    # the demo's requirements never reach the cap, so `demo` no longer takes one
    with pytest.raises(SystemExit) as e:
        main(["demo", "explainable", "--stabilization-cap", "8"])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_translate_rejects_flags_it_would_ignore(model, capsys):
    base = ["translate", "--model", model, "--formula", "p"]
    for extra in (["--json"], ["--bounded", "3"], ["--trace", "| {p}"],
                  ["--universe-prefix", "1"], ["--stabilization-cap", "8"]):
        with pytest.raises(SystemExit) as e:
            main(base + extra)
        assert e.value.code == 2, extra
        assert "unrecognized arguments" in capsys.readouterr().err


def test_malformed_trace_literal_exits_2(model, capsys):
    code, out, err = run(capsys, ["check", "--model", model, "--formula", "p",
                                  "--trace", "{a_it} | {} | {offer}"])
    assert (code, out) == (2, "")
    assert err.startswith("error: bad trace literal: trace literal needs exactly one '|'")


def test_bad_similarity_params_exit_2(model, capsys, tmp_path):
    for params in (["pi", "pi", "pi2"], "xyz"):
        data = json.loads(Path(model).read_text())
        data["agents"][0]["similarity"]["params"] = params
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["check", "--model", str(path), "--formula", "p", *TRACES])
        assert (code, out) == (2, ""), params
        assert err.count("\n") == 1 and "agent 'a': similarity params must be" in err, params


def test_validate_ok(model, capsys):
    code, out, _ = run(capsys, ["validate", "--model", model, *TRACES])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # one agent x four reference traces
    assert all(line.endswith(": ok") for line in lines)


def test_validate_flags_bad_relation(capsys, tmp_path):
    import ckltl

    s, _ = cf_fixture()
    bogus = ckltl.RelationalFormula(("pi", "pi1", "pi2"), parse("p@pi2 & !p@pi1"))
    bad = ckltl.System(
        kripke=s.kripke,
        agents=("a",),
        observation={"a": frozenset({"p", "q"})},
        similarity={"a": bogus},
    )
    path = tmp_path / "bad.json"
    save_system(bad, path)
    code, out, _ = run(capsys, ["validate", "--model", str(path), *TRACES])
    assert code == 1
    assert "violations" in out

    code, out, _ = run(
        capsys, ["validate", "--model", str(path), "--json", *TRACES]
    )
    assert code == 1
    payload = json.loads(out)
    assert any(r["violations"] for r in payload)
    kinds = {v["kind"] for r in payload for v in r["violations"]}
    assert kinds <= {"irreflexive", "intransitive", "minimum"}


def test_validate_reports_an_intransitive_relation(capsys, tmp_path):
    s, _ = differ_fixture()
    path = tmp_path / "differ.json"
    save_system(s, path)
    code, out, err = run(capsys, ["validate", "--model", str(path),
                                  "--trace", "| {}", "--trace", "| {p}"])
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "[a] from | {} @ 0: 3 violations", "  irreflexive: | {p}",
        "  intransitive: | {}, | {p}, | {}", "  intransitive: | {p}, | {}, | {p}",
        "[a] from | {p} @ 0: 3 violations", "  irreflexive: | {}",
        "  intransitive: | {}, | {p}, | {}", "  intransitive: | {p}, | {}, | {p}",
    ]


def test_universe_listing(model, capsys):
    code, out, _ = run(
        capsys,
        ["universe", "--model", model,
         "--universe-prefix", "1", "--universe-loop", "1"],
    )
    assert code == 0
    listed = out.strip().splitlines()
    assert len(listed) == len(set(listed))
    assert all("|" in line for line in listed)

    code, jout, _ = run(
        capsys,
        ["universe", "--model", model, "--json",
         "--universe-prefix", "1", "--universe-loop", "1"],
    )
    assert code == 0
    assert json.loads(jout) == listed


def test_demo_list(capsys):
    code, out, _ = run(capsys, ["demo", "--list"])
    assert code == 0
    assert out.split() == [
        "explainable", "gender-frozen", "restricted", "unexplainable"
    ]


def test_report_reaches_a_stdout_without_a_buffer():
    # a text stream with no bytes buffer beneath it gets the text itself
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["demo", "--list"])
    assert code == 0
    assert out.getvalue() == "explainable\ngender-frozen\nrestricted\nunexplainable\n"


def test_demo_explainable(capsys):
    code, out, _ = run(capsys, ["demo", "explainable"])
    assert code == 0
    assert "variant: explainable" in out
    assert "states: 37" in out
    assert "universe: 37 traces" in out
    assert "ICE@1 for the applicant: not satisfied" in out
    assert "counterexample: | {}" in out
    assert "failing: 1 of 37" in out


@pytest.mark.parametrize("variant, states, second, failing", [
    ("restricted", 25, "GCE@1 over both agents' attributes", 9),
    ("gender-frozen", 37, "ECE@1 judged by the recruiter", 19),
])
def test_demo_variants_with_a_second_requirement(capsys, variant, states, second, failing):
    code, out, err = run(capsys, ["demo", variant])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"variant: {variant}", f"states: {states}", f"universe: {states} traces",
        "ICE@1 for the applicant: not satisfied",
        "  counterexample: | {}", f"  failing: {failing} of {states}",
        f"{second}: not satisfied",
        "  counterexample: | {}", f"  failing: 1 of {states}",
    ]


def test_demo_json_deterministic(capsys):
    a = run(capsys, ["demo", "explainable", "--json"])
    b = run(capsys, ["demo", "explainable", "--json"])
    assert a == b
    d = json.loads(a[1])
    assert d["variant"] == "explainable"
    assert d["checks"][0]["name"] == "ICE@1 for the applicant"
    assert d["checks"][0]["result"] is False


@pytest.mark.parametrize("argv, code", [
    (["check", "--formula", "p", *TRACES], 1),
    (["validate", *TRACES], 0),
    (["universe", "--universe-prefix", "1", "--universe-loop", "1"], 0),
    (["demo", "explainable"], 0),
    (["demo", "--list"], 0),
], ids=["check", "validate", "universe", "demo", "demo-list"])
def test_every_json_report_is_one_document(model, capsys, tmp_path, argv, code):
    # `demo --list --json` printed the plain names
    if argv[0] != "demo":
        argv = [argv[0], "--model", model, *argv[1:]]
    argv = [*argv, "--json"]
    got, out, err = run(capsys, argv)
    assert (got, err) == (code, "")
    json.loads(out)
    report = tmp_path / "report.json"
    assert run(capsys, [*argv, "--out", str(report)]) == (code, "", "")
    assert report.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("argv", [
    ["check", "--formula", "p WOULD[a] q", *TRACES],
    ["demo", "restricted"],
], ids=["check", "demo"])
def test_stats_add_the_counters_and_change_no_verdict_byte(model, capsys, argv):
    if argv[0] == "check":
        argv = [argv[0], "--model", model, *argv[1:]]
    code, plain, err = run(capsys, argv)
    first = run(capsys, [*argv, "--stats"])
    assert run(capsys, [*argv, "--stats"]) == first
    assert first[0] == code and first[2] == err == ""
    body, last = first[1].rstrip("\n").rsplit("\n", 1)
    assert body + "\n" == plain
    # JSON: a `stats` object after the verdict's keys, the same counters
    plain_json = json.loads(run(capsys, [*argv, "--json"])[1])
    report = json.loads(run(capsys, [*argv, "--json", "--stats"])[1])
    stats = report.pop("stats")
    assert list(report.items()) == list(plain_json.items())
    assert list(stats) == ["nodes", "columns", "asks", "values", "similarity", "partitions"]
    assert last == "stats: " + " ".join(f"{k}={n}" for k, n in stats.items())
    assert all(type(n) is int and n >= 0 for n in stats.values()) and stats["nodes"] > 0


def test_console_script_runs():
    proc = subprocess.run(
        ["ckltl", "demo", "--list"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "explainable" in proc.stdout


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ckltl.cli", "demo", "zz"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "unknown variant" in proc.stderr
