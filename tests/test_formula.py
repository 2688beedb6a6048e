"""Formula ASTs, the parser/printer pair, desugaring, relational formulas."""

import copy
import gc
import hashlib
import pickle
import random
import re
import sys

import pytest

from ckltl import (
    And,
    Atom,
    EMight,
    Eventually,
    FalseConst,
    Formula,
    Globally,
    Historically,
    Iff,
    Implies,
    Know,
    Might,
    Next,
    Not,
    Once,
    Or,
    ParseError,
    Prev,
    RelationalFormula,
    RelationalFormulaError,
    Since,
    TracedAtom,
    TrueConst,
    Until,
    UWould,
    Would,
    build_ece,
    build_gce,
    build_ice,
    build_wce,
    conjoin,
    desugar,
    disjoin,
    parse,
    subformulas,
    subset_similarity,
    to_source,
)
from ckltl import foe, formula
from ckltl.formula import _TABLE, HashConsed, node_count
from ckltl.hiring import hiring_vocabulary
from ckltl.specs import AttributeVocabulary

from gen import gen_formula
from oracle import desugar_reference, is_name_reference, parse_reference


def test_parse_atoms_and_constants():
    assert parse("p") == Atom("p")
    assert parse("true") == TrueConst()
    assert parse("false") == FalseConst()
    assert parse("p@pi1") == TracedAtom("p", "pi1")


def test_parse_precedence_layers():
    # <-> binds loosest, then ->, |, &; unary tightest
    f = parse("p <-> q -> s | p & q")
    assert f == Iff(Atom("p"), Implies(Atom("q"), Or(Atom("s"), And(Atom("p"), Atom("q")))))


def test_implication_right_associative():
    assert parse("p -> q -> s") == Implies(Atom("p"), Implies(Atom("q"), Atom("s")))


def test_iff_left_associative():
    assert parse("p <-> q <-> s") == Iff(Iff(Atom("p"), Atom("q")), Atom("s"))


def test_until_right_associative():
    assert parse("p U q U s") == Until(Atom("p"), Until(Atom("q"), Atom("s")))


def test_unary_operators():
    assert parse("! X F G Y O H p") == Not(
        Next(Eventually(Globally(Prev(Once(Historically(Atom("p")))))))
    )


def test_know_and_counterfactuals():
    assert parse("K[a] p") == Know("a", Atom("p"))
    assert parse("p WOULD[a] q") == Would("a", Atom("p"), Atom("q"))
    assert parse("p MIGHT[a] q") == Might("a", Atom("p"), Atom("q"))
    assert parse("p UWOULD[a] q") == UWould("a", Atom("p"), Atom("q"))
    assert parse("p EMIGHT[a] q") == EMight("a", Atom("p"), Atom("q"))


def test_counterfactual_not_associative():
    with pytest.raises(ParseError):
        parse("p WOULD[a] q WOULD[a] s")
    # parenthesized nesting is fine
    parse("(p WOULD[a] q) WOULD[a] s")


def test_counterfactual_operands_at_until_level():
    f = parse("p U q WOULD[a] s U p")
    assert f == Would("a", Until(Atom("p"), Atom("q")), Until(Atom("s"), Atom("p")))


def test_parse_error_on_truncated_input():
    for src in ("p &", "K[", "K[a", "(p | q", "p WOULD[a]", "p @"):
        with pytest.raises(ParseError):
            parse(src)


# (source, message, line, column) for malformed inputs
PARSE_ERRORS = [
    ("p &", "expected a formula, found 'end of input'", 1, 4),
    ("K[", "expected an agent name", 1, 3),
    ("K[a", "expected ']', found 'end of input'", 1, 4),
    ("(p | q", "expected ')', found 'end of input'", 1, 7),
    ("p WOULD[a]", "expected a formula, found 'end of input'", 1, 11),
    ("p @", "expected a trace variable after '@'", 1, 4),
    ("p $ q", "unexpected character '$'", 1, 3),
    ("p &\n& q", "expected a formula, found '&'", 2, 1),
    ("p WOULD[a] q MIGHT[a] s",
     "counterfactual operators do not associate; parenthesize", 1, 14),
    ("K[U] p", "expected an agent name", 1, 3),
    ("p@U", "expected a trace variable after '@'", 1, 3),
    ("p q", "unexpected trailing input 'q'", 1, 3),
    ("U", "expected a formula, found 'U'", 1, 1),
    ("p\f", "unexpected character '\\x0c'", 1, 2),
    ("²p", "unexpected character '²'", 1, 1),
    ("", "expected a formula, found 'end of input'", 1, 1),
    ("  ", "expected a formula, found 'end of input'", 1, 3),
    ("p <- q", "unexpected character '<'", 1, 3),
    ("K p", "expected '[', found 'p'", 1, 3),
    ("p WOULD[] q", "expected an agent name", 1, 9),
    ("p@@q", "expected a trace variable after '@'", 1, 3),
    ("true@x", "unexpected trailing input '@'", 1, 5),
    ("\tp &", "expected a formula, found 'end of input'", 1, 5),
    ("p\r\n&", "expected a formula, found 'end of input'", 2, 2),
    ("p\n  & (q\n", "expected ')', found 'end of input'", 3, 1),
    ("p S S q", "expected a formula, found 'S'", 1, 5),
    ("_1 & 1", "unexpected character '1'", 1, 6),
    ("a\u0301", "unexpected character '\u0301'", 1, 2),  # combining accent
    ("p \xa0 q", "unexpected character '\\xa0'", 1, 3),
    # an unexpected character anywhere wins over an earlier syntax error
    ("p q $", "unexpected character '$'", 1, 5),
]


def test_parse_error_carries_position():
    for src, message, line, col in PARSE_ERRORS:
        with pytest.raises(ParseError) as e:
            parse(src)
        got = (str(e.value), e.value.line, e.value.col)
        assert got == (f"{message} (line {line}, column {col})", line, col), src


def test_identifier_characters():
    # first character: isalpha() or '_'; then isalnum() or '_'
    assert parse("é & p") == And(Atom("é"), Atom("p"))
    assert parse("x² | _") == Or(Atom("x²"), Atom("_"))
    assert parse("p1@pi_2") == TracedAtom("p1", "pi_2")


def test_is_name_matches_the_tokenizer_reference():
    # one `\w+` fullmatch and `_is_ident` against the whole tokenizer
    corpus = ["", "_", "é", "a b", " a", "a ", "a\n", "\ta", "a-b", "a@b", "a->b",
              "1a", "a1", "_1", "x²", "²", "٣", "a٣", "٣a", "Ⅻ", "aⅫ", "<->", "(",
              *formula._KEYWORDS, "Ua", "trueish", "K[a]"]
    r = random.Random(2511)
    alphabet = "ab_Z19 \t\n-@!()é²٣Ⅻ\u00a0"
    corpus += ["".join(r.choices(alphabet, k=r.randint(0, 5))) for _ in range(3000)]
    assert any(map(is_name_reference, corpus)) and not all(map(is_name_reference, corpus))
    for text in corpus:
        assert formula._is_name(text) == is_name_reference(text), repr(text)


def test_nesting_depth_within_default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert parse("(" * 200 + "p" + ")" * 200) == Atom("p")
        f = parse("!" * 900 + "p")
    finally:
        sys.setrecursionlimit(limit)
    for _ in range(900):
        assert isinstance(f, Not)
        f = f.child
    assert f == Atom("p")


def _chain(node, n: int, right: bool):
    """`n` atoms joined by `node`, nested to the right or to the left."""
    f = Atom("p0")
    for j in range(1, n):
        f = node(Atom(f"p{j}"), f) if right else node(f, Atom(f"p{j}"))
    return f


def test_parse_any_nesting_depth():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert parse("(" * 20_000 + "p" + ")" * 20_000) is Atom("p")
        for node in (Implies, Until):
            for right in (True, False):
                f = _chain(node, 5_000, right)
                assert parse(to_source(f)) is f, (node, right)
    finally:
        sys.setrecursionlimit(limit)


# pieces of token strings for the differential test: tokens, near-tokens
# and characters no token starts with
PIECES = ["p", "q", "s", "p@pi", "q@pi1", "@", "(", "(", ")", ")", "[", "]", "a",
          "!", "&", "|", "->", "<->", "U", "S", "X", "F", "G", "Y", "O", "H", "K",
          "K[a]", "K[]", "WOULD[a]", "MIGHT[b]", "UWOULD", "EMIGHT[a]", "true",
          "false", "$", "1", "\n", "<-", "é"]


def _token_strings(r: random.Random, n: int):
    """Random formulas with tokens dropped or inserted, and random runs of
    pieces, joined by a space or, now and then, by nothing."""
    for _ in range(n):
        if r.random() < 0.3:
            toks = to_source(gen_formula(r, depth=r.randint(1, 4))).split(" ")
            for _ in range(r.randint(0, 2)):
                k = r.randrange(len(toks) + 1)
                if r.random() < 0.5 and k < len(toks):
                    del toks[k]
                else:
                    toks.insert(k, r.choice(PIECES))
        else:
            toks = [r.choice(PIECES) for _ in range(r.randint(0, 12))]
        yield ("" if r.random() < 0.2 else " ").join(toks)


def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError as e:
        return str(e), e.line, e.col


def test_parse_matches_the_recursive_reference():
    # the recursive-descent parser the stack parser replaced, on seeded
    # token strings: the same formula or the same error and position
    r = random.Random(20261019)
    parsed = 0
    for text in _token_strings(r, 20_000):
        got, want = _outcome(parse, text), _outcome(parse_reference, text)
        assert got is want if isinstance(want, Formula) else got == want, text
        parsed += isinstance(want, Formula)
    assert parsed > 2_000


def test_roundtrip_fixed_examples():
    sources = [
        "G (!offer -> K[a] ((a_it & a_f) MIGHT[a] offer))",
        "p U (q S !s)",
        "Y p & O (q | H s)",
        "(p WOULD[a] q) EMIGHT[b] (s UWOULD[a] true)",
        "p@pi1 <-> !q@pi2",
        "false",
    ]
    for src in sources:
        f = parse(src)
        assert parse(to_source(f)) == f


def test_roundtrip_random_formulas():
    r = random.Random(20250825)
    for _ in range(300):
        f = gen_formula(r, depth=r.randint(1, 5))
        assert parse(to_source(f)) == f, to_source(f)


def test_to_source_no_redundant_parens_on_atoms():
    assert to_source(And(Atom("p"), Atom("q"))) == "p & q"
    assert to_source(Not(Atom("p"))) == "!p"
    assert to_source(Or(And(Atom("p"), Atom("q")), Atom("s"))) == "p & q | s"
    assert to_source(And(Atom("p"), Or(Atom("q"), Atom("s")))) == "p & (q | s)"


def test_desugar_removes_surface_forms():
    r = random.Random(7)
    for _ in range(200):
        f = gen_formula(r, depth=4)
        core = desugar(f)
        assert desugar(core) is core


def test_desugar_fixed_points():
    assert desugar(Or(Atom("p"), Atom("q"))) == Not(
        And(Not(Atom("p")), Not(Atom("q")))
    )
    assert desugar(Eventually(Atom("p"))) == Until(TrueConst(), Atom("p"))
    assert desugar(Once(Atom("p"))) == Since(TrueConst(), Atom("p"))
    assert desugar(Might("a", Atom("p"), Atom("q"))) == Not(
        Would("a", Atom("p"), Not(Atom("q")))
    )
    assert desugar(EMight("a", Atom("p"), Atom("q"))) == Not(
        UWould("a", Atom("p"), Not(Atom("q")))
    )


def test_desugar_matches_the_generic_reference():
    # the per-type rules give the very nodes the generic rebuild gives
    r = random.Random(31)
    formulas = [gen_formula(r, depth=r.randint(1, 6)) for _ in range(500)]
    formulas += [gen_formula(r, depth=4, surface=False) for _ in range(100)]
    vocab = hiring_vocabulary()
    formulas += [build_ice(vocab, "a"), build_wce(vocab, "a"),
                 build_gce(vocab, "a", "a"), build_ece(vocab, "a", "r"), _gce(9), _gce(12)]
    for f in formulas:
        assert desugar(f) is desugar_reference(f)


def test_desugar_refuses_fo_nodes_like_the_reference():
    pred = foe.FoPred("p", "x0", "x0")
    fo = foe.FoOr(pred, foe.FoNot(pred))
    for node in (pred, fo, And(Atom("p"), Not(fo))):
        with pytest.raises(TypeError) as want:
            desugar_reference(node)
        with pytest.raises(TypeError) as got:
            desugar(node)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("not a formula node: parse_fo(")


def test_desugar_of_a_core_formula_adds_no_table_entry():
    core = desugar(build_gce(hiring_vocabulary(), "a", "a"))
    gc.collect()
    start = len(_TABLE)
    assert desugar(core) is core
    gc.collect()
    assert len(_TABLE) == start


def test_desugar_idempotent():
    r = random.Random(8)
    for _ in range(100):
        f = gen_formula(r, depth=4)
        assert desugar(desugar(f)) == desugar(f)


def test_subformulas_and_node_count():
    f = parse("p & (q | p)")
    subs = list(subformulas(f))
    assert f in subs and Atom("p") in subs
    assert node_count(f) == 5


def _order_digest(formulas) -> tuple[int, str]:
    h = hashlib.sha256()
    n = 0
    for f in formulas:
        for g in subformulas(f):
            h.update(to_source(g).encode() + b"\n")
            n += 1
    return n, h.hexdigest()[:16]


def test_subformulas_order_is_pinned():
    # postorder, each distinct subformula at its first occurrence, left
    # operand before right
    assert _order_digest([build_gce(hiring_vocabulary(), "a", "a")]) == (
        743, "2c8782af66c92c00"
    )
    r = random.Random(20251018)
    fs = [gen_formula(r, depth=r.randint(1, 6)) for _ in range(200)]
    assert _order_digest(fs) == (1602, "8946f808b5d72925")


def test_conjoin_disjoin():
    assert conjoin([]) == TrueConst()
    assert disjoin([]) == FalseConst()
    assert conjoin([Atom("p")]) == Atom("p")
    assert conjoin([Atom("p"), Atom("q"), Atom("s")]) == And(
        And(Atom("p"), Atom("q")), Atom("s")
    )


def test_relational_formula_accepts_traced_temporal():
    body = Globally(Implies(TracedAtom("p", "pi1"), TracedAtom("p", "pi2")))
    rf = RelationalFormula(("pi", "pi1", "pi2"), body)
    assert rf.params == ("pi", "pi1", "pi2")


def test_relational_formula_refuses_repeated_parameters():
    # a repeated parameter would bind two traces to one variable, which the
    # engine and the reference oracle read differently
    for params in (("pi", "pi", "pi2"), ("pi", "pi2", "pi2")):
        with pytest.raises(ValueError, match="duplicate trace parameters"):
            RelationalFormula(params, parse("p@pi -> p@pi2"))


def test_relational_formula_refuses_other_parameter_counts():
    # two or four parameters used to build a relation that `System.validate`
    # passed, the engine read without a farther trace, `foe.translate` failed
    # on with an IndexError and `load_system` refused once saved
    for params in ((), ("pi", "pi1"), ("pi", "pi1", "pi2", "pi3")):
        with pytest.raises(ValueError, match=(
                r"^a relation takes 3 trace parameters \(reference, nearer, farther\),"
                rf" got {len(params)}: ")):
            RelationalFormula(params, parse("G (p@pi <-> p@pi1)"))
    # a list failed in the unique table with an unhashable-type TypeError,
    # ints built a relation that `System.validate` failed on with a TypeError,
    # and a string built a relation over its characters
    for params in (["pi", "pi1", "pi2"], (1, 2, 3), "abc"):
        with pytest.raises(ValueError, match=(
                rf"^trace parameters must be a tuple of names, got {re.escape(repr(params))}$")):
            RelationalFormula(params, parse("true"))


def test_relational_formula_refuses_untraced_atom():
    with pytest.raises(RelationalFormulaError):
        RelationalFormula(("pi", "pi1", "pi2"), Atom("p"))


def test_relational_formula_refuses_unknown_trace_var():
    with pytest.raises(RelationalFormulaError):
        RelationalFormula(("pi", "pi1", "pi2"), TracedAtom("p", "rho"))
    # every offending node, in preorder, with its path
    with pytest.raises(RelationalFormulaError) as e:
        RelationalFormula(("pi", "pi1", "pi2"), parse("(p & K[a] q@pi) | !r@rho"))
    assert [(v.kind, v.detail, v.path) for v in e.value.violations] == [
        ("untraced-atom", "p", "root.left.left"),
        ("forbidden-operator", "K", "root.left.right"),
        ("undeclared-trace-variable", "rho", "root.right.child"),
    ]
    assert str(e.value) == (
        "not a relational formula: untraced-atom: p at root.left.left; forbidden-operator:"
        " K at root.left.right; undeclared-trace-variable: rho at root.right.child")


def test_relational_formula_refuses_names_formulas_cannot_write():
    # parameters at `params`, then each traced atom at its first path; a
    # traced atom can be both undeclared and unwritable
    body = And(TracedAtom("x y", "pi"), Or(TracedAtom("true", "rho"), TracedAtom("q", "pi 1")))
    with pytest.raises(RelationalFormulaError) as e:
        RelationalFormula(("pi", "pi 1", "WOULD"), body)
    assert [(v.kind, v.detail, v.path) for v in e.value.violations] == [
        ("unwritable-name", "pi 1", "params"),
        ("unwritable-name", "WOULD", "params"),
        ("unwritable-name", "x y", "root.left"),
        ("undeclared-trace-variable", "rho", "root.right.left"),
        ("unwritable-name", "true", "root.right.left"),
    ]
    assert str(e.value).startswith(
        "not a relational formula: unwritable-name: pi 1 at params; unwritable-name: WOULD")
    for name in ("a_b", "é", "pi1"):
        RelationalFormula(("pi", name, "pi2"), TracedAtom(name, "pi"))


def test_a_shared_offending_node_is_listed_once_at_its_first_path():
    # `G p` is one node under both operands; the check walks the DAG
    with pytest.raises(RelationalFormulaError) as e:
        RelationalFormula(("pi", "pi1", "pi2"), parse("G p & (q@pi | G p)"))
    assert [(v.kind, v.detail, v.path) for v in e.value.violations] == [
        ("untraced-atom", "p", "root.left.child"),
    ]


def test_relational_formula_refuses_knowledge_and_counterfactuals():
    with pytest.raises(RelationalFormulaError):
        RelationalFormula(("pi", "pi1", "pi2"), Know("a", TracedAtom("p", "pi")))
    with pytest.raises(RelationalFormulaError):
        RelationalFormula(
            ("pi", "pi1", "pi2"),
            Would("a", TracedAtom("p", "pi"), TracedAtom("p", "pi1")),
        )


def test_relational_formula_is_checked_once_while_an_equal_one_lives(monkeypatch):
    # the check walks the formula through `children`; an equal relation built
    # while a checked one lives is recorded in the unique table and not walked
    walked, children = [], formula.children
    monkeypatch.setattr(formula, "children", lambda f: walked.append(f) or children(f))
    params, body = ("pi", "pi1", "pi2"), parse("G (once_p@pi1 -> once_p@pi2)")
    first = RelationalFormula(params, body)
    assert walked and _TABLE[(RelationalFormula, params, body)]() is first
    walked.clear()
    again = RelationalFormula(params, body)
    assert again == first and walked == []
    # a failed check records nothing, so the same offence is reported again
    for _ in range(2):
        with pytest.raises(RelationalFormulaError):
            RelationalFormula(params, parse("once_p"))
    assert (RelationalFormula, params, parse("once_p")) not in _TABLE
    # the entry leaves with the relation it records
    del first, again
    gc.collect()
    assert (RelationalFormula, params, body) not in _TABLE


# ---------------------------------------------------------------------------
# hash-consing and large formulas
# ---------------------------------------------------------------------------


def _gce(k: int):
    vocab = AttributeVocabulary(
        positives={"a": tuple(f"a{j}" for j in range(k)),
                   "b": tuple(f"b{j}" for j in range(k))},
        outcome="o",
    )
    return build_gce(vocab, "a", "a")


def _prefix_chain(n: int):
    f = Atom("p")
    for j in range(n):
        f = Not(f) if j % 2 else Next(f)
    return f


@pytest.mark.parametrize("build, size", [
    # G, ->, !o; 1,103 |; 1,104 disjuncts K[a]((l & l') MIGHT[a] o) of 4 nodes
    # plus the literals, each of 48 in 46 pairs, 24 of size 1 and 24 of size 2
    (lambda: _gce(12), 4 + 1_103 + 4 * 1_104 + 46 * (24 + 2 * 24)),
    (lambda: disjoin([Atom(f"p{j}") for j in range(10_000)]), 19_999),
    (lambda: _prefix_chain(5_000), 5_001),
], ids=["gce-12-attributes", "10000-term-or", "5000-deep-prefix"])
def test_formula_layer_handles_large_formulas(build, size):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        f = build()
        assert parse(to_source(f)) is f
        core = desugar(f)
        assert desugar(core) is core
        assert node_count(f) == size
    finally:
        sys.setrecursionlimit(limit)


def test_equal_formulas_are_one_object():
    vocab = hiring_vocabulary()
    gce = build_gce(vocab, "a", "a")
    assert build_gce(vocab, "a", "a") is gce
    assert parse(to_source(gce)) is gce
    # ICE's disjuncts are the GCE disjuncts over the applicant's own pairs
    ice_knows = {g for g in subformulas(build_ice(vocab, "a")) if isinstance(g, Know)}
    assert ice_knows and ice_knows <= set(subformulas(gce))
    assert desugar(parse("p | q")) is parse("!(!p & !q)")
    assert desugar(parse("p MIGHT[a] q")) is Not(Would("a", Atom("p"), Not(Atom("q"))))
    core = desugar(gce)
    assert desugar(core) is core
    # copies are the node itself
    assert copy.copy(gce) is gce and copy.deepcopy(gce) is gce
    assert pickle.loads(pickle.dumps(gce)) is gce


def test_formula_nodes_are_immutable():
    f = parse("p & K[a] q")
    for node, field in ((f, "left"), (f.right, "agent"), (f.left, "name")):
        with pytest.raises(AttributeError):
            setattr(node, field, Atom("s"))
        with pytest.raises(AttributeError):
            delattr(node, field)
    assert f is And(Atom("p"), Know("a", Atom("q")))


def test_unique_table_is_weak():
    gc.collect()
    start = len(_TABLE)
    r = random.Random(20261018)
    peak = 0
    for _ in range(10_000):
        f = gen_formula(r, depth=r.randint(1, 6))
        peak = max(peak, len(_TABLE))
    del f
    gc.collect()
    assert peak > start + 10 and len(_TABLE) == start


def test_a_miss_replaces_a_dead_entry_left_under_its_key():
    # a node that dies between the lookup and `_add` leaves its entry in the
    # table; `_add` removes it and inserts the new node's entry
    key = (Atom, "zz")
    f = Atom("zz")
    dead = _TABLE[key]
    del f
    gc.collect()
    assert dead() is None and key not in _TABLE
    _TABLE[key] = dead
    g = Atom("zz")
    assert isinstance(g, Atom) and g.name == "zz" and _TABLE[key]() is g


def test_parse_is_memoized_while_its_formula_lives():
    gc.collect()
    start = len(_TABLE)
    text = "memo_p U (memo_q & K[a] memo_r)"
    f = parse(text)
    assert parse(text) is f and _TABLE[(parse, text)]() is f
    for bad in ("memo_p &", "memo_p $"):
        with pytest.raises(ParseError):
            parse(bad)
        assert (parse, bad) not in _TABLE
    gce = build_gce(hiring_vocabulary(), "a", "a")
    sim = subset_similarity(p for p in ("memo_p", "memo_q"))
    assert len(_TABLE) > start
    del f, gce, sim
    gc.collect()
    assert len(_TABLE) == start


def _hash_consed_classes():
    out, stack = [], [HashConsed]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            stack.append(sub)
            if sub.__module__ in (formula.__name__, foe.__name__):
                out.append(sub)
    return sorted(out, key=lambda c: c.__qualname__)


@pytest.mark.parametrize("cls", _hash_consed_classes(), ids=lambda c: c.__qualname__)
def test_constructors_reject_a_wrong_field_count(cls):
    n = len(cls.__slots__)
    assert n <= 3
    with pytest.raises(TypeError):
        cls(*["x"] * (n + 1))
    if n:
        with pytest.raises(TypeError):
            cls(*["x"] * (n - 1))
    node = cls(*["x"] * n)
    assert cls(*["x"] * n) is node
    assert tuple(getattr(node, name) for name in cls.__slots__) == ("x",) * n
