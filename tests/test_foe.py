"""Translation to FO[<,E] and the brute-force bounded evaluator."""

import copy
import gc
import hashlib
import pickle
import random
import sys

import pytest

from ckltl import (
    Atom,
    LassoTrace,
    ParseError,
    desugar,
    disjoin,
    eval_at,
    parse,
    parse_trace_literal,
    to_source,
    universe_of,
)
from ckltl.foe import (
    FoAnd,
    FoDomain,
    FoEq,
    FoExists,
    FoForall,
    FoIff,
    FoImplies,
    FoMin,
    FoNot,
    FoOr,
    FoPred,
    UnsupportedNode,
    eval_fo,
    fo_node_count,
    parse_fo,
    print_fo,
    translate,
    translate_at,
)
from ckltl.formula import _TABLE, node_count, subformulas
from ckltl.semantics import EvalContext, check_system

from gen import gen_formula, gen_system, gen_universe
from oracle import distinct_postorder, tree_size


def tr(text):
    return parse_trace_literal(text)


def test_translation_agrees_with_bounded_engine():
    r = random.Random(200)
    for _ in range(120):
        s = gen_system(r)
        u = gen_universe(r, max_traces=4)
        f = desugar(gen_formula(r, depth=r.randint(1, 3)))
        n = r.randint(0, 4)
        dom = FoDomain(u, n)
        ctx = EvalContext.bounded(s, u, n)
        fo = translate_at(f, s)
        for t in u:
            for i in range(n + 1):
                got = eval_fo(dom, fo, {"x0": (t, i)})
                want = eval_at(ctx, t, i, f)
                assert got == want, f"formula={f}, trace={t}, i={i}, n={n}"


def test_closed_translation_is_the_universal_check():
    r = random.Random(201)
    for _ in range(60):
        s = gen_system(r)
        u = gen_universe(r, max_traces=4)
        f = desugar(gen_formula(r, depth=2))
        n = r.randint(0, 3)
        sentence = translate(f, s)
        assert isinstance(sentence, FoForall)
        assert isinstance(sentence.body, FoImplies)
        assert isinstance(sentence.body.left, FoMin)
        ctx = EvalContext.bounded(s, u, n)
        want = all(eval_at(ctx, t, 0, f) for t in u)
        assert eval_fo(FoDomain(u, n), sentence) == want


def test_translation_size_is_linear():
    # node count of the output is bounded by a fixed multiple of the input,
    # where similarity templates count once per counterfactual node
    r = random.Random(202)
    for _ in range(80):
        s = gen_system(r)
        f = desugar(gen_formula(r, depth=r.randint(1, 4)))
        size = node_count(f)
        for a in s.agents:
            rf = s.similarity_of(a)
            size += 2 * node_count(rf.formula) * _cf_count(f)
        assert fo_node_count(translate_at(f, s)) <= 14 * size + 10


def _cf_count(f):
    from ckltl import UWould, Would, subformulas

    return sum(1 for g in subformulas(f) if isinstance(g, (Would, UWould)))


def test_print_parse_roundtrip():
    r = random.Random(203)
    for _ in range(120):
        s = gen_system(r)
        f = desugar(gen_formula(r, depth=r.randint(1, 3)))
        fo = translate_at(f, s)
        text = print_fo(fo)
        assert parse_fo(text) == fo
        assert print_fo(parse_fo(text)) == text


def test_translate_at_requires_core_form():
    s = gen_system(random.Random(204))
    for src in ["p | q", "F p", "O p", "p MIGHT[a] q", "p EMIGHT[a] q", "H p"]:
        with pytest.raises(UnsupportedNode):
            translate_at(parse(src), s)
    # after desugaring the same formulas go through
    for src in ["p | q", "F p", "O p", "p MIGHT[a] q", "p EMIGHT[a] q", "H p"]:
        translate_at(desugar(parse(src)), s)
    # a traced atom belongs to a similarity relation only
    for src in ["p@pi", "X (q & p@pi)"]:
        with pytest.raises(UnsupportedNode, match="traced atom p@pi outside a similarity inlining"):
            translate_at(desugar(parse(src)), s)


def test_domain_refuses_a_bound_that_is_not_an_int():
    # `eval_fo` failed on 2.5 with a TypeError
    u = universe_of([tr("| {p}")])
    for bad in (2.5, True, "2"):
        with pytest.raises(ValueError) as e:
            FoDomain(u, bad)
        assert str(e.value) == f"n must be an int, got {bad!r}"


def test_eval_fo_error_paths():
    s = gen_system(random.Random(205))
    u = universe_of([tr("| {p}"), tr("| {q}")])
    dom = FoDomain(u, 2)
    fo = translate_at(desugar(parse("p")), s)
    with pytest.raises(ValueError):
        eval_fo(dom, fo)  # x0 unbound
    with pytest.raises(ValueError):
        eval_fo(dom, fo, {"x0": (tr("| {p,q}"), 0)})  # foreign trace
    with pytest.raises(ValueError):
        eval_fo(dom, fo, {"x0": (u.traces[0], 3)})  # beyond the bound
    with pytest.raises(ValueError):
        FoDomain(u, -1)
    # any presentation of a universe word is a fine environment value
    assert eval_fo(dom, fo, {"x0": (tr("{p} | {p}"), 0)})
    # a node outside the FO language is refused, alone or inside a sentence
    for node in [Atom("p"), FoAnd(FoMin("x0"), Atom("p"))]:
        with pytest.raises(TypeError, match="not an FO node"):
            eval_fo(dom, node, {"x0": (u.traces[0], 0)})


def test_every_presentation_of_a_universe_word_evaluates_alike():
    # a trace with its loop unrolled once into the prefix names the same
    # word as the universe trace, so it is the same point of the domain
    s = gen_system(random.Random(205))
    u = universe_of([tr("| {p}"), tr("| {q}")])
    fo = translate_at(desugar(parse("X p")), s)
    assert eval_fo(FoDomain(u, 2), fo, {"x0": (tr("{p} | {p}"), 0)})
    r = random.Random(209)
    for _ in range(60):
        s = gen_system(r)
        u = gen_universe(r, max_traces=4)
        f = desugar(gen_formula(r, depth=r.randint(1, 3)))
        n = r.randint(1, 4)
        dom = FoDomain(u, n)
        ctx = EvalContext.bounded(s, u, n)
        fo = translate_at(f, s)
        for t in u:
            unrolled = LassoTrace(t.prefix + t.loop, t.loop)
            assert unrolled != t
            for i in range(n + 1):
                want = eval_at(ctx, t, i, f)
                assert eval_fo(dom, fo, {"x0": (t, i)}) == want
                got = eval_fo(dom, fo, {"x0": (unrolled, i)})
                assert got == want, f"formula={f}, trace={unrolled}, i={i}, n={n}"


def multi_level_universe():
    # antecedent worlds at several levels are needed before the faithful
    # (unpinned) translation can disagree with the direct semantics
    return universe_of(
        [
            tr("| {}"),
            tr("| {p}"),
            tr("| {q}"),
            tr("| {p,q}"),
            tr("{q} | {p}"),
            tr("{p} ; {p} | {q}"),
        ]
    )


def test_amended_translation_is_exact_where_faithful_diverges():
    s = gen_system(random.Random(206))
    u = multi_level_universe()
    n = 3
    dom = FoDomain(u, n)
    ctx = EvalContext.bounded(s, u, n)
    checked = 0
    divergences = 0
    for src in ["(p | q) WOULD[a] p", "(p | q) UWOULD[b] q", "q WOULD[b] p"]:
        f = desugar(parse(src))
        amended = translate_at(f, s)
        unpinned = translate_at(f, s, faithful=True)
        for t in u:
            for i in range(n + 1):
                want = eval_at(ctx, t, i, f)
                assert eval_fo(dom, amended, {"x0": (t, i)}) == want
                checked += 1
                if eval_fo(dom, unpinned, {"x0": (t, i)}) != want:
                    divergences += 1
    assert checked == 3 * len(u) * (n + 1)
    assert divergences > 0  # the pin is doing real work on this universe


# (text, message, line, column) of malformed FO texts, recorded before the
# parser was rewritten; the end of input and trailing input are worded as
# `parse` words them
FO_PARSE_ERRORS = [
    ("", "unexpected end of input (line 1, column 1)", 1, 1),
    ("!", "unexpected end of input (line 1, column 2)", 1, 2),
    ("forall x P_p(x)", "expected '.', found 'P_p' (line 1, column 10)", 1, 10),
    ("forall . x", "expected a variable name (line 1, column 8)", 1, 8),
    ("P_p(x", "expected ')', found 'end of input' (line 1, column 6)", 1, 6),
    ("P_(x)", "expected '<' or '=' after variable 'P_' (line 1, column 3)", 1, 3),
    ("x <", "expected a variable name (line 1, column 4)", 1, 4),
    ("x y", "expected '<' or '=' after variable 'x' (line 1, column 3)", 1, 3),
    ("1x = y", "unexpected character '1' (line 1, column 1)", 1, 1),
    ("x = y $", "unexpected character '$' (line 1, column 7)", 1, 7),
    ("(x = y", "expected ')', found 'end of input' (line 1, column 7)", 1, 7),
    ("x = y)", "unexpected trailing input ')' (line 1, column 6)", 1, 6),
    ("E(x y)", "expected ',', found 'y' (line 1, column 5)", 1, 5),
    ("succ(x)", "expected ',', found ')' (line 1, column 7)", 1, 7),
    ("min(x, y)", "expected ')', found ',' (line 1, column 6)", 1, 6),
    ("P_p(tr(x), y)", "expected 'pos', found 'y' (line 1, column 12)", 1, 12),
    ("x = y &\n& x < y", "unexpected token '&' (line 2, column 1)", 2, 1),
    (
        "x = y & forall z. z = z",
        "expected '<' or '=' after variable 'forall' (line 1, column 16)",
        1,
        16,
    ),
    ("exists x.", "unexpected end of input (line 1, column 10)", 1, 10),
    ("x = y <-> ", "unexpected end of input (line 1, column 11)", 1, 11),
    ("P_p(tr(x), pos(y)", "expected ')', found 'end of input' (line 1, column 18)", 1, 18),
    ("E(x, y) -> -> E(y, x)", "unexpected token '->' (line 1, column 12)", 1, 12),
    ("forall x. x = y | $", "unexpected character '$' (line 1, column 19)", 1, 19),
    ("  \n  ! ( x", "expected '<' or '=' after variable 'x' (line 2, column 8)", 2, 8),
    ("x = y\n  z", "unexpected trailing input 'z' (line 2, column 3)", 2, 3),
    ("P_p(tr(x), pos(1))", "unexpected character '1' (line 1, column 16)", 1, 16),
    ("x < 1", "unexpected character '1' (line 1, column 5)", 1, 5),
    ("x.y", "expected '<' or '=' after variable 'x' (line 1, column 2)", 1, 2),
    ("min()", "expected a variable name (line 1, column 5)", 1, 5),
    ("E = min", "expected '(', found '=' (line 1, column 3)", 1, 3),
    ("P_p(tr)", "expected '(', found ')' (line 1, column 7)", 1, 7),
    ("x <- y", "unexpected character '-' (line 1, column 4)", 1, 4),
]


@pytest.mark.parametrize("text,message,line,col", FO_PARSE_ERRORS)
def test_parse_fo_error_positions(text, message, line, col):
    with pytest.raises(ParseError) as info:
        parse_fo(text)
    assert (str(info.value), info.value.line, info.value.col) == (message, line, col)


# pieces of FO token strings for the outcome digest: tokens, near-tokens and
# characters no token starts with
FO_PIECES = ["forall x.", "exists y.", "forall", "exists", "x", "y", "x0", ".", ",",
             "(", "(", ")", ")", "!", "&", "|", "->", "<->", "<", "=", "<-", "$", "1",
             "P_p(tr(x), pos(y))", "P_q(x)", "P_", "E(x, y)", "succ(x, y)", "min(x)",
             "tr", "pos", "\n", "é"]


def _fo_token_strings(r: random.Random, n: int):
    """Printed translations, half of them unedited and the rest with tokens
    dropped or inserted, and random runs of pieces, joined by a space or,
    now and then, by nothing.  Few formulas have a counterfactual, whose
    translation inlines similarity formulas and is long."""
    systems = [gen_system(r) for _ in range(4)]
    for _ in range(n):
        if r.random() < 0.6:
            cf = int(r.random() < 0.03)
            f = desugar(gen_formula(r, depth=r.randint(1, 3), cf=cf))
            toks = print_fo(translate_at(f, r.choice(systems))).split(" ")
            for _ in range(r.choice((0, 0, 0, 1, 2))):
                k = r.randrange(len(toks) + 1)
                if r.random() < 0.5 and k < len(toks):
                    del toks[k]
                else:
                    toks.insert(k, r.choice(FO_PIECES))
            sep = " "
        else:
            toks = [r.choice(FO_PIECES) for _ in range(r.randint(0, 12))]
            sep = "" if r.random() < 0.2 else " "
        yield sep.join(toks)


def test_parse_fo_outcomes_are_pinned():
    # the text or the error and position `parse_fo` gives for each seeded
    # string, hashed; the digest was recorded before the parser was rewritten
    # and again when FO errors took the formula parser's end-of-input wording
    h = hashlib.sha256()
    parsed = 0
    for text in _fo_token_strings(random.Random(20261020), 20_000):
        try:
            got = print_fo(parse_fo(text))
            parsed += 1
        except ParseError as e:
            got = f"{e}|{e.line}|{e.col}"
        h.update(got.encode() + b"\n")
    assert parsed > 5_000
    assert h.hexdigest() == "0156b0e615ff70d5c27c828af5eb75b8056a248bdbb6adfdfe18462d6d67f02c"


def test_parse_fo_any_nesting_depth():
    leaf = FoEq("x", "y")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert parse_fo("(" * 20_000 + "x = y" + ")" * 20_000) is leaf
        f = leaf
        for _ in range(20_000):
            f = FoNot(f)
        assert parse_fo("!" * 20_000 + "x = y") is f
        f = leaf
        for i in range(2_000):
            f = (FoForall if i % 3 else FoExists)(f"v{i}", f)
        assert parse_fo(print_fo(f)) is f
        for node in (FoAnd, FoOr, FoImplies, FoIff):
            for right in (True, False):
                f = FoPred("p", "x", "x")
                for j in range(1, 5_000):
                    g = FoPred(f"p{j}", "x", "x")
                    f = node(g, f) if right else node(f, g)
                assert parse_fo(print_fo(f)) is f, (node, right)
    finally:
        sys.setrecursionlimit(limit)


def test_parse_fo_keywords_are_variables_outside_their_position():
    # a quantifier keyword only starts a sentence; elsewhere it names a variable
    assert parse_fo("forall forall. x = x") == FoForall("forall", FoEq("x", "x"))
    assert parse_fo("!(tr = min)") == FoNot(FoEq("tr", "min"))


def test_print_fo_digest_is_pinned():
    # byte-identity of the printer beyond the golden files: the digest was
    # recorded over these seeded translations before the printer was rewritten
    r = random.Random(208)
    h = hashlib.sha256()
    for _ in range(100):
        s = gen_system(r)
        f = desugar(gen_formula(r, depth=r.randint(1, 4)))
        for faithful in (False, True):
            h.update(print_fo(translate(f, s, faithful=faithful)).encode() + b"\n")
    assert h.hexdigest() == "cce383afcd98560bf7b144e0fc5c7a36be0ea60c38caa10df9e2d5efe937676a"


def test_deep_translation_hashes_counts_and_round_trips():
    # 300 nested parentheses and a tree about 900 nodes deep
    s = gen_system(random.Random(209))
    fo = translate(desugar(disjoin([Atom(f"p{i}") for i in range(300)])), s)
    hash(fo)
    assert fo_node_count(fo) == 1499
    text = print_fo(fo)
    depth = deepest = 0
    for c in text:
        depth += (c == "(") - (c == ")")
        deepest = max(deepest, depth)
    assert deepest == 300
    assert parse_fo(text) is fo


def test_fo_nodes_are_hash_consed_and_immutable():
    s = gen_system(random.Random(210))
    f = desugar(parse("p WOULD[a] q"))
    fo = translate_at(f, s)
    assert translate_at(f, s) is fo
    assert copy.copy(fo) is fo and copy.deepcopy(fo) is fo
    assert pickle.loads(pickle.dumps(fo)) is fo
    pred = FoPred("p", "x0", "x0")
    for node, field in ((fo, "left"), (pred, "name"), (FoMin("x0"), "var")):
        with pytest.raises(AttributeError):
            setattr(node, field, "x1")
        with pytest.raises(AttributeError):
            delattr(node, field)
    assert repr(pred) == "parse_fo('P_p(x0)')"
    # FO nodes share the unique table but are not formulas of the logic:
    # neither a leaf nor a sentence gets through the formula layer, and
    # `print_fo` refuses formula nodes
    u = universe_of([tr("| {p}")])
    ctx = EvalContext.exact(s, u)
    for node in (pred, fo):
        for op in (desugar, to_source, lambda g: eval_at(ctx, u.traces[0], 0, g),
                   lambda g: check_system(ctx, g)):
            with pytest.raises(TypeError):
                op(node)
    with pytest.raises(TypeError, match="^not a formula node: FoOr$"):
        to_source(fo)
    for g, name in ((f, "Would"), (parse("p & X q"), "And"), (parse("p"), "Atom")):
        with pytest.raises(TypeError, match=f"^not an FO node: {name}$"):
            print_fo(g)


def test_node_count_and_subformulas_agree_with_naive_recursion():
    # FO sentences are counted and walked by the formula layer's toolkit
    r = random.Random(212)
    for _ in range(60):
        s = gen_system(r)
        f = desugar(gen_formula(r, depth=r.randint(1, 4)))
        for g in (f, translate_at(f, s)):
            assert node_count(g) == fo_node_count(g) == tree_size(g)
            assert list(subformulas(g)) == distinct_postorder(g)


def test_translations_leave_the_unique_table():
    gc.collect()
    start = len(_TABLE)
    r = random.Random(211)
    for _ in range(200):
        s = gen_system(r)
        f = desugar(gen_formula(r, depth=r.randint(1, 4)))
        before = len(_TABLE)
        fo = translate_at(f, s)
        assert len(_TABLE) > before
        del fo
    del s, f
    gc.collect()
    assert len(_TABLE) == start
