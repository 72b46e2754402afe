"""Parsing, printing, problem files and substitution files."""

from __future__ import annotations

from random import Random

import pytest

from conftest import FIXTURES
from cubematch.errors import ParseError, ProblemError, UnboundName
from cubematch.problems import (
    ProblemKind,
    QContext,
    QDecl,
    Quant,
    SubstTriple,
    Substitution,
    is_solution,
)
from cubematch.syntax import (
    SourceSpan,
    parse_problem,
    parse_substitution,
    parse_term,
    print_problem,
    print_substitution,
    print_term,
)
from cubematch.terms import PROP, TYPE, App, Lam, Pi, Var, app, arrow
from cubematch.typecheck import ALL_PAIRS, PP, PRESETS, PT, CubeSpec
from termgen import base_context, random_well_typed


# ------------- terms -------------


def test_parse_identity_lambda() -> None:
    assert parse_term("[x:U]x", ["U"]) == Lam(Var(0), Var(0))


def test_parse_arrow_right_associates() -> None:
    u = Var(0)
    assert parse_term("U -> U -> U", ["U"]) == arrow(u, arrow(u, u))
    assert parse_term("(U -> U) -> U", ["U"]) == arrow(arrow(u, u), u)


def test_parse_application_left_associates_and_spines() -> None:
    got = parse_term("g a a", ["U", "a", "g"])
    assert got == app(Var(0), Var(1), Var(1))
    assert parse_term("(g a a)", ["U", "a", "g"]) == got


def test_parse_product_body_extends_right() -> None:
    # the binder scopes over the arrow to its right
    got = parse_term("(h:U -> U)(P (h u1)) -> (P (h u2))", ["U", "P", "u1", "u2"])
    assert isinstance(got, Pi)
    assert got.dom == arrow(Var(3), Var(3))
    assert isinstance(got.cod, Pi)  # the arrow, inside the binder


def test_parse_shadowing_resolves_nearest() -> None:
    # the inner x wins
    assert parse_term("[x:U][x:U]x", ["U"]) == Lam(Var(0), Lam(Var(1), Var(0)))


def test_parse_sorts_and_parens() -> None:
    assert parse_term("Prop", []) == PROP
    assert parse_term("Type", []) == TYPE
    assert parse_term("((Prop))", []) == PROP


def test_parse_errors_carry_spans() -> None:
    with pytest.raises(ParseError) as exc:
        parse_term("[x:U](x", ["U"])
    assert exc.value.span is not None
    with pytest.raises(UnboundName) as exc2:
        parse_term("[x:U]y", ["U"])
    assert exc2.value.span is not None
    assert "y" in exc2.value.message


def test_parse_rejects_stray_characters() -> None:
    with pytest.raises(ParseError):
        parse_term("x @ y", ["x", "y"])


def test_print_identity_round_trip() -> None:
    t = Lam(Var(0), Var(0), "x")
    assert parse_term(print_term(t, ["U"]), ["U"]) == t


def test_print_freshens_on_clash() -> None:
    # hint x collides with the scope name, so the binder gets a suffix
    t = Lam(Var(0), App(Var(2), Var(0)), "x")
    s = print_term(t, ["f", "x"])
    assert s == "[x0:x]f x0"
    assert parse_term(s, ["f", "x"]) == t


def test_print_unnamed_binders_synthesize_x0() -> None:
    t = Lam(PROP, Var(0))
    assert print_term(t, []) == "[x0:Prop]x0"


def test_print_unbound_index_is_an_error() -> None:
    with pytest.raises(ValueError):
        print_term(Var(3), ["U"])


def test_round_trip_random_terms() -> None:
    rng = Random(23)
    ctx = base_context()
    scope = [d.name or f"v{i}" for i, d in enumerate(ctx.decls)]
    for _ in range(120):
        t = random_well_typed(rng, max_size=16)
        assert parse_term(print_term(t, scope), scope) == t


def test_print_then_parse_reaches_a_fixed_point_in_one_cycle() -> None:
    rng = Random(29)
    ctx = base_context()
    scope = [d.name or f"v{i}" for i, d in enumerate(ctx.decls)]
    for _ in range(40):
        t = random_well_typed(rng, max_size=14)
        once = print_term(t, scope)
        assert print_term(parse_term(once, scope), scope) == once


# ------------- problem files -------------


def test_parse_problem_fixture(lp) -> None:
    spec, p = parse_problem((FIXTURES / "term_source.prob").read_text())
    assert spec == lp
    assert p.kind is ProblemKind.MATCHING  # the right-hand side is closed
    assert [d.name for d in p.qctx.decls] == ["U", "a", "F"]


def test_parse_problem_unify_keyword_with_open_rhs(lp) -> None:
    text = """calculus lP
forall U : Prop
exists F : U -> U
exists x : U
unify F x = x
"""
    _, p = parse_problem(text)
    assert p.kind is ProblemKind.UNIFICATION


def test_match_keyword_requires_closed_rhs() -> None:
    text = """calculus lP
forall U : Prop
exists x : U
match x = x
"""
    with pytest.raises(ProblemError):
        parse_problem(text)


def test_type_mismatch_points_at_the_equation() -> None:
    text = """calculus lP
forall U : Prop
forall a : U
match a = Prop
"""
    with pytest.raises(ProblemError) as exc:
        parse_problem(text)
    assert exc.value.span is not None
    eq_at = text.index(" = ") + 1
    assert exc.value.span.start == eq_at


def test_custom_calculus_header() -> None:
    text = """calculus custom (Prop-Prop, Prop-Type)
forall U : Prop
forall a : U
match a = a
"""
    spec, _ = parse_problem(text)
    assert spec.rules == frozenset({PP, PT})


def test_custom_calculus_requires_prop_prop() -> None:
    text = "calculus custom (Prop-Type)\nforall U : Prop\nmatch U = U\n"
    with pytest.raises(ParseError):
        parse_problem(text)


def test_unknown_calculus_name() -> None:
    with pytest.raises(ParseError):
        parse_problem("calculus bogus\nmatch Prop = Prop\n")


def test_problem_print_parse_round_trip() -> None:
    for name in (
        "term_source.prob",
        "thm1_target.prob",
        "type_source.prob",
        "erratum_target.prob",
        "thm2_invalid_target.prob",
    ):
        spec, p = parse_problem((FIXTURES / name).read_text())
        text = print_problem(spec, p)
        spec2, p2 = parse_problem(text)
        assert spec2 == spec and p2 == p, name
        assert print_problem(spec2, p2) == text  # fixed point after one cycle


def test_calculus_header_round_trip_over_all_rule_sets() -> None:
    text = "calculus stlc\nforall U : Prop\nforall a : U\nmatch a = a\n"
    _, p = parse_problem(text)
    for name, preset in PRESETS.items():
        for spec in (preset, CubeSpec(preset.rules)):
            printed = print_problem(spec, p)
            header = printed.splitlines()[0]
            assert header == f"calculus {spec.label()}"
            assert (name in header) == (spec.name is not None)
            spec2, p2 = parse_problem(printed)
            assert spec2.rules == spec.rules and spec2.name == spec.name
            assert p2 == p and print_problem(spec2, p2) == printed
    # a preset name on other rules would re-parse as the wrong calculus
    assert CubeSpec(ALL_PAIRS, name="lP").label().startswith("custom (")


# ------------- substitution files -------------


def test_parse_substitution_and_verify(lp) -> None:
    _, p = parse_problem((FIXTURES / "term_source.prob").read_text())
    s = parse_substitution((FIXTURES / "thm1_tau_identity.subst").read_text(), p.qctx)
    assert is_solution(s, p, lp)


def test_parse_substitution_with_local_context(lp) -> None:
    _, p = parse_problem((FIXTURES / "term_source.prob").read_text())
    s = parse_substitution("F := G0 where exists G0 : U -> U", p.qctx)
    tr = s.triples[0]
    assert len(tr.local) == 1 and tr.local.decls[0].quant is Quant.EXISTS
    assert tr.term == Var(0)  # the freshly introduced unknown


def test_parse_substitution_rejects_universals_and_unknown_names() -> None:
    _, p = parse_problem((FIXTURES / "term_source.prob").read_text())
    with pytest.raises(ParseError):
        parse_substitution("a := a", p.qctx)
    with pytest.raises(UnboundName):
        parse_substitution("Q := a", p.qctx)
    with pytest.raises(ParseError):
        parse_substitution("F := [x:U]x\nF := [x:U]a", p.qctx)


@pytest.mark.parametrize(
    "text, col",
    [
        ("F := [x:U]x where", 18),
        ("F := [x:U]x where exists y : U,", 32),
        ("F := [x:U]x where y : U", 19),
        ("F := [x:U]x where exists y U", 28),
        ("F := [x:U]x where exists y :", 29),
    ],
)
def test_a_where_clause_error_points_where_the_clause_stops(text, col) -> None:
    _, p = parse_problem((FIXTURES / "term_source.prob").read_text())
    with pytest.raises(ParseError) as exc:
        parse_substitution(text, p.qctx)
    assert str(exc.value.span) == f"1:{col}"


def test_substituted_unknowns_leave_scope_for_later_lines(lp) -> None:
    # after binding F, a later binding's term cannot mention F
    _, p = parse_problem((FIXTURES / "thm1_target.prob").read_text())
    with pytest.raises(UnboundName):
        parse_substitution(
            "F := [x:U]x\nf := [x1:U -> U][x2:P (x1 (F a))]x2", p.qctx
        )


def test_substitution_round_trip(lp) -> None:
    _, p = parse_problem((FIXTURES / "thm1_target.prob").read_text())
    s = parse_substitution((FIXTURES / "thm1_sigma.subst").read_text(), p.qctx)
    assert is_solution(s, p, lp)
    text = print_substitution(s)
    assert parse_substitution(text, p.qctx) == s


def test_a_local_shadowing_the_image_keeps_its_name(lp) -> None:
    # exists a : U shadows the universal a, which prints as the fresh a0
    _, p = parse_problem((FIXTURES / "term_source.prob").read_text())
    local = QContext((QDecl(Quant.EXISTS, Var(1), "a"),))
    s = Substitution(p.qctx, (SubstTriple(2, local, Lam(Var(2), Var(2), "x")),))
    text = print_substitution(s)
    assert text == "F := [x:U]a0 where exists a : U\n"
    assert repr(parse_substitution(text, p.qctx)) == repr(s)
    written = parse_substitution("F := [x:U]a where exists a : U", p.qctx)
    assert written.triples[0].term == Lam(Var(2), Var(1))  # the nearest a


def test_spans_stay_within_input() -> None:
    junk = ["[x:", "(()", "match = ", "forall : U", "x ->", "[x:U]x y ("]
    for text in junk:
        try:
            parse_term(text, ["U", "x", "y"])
        except ParseError as e:
            assert e.span is not None
            assert 0 <= e.span.start <= e.span.end <= len(text)


def test_source_span_sanity() -> None:
    with pytest.raises(ValueError):
        SourceSpan(3, 1, 1, 1)
