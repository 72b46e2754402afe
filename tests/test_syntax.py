"""Parsing, printing, problem files and substitution files."""

from __future__ import annotations

import time
from functools import reduce
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from cubematch.errors import CubeError, ParseError, ProblemError, UnboundName
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
    KEYWORDS,
    SourceSpan,
    _distinct_names,
    parse_problem,
    parse_problem_file,
    parse_substitution,
    parse_term,
    print_problem,
    print_substitution,
    print_term,
)
from cubematch.terms import PROP, TYPE, App, Lam, Pi, Var, app, arrow, pick_fresh
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


def test_a_defect_in_the_calculus_lookup_is_not_a_parse_error(monkeypatch) -> None:
    def broken(name: str):
        raise RuntimeError("defect")

    monkeypatch.setattr("cubematch.syntax.cube_spec", broken)
    with pytest.raises(RuntimeError, match="defect"):
        parse_problem_file("calculus lP\nforall U : Prop\nmatch U = U\n")


_FIXTURE_LINES = sorted(
    {line for f in sorted(FIXTURES.iterdir()) for line in f.read_text().splitlines()}
)
_JUNK = list("()[]:,=-#@ \t_xU") + ["->", ":=", "where", "exists", "match", "# c", "\n"]


@st.composite
def _junk_files(draw) -> str:
    """Fixture lines in any order, edited by insertions and deletions."""
    lines = draw(st.lists(st.sampled_from(_FIXTURE_LINES), min_size=2, max_size=8))
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[k])))
        if draw(st.booleans()):
            lines[k] = lines[k][:at] + draw(st.sampled_from(_JUNK)) + lines[k][at:]
        else:
            lines[k] = lines[k][:at] + lines[k][at + draw(st.integers(1, 3)) :]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(deadline=None, max_examples=300)
@given(_junk_files())
def test_every_error_span_is_the_line_and_column_of_its_offset(text: str) -> None:
    qctx = parse_problem((FIXTURES / "thm1_target.prob").read_text())[1].qctx
    for parse in (parse_problem_file, lambda t: parse_substitution(t, qctx)):
        try:
            parse(text)
        except CubeError as e:
            span = e.span
            assert span is not None
            assert 0 <= span.start <= span.end <= len(text)
            assert span.line == text.count("\n", 0, span.start) + 1
            assert span.col == span.start - text.rfind("\n", 0, span.start)


@pytest.mark.parametrize("n", [1, 50, 400])
def test_a_long_arrow_chain_parses_and_prints(n: int) -> None:
    text = " -> ".join(["U"] * n)
    t = parse_term(text, ["U"])
    assert t == reduce(lambda cod, dom: arrow(dom, cod), [Var(0)] * n)
    assert print_term(t, ["U"]) == text


def test_printing_an_arrow_chain_takes_time_linear_in_its_length() -> None:
    # The printer decides which binders are used in one pass and writes
    # into one list, so four times the arrows take about four times as
    # long; asking free_indices at every product took about sixteen.
    def best_ms(n: int) -> float:
        t = reduce(lambda cod, dom: arrow(dom, cod), [Var(0)] * n)
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            print_term(t, ["U"])
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best_ms(400) < 8 * best_ms(100)


def test_printing_nested_binders_of_one_hint_takes_time_linear_in_their_number() -> None:
    # The printer keeps the taken names in step with its scope and starts
    # each suffix scan where the last one stopped, so four times the depth
    # takes about four times as long; rebuilding the set at every binder and
    # scanning from x0 took about fifteen.
    def best_ms(n: int) -> float:
        t = reduce(lambda body, _: Lam(PROP, body, "x"), range(n), Var(0))
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            text = print_term(t)
            times.append(time.perf_counter() - t0)
        assert text.startswith("[x:Prop][x0:Prop]") and text.endswith(f"[x{n - 2}:Prop]x{n - 2}")
        return min(times)

    assert best_ms(800) < 8 * best_ms(200)


def _distinct_names_by_scanning(names: list[str | None]) -> list[str]:
    """The naming rule with each fresh name from pick_fresh, which scans
    suffixes from 0."""
    innermost = {n: i for i, n in enumerate(names)}
    taken = {n for n in names if n} | KEYWORDS
    out = []
    for i, n in enumerate(names):
        if n is None or n in KEYWORDS or innermost[n] != i:
            n = pick_fresh(n, taken)
            taken.add(n)
        out.append(n)
    return out


_DECL_NAMES = st.one_of(
    st.none(),
    st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from(["", "x", "y", "x0", "x1", "x10", "x01", "y0", "Prop0", "forall1"]),
    st.from_regex(r"[xy][0-9]{0,2}", fullmatch=True),
)


@settings(deadline=None)
@given(st.lists(_DECL_NAMES, max_size=40))
def test_distinct_names_follow_the_scanning_rule(names) -> None:
    assert _distinct_names(names) == _distinct_names_by_scanning(names)


def test_naming_unnamed_declarations_takes_time_linear_in_their_number() -> None:
    # Each base's suffix scan starts where its last one stopped, so eight
    # times the declarations take about eight times as long; scanning from
    # x0 for each took about forty.
    def best_ms(n: int) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            names = _distinct_names([None] * n)
            times.append(time.perf_counter() - t0)
        assert names[-1] == f"x{n - 1}"
        return min(times)

    assert best_ms(4000) < 16 * best_ms(500)


def test_an_arrow_under_a_binder_skips_one_index() -> None:
    t = parse_term("(x:U) P x -> P x", ["U", "P"])
    p_x = App(Var(1), Var(0))
    assert t == Pi(Var(1), arrow(p_x, p_x), "x")
    assert t.cod.cod == App(Var(2), Var(1))
    assert print_term(t, ["U", "P"]) == "(x:U)P x -> P x"


def test_a_stray_character_is_reported_before_an_earlier_line_fault() -> None:
    _, p = parse_problem((FIXTURES / "term_source.prob").read_text())
    with pytest.raises(ParseError, match="stray character") as exc:
        parse_substitution("Q := a\nF := [x:U]x @\n", p.qctx)
    assert str(exc.value.span) == "2:13"
