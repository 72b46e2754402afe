"""The three problem encodings, witness transport, and shape builders."""

from __future__ import annotations

import pytest

from cubematch.encodings import (
    ArtifactKind,
    GoldfarbShapes,
    build_erratum,
    build_thm1,
    build_thm2_invalid,
    goldfarb_numeral,
    goldfarb_solution_shapes,
    goldfarb_tpl,
    thm1_extract,
    thm1_witness,
    _erratum_witness,
)
from cubematch.errors import CapabilityError, ElementarityError, WitnessError
from cubematch.problems import (
    INFINITE,
    OrderValue,
    ProblemKind,
    QContext,
    QDecl,
    Quant,
    SubstTriple,
    Substitution,
    apply_subst,
    is_solution,
    make_problem,
    _is_closed,
)
from cubematch.reduction import beta_eta_normalize, equivalent
from cubematch.search import SearchBudget, solve_bounded
from cubematch.syntax import parse_term, scope_names
from cubematch.terms import PROP, App, Lam, Var, app, arrow
from cubematch.typecheck import PT, TP, TT, check_type, cube_spec


def _identity_binding(source) -> Substitution:
    return Substitution(
        source.qctx, (SubstTriple(2, QContext(), Lam(Var(1), Var(0), "x")),)
    )


# ------------- the dependent-types construction -------------


def test_thm1_structure_matches_the_display(lp, term_source) -> None:
    art = build_thm1(term_source, lp)
    names = scope_names(art.target.qctx)
    # the added block, transcribed through the parser against the same scope
    decls = art.target.qctx.decls
    assert parse_term("U", names[:3]) == decls[3].ty  # z : U
    assert parse_term("U -> Prop", names[:4]) == decls[4].ty
    assert parse_term("P z", names[:5]) == decls[5].ty
    assert parse_term("P z", names[:6]) == decls[6].ty
    assert parse_term("P z -> P z -> P z", names[:7]) == decls[7].ty
    assert (
        parse_term("(h:U -> U)(P (h (F a))) -> (P (h a))", names[:8]) == decls[8].ty
    )
    assert parse_term("G (f ([x:U]z) c) (f ([x:U]z) d)", names) == art.target.lhs
    assert parse_term("G c d", names) == art.target.rhs


def test_thm1_metadata(lp, term_source) -> None:
    art = build_thm1(term_source, lp)
    assert art.kind is ArtifactKind.THM1
    assert art.target.kind is ProblemKind.MATCHING
    assert _is_closed(art.target.rhs, art.target.qctx)
    assert art.f_order == OrderValue.finite(3)
    assert art.target.max_existential_order == OrderValue.finite(3)
    assert art.required_pairs == frozenset({PT})
    assert not art.invalid_per_erratum


def test_thm1_requires_dependent_types(stlc, term_source) -> None:
    with pytest.raises(CapabilityError) as exc:
        build_thm1(term_source, stlc)
    assert exc.value.missing == frozenset({PT})


def test_thm1_rejects_non_elementary_sources(lp) -> None:
    q = QContext(
        (
            QDecl(Quant.FORALL, PROP, "U"),
            QDecl(Quant.FORALL, Var(0), "a"),
            QDecl(Quant.FORALL, arrow(Var(1), PROP), "P"),
            QDecl(Quant.EXISTS, arrow(Var(2), Var(2)), "F"),
        )
    )
    bad = make_problem(q, App(Var(0), Var(2)), Var(2), lp)
    with pytest.raises(ElementarityError):
        build_thm1(bad, lp)


def test_thm1_witness_and_second_witness(lp, term_source) -> None:
    art = build_thm1(term_source, lp)
    for body_index in (0, 1):  # [x:U]x and [x:U]a
        tau = Substitution(
            term_source.qctx,
            (SubstTriple(2, QContext(), Lam(Var(1), Var(body_index), "x")),),
        )
        sigma = thm1_witness(tau, art)
        assert is_solution(sigma, art.target, lp)
        lhs = apply_subst(sigma, art.target.lhs)
        assert beta_eta_normalize(lhs) == apply_subst(sigma, art.target.rhs)


def test_thm1_witness_rejects_non_solutions(lp, term_source) -> None:
    art = build_thm1(term_source, lp)
    with pytest.raises(WitnessError):
        thm1_witness(Substitution(term_source.qctx), art)
    with pytest.raises(ValueError, match="build_erratum"):
        _erratum_witness(_identity_binding(term_source), art)


def test_thm1_extract_round_trip(lp, term_source) -> None:
    art = build_thm1(term_source, lp)
    tau = _identity_binding(term_source)
    sigma = thm1_witness(tau, art)
    back = thm1_extract(sigma, art)
    assert is_solution(back, term_source, lp)
    # agrees with tau on the source unknowns up to conversion
    assert equivalent(
        apply_subst(back, term_source.lhs), apply_subst(tau, term_source.lhs)
    )


def test_thm1_extract_covers_searched_solutions(lp, term_source) -> None:
    art = build_thm1(term_source, lp)
    sols = solve_bounded(art.target, SearchBudget(8, 16), lp)
    assert sols, "the bounded oracle must find the two canonical solutions"
    for sigma in sols:
        tau = thm1_extract(sigma, art)
        assert is_solution(tau, term_source, lp)


def test_thm1_extract_rejects_non_solutions(lp, term_source) -> None:
    art = build_thm1(term_source, lp)
    with pytest.raises(WitnessError):
        thm1_extract(Substitution(art.target.qctx), art)


# ------------- the polymorphic constructions -------------


def test_erratum_structure(lw, type_source) -> None:
    art = build_erratum(type_source, lw)
    names = scope_names(art.target.qctx)
    decls = art.target.qctx.decls
    assert parse_term("Prop -> Prop", names[:2]) == decls[2].ty  # P
    assert parse_term("Prop", names[:3]) == decls[3].ty  # Z
    assert parse_term("P Z", names[:4]) == decls[4].ty
    assert parse_term("P Z", names[:5]) == decls[5].ty
    assert parse_term("P Z -> P Z -> P Z", names[:6]) == decls[6].ty
    assert (
        parse_term("(h:Prop -> Prop)(P (h X)) -> (P (h A))", names[:7]) == decls[7].ty
    )
    assert art.f_order == OrderValue.finite(4)


def test_invalid_variant_structure(lw, type_source) -> None:
    art = build_thm2_invalid(type_source, lw)
    names = scope_names(art.target.qctx)
    decls = art.target.qctx.decls
    assert parse_term("Prop", names[:2]) == decls[2].ty  # Z
    assert parse_term("Z", names[:3]) == decls[3].ty
    assert parse_term("Z", names[:4]) == decls[4].ty
    assert parse_term("Z -> Z -> Z", names[:5]) == decls[5].ty
    assert parse_term("(h:Prop -> Prop)(h X) -> (h A)", names[:6]) == decls[6].ty
    assert art.f_order == INFINITE
    assert art.invalid_per_erratum


@pytest.mark.parametrize("build", [build_erratum, build_thm2_invalid])
def test_polymorphic_gating(build, type_source, term_source, lw) -> None:
    with pytest.raises(ElementarityError, match="type-elementary"):
        build(make_problem_like(term_source, lw), lw)  # a : U is no arrow over Prop
    grid = {"lw": True, "coc": True, "lw-weak": False, "lPw-weak": False, "l2": False, "lP2": False}
    for name, ok in grid.items():
        spec = cube_spec(name)
        if ok:
            art = build(make_problem_like(type_source, spec), spec)
            assert art.required_pairs == frozenset({TP, TT})
        else:
            with pytest.raises(CapabilityError) as exc:
                build(type_source, spec)
            assert exc.value.missing <= frozenset({TP, TT})
            assert exc.value.missing


def make_problem_like(p, spec):
    return make_problem(p.qctx, p.lhs, p.rhs, spec)


def test_erratum_witness_verifies(lw, type_source) -> None:
    tau = Substitution(
        type_source.qctx, (SubstTriple(1, QContext(), Var(0)),)
    )  # X := A
    art = build_erratum(type_source, lw)
    sigma = _erratum_witness(tau, art)
    assert is_solution(sigma, art.target, lw)


def test_erratum_witness_on_trivially_equal_sides(lw) -> None:
    q = QContext((QDecl(Quant.FORALL, PROP, "A"), QDecl(Quant.EXISTS, PROP, "X")))
    p = make_problem(q, Var(1), Var(1), lw)
    art = build_erratum(p, lw)
    sigma = _erratum_witness(Substitution(q), art)  # empty tau already solves
    assert is_solution(sigma, art.target, lw)


def test_erratum_witness_rejects_non_solutions(lw, type_source) -> None:
    art = build_erratum(type_source, lw)
    with pytest.raises(WitnessError):
        _erratum_witness(Substitution(type_source.qctx), art)
    tau = Substitution(type_source.qctx, (SubstTriple(1, QContext(), Var(0)),))
    with pytest.raises(ValueError, match="build_thm1"):
        thm1_witness(tau, art)
    with pytest.raises(ValueError, match="build_thm1"):
        thm1_extract(_erratum_witness(tau, art), art)


def test_erratum_round_trip_by_restriction(lw, type_source) -> None:
    # the restriction of a transported solution to the source unknowns
    # solves the source, mirroring the first encoding's extraction
    tau = Substitution(type_source.qctx, (SubstTriple(1, QContext(), Var(0)),))
    art = build_erratum(type_source, lw)
    sigma = _erratum_witness(tau, art)
    g = len(type_source.qctx)
    back = Substitution(
        type_source.qctx, tuple(tr for tr in sigma.triples if tr.pos < g)
    )
    assert is_solution(back, type_source, lw)
    # and the searched target solutions restrict the same way
    for s in solve_bounded(art.target, SearchBudget(6, 8), lw):
        restricted = Substitution(
            type_source.qctx, tuple(tr for tr in s.triples if tr.pos < g)
        )
        assert is_solution(restricted, type_source, lw)


def test_invalid_variant_builds_in_coc(type_source) -> None:
    coc = cube_spec("coc")
    src = make_problem(type_source.qctx, type_source.lhs, type_source.rhs, coc)
    art = build_thm2_invalid(src, coc)
    assert art.target.kind is ProblemKind.MATCHING


# ------------- shape builders -------------


def test_numeral_shapes(stlc) -> None:
    sh = GoldfarbShapes.standard()
    plain = sh.qctx.plain()
    uu = arrow(Var(2), Var(2))
    assert goldfarb_numeral(0, sh) == Lam(Var(2), Var(0), "w1")
    two = goldfarb_numeral(2, sh)
    # [w1:U](g a (g a w1))
    g, a = Var(1), Var(2)
    assert two == Lam(Var(2), app(g, a, app(g, a, Var(0))), "w1")
    for n in (0, 1, 2, 5):
        assert check_type(plain, goldfarb_numeral(n, sh), uu, stlc)


def test_numeral_unfolds_when_applied(stlc) -> None:
    sh = GoldfarbShapes.standard()
    for n in range(6):
        applied = beta_eta_normalize(App(goldfarb_numeral(n, sh), Var(1)))
        expected: object = Var(1)
        for _ in range(n):
            expected = app(Var(0), Var(1), expected)
        assert applied == expected


def test_tpl_zero_case_and_type(stlc) -> None:
    sh = GoldfarbShapes.standard()
    plain = sh.qctx.plain()
    t = goldfarb_tpl(1, 0, sh)
    # both embedded numerals are [w:U]w
    zero = goldfarb_numeral(0, sh)
    from cubematch.terms import shift

    # g sits at the innermost base slot, so under two binders it is Var(2)
    assert t == Lam(
        Var(2),
        Lam(
            Var(3),
            app(Var(2), App(shift(zero, 2, 0), Var(1)), App(shift(zero, 2, 0), Var(0))),
            "w2",
        ),
        "w1",
    )
    uuu = arrow(Var(2), arrow(Var(2), Var(2)))
    assert check_type(plain, t, uuu, stlc)
    assert check_type(plain, goldfarb_tpl(2, 3, sh), uuu, stlc)


def test_tpl_multiplies_the_first_index(stlc) -> None:
    sh = GoldfarbShapes.standard()
    t = goldfarb_tpl(2, 3, sh)
    from cubematch.terms import shift

    six = shift(goldfarb_numeral(6, sh), 2, 0)
    # the left branch applies the 6-numeral to w1
    left = t.body.body.fn.arg
    assert left == App(six, Var(1))


def test_solution_shapes_typecheck_and_fold(stlc) -> None:
    sh = GoldfarbShapes.standard()
    plain = sh.qctx.plain()
    uu = arrow(Var(2), Var(2))
    u4 = arrow(Var(2), arrow(Var(2), arrow(Var(2), Var(2))))
    for n_i, n_j in [(0, 1), (1, 1), (2, 2), (3, 1)]:
        f_shape, g_shape = goldfarb_solution_shapes(n_i, n_j, sh)
        assert check_type(plain, f_shape, uu, stlc)
        assert check_type(plain, g_shape, u4, stlc)
    # n_j = 1 folds to [w1][w2][w3](g (t0 w1 w2) w3)
    _, g1 = goldfarb_solution_shapes(1, 1, sh)
    from cubematch.terms import shift

    t0 = shift(goldfarb_tpl(1, 0, sh), 3, 0)
    body = app(Var(3), app(t0, Var(2), Var(1)), Var(0))
    assert g1 == Lam(Var(2), Lam(Var(3), Lam(Var(4), body, "w3"), "w2"), "w1")


def test_zero_shape_is_eta_equivalent_to_identity(stlc) -> None:
    sh = GoldfarbShapes.standard()
    f0, _ = goldfarb_solution_shapes(0, 1, sh)
    assert equivalent(f0, goldfarb_numeral(0, sh))


def test_shapes_validate_their_signature() -> None:
    bad = QContext(
        (QDecl(Quant.FORALL, PROP, "U"), QDecl(Quant.EXISTS, Var(0), "a"))
    )
    with pytest.raises(ValueError):
        GoldfarbShapes(bad, 0, 1, 1)
