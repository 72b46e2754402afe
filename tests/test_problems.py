"""Quantified contexts, substitutions, order, problems and solutions."""

from __future__ import annotations

from functools import reduce
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import match_walks as old
from cubematch import problems, search, typecheck
from cubematch.errors import (
    CubeError,
    FuelExhausted,
    NotAType,
    OrderUndefined,
    ProblemError,
    SubstitutionError,
)
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
    comparison_env,
    is_solution,
    is_term_elementary,
    is_type_elementary,
    make_problem,
    order,
    subst_well_typed,
    _is_closed,
)
from cubematch.encodings import GoldfarbShapes, goldfarb_numeral
from cubematch.reduction import Fuel, beta_eta_normalize, normalize_under
from cubematch.search import SearchBudget, enumerate_candidates, solve_bounded
from cubematch.syntax import parse_problem, parse_substitution, parse_term
from cubematch.terms import PROP, TYPE, App, Lam, Pi, Sort, Term, Var, app, arrow, shift
from cubematch.typecheck import cube_spec, infer_type, wf_context
from termgen import random_elementary_problem


def _q(*decls: tuple[Quant, object, str]) -> QContext:
    return QContext(tuple(QDecl(q, ty, n) for q, ty, n in decls))


def goal_ctx() -> QContext:
    return _q(
        (Quant.FORALL, PROP, "U"),
        (Quant.FORALL, Var(0), "a"),
        (Quant.EXISTS, arrow(Var(1), Var(1)), "F"),
    )


# ------------- closedness -------------


def test_closed_universal_spine(lp, term_source) -> None:
    from cubematch.encodings import build_thm1

    art = build_thm1(term_source, lp)
    assert _is_closed(art.target.rhs, art.target.qctx)  # (G c d)
    assert not _is_closed(art.target.lhs, art.target.qctx)  # mentions f, F


def test_existential_head_is_open() -> None:
    q = goal_ctx()
    assert not _is_closed(App(Var(0), Var(1)), q)  # (F a)
    assert _is_closed(Var(1), q)  # a


def test_closedness_recurses_into_declared_types() -> None:
    # a is universal but its type is the existential U, so a is not closed
    q = _q((Quant.EXISTS, PROP, "U"), (Quant.FORALL, Var(0), "a"))
    assert not _is_closed(Var(0), q)


# ------------- substitution application -------------


def test_apply_does_not_reduce() -> None:
    q = goal_ctx()
    s = Substitution(q, (SubstTriple(2, QContext(), Lam(Var(1), Var(0), "x")),))
    # (F a) becomes (([x:U]x) a) with a's index renumbered for the image
    assert apply_subst(s, App(Var(0), Var(1))) == App(Lam(Var(1), Var(0)), Var(0))


def test_apply_empty_is_identity() -> None:
    q = goal_ctx()
    t = App(Var(0), Var(1))
    assert apply_subst(Substitution(q), t) == t


def test_triples_target_unknowns_only() -> None:
    q = goal_ctx()
    with pytest.raises(ValueError):
        Substitution(q, (SubstTriple(1, QContext(), Var(0)),))  # a is universal
    with pytest.raises(ValueError):
        Substitution(
            q,
            (
                SubstTriple(2, QContext(), Var(0)),
                SubstTriple(2, QContext(), Var(1)),
            ),
        )


def test_local_context_splices_into_the_image(lp) -> None:
    # F := G0 where exists G0 : U -> U ; the fresh unknown takes F's slot
    q = goal_ctx()
    local = QContext((QDecl(Quant.EXISTS, arrow(Var(1), Var(1)), "G0"),))
    s = Substitution(q, (SubstTriple(2, local, Var(0)),))
    image = subst_well_typed(s, q, lp)
    assert [d.name for d in image.decls] == ["U", "a", "G0"]
    assert [d.quant for d in image.decls] == [Quant.FORALL, Quant.FORALL, Quant.EXISTS]
    # (F a) maps to (G0 a) over the new context
    assert apply_subst(s, App(Var(0), Var(1))) == App(Var(0), Var(1))


def test_subst_well_typed_fallback_keeps_unknowns(lp) -> None:
    q = goal_ctx()
    image = subst_well_typed(Substitution(q), q, lp)
    assert image == q


def test_subst_well_typed_rejects_wrong_type(lp) -> None:
    q = goal_ctx()
    s = Substitution(q, (SubstTriple(2, QContext(), Var(0)),))  # a : U, not U->U
    with pytest.raises(SubstitutionError) as exc:
        subst_well_typed(s, q, lp)
    assert exc.value.position == 2
    assert exc.value.check == "instantiation"


def _stlc_goal_with_predicate() -> QContext:
    # goal_ctx plus forall P : U -> Prop, which needs Prop-Type
    return goal_ctx().extended(Quant.FORALL, arrow(Var(2), PROP), "P")


@pytest.mark.parametrize(
    "spec_name, qctx, triple, position, check, prefix",
    [
        (  # P's instantiated type U -> Prop has no sort pair in stlc
            "stlc",
            _stlc_goal_with_predicate(),
            SubstTriple(2, QContext(), Lam(Var(1), Var(0), "x")),
            3,
            "sort",
            "declaration 3: instantiated type is ill-sorted: ",
        ),
        (  # the local entry G0 : a declares a term, not a type
            "lP",
            goal_ctx(),
            SubstTriple(2, QContext((QDecl(Quant.EXISTS, Var(0), "G0"),)), Var(0)),
            2,
            "sort",
            "declaration 2: local context entry is ill-sorted: ",
        ),
        (  # (a a) applies a non-function
            "lP",
            goal_ctx(),
            SubstTriple(2, QContext(), App(Var(0), Var(0))),
            2,
            "instantiation",
            "declaration 2: replacement is ill-typed: ",
        ),
        (  # [x:U]x is well typed, but U -> U -> U is not U -> U
            "lP",
            goal_ctx(),
            SubstTriple(2, QContext(), Lam(Var(1), Lam(Var(2), Var(0)))),
            2,
            "instantiation",
            "declaration 2: replacement [",
        ),
    ],
    ids=["instantiated-type", "local-entry", "ill-typed-replacement", "wrong-type"],
)
def test_subst_well_typed_error_branches(
    spec_name, qctx, triple, position, check, prefix
) -> None:
    with pytest.raises(SubstitutionError) as exc:
        subst_well_typed(Substitution(qctx, (triple,)), qctx, cube_spec(spec_name))
    assert exc.value.position == position
    assert exc.value.check == check
    assert exc.value.message.startswith(prefix), exc.value.message


def test_subst_well_typed_accepts_the_identity_binding(lp, term_source) -> None:
    s = Substitution(
        term_source.qctx,
        (SubstTriple(2, QContext(), Lam(Var(1), Var(0), "x")),),
    )
    image = subst_well_typed(s, term_source.qctx, lp)
    assert len(image) == 2  # the bound unknown vanished


def test_a_kept_slot_is_sorted_in_normal_form(lw) -> None:
    # X := ([Y:Prop]Y) A leaves f : (h:Prop -> Prop) P (h X) -> P (h A)
    # with a redex in a domain; the image holds f's normal form, and reading
    # it takes the one step of normalizing the copy.  Sorting the copy, as
    # the check did before, normalized that domain again: 2 steps.
    f_ty = "(h:Prop -> Prop)(P (h X)) -> (P (h A))"
    qctx = _q(
        (Quant.FORALL, PROP, "A"),
        (Quant.EXISTS, PROP, "X"),
        (Quant.FORALL, arrow(PROP, PROP), "P"),
        (Quant.EXISTS, parse_term(f_ty, ["A", "X", "P"]), "f"),
    )
    x = parse_term("([Y:Prop]Y) A", ["A"])
    s = Substitution(qctx, (SubstTriple(1, QContext(), x),))
    fuel = Fuel(10)
    with fuel:
        image = subst_well_typed(s, qctx, lw)
    assert fuel.left == 9
    nf = parse_term("(h:Prop -> Prop)(P (h A)) -> (P (h A))", ["A", "P"])
    assert [d.name for d in image] == ["A", "P", "f"]
    assert image.decls[2].ty == nf


@pytest.mark.parametrize(
    "ty, want",
    [
        # ([x:Prop]U) Prop is ill-sorted in lP, but its normal form U is a
        # type
        (App(Lam(PROP, Var(1)), PROP), Var(0)),
        # ([x:Prop]x x) ([x:Prop]x x) is ill-sorted and has no normal form
        (App(Lam(PROP, App(Var(0), Var(0))), Lam(PROP, App(Var(0), Var(0)))), FuelExhausted),
    ],
    ids=["erased-argument", "omega"],
)
def test_a_kept_slot_of_an_ill_formed_context_is_normalized_before_it_is_sorted(
    lp, ty, want
) -> None:
    # outside the spec: the context is ill-formed (make_problem rejects it).
    # Both types raised SubstitutionError when the check sorted their copies.
    qctx = _q((Quant.FORALL, PROP, "U"), (Quant.FORALL, ty, "c"))
    with Fuel(50):
        if isinstance(want, type):
            with pytest.raises(want):
                subst_well_typed(Substitution(qctx), qctx, lp)
        else:
            assert subst_well_typed(Substitution(qctx), qctx, lp).decls[1].ty == want


# ------------- order -------------


def test_order_base_cases(term_source) -> None:
    q = term_source.qctx
    assert order(Var(0), q.prefix(2)) == OrderValue.finite(1)  # universal atom
    assert order(PROP, q) == OrderValue.finite(2)
    # existential-headed atom: the unknown F applied (a type would be odd, but
    # the clause is head-driven); fabricate [exists T:Prop] and use T
    qт = _q((Quant.EXISTS, PROP, "T"))
    assert order(Var(0), qт) == INFINITE


def test_order_first_order_signature_is_two(term_source) -> None:
    q = term_source.qctx
    u = Var(0)
    assert order(arrow(u, u), q.prefix(1)) == OrderValue.finite(2)
    assert order(arrow(u, arrow(u, u)), q.prefix(1)) == OrderValue.finite(2)


def test_order_product_binds_existentially() -> None:
    # (h:Prop->Prop)(h u1) -> (h u2): the codomain head is the bound h itself
    q = _q((Quant.FORALL, PROP, "A"))
    hh = arrow(PROP, PROP)
    ty = Pi(hh, arrow(App(Var(0), Var(1)), App(Var(0), Var(1))), "h")
    assert order(ty, q) == INFINITE


def test_order_constructed_types_match_the_claims(lp, lw, term_source, type_source) -> None:
    from cubematch.encodings import build_erratum, build_thm1, build_thm2_invalid

    art = build_thm1(term_source, lp)
    assert art.f_order == OrderValue.finite(3)
    art4 = build_erratum(type_source, lw)
    assert art4.f_order == OrderValue.finite(4)
    arti = build_thm2_invalid(type_source, lw)
    assert arti.f_order == INFINITE


def test_order_rejects_abstractions_and_type_heads() -> None:
    q = _q((Quant.FORALL, PROP, "A"))
    with pytest.raises(NotAType):
        order(Lam(PROP, Var(0)), q)
    with pytest.raises(OrderUndefined):
        order(TYPE, q)


def test_order_stable_under_weakening(term_source) -> None:
    # appending unrelated declarations must not change the order, provided
    # the term's indices are hoisted over them
    q = term_source.qctx.prefix(1)
    ty = arrow(Var(0), Var(0))
    o = order(ty, q)
    widened = QContext(q.decls + (QDecl(Quant.EXISTS, PROP, "W"),))
    assert order(shift(ty, 1, 0), widened) == o


# ------------- problems -------------


def test_make_problem_classifies_matching(lp) -> None:
    q = goal_ctx()
    p = make_problem(q, App(Var(0), Var(1)), Var(1), lp)
    assert p.kind is ProblemKind.MATCHING
    assert p.common_type == Var(2)
    assert p.max_existential_order == OrderValue.finite(2)


def test_make_problem_classifies_unification(lp) -> None:
    q = _q(
        (Quant.FORALL, PROP, "U"),
        (Quant.EXISTS, arrow(Var(0), Var(0)), "F"),
        (Quant.EXISTS, Var(1), "x"),
    )
    p = make_problem(q, App(Var(1), Var(0)), Var(0), lp)
    assert p.kind is ProblemKind.UNIFICATION


def test_make_problem_rejects_type_mismatch(lp) -> None:
    q = goal_ctx()
    with pytest.raises(ProblemError):
        make_problem(q, Var(1), PROP, lp)


def test_make_problem_rejects_ill_typed_side(lp) -> None:
    q = goal_ctx()
    with pytest.raises(ProblemError):
        make_problem(q, App(Var(1), Var(1)), Var(1), lp)


def _beta_expanded(t: Term, n: int, rng: Random) -> Term:
    """t, over a context of length n, with beta redexes ([x:U]s) a
    planted over it; the context starts U : Prop, a : U."""
    if isinstance(t, App):
        t = App(_beta_expanded(t.fn, n, rng), _beta_expanded(t.arg, n, rng))
    elif isinstance(t, Pi):
        t = Pi(_beta_expanded(t.dom, n, rng), _beta_expanded(t.cod, n + 1, rng), t.hint)
    if n >= 2 and rng.random() < 0.5:
        return App(Lam(Var(n - 1), shift(t, 1, 0), "x"), Var(n - 2))
    return t


@settings(deadline=None)
@given(st.randoms(use_true_random=False))
def test_make_problem_agrees_with_its_public_pieces(rng) -> None:
    # make_problem types everything in the one scope wf_context filled;
    # the oracle recomputes each field from scratch on non-normal input
    lp = cube_spec("lP")
    p = random_elementary_problem(rng)
    qctx = QContext(
        tuple(
            QDecl(d.quant, _beta_expanded(d.ty, q, rng), d.name)
            for q, d in enumerate(p.qctx.decls)
        )
    )
    n = len(qctx)
    lhs = _beta_expanded(p.lhs, n, rng)
    rhs = _beta_expanded(p.rhs if rng.random() < 0.8 else Var(rng.randrange(n)), n, rng)
    wf_context(qctx.plain(), lp)
    ta = infer_type(qctx.plain(), lhs, lp)
    if infer_type(qctx.plain(), rhs, lp) != ta:
        with pytest.raises(ProblemError, match="different types"):
            make_problem(qctx, lhs, rhs, lp)
        return
    got = make_problem(qctx, lhs, rhs, lp)
    orders = [order(d.ty, qctx.prefix(q)) for q, d in enumerate(qctx) if d.quant is Quant.EXISTS]
    assert got.kind is (ProblemKind.MATCHING if _is_closed(rhs, qctx) else ProblemKind.UNIFICATION)
    assert got.common_type == ta
    assert got.max_existential_order == (reduce(OrderValue.max, orders) if orders else None)


# ------------- solutions -------------


def test_identity_and_constant_solve(lp, term_source) -> None:
    q = term_source.qctx
    ident = Substitution(q, (SubstTriple(2, QContext(), Lam(Var(1), Var(0), "x")),))
    const = Substitution(q, (SubstTriple(2, QContext(), Lam(Var(1), Var(1), "x")),))
    assert is_solution(ident, term_source, lp)
    assert is_solution(const, term_source, lp)
    assert not is_solution(Substitution(q), term_source, lp)


def test_solutions_survive_normalizing_the_sides(lp, term_source) -> None:
    q = term_source.qctx
    # same problem with a beta-expanded left side
    expanded = App(Lam(arrow(Var(2), Var(2)), App(Var(0), Var(2))), Var(0))
    p2 = make_problem(q, expanded, Var(1), lp)
    ident = Substitution(q, (SubstTriple(2, QContext(), Lam(Var(1), Var(0), "x")),))
    assert is_solution(ident, p2, lp) == is_solution(ident, term_source, lp)


@pytest.mark.parametrize("n", [0, 1, 24, 198])
def test_a_closed_normal_side_reads_back_as_itself(n) -> None:
    # [U:Prop, a:U, g:U->U->U, exists F:U->U] (F a) = g a (... (g a a)):
    # F is bound, so the image drops its slot, but the comparison reads the
    # right side in the problem's own numbering and hands it back unchanged
    stlc = cube_spec("stlc")
    shapes = GoldfarbShapes.standard()
    qctx = shapes.qctx.extended(Quant.EXISTS, arrow(Var(2), Var(2)), "F")
    rhs: Term = Var(2)
    for _ in range(n):
        rhs = app(Var(1), Var(2), rhs)
    p = make_problem(qctx, App(Var(0), Var(2)), rhs, stlc)
    s = Substitution(qctx, (SubstTriple(3, QContext(), goldfarb_numeral(n, shapes)),))
    env = comparison_env(s)
    assert normalize_under(p.rhs, env) is p.rhs
    assert normalize_under(p.lhs, env) == p.rhs
    assert is_solution(s, p, stlc)


# ------------- sides converted without being read back -------------

_UABH = "calculus lP\nforall U : Prop\nforall a : U\nforall b : U\nforall h : U -> U\n"
# problem text -> substitutions to verify, each with its verdict
SIDES = {
    "normal": (
        _UABH + "exists F : U -> U\nmatch F a = h b\n",
        [("F := [x:U]h b", True), ("F := [x:U]h x", False), ("F := [x:U]([y:U]y) (h b)", True)],
    ),
    "beta-redex": (
        _UABH + "exists F : U -> U\nmatch F a = ([y:U]y) b\n",
        [("F := [x:U]b", True), ("F := [x:U]x", False), ("F := [x:U]([y:U]y) b", True)],
    ),
    "eta-redex": (
        _UABH + "exists F : U -> U -> U\nmatch F a = [y:U]h y\n",
        [
            ("F := [x:U][y:U]h y", True),
            ("F := [x:U][y:U]y", False),
            ("F := [x:U]h", True),
            ("F := [x:U]([z:U -> U]z) h", True),
        ],
    ),
    "unification": (
        _UABH + "exists F : U -> U\nunify F a = F b\n",
        [("F := [x:U]b", True), ("F := [x:U]x", False), ("F := [x:U]([y:U]y) a", True)],
    ),
    # a universal slot before the unknown whose type holds a redex
    "redex-typed": (
        _UABH.replace("h : U -> U", "h : ([x:U]U -> U) a") + "exists F : U -> U\nmatch F a = h a\n",
        [("F := [x:U]h a", True), ("F := [x:U]h x", True), ("F := [x:U]a", False)],
    ),
}


def _outcome(call, steps: int) -> tuple:
    """call's result, or its error's class and message, with the fuel left
    of one `with Fuel(steps)` block around it."""
    fuel = Fuel(steps)
    try:
        with fuel:
            out = repr(call())
    except CubeError as e:
        out = (type(e), str(e))
    return out, fuel.left


@pytest.mark.parametrize("name", list(SIDES))
def test_is_solution_spends_as_the_copying_oracle(name) -> None:
    text, substs = SIDES[name]
    spec, p = parse_problem(text)
    assert (p.kind is ProblemKind.MATCHING) is (name != "unification")
    for line, verdict in substs:
        s = parse_substitution(line + "\n", p.qctx)
        assert is_solution(s, p, spec) is verdict
        for steps in (*range(1, 13), 10**6):
            got = _outcome(lambda: is_solution(s, p, spec), steps)
            assert got == _outcome(lambda: old.is_solution(s, p, spec), steps), (line, steps)


# (name, size, max_solutions) -> the steps the oracle and solve_bounded
# spend of 10**6, where the two differ.  The oracle types each found
# solution in full, so it reads the redex in h's type once per found
# solution; solve_bounded reads it once per call (`well_typed_check`).
FEWER_STEPS = {
    ("redex-typed", 5, 1): (9, 8),
    ("redex-typed", 5, 16): (9, 8),
    ("redex-typed", 6, 1): (9, 8),
    ("redex-typed", 6, 16): (12, 11),
}


@pytest.mark.parametrize("name", list(SIDES))
def test_solve_bounded_spends_as_the_copying_oracle(name) -> None:
    spec, p = parse_problem(SIDES[name][0])
    for size in (3, 5, 6):
        for max_solutions in (1, 16):
            budget = SearchBudget(size, max_solutions)
            fewer = FEWER_STEPS.get((name, size, max_solutions))
            for steps in (1, 3, 10, 10**6):
                # where the search gets that far, the oracle is given the
                # steps it spends more, and ends as the search does, also
                # where the search ends on its last step
                more = 0 if fewer is None or steps < fewer[1] else fewer[0] - fewer[1]
                got = _outcome(lambda: solve_bounded(p, budget, spec), steps)
                want = _outcome(lambda: old.solve_bounded(p, budget, spec), steps + more)
                assert got == want, (size, max_solutions, steps)
                if more:
                    assert steps - got[1] == fewer[1]


@pytest.mark.parametrize("name", list(SIDES))
def test_no_side_is_read_back(monkeypatch, name) -> None:
    # `converts` decides whether the sides convert without reading either
    # back: neither is_solution nor solve_bounded hands a side to
    # normalize_under, which still reads the declared types
    spec, p = parse_problem(SIDES[name][0])
    read: list[Term] = []

    def spy(t, env, depth=0):
        read.append(t)
        return normalize_under(t, env, depth)

    monkeypatch.setattr(problems, "normalize_under", spy)
    monkeypatch.setattr(search, "normalize_under", spy)
    for line, verdict in SIDES[name][1]:
        assert is_solution(parse_substitution(line + "\n", p.qctx), p, spec) is verdict
    assert solve_bounded(p, SearchBudget(6, 16), spec)
    assert read
    assert not [t for t in read if t is p.lhs or t is p.rhs]


def _eta_expanded(t: Term, n: int, rng: Random) -> Term:
    """t, over a context of length n whose slot 0 is the base type U, with
    some function heads h of an application h s replaced by the eta redex
    [x:U](h x); in an elementary problem every domain is U."""
    if isinstance(t, App):
        fn, arg = _eta_expanded(t.fn, n, rng), _eta_expanded(t.arg, n, rng)
        if rng.random() < 0.5:
            fn = Lam(Var(n - 1), App(shift(fn, 1, 0), Var(0)), "x")
        return App(fn, arg)
    return t


@settings(deadline=None, max_examples=60)
@given(st.randoms(use_true_random=False), st.sampled_from([1, 2, 3, 5, 8, 10**6]))
def test_the_shortcut_spends_as_the_copying_oracle_on_random_problems(rng, steps) -> None:
    # random elementary problems, about half of them matching, with the
    # right side often beta- or eta-expanded; assignments of small
    # candidates, solutions or not
    lp = cube_spec("lP")
    p = random_elementary_problem(rng)
    n = len(p.qctx)
    rhs = p.rhs
    if rng.random() < 0.3:
        rhs = _beta_expanded(rhs, n, rng)
    elif rng.random() < 0.5:
        rhs = _eta_expanded(rhs, n, rng)
    p = make_problem(p.qctx, p.lhs, rhs, lp)
    triples = []
    for q in p.qctx.existential_positions():
        cands = enumerate_candidates(p.qctx.prefix(q), p.qctx.decls[q].ty, SearchBudget(3, 1), lp)
        triples.append(SubstTriple(q, QContext(), rng.choice(cands)))
    s = Substitution(p.qctx, tuple(triples))
    got = _outcome(lambda: is_solution(s, p, lp), steps)
    assert got == _outcome(lambda: old.is_solution(s, p, lp), steps)
    budget = SearchBudget(4, rng.choice([1, 3]))
    got = _outcome(lambda: solve_bounded(p, budget, lp), steps)
    assert got == _outcome(lambda: old.solve_bounded(p, budget, lp), steps)


# ------------- a kept slot's type normalized once -------------


def test_a_kept_slots_type_is_normalized_once(monkeypatch) -> None:
    # the kept types are read normal under the environment, then only
    # sort-checked: no normalization receives one again, while the product
    # domains met in sorting them still are normalized
    spec, p = parse_problem(
        "calculus lP\nforall U : Prop\nforall P : U -> Prop\nforall a : U\n"
        "forall h : U -> U\nexists X : U\nforall c : P X\n"
        "forall k : (y:U) P y -> P (h X)\nexists F : P X -> U\nunify F c = h X\n"
    )
    s = parse_substitution("X := h a\nF := [x:P (h a)]a\n", p.qctx)
    seen: list[Term] = []

    def spy(t):
        seen.append(t)
        return beta_eta_normalize(t)

    monkeypatch.setattr(typecheck, "beta_eta_normalize", spy)
    image = subst_well_typed(s, p.qctx, spec)
    kept = [d.ty for d in image if not isinstance(d.ty, (Var, Sort))]
    assert len(kept) == 4  # P, h, c and k
    assert seen and not [t for t in seen if any(t is ty for ty in kept)]


# ------------- a problem's own facts checked once per solve call -------------


def test_a_problems_own_facts_are_checked_once_per_solve_call(monkeypatch) -> None:
    # U, a, b and h come before the unknown: whatever F is bound to, their
    # types read the same, so one solve_bounded call sorts each of them once
    # and escape-checks each declared type once, however many solutions it
    # verifies
    spec, p = parse_problem(
        _UABH.replace("h : U -> U", "h : ([x:U]U -> U) a") + "exists F : U -> U\nunify F a = F b\n"
    )
    first = p.qctx.existential_positions()[0]
    prefix = [beta_eta_normalize(d.ty) for d in p.qctx.decls[:first]]
    sorted_at: list[int] = []
    checked: list[Term] = []
    real_sort, real_free = typecheck.Scope.sort, problems.free_indices

    def sort_spy(scope, T):
        depth = len(scope.tys)
        if depth < first and T == prefix[depth]:
            sorted_at.append(depth)
        return real_sort(scope, T)

    def free_spy(t):
        checked.append(t)
        return real_free(t)

    monkeypatch.setattr(typecheck.Scope, "sort", sort_spy)
    monkeypatch.setattr(problems, "free_indices", free_spy)
    found = solve_bounded(p, SearchBudget(5, 16), spec)
    assert len(found) >= 3
    assert sorted(sorted_at) == list(range(first))
    assert [sum(t is d.ty for t in checked) for d in p.qctx.decls] == [1] * len(p.qctx)


def test_a_context_ill_sorted_under_the_calculus_has_no_solutions(lp, stlc) -> None:
    # P : U -> Prop needs lP's rule (Prop, Type); under stlc the search
    # still reaches the leaf X := a, whose check rejects the context
    spec, p = parse_problem(
        "calculus lP\nforall U : Prop\nforall P : U -> Prop\nforall a : U\n"
        "exists X : U\nmatch X = a\n"
    )
    assert [repr(s) for s in solve_bounded(p, SearchBudget(3, 4), lp)] == [
        repr(parse_substitution("X := a\n", p.qctx))
    ]
    assert solve_bounded(p, SearchBudget(3, 4), stlc) == []
    assert not is_solution(parse_substitution("X := a\n", p.qctx), p, stlc)
    # F : Prop -> Prop needs lw's rule (Type, Type); under stlc its
    # candidates are still generated, none is typed, and the check of
    # every leaf that converts rejects it
    spec, p = parse_problem(
        "calculus lw\nforall A : Prop\nexists F : Prop -> Prop\nmatch F A = A\n"
    )
    found = ["F := [x:Prop]x\n", "F := [x:Prop]A\n"]
    assert solve_bounded(p, SearchBudget(3, 4), spec) == [
        parse_substitution(text, p.qctx) for text in found
    ]
    assert solve_bounded(p, SearchBudget(3, 4), stlc) == []
    assert not is_solution(parse_substitution(found[0], p.qctx), p, stlc)


def test_an_index_escaping_after_the_unknown_raises_from_the_search(lp) -> None:
    # built directly, past make_problem: c : #3 over a three-slot prefix;
    # the leaf X := a converts, and its check reaches c
    qctx = _q(
        (Quant.FORALL, PROP, "U"),
        (Quant.FORALL, Var(0), "a"),
        (Quant.EXISTS, Var(1), "X"),
        (Quant.FORALL, Var(3), "c"),
    )
    p = problems.Problem(qctx, Var(1), Var(2), ProblemKind.MATCHING, Var(3), INFINITE)
    with pytest.raises(ValueError) as e:
        solve_bounded(p, SearchBudget(3, 4), lp)
    assert str(e.value) == "index 3 escapes the quantified context (3 slots)"


# ------------- elementarity -------------


def test_term_elementary_accepts_the_signature(term_source) -> None:
    assert is_term_elementary(term_source)


def test_term_elementary_rejects_predicates(lp, lw) -> None:
    q = _q(
        (Quant.FORALL, PROP, "U"),
        (Quant.FORALL, Var(0), "a"),
        (Quant.FORALL, arrow(Var(1), PROP), "P"),
        (Quant.EXISTS, arrow(Var(2), Var(2)), "F"),
    )
    p = make_problem(q, App(Var(0), Var(2)), Var(2), lp)
    assert not is_term_elementary(p)
    assert not is_term_elementary(make_problem(QContext(), PROP, PROP, lp))  # no base type
    for quant, base in ((Quant.EXISTS, PROP), (Quant.FORALL, arrow(PROP, PROP))):
        q = _q((quant, base, "U"), (Quant.FORALL, PROP, "a"))
        assert not is_term_elementary(make_problem(q, Var(0), Var(0), lw))


def test_term_elementary_needs_base_typed_sides(lp) -> None:
    q = _q(
        (Quant.FORALL, PROP, "U"),
        (Quant.EXISTS, arrow(Var(0), Var(0)), "F"),
        (Quant.EXISTS, arrow(Var(1), Var(1)), "G"),
    )
    p = make_problem(q, Var(1), Var(0), lp)  # common type U -> U
    assert not is_term_elementary(p)


def test_type_elementary_flags(lw, lp, type_source) -> None:
    assert is_type_elementary(type_source, lw)
    assert not is_type_elementary(type_source, lp)  # no type constructors
    q = _q(
        (Quant.FORALL, arrow(PROP, PROP), "P"),
        (Quant.EXISTS, arrow(PROP, PROP), "X"),
    )
    p = make_problem(q, Var(0), Var(1), lw)  # common type Prop -> Prop
    assert not is_type_elementary(p, lw)
    q = _q((Quant.FORALL, PROP, "U"), (Quant.FORALL, Var(0), "a"))
    p = make_problem(q, Var(1), Var(1), lw)  # sides inhabit Prop, but a : U
    assert not is_type_elementary(p, lw)


def test_term_elementary_unknowns_are_second_order(lp) -> None:
    rng = Random(88)
    for _ in range(20):
        p = random_elementary_problem(rng)
        assert is_term_elementary(p)
        mo = p.max_existential_order
        assert mo is None or (not mo.is_infinite and mo.value <= 2)
