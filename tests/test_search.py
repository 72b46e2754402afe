"""Bounded enumeration and the brute-force solving oracle."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

import match_walks as old
from cubematch import search
from cubematch.errors import CubeError
from cubematch.problems import (
    Problem,
    ProblemKind,
    QContext,
    QDecl,
    Quant,
    SubstTriple,
    Substitution,
    apply_subst,
    comparison_env,
    is_solution,
    make_problem,
)
from cubematch.reduction import Fuel, beta_eta_normalize, normalize_under
from cubematch.search import SearchBudget, decision_size, enumerate_candidates, solve_bounded
from cubematch.terms import PROP, TYPE, App, Lam, Pi, Sort, Term, Var, arrow, describe, shift, subst
from cubematch.syntax import parse_problem, parse_term, print_substitution
from cubematch.typecheck import PRESETS, Scope, check_type, cube_spec, wf_context
from conftest import FIXTURES
from termgen import random_elementary_problem


def _ua_ctx() -> QContext:
    return QContext(
        (QDecl(Quant.FORALL, PROP, "U"), QDecl(Quant.FORALL, Var(0), "a"))
    )


def test_single_inhabitant_at_base_type(lp) -> None:
    # over [U:Prop, a:U] the type U is Var(1); its only inhabitant is a
    got = enumerate_candidates(_ua_ctx(), Var(1), SearchBudget(3, 8), lp)
    assert got == [Var(0)]  # just a


def test_function_candidates_contain_identity_and_constant(lp) -> None:
    got = enumerate_candidates(_ua_ctx(), arrow(Var(1), Var(1)), SearchBudget(4, 8), lp)
    assert Lam(Var(1), Var(0)) in got  # [x:U]x
    assert Lam(Var(1), Var(1)) in got  # [x:U]a
    assert len(got) == 2  # nothing else exists at any size over this signature


def test_uninhabited_type_gives_nothing(lp) -> None:
    # (P z) with no universal of that type around
    q = QContext(
        (
            QDecl(Quant.FORALL, PROP, "U"),
            QDecl(Quant.FORALL, Var(0), "z"),
            QDecl(Quant.FORALL, arrow(Var(1), PROP), "P"),
        )
    )
    got = enumerate_candidates(q, App(Var(0), Var(1)), SearchBudget(6, 8), lp)
    assert got == []


def test_candidates_are_verified_normal_and_ordered(lp) -> None:
    q = QContext(
        (
            QDecl(Quant.FORALL, PROP, "U"),
            QDecl(Quant.FORALL, Var(0), "a"),
            QDecl(Quant.FORALL, arrow(Var(1), arrow(Var(1), Var(1))), "g"),
        )
    )
    got = enumerate_candidates(q, Var(2), SearchBudget(7, 64), lp)
    assert got and all(check_type(q.plain(), c, Var(2), lp) for c in got)
    assert all(old.is_normal(c) for c in got)
    sizes = [decision_size(c) for c in got]
    assert sizes == sorted(sizes)
    assert len(set(got)) == len(got)


def test_sort_targets_enumerate_products_too(lw) -> None:
    q = QContext((QDecl(Quant.FORALL, PROP, "A"),))
    got = enumerate_candidates(q, PROP, SearchBudget(4, 64), lw)
    assert Var(0) in got  # A itself
    assert arrow(Var(0), Var(0)) in got  # A -> A, needs Type-Type


def test_a_returned_list_is_the_callers_own(lp) -> None:
    # generation shares its memoised lists inside one call; none leaks out
    T = arrow(arrow(Var(1), Var(1)), Var(1))
    budget = SearchBudget(6, 16)
    first = enumerate_candidates(_ua_ctx(), T, budget, lp)
    expected = list(first)
    first.reverse()
    first.append(PROP)
    assert enumerate_candidates(_ua_ctx(), T, budget, lp) == expected


def test_budget_growth_only_appends(lp) -> None:
    q = _ua_ctx()
    small = enumerate_candidates(q, arrow(Var(1), Var(1)), SearchBudget(2, 64), lp)
    large = enumerate_candidates(q, arrow(Var(1), Var(1)), SearchBudget(5, 64), lp)
    assert large[: len(small)] == small


def test_the_heads_of_a_target_are_looked_up_once_per_generation(monkeypatch, lp) -> None:
    # U -> U over [U, a, b, h : U -> U, g : U -> U -> U]: which slots head a
    # spine of type U does not depend on the size, so a larger budget
    # generates more candidates with no more lookups
    spec, p = parse_problem(
        "calculus lP\nforall U : Prop\nforall a : U\nforall b : U\nforall h : U -> U\n"
        "forall g : U -> U -> U\nexists F : U -> U\nmatch F a = a\n"
    )
    q = p.qctx.prefix(5)
    looked: list[int] = []
    real = Scope.lookup

    def spy(scope, k):
        looked.append(k)
        return real(scope, k)

    monkeypatch.setattr(Scope, "lookup", spy)
    counts = []
    for size in (6, 9):
        looked.clear()
        got = enumerate_candidates(q, arrow(Var(4), Var(4)), SearchBudget(size, 64), lp)
        counts.append((len(got), len(looked)))
    assert [n for n, _ in counts] == [18, 48]
    assert counts[0][1] == counts[1][1]


def test_generated_product_domains_are_normalized_before_use() -> None:
    # [U:Prop, h:U->U, P:(U->U)->Prop, Q:(P h)->Prop]: the eta-long domain
    # (P [x:U](h x)) must count as (P h) for Q to accept its binder
    q = QContext(
        (
            QDecl(Quant.FORALL, PROP, "U"),
            QDecl(Quant.FORALL, arrow(Var(0), Var(0)), "h"),
            QDecl(Quant.FORALL, arrow(arrow(Var(1), Var(1)), PROP), "P"),
            QDecl(Quant.FORALL, arrow(App(Var(0), Var(1)), PROP), "Q"),
        )
    )
    got = enumerate_candidates(q, PROP, SearchBudget(10, 8), cube_spec("coc"))
    assert len(got) == 1255
    eta_long_dom = App(Var(1), Lam(Var(3), App(Var(3), Var(0))))
    assert Pi(eta_long_dom, App(Var(1), Var(0))) in got  # (y : P [x:U](h x)) -> Q y


def _enumerate_normalizing_every_codomain(
    qctx: QContext, T, budget: SearchBudget, spec
) -> list:
    """enumerate_candidates as every term of size <= n, repeats dropped, with
    every codomain past an argument instantiated and normalized, dependent or
    not, and candidates checked by check_type."""
    env0 = [beta_eta_normalize(d.ty) for d in qctx.decls]
    usable0 = [d.quant is Quant.FORALL for d in qctx.decls]
    target = beta_eta_normalize(T)

    def gen(env, usable, tn, size):
        if size <= 0:
            return
        if isinstance(tn, Pi):
            for body in gen(env + [tn.dom], usable + [True], tn.cod, size - 1):
                yield Lam(tn.dom, body, tn.hint)
            return
        for pos in range(len(env)):
            if usable[pos]:
                head_ty = shift(env[pos], len(env) - pos, 0)
                yield from spines(Var(len(env) - 1 - pos), head_ty, tn, env, usable, size - 1)
        if isinstance(tn, Sort):
            if tn == TYPE:
                yield PROP
            for s1, s2 in spec.rules:
                if Sort(s2) != tn:
                    continue
                for dom_size in range(1, size - 1):
                    for dom in gen(env, usable, Sort(s1), dom_size):
                        nf_dom = beta_eta_normalize(dom)
                        for cod in gen(env + [nf_dom], usable + [True], tn, size - 1 - dom_size):
                            yield Pi(dom, cod)

    def spines(head, head_ty, tn, env, usable, size):
        if head_ty == tn:
            yield head
            return
        if not isinstance(head_ty, Pi):
            return
        for arg_size in range(1, size):
            for arg in gen(env, usable, head_ty.dom, arg_size):
                rest = beta_eta_normalize(subst(head_ty.cod, 0, arg))
                yield from spines(App(head, arg), rest, tn, env, usable, size - 1 - arg_size)

    ctx = qctx.plain()
    out = []
    for cand in gen(env0, usable0, target, budget.max_term_size):
        if cand not in out and check_type(ctx, cand, target, spec):
            out.append(cand)
    out.sort(key=lambda t: (decision_size(t), describe(t)))
    return out


def test_dependent_head_codomains_match_normalizing_every_codomain(lp) -> None:
    # [U:Prop, a:U, f:U->U, P:U->Prop, p:(x:U)->P x]: past its argument p's
    # codomain depends on the binder, f's does not
    q = QContext(
        (
            QDecl(Quant.FORALL, PROP, "U"),
            QDecl(Quant.FORALL, Var(0), "a"),
            QDecl(Quant.FORALL, arrow(Var(1), Var(1)), "f"),
            QDecl(Quant.FORALL, arrow(Var(2), PROP), "P"),
            QDecl(Quant.FORALL, Pi(Var(3), App(Var(1), Var(0)), "x"), "p"),
        )
    )
    u, a, f, P, p = Var(4), Var(3), Var(2), Var(1), Var(0)
    targets = [
        App(P, a),
        App(P, App(f, a)),
        Pi(u, App(Var(2), App(Var(3), Var(0))), "x"),  # (x:U) -> P (f x)
        arrow(u, u),
    ]
    budget = SearchBudget(7, 8)
    for T in targets:
        got = enumerate_candidates(q, T, budget, lp)
        assert got == _enumerate_normalizing_every_codomain(q, T, budget, lp)
    assert App(p, App(f, a)) in enumerate_candidates(q, App(P, App(f, a)), budget, lp)


# Optional declarations after U : Prop, in context order, in surface syntax.
# F is an unknown and never a head; p is a dependent head; k takes a product
# argument before another argument; m and n take arguments whose types
# differ only in their binder hints; i and t take a type argument, and r a
# type and a term its codomain depends on; T and R are type constructors.
# A declaration ill-formed in the drawn calculus is dropped, such as those
# over P in lw, and those over Prop in lP.
SIGNATURE_POOL = (
    (Quant.FORALL, "a", "U"),
    (Quant.EXISTS, "F", "U -> U"),
    (Quant.FORALL, "f", "U -> U"),
    (Quant.FORALL, "k", "(U -> U) -> U -> U"),
    (Quant.FORALL, "A", "Prop"),
    (Quant.FORALL, "P", "U -> Prop"),
    (Quant.FORALL, "p", "(x:U) P x"),
    (Quant.FORALL, "c", "P a"),
    (Quant.FORALL, "m", "((u:U) U) -> U"),
    (Quant.FORALL, "n", "((v:U) U) -> U"),
    (Quant.FORALL, "i", "(X:Prop) X -> X"),
    (Quant.FORALL, "T", "Prop -> Prop"),
    (Quant.FORALL, "t", "(X:Prop) T X"),
    (Quant.FORALL, "R", "(X:Prop) X -> Prop"),
    (Quant.FORALL, "r", "(X:Prop)(x:X) R X x"),
)
TARGETS = (
    "U",
    "U -> U",
    "(U -> U) -> U",
    "P a",
    "(x:U) P (f x)",
    "Prop",
    "Prop -> Prop",
    "T U",
    "(X:Prop) X -> X",
    "R U a",
    "(X:Prop) T X",
)


def _signature(picks: list[bool], spec) -> QContext:
    """U : Prop and the picked declarations that are well-formed in spec."""
    q = QContext((QDecl(Quant.FORALL, PROP, "U"),))
    for pick, (quant, name, text) in zip(picks, SIGNATURE_POOL):
        if not pick:
            continue
        try:
            wider = q.extended(quant, parse_term(text, [d.name for d in q]), name)
            wf_context(wider.plain(), spec)
        except CubeError:
            continue
        q = wider
    return q


def _a_type(q: QContext, text: str, spec) -> Term | None:
    """text parsed over q, if it is a type there in spec."""
    try:
        T = parse_term(text, [d.name for d in q])
        Scope(q.plain().decls, spec).sort(T)
    except CubeError:
        return None
    return T


@st.composite
def _signature_and_target(draw) -> tuple[list[bool], str, str]:
    """Picks and a calculus, and a target that is a type over the
    signature they make: U always is."""
    n = len(SIGNATURE_POOL)
    picks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    calculus = draw(st.sampled_from(tuple(PRESETS)))
    spec = cube_spec(calculus)
    q = _signature(picks, spec)
    target = draw(st.sampled_from([t for t in TARGETS if _a_type(q, t, spec) is not None]))
    return picks, calculus, target


@settings(deadline=None)
@given(case=_signature_and_target(), size=st.integers(1, 6))
@example(case=([True, False, False, True, False, False, False, False], "lP", "U"), size=6)
@example(case=([True] * len(SIGNATURE_POOL), "lP", "P a"), size=5)
@example(case=([True] * len(SIGNATURE_POOL), "coc", "Prop"), size=5)
@example(case=([True] * len(SIGNATURE_POOL), "lw", "Prop -> Prop"), size=5)
@example(case=([True] + [False] * 7 + [True, True], "lP", "U"), size=4)
def test_exact_size_enumeration_matches_normalizing_every_codomain(
    case: tuple[list[bool], str, str], size: int
) -> None:
    """Generation by exact size gives the reference's list, order and hints
    included, and every candidate is well typed: the typechecker is the
    oracle, since generation does not type its candidates.  The first
    example catches a term yielded while its binder is still pushed: k's
    argument [x:U]... then reaches a caller that builds k's next argument
    under x, and only a of the three candidates is left.
    The last catches a memo blind to hints: n's argument [v:U]... must not
    be handed m's [u:U]..., which `==` does not tell apart."""
    picks, calculus, target = case
    spec = cube_spec(calculus)
    q = _signature(picks, spec)
    T = _a_type(q, target, spec)
    assert T is not None
    budget = SearchBudget(size, 8)
    got = enumerate_candidates(q, T, budget, spec)
    assert all(check_type(q.plain(), c, T, spec) for c in got)
    assert repr(got) == repr(_enumerate_normalizing_every_codomain(q, T, budget, spec))


# ------------- solve_bounded -------------


def test_solves_the_canonical_goal(lp, term_source) -> None:
    sols = solve_bounded(term_source, SearchBudget(4, 16), lp)
    terms = {s.triples[0].term for s in sols}
    assert terms == {Lam(Var(1), Var(0)), Lam(Var(1), Var(1))}
    for s in sols:
        assert is_solution(s, term_source, lp)


def test_rigid_clash_has_no_solutions(lp) -> None:
    q = QContext(
        (
            QDecl(Quant.FORALL, PROP, "U"),
            QDecl(Quant.FORALL, Var(0), "a"),
            QDecl(Quant.FORALL, Var(1), "b"),
        )
    )
    p = make_problem(q, Var(1), Var(0), lp)
    assert solve_bounded(p, SearchBudget(6, 8), lp) == []


def test_max_solutions_truncates(lp, term_source) -> None:
    sols = solve_bounded(term_source, SearchBudget(4, 1), lp)
    assert len(sols) == 1


def test_solution_order_is_prefix_stable_under_budget_growth(lp, term_source) -> None:
    small = solve_bounded(term_source, SearchBudget(4, 16), lp)
    large = solve_bounded(term_source, SearchBudget(7, 16), lp)
    assert large[: len(small)] == small


def test_two_unknowns_solved_in_declaration_order(lp) -> None:
    # F x = (g a a) with F:U->U and x:U unknown
    q = QContext(
        (
            QDecl(Quant.FORALL, PROP, "U"),
            QDecl(Quant.FORALL, Var(0), "a"),
            QDecl(Quant.FORALL, arrow(Var(1), arrow(Var(1), Var(1))), "g"),
            QDecl(Quant.EXISTS, arrow(Var(2), Var(2)), "F"),
            QDecl(Quant.EXISTS, Var(3), "x"),
        )
    )
    from cubematch.terms import app

    rhs = app(Var(2), Var(3), Var(3))  # (g a a)
    p = make_problem(q, App(Var(1), Var(0)), rhs, lp)
    assert p.kind is ProblemKind.MATCHING
    sols = solve_bounded(p, SearchBudget(6, 64), lp)
    assert sols
    for s in sols:
        assert is_solution(s, p, lp)


def test_every_returned_solution_reverifies_on_random_problems() -> None:
    lp = cube_spec("lP")
    rng = Random(13)
    for _ in range(10):
        p = random_elementary_problem(rng)
        for s in solve_bounded(p, SearchBudget(5, 8), lp):
            assert is_solution(s, p, lp)


def test_a_found_leaf_is_still_typed(monkeypatch) -> None:
    # both candidates make F a read back as a, but [x:P a]x is ill-typed:
    # its domain is not U, F's domain; only its typing check rejects it
    spec, p = parse_problem(
        "calculus lP\nforall U : Prop\nforall P : U -> Prop\nforall a : U\n"
        "exists F : U -> U\nmatch F a = a\n"
    )
    ill, good = Lam(App(Var(1), Var(0)), Var(0), "x"), Lam(Var(2), Var(0), "x")
    monkeypatch.setattr(search, "_inhabitants", lambda *args: [ill, good])
    found = solve_bounded(p, SearchBudget(4, 8), spec)
    assert [print_substitution(s) for s in found] == ["F := [x:U]x\n"]


def _solve_by_full_verification(p: Problem, budget: SearchBudget, spec) -> list[Substitution]:
    """is_solution on every leaf of the candidate product, then solve_bounded's
    sort and cut."""
    found: list[Substitution] = []

    def dfs(triples: tuple[SubstTriple, ...]) -> None:
        partial = Substitution(p.qctx, triples)
        todo = [q for q in p.qctx.existential_positions() if partial.triple_at(q) is None]
        if not todo:
            if is_solution(partial, p, spec):
                found.append(partial)
            return
        q = todo[0]
        ictx = QContext(
            tuple(
                QDecl(d.quant, old.apply_subst_in_prefix(partial, d.ty, r), d.name)
                for r, d in enumerate(p.qctx.decls[:q])
                if partial.triple_at(r) is None
            )
        )
        ty = old.apply_subst_in_prefix(partial, p.qctx.decls[q].ty, q)
        for cand in enumerate_candidates(ictx, ty, budget, spec):
            dfs(triples + (SubstTriple(q, QContext(), cand),))

    def key(s: Substitution) -> tuple[int, int, tuple[str, ...]]:
        sizes = [decision_size(tr.term) for tr in s.triples] or [0]
        return max(sizes), sum(sizes), tuple(describe(tr.term) for tr in s.triples)

    dfs(())
    found.sort(key=key)
    return found[: budget.max_solutions]


def test_conversion_first_search_matches_full_verification_on_random_problems() -> None:
    lp = cube_spec("lP")
    rng = Random(13)
    for _ in range(10):
        p = random_elementary_problem(rng)
        for budget in (SearchBudget(5, 8), SearchBudget(5, 1000)):
            assert solve_bounded(p, budget, lp) == _solve_by_full_verification(p, budget, lp)


def _level(s: Substitution) -> int:
    """The largest candidate size in s, the first field of the result order."""
    return max(decision_size(tr.term) for tr in s.triples)


def test_early_stop_matches_full_verification_on_random_problems() -> None:
    # The same problems as above with small max_solutions, so the search
    # stops early; across them the cut falls inside a level and at a level
    # boundary.
    lp = cube_spec("lP")
    rng = Random(13)
    inside_level = set()
    for _ in range(10):
        p = random_elementary_problem(rng)
        full = _solve_by_full_verification(p, SearchBudget(5, 1000), lp)
        for m in (1, 2, 3):
            budget = SearchBudget(5, m)
            assert solve_bounded(p, budget, lp) == _solve_by_full_verification(p, budget, lp)
            if len(full) > m:
                inside_level.add(_level(full[m - 1]) == _level(full[m]))
    assert inside_level == {True, False}


SIGNATURE = "calculus lP\nforall U : Prop\nforall a : U\nforall b : U\nforall h : U -> U\n"


@pytest.mark.parametrize(
    "unknowns, goal, size, levels",
    [
        # F := [x]x with X := h a first; X := h (h (h a)) last
        ("exists F : U -> U\nexists X : U\n", "match F X = h a", 8, [3] + [4] * 5 + [5, 5, 7, 7]),
        # every assignment solves; within level 3 the search meets (h a, h a)
        # before (h b, a), which sorts first
        ("exists X : U\nexists Y : U\n", "unify h X = h X", 3, [1] * 4 + [3] * 12),
    ],
    ids=["match", "unify"],
)
def test_two_unknowns_with_solutions_at_several_levels(unknowns, goal, size, levels) -> None:
    spec, p = parse_problem(SIGNATURE + unknowns + goal + "\n")
    everything = SearchBudget(size, 100)
    full = solve_bounded(p, everything, spec)
    assert full == _solve_by_full_verification(p, everything, spec)
    assert [_level(s) for s in full] == levels
    for m in range(1, len(full) + 2):
        budget = SearchBudget(size, m)
        assert solve_bounded(p, budget, spec) == full[:m]
        assert solve_bounded(p, budget, spec) == _solve_by_full_verification(p, budget, spec)


@pytest.mark.parametrize(
    "text, solutions",
    [
        # the filled left side [x:U](h x) is an abstraction, eta-equal to h
        (
            "calculus lP\nforall U : Prop\nforall h : U -> U\nexists F : U -> U\nmatch F = h\n",
            ["F := [x0:U]h x0\n"],
        ),
        ("calculus lw\nforall A : Prop\nexists X : Prop\nmatch X = A -> A\n", ["X := A -> A\n"]),
        # the filled left side is a redex whose head normal form is a product
        (
            "calculus lw\nforall A : Prop\nforall B : Prop\nexists X : Prop -> Prop\n"
            "match X B = B -> A\n",
            ["X := [x0:Prop]x0 -> A\n", "X := [x0:Prop]B -> A\n"],
        ),
    ],
    ids=["eta", "product", "redex"],
)
def test_leaves_that_convert_are_not_refuted(text, solutions) -> None:
    spec, p = parse_problem(text)
    budget = SearchBudget(5, 100)
    found = solve_bounded(p, budget, spec)
    assert [print_substitution(s) for s in found] == solutions
    assert found == _solve_by_full_verification(p, budget, spec)


@pytest.mark.parametrize("goal, count", [("match a = a", 1), ("unify a = b", 0)])
def test_a_problem_without_unknowns_has_the_empty_solution_or_none(goal, count) -> None:
    spec, p = parse_problem("calculus lP\nforall U : Prop\nforall a : U\nforall b : U\n" + goal)
    found = solve_bounded(p, SearchBudget(3, 4), spec)
    assert [s.triples for s in found] == [()] * count


def test_a_large_size_budget_stays_cheap_on_the_thm1_target() -> None:
    # Within size 8 the thm1 target has its only two solutions.  Generation
    # that expands only heads able to reach the target, each sub-enumeration
    # once, keeps size 20 to milliseconds; without both it takes minutes.
    spec, p = parse_problem((FIXTURES / "thm1_target.prob").read_text())
    small = solve_bounded(p, SearchBudget(8, 16), spec)
    assert len(small) == 2
    assert solve_bounded(p, SearchBudget(20, 16), spec) == small


def test_oracle_coherence_source_solvable_implies_target_solvable() -> None:
    # a solvable source yields a solvable constructed target at a budget of
    # source-witness size plus the constant size of the transported binding
    from cubematch.encodings import build_thm1

    lp = cube_spec("lP")
    rng = Random(14)
    checked = 0
    while checked < 5:
        p = random_elementary_problem(rng, max_unknowns=1, side_size=5)
        sols = solve_bounded(p, SearchBudget(5, 4), lp)
        if not sols:
            continue
        checked += 1
        witness_size = max(
            (decision_size(tr.term) for tr in sols[0].triples), default=1
        )
        art = build_thm1(p, lp)
        derived = SearchBudget(max(witness_size, 3), 4)  # transported binding is size 3
        assert solve_bounded(art.target, derived, lp)


# -- leaves read under an environment, against the copying leaf path ----------


def _spent(solve, p: Problem, budget: SearchBudget, spec, steps: int) -> tuple:
    """repr of solve's result, or the error's class and message, with the
    fuel left of one `with Fuel(steps)` block around the whole search."""
    fuel = Fuel(steps)
    try:
        with fuel:
            out = repr(solve(p, budget, spec))
    except CubeError as e:
        out = (type(e), str(e))
    return out, fuel.left


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.prob")), ids=lambda p: p.name)
def test_leaves_spend_as_the_copying_path_on_every_fixture(path) -> None:
    # the small budgets run out part way through some searches
    spec, p = parse_problem(path.read_text())
    for size in (4, 6, 8):
        budget = SearchBudget(size, 16)
        for steps in (3, 10, 10**6):
            got = _spent(solve_bounded, p, budget, spec, steps)
            assert got == _spent(old.solve_bounded, p, budget, spec, steps)


# unknowns declared before universals, so the environment mixes both kinds
SCOPED = [
    SIGNATURE + "exists F : U -> U\nforall c : U\nmatch F (h a) = c\n",
    SIGNATURE + "exists F : U -> U\nforall k : U -> U\nexists X : U\nunify F (k X) = k (F a)\n",
    SIGNATURE + "exists X : U\nforall k : U -> U\nexists F : U -> U\nmatch F (h X) = h (k a)\n",
]


def test_leaves_spend_as_the_copying_path_on_random_problems() -> None:
    lp = cube_spec("lP")
    rng = Random(16)
    problems = [random_elementary_problem(rng) for _ in range(40)]
    problems += [parse_problem(text)[1] for text in SCOPED]
    for p in problems:
        for budget in (SearchBudget(5, 8), SearchBudget(6, 2)):
            for steps in (4, 10**6):
                got = _spent(solve_bounded, p, budget, lp, steps)
                assert got == _spent(old.solve_bounded, p, budget, lp, steps)


@pytest.mark.parametrize(
    "text, spent",
    [
        # a universal slot whose type mentions an earlier unknown: the walk
        # reads it under X's entry, the copying path fills X in
        (
            "calculus lP\nforall U : Prop\nforall P : U -> Prop\nforall a : U\n"
            "forall h : U -> U\nexists X : U\nforall c : P X\nexists F : P X -> U\n"
            "unify F c = h X\n",
            {
                3: [(2, 2)] * 3,
                4: [(4, 4)] * 3,
                5: [(4, 4), (6, 6), (6, 6)],
                6: [(4, 4), (9, 9), (9, 9)],
            },
        ),
        # k's type holds a redex and ignores X: the walk reads it once per X
        # candidate, the copying path once per cache miss of F's candidates,
        # which X does not change, so the walk spends one step more for each
        # X candidate after the first (two at size 5: a, h a, h (h a))
        (
            "calculus lP\nforall U : Prop\nforall a : U\nforall h : U -> U\nexists X : U\n"
            "forall k : ([y:U]U -> U) a\nexists F : U -> U\nunify F (k X) = k (h a)\n",
            {
                3: [(7, 6)] * 3,
                4: [(7, 6), (15, 14), (15, 14)],
                5: [(8, 6), (22, 20), (22, 20)],
                6: [(8, 6), (49, 47), (49, 47)],
            },
        ),
        # t's codomain depends on its argument: generation instantiates it
        # at [x:U]x and at [x:U]a, one beta step each at every size from 4
        # on, and the one solution's check spends one more; neither
        # candidate is typed again, which would spend one step each (5, 7
        # and 9 steps at sizes 4, 5 and 6)
        (
            "calculus lP\nforall U : Prop\nforall a : U\nforall P : U -> Prop\n"
            "forall t : (F:U -> U) P (F a)\nexists X : P a\nmatch X = t ([x:U]x)\n",
            {3: [(0, 0)] * 3, 4: [(3, 3)] * 3, 5: [(5, 5)] * 3, 6: [(7, 7)] * 3},
        ),
        # X's slot sits in the scope Y's candidates are generated in, and
        # holds Prop, Y's target; it must not head one, or Y := X's
        # candidate would be found twice, as X and as itself
        (
            "calculus lw\nforall U : Prop\nforall a : U\nexists X : Prop\nexists Y : Prop\n"
            "unify X = Y\n",
            {2: [(0, 0)] * 3, 3: [(0, 0)] * 3, 4: [(0, 0)] * 3, 5: [(0, 0)] * 3},
        ),
        # x's slot holds Prop, which F's body reaches: headed by it, F would
        # make leaves that read F x as x's candidate, refuted for a step each
        (
            "calculus lP\nforall U : Prop\nforall a : U\nforall P : U -> Prop\nexists x : U\n"
            "exists F : U -> Prop\nunify F x = P a\n",
            {3: [(1, 1)] * 3, 4: [(4, 4)] * 3, 5: [(4, 4)] * 3, 6: [(4, 4), (11, 11), (11, 11)]},
        ),
    ],
    ids=[
        "type-mentions-an-unknown",
        "redex-between-unknowns",
        "dependent-head",
        "unknown-slot-of-the-target-type",
        "unknown-slot-of-a-reached-type",
    ],
)
def test_the_walk_finds_what_the_copying_path_finds(text, spent) -> None:
    # the same solutions in the same order at every size and max_solutions;
    # the fuel each path spends, per max_solutions 1, 3 and 1001, is pinned
    spec, p = parse_problem(text)
    steps = 10**6
    for size, pinned in spent.items():
        got = []
        for max_solutions in (1, 3, 1001):
            budget = SearchBudget(size, max_solutions)
            walk, walk_left = _spent(solve_bounded, p, budget, spec, steps)
            copy, copy_left = _spent(old.solve_bounded, p, budget, spec, steps)
            assert walk == copy
            got.append((steps - walk_left, steps - copy_left))
        assert got == pinned, size


def test_a_bare_variable_candidate_is_bound_as_a_level(monkeypatch, lw, type_source) -> None:
    # [forall A:Prop; exists X:Prop] X = A: the candidate A enters the
    # environment as A's level in the problem's own numbering, slot 0 of 2,
    # so -2, and never as a closure around Var(0)
    envs: list[tuple] = []
    real = search.converts

    def spy(t1, t2, env=()):
        envs.append(env)
        return real(t1, t2, env)

    monkeypatch.setattr(search, "converts", spy)
    found = solve_bounded(type_source, SearchBudget(3, 8), lw)
    assert [print_substitution(s) for s in found] == ["X := A\n"]
    assert (-2, -2) in envs
    assert len(envs) > 1
    for env in envs:
        assert all(type(e) is int or type(e[0]) is not Var for e in env)
    assert comparison_env(found[0]) == (-2, -2)


def _read(f, *args) -> tuple:
    """f's result, with the fuel left of a fresh budget around the call."""
    fuel = Fuel(10**6)
    with fuel:
        out = f(*args)
    return out, fuel.left


def test_every_leaf_reads_under_its_assignments_comparison_env(monkeypatch) -> None:
    # each leaf's environment must read both sides as the one is_solution
    # builds for the leaf's assignment does: the same normal forms and
    # `converts` verdicts, for the same fuel.  Each unknown's candidate is
    # taken from the leaf's environment, in the problem's own numbering
    # over the slots before it: the closure's term, or, bound to a level,
    # the variable that names that slot; it is read over the image with
    # apply_subst.
    lp = cube_spec("lP")
    rng = Random(21)
    problems = [random_elementary_problem(rng) for _ in range(40)]
    problems += [parse_problem(text)[1] for text in SCOPED]
    envs: list[tuple] = []
    real_converts = search.converts

    def converts_spy(t1, t2, env=()):
        envs.append(env)
        return real_converts(t1, t2, env)

    monkeypatch.setattr(search, "converts", converts_spy)
    checked = 0
    for p in problems:
        envs.clear()
        solve_bounded(p, SearchBudget(5, 64), lp)
        n = len(p.qctx)
        for env in envs:
            triples: list[SubstTriple] = []
            for q in p.qctx.existential_positions():
                e = env[n - 1 - q]
                cand = Var(q - 1 - (e + n)) if type(e) is int else e[0]
                cand = apply_subst(Substitution(p.qctx.prefix(q), tuple(triples)), cand)
                triples.append(SubstTriple(q, QContext(), cand))
            ref = comparison_env(Substitution(p.qctx, tuple(triples)))
            for side in (p.lhs, p.rhs):
                assert _read(normalize_under, side, env) == _read(normalize_under, side, ref)
            assert _read(real_converts, p.lhs, p.rhs, env) == _read(real_converts, p.lhs, p.rhs, ref)
            checked += 1
    assert checked > 100
