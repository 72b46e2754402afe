"""Context formation and type synthesis across the eight calculi."""

from __future__ import annotations

import sys
import time
from functools import reduce
from itertools import combinations
from random import Random

import pytest

from cubematch import typecheck
from cubematch.errors import (
    ContextError,
    CubeError,
    NoRuleApplies,
    NotAType,
    SortPairMissing,
    TypeHasNoType,
)
from cubematch.reduction import beta_eta_normalize, equivalent
from cubematch.syntax import parse_term
from cubematch.terms import PROP, TYPE, App, Lam, Pi, Var, app, arrow
from cubematch.typecheck import (
    PP,
    Scope,
    PT,
    TP,
    TT,
    Context,
    CubeSpec,
    Decl,
    PRESETS,
    check_type,
    cube_spec,
    infer_type,
    wf_context,
)
from termgen import base_context, random_well_typed


def test_preset_table_is_the_eight_calculi() -> None:
    assert len(PRESETS) == 8
    rule_sets = {spec.rules for spec in PRESETS.values()}
    assert len(rule_sets) == 8
    expected = {frozenset({PP}) | frozenset(extra) for r in range(4) for extra in combinations((PT, TP, TT), r)}
    assert rule_sets == expected


def test_prop_prop_is_mandatory() -> None:
    with pytest.raises(ValueError):
        CubeSpec(frozenset({PT}))
    with pytest.raises(CubeError):
        cube_spec("nope")


def test_axiom_prop_in_type() -> None:
    assert infer_type(Context(), PROP, cube_spec("stlc")) == TYPE
    assert Scope((), cube_spec("stlc")).sort(PROP) == TYPE


def test_type_has_no_type() -> None:
    with pytest.raises(TypeHasNoType):
        infer_type(Context(), TYPE, cube_spec("coc"))


def test_wf_context_cases(lp) -> None:
    wf_context(Context(), lp)  # empty context
    ctx = Context().extended(PROP, "U").extended(Var(0), "a")
    wf_context(ctx, lp)
    # P : U -> Prop without U in scope: the index escapes
    bad = Context().extended(arrow(Var(3), PROP), "P")
    with pytest.raises(ContextError) as exc:
        wf_context(bad, lp)
    assert exc.value.position == 0


def test_wf_context_reports_missing_pair(stlc) -> None:
    ctx = Context().extended(PROP, "U").extended(arrow(Var(0), PROP), "P")
    with pytest.raises(ContextError) as exc:
        wf_context(ctx, stlc)
    assert exc.value.position == 1
    assert exc.value.pair == PT


def test_product_rule_pair_gating(stlc, lp) -> None:
    ctx = Context().extended(PROP, "U")
    dependent = Pi(Var(0), PROP)  # (x:U)Prop
    with pytest.raises(SortPairMissing) as exc:
        infer_type(ctx, dependent, stlc)
    assert exc.value.pair == PT
    assert infer_type(ctx, dependent, lp) == TYPE


def test_application_types_by_substitution(lp) -> None:
    # P : U -> Prop applied to a : U gives an atom of sort Prop
    ctx = (
        Context()
        .extended(PROP, "U")
        .extended(Var(0), "a")
        .extended(arrow(Var(1), PROP), "P")
    )
    assert Scope(ctx.decls, lp).sort(App(Var(0), Var(1))) == PROP


def test_infer_the_constructed_unknown_type(lp) -> None:
    # (h:U->U)(P (h a)) -> (P (h a)) has sort Prop given U:Prop, a:U, P:U->Prop
    ctx = (
        Context()
        .extended(PROP, "U")
        .extended(Var(0), "a")
        .extended(arrow(Var(1), PROP), "P")
    )
    u = Var(2)
    f_ty = Pi(
        arrow(u, u),
        arrow(App(Var(1), App(Var(0), Var(2))), App(Var(1), App(Var(0), Var(2)))),
        "h",
    )
    assert infer_type(ctx, f_ty, lp) == PROP


def test_check_type_converts(lp) -> None:
    ctx = Context().extended(PROP, "U").extended(Var(0), "a")
    assert check_type(ctx, Var(0), Var(1), lp)
    # conversion through beta on the annotation side
    assert check_type(ctx, Var(0), App(Lam(PROP, Var(0)), Var(1)), lp)
    assert not check_type(ctx, Var(0), PROP, lp)


def test_sort_of_rejects_plain_terms(lp) -> None:
    ctx = Context().extended(PROP, "U").extended(Var(0), "a")
    with pytest.raises(NotAType):
        Scope(ctx.decls, lp).sort(Var(0))


def test_application_argument_mismatch(lp) -> None:
    ctx = (
        Context()
        .extended(PROP, "U")
        .extended(PROP, "V")
        .extended(Var(1), "a")
        .extended(arrow(Var(1), Var(1)), "fv")
    )
    with pytest.raises(NoRuleApplies):
        infer_type(ctx, App(Var(0), Var(1)), lp)  # fv expects V, got a:U


def test_unbound_index_fails(lp) -> None:
    with pytest.raises(NoRuleApplies):
        infer_type(Context(), Var(0), lp)


def test_lambda_type_is_a_normal_product(lp) -> None:
    ctx = Context().extended(PROP, "U").extended(Var(0), "a")
    # [x:U](([y:U]y) x) : U -> U, returned normalized (and eta-collapsed)
    t = Lam(Var(1), App(Lam(Var(2), Var(0)), Var(0)))
    assert infer_type(ctx, t, lp) == arrow(Var(1), Var(1))


def test_capability_matrix_probes() -> None:
    ctx = Context().extended(PROP, "U")
    probes = {
        PP: Pi(Var(0), Var(1)),  # (x:U)U
        PT: Pi(Var(0), PROP),  # (x:U)Prop
        TP: Pi(PROP, Var(0)),  # (X:Prop)X
        TT: Pi(PROP, PROP),  # (X:Prop)Prop
    }
    for spec in PRESETS.values():
        for pair, probe in probes.items():
            if pair in spec.rules:
                infer_type(ctx, probe, spec)
            else:
                with pytest.raises(SortPairMissing) as exc:
                    infer_type(ctx, probe, spec)
                assert exc.value.pair == pair


def test_monotone_in_the_rule_set() -> None:
    rng = Random(5)
    ctx = base_context()
    stlc = cube_spec("stlc")
    for _ in range(25):
        t = random_well_typed(rng, max_size=14)
        ty = infer_type(ctx, t, stlc)
        for spec in PRESETS.values():
            assert infer_type(ctx, t, spec) == ty


def test_subject_reduction_and_uniqueness_smoke() -> None:
    rng = Random(6)
    ctx = base_context()
    lp = cube_spec("lP")
    for _ in range(40):
        t = random_well_typed(rng, max_size=16)
        ty = infer_type(ctx, t, lp)
        assert equivalent(infer_type(ctx, beta_eta_normalize(t), lp), ty)
        assert infer_type(ctx, t, lp) == ty  # deterministic, already normal


def test_typing_nested_abstractions_takes_time_linear_in_their_number() -> None:
    # An abstraction takes its body's sort from the body's synthesis, so
    # four times the nesting takes about four times as long; sorting each
    # body's type again took about sixteen.
    ctx = Context().extended(PROP, "U")
    lp = cube_spec("lP")

    def best_ms(n: int) -> float:
        # [x:U][x:U]...[x:U]x, each domain U seen from its own depth
        t = reduce(lambda body, i: Lam(Var(i), body, "x"), reversed(range(n)), Var(0))
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            ty = infer_type(ctx, t, lp)
            times.append(time.perf_counter() - t0)
        assert ty == reduce(lambda cod, i: Pi(Var(i), cod, "x"), reversed(range(n)), Var(n))
        return min(times)

    assert best_ms(300) < 8 * best_ms(75)


def test_typing_handles_450_nested_products() -> None:
    # (x:U)(x:U)...(x:U)U: two frames per level, within the default limit
    limit = sys.getrecursionlimit()
    t = reduce(lambda cod, i: Pi(Var(i), cod), reversed(range(450)), Var(450))
    assert infer_type(Context().extended(PROP, "U"), t, cube_spec("lP")) == PROP
    assert sys.getrecursionlimit() == limit


_SORTED_NAMES = ["U", "a", "P", "h"]
_SORTED_CTX = Context(
    tuple(
        Decl(parse_term(ty, _SORTED_NAMES[:q]), name)
        for q, (name, ty) in enumerate(
            zip(_SORTED_NAMES, ["Prop", "U", "U -> Prop", "(u:U)P u"])
        )
    )
)


@pytest.mark.parametrize(
    "text, sort",
    [
        ("[x:U]x", PROP),  # a binder's sort
        ("[X:Prop]X", TYPE),
        ("[x:U]P x", TYPE),  # a context slot's sort
        ("[x:U]h x", PROP),  # a dependent application
        ("[x:U]([y:U]P y) x", TYPE),  # a redex: sorted again
        ("[x:U]([y:U]y) x", PROP),
        ("[x:U](y:U)P y", TYPE),  # a product's type Prop
        ("[x:U][y:U]P x", TYPE),  # an abstraction's body
        ("[x:U]Prop", TypeHasNoType),  # Type has no sort
        ("[x:U](y:U)Prop", TypeHasNoType),
    ],
)
def test_an_abstraction_takes_its_body_sort_from_synthesis(text, sort) -> None:
    t = parse_term(text, _SORTED_NAMES)
    coc = cube_spec("coc")
    # declared slots keep their sorts; trusted ones are sorted where needed
    for scope in (wf_context(_SORTED_CTX, coc), Scope(_SORTED_CTX.decls, coc)):
        if isinstance(sort, type):
            with pytest.raises(sort):
                typecheck._abstraction(scope, t)
        else:
            assert typecheck._abstraction(scope, t) == (infer_type(_SORTED_CTX, t, coc), sort)


def test_a_trusted_slot_is_sorted_once_per_scope(monkeypatch) -> None:
    """An abstraction whose body is headed by a trusted slot sorts the
    body's type only while that slot keeps no sort, and then keeps the sort
    in the slot: a spine's type has the sort of its head's type."""
    coc = cube_spec("coc")
    texts = ["[x:U]h x", "[x:U]P x", "[x:U][y:P x]h x", "[x:U]P a", "[x:U][y:U]h y", "[x:U]a"]
    terms = [parse_term(text, _SORTED_NAMES) for text in texts]
    want = [infer_type(_SORTED_CTX, t, coc) for t in terms]
    scope = Scope(_SORTED_CTX.decls, coc)
    calls = {"sort": 0, "declare": 0}

    def counted(name, f):
        def wrapper(self, ty):
            calls[name] += 1
            return f(self, ty)

        return wrapper

    monkeypatch.setattr(Scope, "sort", counted("sort", Scope.sort))
    monkeypatch.setattr(Scope, "declare", counted("declare", Scope.declare))
    assert [scope.infer(t) for t in terms] == want
    # every declare sorts its type once; the rest sort h, P and a once each
    assert calls["sort"] - calls["declare"] == 3
    assert scope.sorts == [None, PROP, TYPE, PROP]


def test_a_trusted_slot_keeps_the_first_sort_found_for_it() -> None:
    # outside the spec: the trusted h : (X:Type)X declares a product over
    # Type, which has no type.  (h Prop) has type Prop, sorted Type, which
    # h then keeps, so the eta-short body h, whose type has no sort, reads
    # it.  Sorting that body's type, as each abstraction did before,
    # raised TypeHasNoType.
    ctx = Context((Decl(PROP, "A"), Decl(Pi(TYPE, Var(0), "X"), "h")))
    coc = cube_spec("coc")
    with pytest.raises(TypeHasNoType):
        infer_type(ctx, parse_term("[y:Prop]h", ["A", "h"]), coc)
    t = parse_term("[u:([z:Prop]h Prop) A][y:Prop]h", ["A", "h"])
    want = parse_term("(u:h Prop)(y:Prop)(X:Type)X", ["A", "h"])
    assert infer_type(ctx, t, coc) == want
