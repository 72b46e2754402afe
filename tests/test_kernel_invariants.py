"""Invariants the type synthesizer relies on, checked on generated terms.

infer_type trusts its own results to be beta-eta normal: it compares them
with `==`, normalizes each declared type once per call and a binder's
domain once.  These properties pin that down against `reference_infer`,
which follows the same rules but trusts nothing: it normalizes every type
where it is used and converts with `equivalent`.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from cubematch.errors import (
    ContextError,
    CubeError,
    NoRuleApplies,
    NotAType,
    SortPairMissing,
    TypeHasNoType,
)
from cubematch.reduction import Fuel, beta_eta_normalize, converts, equivalent
from cubematch.terms import PROP, TYPE, App, Lam, Pi, Sort, Term, Var, describe, shift, subst
from cubematch.typecheck import (
    PRESETS,
    Context,
    CubeSpec,
    check_type,
    cube_spec,
    infer_type,
    pair_text,
    wf_context,
)
from match_walks import is_normal
from termgen import base_context, random_well_typed

LP = cube_spec("lP")
BASE = len(base_context())  # U, V, a, b, f, g, k; U outermost, a third

randoms = st.randoms(use_true_random=False)
props = settings(deadline=None)


# ------------- the reference: normalize everywhere, convert with equivalent -------------


def reference_infer(ctx: Context, t: Term, spec: CubeSpec) -> Term:
    match t:
        case Sort("Prop"):
            return TYPE
        case Sort(_):
            raise TypeHasNoType("the sort Type has no type")
        case Var(k):
            return beta_eta_normalize(_lookup(ctx, k))
        case Pi(dom, cod, hint):
            s1 = _reference_sort(ctx, dom, spec)
            s2 = _reference_sort(ctx.extended(dom, hint), cod, spec)
            _require_pair(spec, s1, s2)
            return s2
        case Lam(dom, body, hint):
            s1 = _reference_sort(ctx, dom, spec)
            inner = ctx.extended(dom, hint)
            body_ty = reference_infer(inner, body, spec)
            _require_pair(spec, s1, _reference_sort(inner, body_ty, spec))
            return beta_eta_normalize(Pi(dom, body_ty, hint))
        case App(fn, arg):
            fn_ty = reference_infer(ctx, fn, spec)
            if not isinstance(fn_ty, Pi):
                raise NoRuleApplies(f"cannot apply {describe(fn)}")
            if not equivalent(reference_infer(ctx, arg, spec), fn_ty.dom):
                raise NoRuleApplies(f"argument {describe(arg)} has the wrong type")
            return beta_eta_normalize(subst(fn_ty.cod, 0, arg))
    raise AssertionError("unreachable")


def _lookup(ctx: Context, k: int) -> Term:
    """Type of Var(k), shifted into the whole context."""
    pos = len(ctx.decls) - 1 - k
    if pos < 0:
        raise NoRuleApplies(f"unbound de Bruijn index {k}")
    return shift(ctx.decls[pos].ty, k + 1, 0)


def _reference_sort(ctx: Context, T: Term, spec: CubeSpec) -> Sort:
    ty = reference_infer(ctx, T, spec)
    if not isinstance(ty, Sort):
        raise NotAType(f"{describe(T)} is not a type")
    return ty


def _require_pair(spec: CubeSpec, s1: Sort, s2: Sort) -> None:
    pair = (s1.tag, s2.tag)
    if not spec.allows(pair):
        raise SortPairMissing(pair, f"needs {pair_text(pair)}")


def _outcome(infer, ctx: Context, t: Term) -> Term | type[CubeError]:
    try:
        return infer(ctx, t, LP)
    except CubeError as e:
        return type(e)


# ------------- beta-expanded but convertible types -------------


def _expand(ty: Term, scope_len: int) -> Term:
    """((x:U) => ty) a: a beta redex of sort Prop reducing to ty (needs Prop-Type)."""
    u, a = Var(scope_len - 1), Var(scope_len - 3)
    return App(Lam(u, shift(ty, 1, 0), "x"), a)


def _expand_type(ty: Term, scope_len: int, rng: Random) -> Term:
    """ty with beta redexes planted at random over it and its product parts."""
    if isinstance(ty, Pi) and rng.random() < 0.5:
        dom = _expand_type(ty.dom, scope_len, rng)
        ty = Pi(dom, _expand_type(ty.cod, scope_len + 1, rng), ty.hint)
    return _expand(ty, scope_len) if rng.random() < 0.7 else ty


def _expand_domains(t: Term, scope_len: int, rng: Random) -> Term:
    """t with every abstraction domain possibly replaced by an expanded one."""
    match t:
        case App(fn, arg):
            return App(
                _expand_domains(fn, scope_len, rng), _expand_domains(arg, scope_len, rng)
            )
        case Lam(dom, body, hint):
            return Lam(
                _expand_type(dom, scope_len, rng),
                _expand_domains(body, scope_len + 1, rng),
                hint,
            )
    return t


def _expanded_context(rng: Random) -> Context:
    """base_context() with every declared type after `a` beta-expanded."""
    out = Context()
    for q, d in enumerate(base_context()):
        ty = _expand(_expand_type(d.ty, q, rng), q) if q >= 3 else d.ty
        out = out.extended(ty, d.name)
    return out


# ------------- ill-typed variants -------------


def _swap_argument(t: Term, rng: Random) -> Term:
    """t with the argument of one application replaced by another term."""
    sites = _count_apps(t)
    if sites == 0:
        return t
    pick = [rng.randrange(sites)]

    def walk(t: Term, depth: int) -> Term:
        match t:
            case App(fn, arg):
                pick[0] -= 1
                if pick[0] == -1:
                    return App(fn, _stray_term(depth, rng))
                return App(walk(fn, depth), walk(arg, depth))
            case Lam(dom, body, hint):
                return Lam(dom, walk(body, depth + 1), hint)
        return t

    return walk(t, 0)


def _count_apps(t: Term) -> int:
    match t:
        case App(fn, arg):
            return 1 + _count_apps(fn) + _count_apps(arg)
        case Lam(_, body):
            return _count_apps(body)
    return 0


def _stray_term(depth: int, rng: Random) -> Term:
    """A term scoped at depth binders under base_context(), of any type."""
    choice = rng.randrange(3)
    if choice == 0:
        return Var(rng.randrange(BASE + depth))
    if choice == 1:
        return PROP
    return shift(random_well_typed(rng, max_size=8), depth, 0)


# ------------- properties -------------


@props
@given(randoms)
def test_inferred_types_are_normal_and_agree_with_the_reference(rng) -> None:
    ctx = base_context()
    t = random_well_typed(rng, max_size=20)
    ty = infer_type(ctx, t, LP)
    assert is_normal(ty)
    assert ty == reference_infer(ctx, t, LP)


@props
@given(randoms)
def test_expanded_domains_give_the_same_normal_type(rng) -> None:
    ctx = base_context()
    t = random_well_typed(rng, max_size=16)
    expanded = _expand_domains(t, BASE, rng)
    ty = infer_type(ctx, expanded, LP)
    assert is_normal(ty)
    assert ty == infer_type(ctx, t, LP) == reference_infer(ctx, expanded, LP)


@props
@given(randoms)
def test_dependent_application_types_are_normal(rng) -> None:
    # base_context() plus P : U -> Prop and c : (x:U) P x, so (c t) : P t.
    ctx = base_context()
    u = Var(BASE - 1)
    while True:
        t = random_well_typed(rng, max_size=16)
        if infer_type(ctx, t, LP) == u:
            break
    ctx = ctx.extended(Pi(u, PROP), "P").extended(Pi(Var(BASE), App(Var(1), Var(0))), "c")
    applied = App(Var(0), shift(t, 2, 0))
    ty = infer_type(ctx, applied, LP)
    assert ty == App(Var(1), beta_eta_normalize(shift(t, 2, 0)))
    assert is_normal(ty)
    assert ty == reference_infer(ctx, applied, LP)


@props
@given(randoms)
def test_subject_reduction(rng) -> None:
    ctx = base_context()
    t = random_well_typed(rng, max_size=20)
    assert infer_type(ctx, t, LP) == infer_type(ctx, beta_eta_normalize(t), LP)


@props
@given(randoms)
def test_expanded_context_gives_the_same_types(rng) -> None:
    ctx = base_context()
    expanded = _expanded_context(rng)
    wf_context(expanded, LP)
    t = random_well_typed(rng, max_size=20)
    ty = infer_type(ctx, t, LP)
    assert infer_type(expanded, t, LP) == ty
    assert check_type(expanded, t, _expand_type(ty, BASE, rng), LP)


@props
@given(randoms)
def test_swapped_arguments_fail_as_the_reference_does(rng) -> None:
    ctx = base_context()
    t = _swap_argument(random_well_typed(rng, max_size=20), rng)
    assert _outcome(infer_type, ctx, t) == _outcome(reference_infer, ctx, t)


# ------------- conversion against its definition -------------

# base_context()'s function slots, by index at depth 0, and the index of
# their first domain: f : U -> U, g : U -> U -> U, k : V -> U
_FIRST_DOMAIN = {2: 6, 1: 6, 0: 5}


def _eta_heads(t: Term, rng: Random, depth: int = 0) -> Term:
    """t with some occurrences of f, g and k replaced by their eta
    expansions [x:A](h x)."""
    match t:
        case Var(k) if k - depth in _FIRST_DOMAIN and rng.random() < 0.5:
            return Lam(Var(_FIRST_DOMAIN[k - depth] + depth), App(Var(k + 1), Var(0)), "x")
        case App(fn, arg):
            return App(_eta_heads(fn, rng, depth), _eta_heads(arg, rng, depth))
        case Lam(dom, body, hint):
            return Lam(dom, _eta_heads(body, rng, depth + 1), hint)
    return t


def _variants(t: Term, rng: Random) -> list[Term]:
    """t, its normal form, and terms around it: expanded domains, beta- and
    eta-expanded sides, a swapped argument, and another random term."""
    u, a = Var(BASE - 1), Var(BASE - 3)
    out = [t, beta_eta_normalize(t), _expand_domains(t, BASE, rng), _eta_heads(t, rng)]
    out.append(App(Lam(u, shift(_eta_heads(t, rng), 1, 0), "y"), a))
    out.append(_swap_argument(t, rng))
    out.append(random_well_typed(rng, max_size=12))
    ty = infer_type(base_context(), t, LP)
    if isinstance(ty, Pi):  # the whole side eta-expanded
        out.append(Lam(ty.dom, App(shift(t, 1, 0), Var(0)), "z"))
    return out


def _spent(f, *args) -> tuple[bool, int]:
    fuel = Fuel(10**6)
    with fuel:
        out = f(*args)
    return out, 10**6 - fuel.left


@props
@given(randoms, st.sampled_from(sorted(PRESETS)))
def test_converts_agrees_with_the_normal_forms(rng, spec_name) -> None:
    """On every pair of one type in the calculus, `converts` gives the
    verdict of `equivalent`, the definition, and spends no more steps."""
    spec = PRESETS[spec_name]
    ctx = base_context()
    typed: list[tuple[Term, Term]] = []
    for v in _variants(random_well_typed(rng, max_size=14), rng):
        try:
            typed.append((v, infer_type(ctx, v, spec)))
        except CubeError:
            continue
    for t1, ty1 in typed:
        for t2, ty2 in typed:
            if ty1 == ty2:
                got, steps = _spent(converts, t1, t2)
                want, want_steps = _spent(equivalent, t1, t2)
                assert got == want, (describe(t1), describe(t2))
                assert steps <= want_steps


# ------------- ill-typed domains are rejected before any normalization -------------


def _omega(scope_len: int) -> Term:
    """(([x:U] x x) ([x:U] x x)): ill-typed, and its normalization never ends."""
    w = Lam(Var(scope_len - 1), App(Var(0), Var(0)), "x")
    return App(w, w)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Lam(_omega(BASE), Var(0)),
        lambda: Pi(_omega(BASE), PROP),
        lambda: App(Lam(Var(BASE - 1), Var(0)), _omega(BASE)),
    ],
    ids=["abstraction", "product", "argument"],
)
def test_ill_typed_terms_are_never_normalized(make) -> None:
    with pytest.raises(NoRuleApplies):
        infer_type(base_context(), make(), LP)


def test_ill_typed_declarations_are_never_normalized() -> None:
    ctx = base_context().extended(_omega(BASE), "bad")
    with pytest.raises(ContextError):
        wf_context(ctx, LP)
