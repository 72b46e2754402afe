"""Shift, substitution and free-index behavior of the de Bruijn core."""

from __future__ import annotations

import copy
import os
import pickle
import sys
import threading
from random import Random

import pytest
from hypothesis import given, strategies as st

from cubematch.terms import (
    PROP,
    TYPE,
    VARS,
    App,
    Lam,
    Pi,
    Sort,
    Term,
    Var,
    app,
    arrow,
    free_indices,
    lower,
    node_count,
    pick_fresh,
    shift,
    spine,
    subst,
)
from match_walks import structural_eq
from named_ref import NApp, NVar, nsubst, to_debruijn


# ------------- shift -------------


def test_shift_free_var_moves() -> None:
    assert shift(Var(0), 1, 0) == Var(1)
    assert shift(Var(2), 3, 2) == Var(5)


def test_shift_below_cutoff_untouched() -> None:
    assert shift(Var(0), 2, 1) == Var(0)
    assert shift(Var(1), 2, 2) == Var(1)


def test_shift_under_binder_moves_free_dom_keeps_bound_body() -> None:
    # [x:#0]x : the domain index is free, the body index is bound
    assert shift(Lam(Var(0), Var(0)), 1, 0) == Lam(Var(1), Var(0))


def test_shift_negative_unshifts() -> None:
    assert shift(Var(2), -1, 0) == Var(1)


def test_shift_negative_underflow_is_a_defect() -> None:
    with pytest.raises(ValueError):
        shift(Var(0), -1, 0)


def test_shift_zero_is_identity() -> None:
    t = App(Var(2), Lam(Var(0), App(Var(0), Var(1))))
    assert shift(t, 0, 0) == t
    assert shift(t, 0, 5) == t


def test_shift_pi_behaves_like_lam() -> None:
    assert shift(Pi(Var(7), Var(1)), 2, 0) == Pi(Var(9), Var(3))


# ------------- subst -------------


def test_subst_hit_replaces() -> None:
    assert subst(Var(0), 0, Var(9)) == Var(9)
    assert subst(Var(5), 5, Var(7)) == Var(7)


def test_subst_above_decrements_below_unchanged() -> None:
    assert subst(Var(3), 1, Var(42)) == Var(2)
    assert subst(Var(0), 2, Var(42)) == Var(0)


def test_subst_spec_example_index_renormalization() -> None:
    # (#1 #0)[0 <- c] -> (#0 c): the removed slot pulls #1 down
    c = Var(9)
    assert subst(App(Var(1), Var(0)), 0, c) == App(Var(0), Var(9))


def test_subst_under_binder_shifts_replacement() -> None:
    # body of a binder: j bumps, the replacement's free vars are hoisted
    t = Lam(Var(2), App(Var(2), Var(0)))
    s = App(Var(1), Var(0))
    assert subst(t, 1, s) == Lam(Var(1), App(App(Var(2), Var(1)), Var(0)))


def test_subst_matches_named_reference_on_beta_body() -> None:
    # body of [x:U](P x) substituted with z -> (P z), checked against the
    # independent named-variable implementation
    named = nsubst(NApp(NVar("P"), NVar("x")), "x", NVar("z"))
    scope = ["P", "z"]
    body = App(Var(2), Var(0))  # (P x) seen under the binder for x
    assert subst(body, 0, Var(0)) == to_debruijn(named, scope)


def test_shift_then_subst_cancels() -> None:
    ts = [Var(0), App(Var(1), Var(0)), Lam(Var(0), App(Var(0), Var(2)))]
    ss = [Var(3), Lam(Var(0), Var(0)), PROP]
    for t in ts:
        for s in ss:
            assert subst(shift(t, 1, 0), 0, s) == t


# ------------- free indices -------------


def test_free_indices_var() -> None:
    assert free_indices(Var(3)) == {3}


def test_free_indices_binder_excludes_bound() -> None:
    assert free_indices(Lam(Var(4), Var(0))) == {4}
    assert free_indices(Lam(PROP, Var(0))) == set()


def test_free_indices_adjusts_across_binders() -> None:
    # (#0 [x:U]#1): the inner #1 is the outer #0
    t = App(Var(0), Lam(Var(9), Var(1)))
    assert free_indices(t) == {0, 9}


def test_free_indices_matches_named_reference() -> None:
    # named cross-check: positions referenced by a nested term
    scope = ["p", "q", "r"]
    t = App(Var(0), Lam(Var(2), App(Var(1), Var(3))))
    # under the binder, #1 is r (=#0 outside) and #3 is p (=#2 outside)
    from named_ref import from_debruijn, nfree

    named = from_debruijn(t, scope)
    names = nfree(named) & set(scope)
    positions = {len(scope) - 1 - i for i in free_indices(t)}
    assert {scope[p] for p in positions} == names


# ------------- closed terms, helpers -------------


def test_closed_terms_ignore_shift_and_subst() -> None:
    closed = Lam(PROP, Lam(Var(0), Var(0)))
    assert free_indices(closed) == set()
    assert shift(closed, 5, 0) == closed
    assert subst(closed, 0, Var(3)) == closed


def test_structural_eq_is_alpha_blind_to_hints() -> None:
    assert Lam(Var(0), Var(0), "x") == Lam(Var(0), Var(0), "y")
    assert Lam(Var(0), Var(0)) != Lam(Var(0), Var(1))
    assert PROP != TYPE


def test_arrow_is_shifted_pi() -> None:
    assert arrow(Var(0), Var(0)) == Pi(Var(0), Var(1))


def test_app_and_spine_invert() -> None:
    t = app(Var(2), Var(1), Var(0), PROP)
    assert spine(t) == (Var(2), (Var(1), Var(0), PROP))


def test_pick_fresh_suffixes() -> None:
    assert pick_fresh("x", set()) == "x"
    assert pick_fresh("x", {"x"}) == "x0"
    assert pick_fresh("x", {"x", "x0"}) == "x1"
    assert pick_fresh(None, set()) == "x0"


# ------------- property checks -------------


HINTS = (None, "x", "y")


def _terms(max_index: int = 6):
    base = st.one_of(
        st.builds(Var, st.integers(min_value=0, max_value=max_index)),
        st.just(PROP),
        st.just(TYPE),
    )
    hints = st.sampled_from(HINTS)
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.builds(App, sub, sub),
            st.builds(Lam, sub, sub, hints),
            st.builds(Pi, sub, sub, hints),
        ),
        max_leaves=12,
    )


def _variant(t: Term, rng: Random, change: float = 0.0) -> Term:
    """A copy of t with random hints: each subterm is kept as the same object
    or rebuilt node for node, and with probability `change` a leaf becomes a
    random leaf."""
    if rng.random() < 0.3:
        return t
    match t:
        case App(fn, arg):
            return App(_variant(fn, rng, change), _variant(arg, rng, change))
        case Lam(dom, body):
            return Lam(_variant(dom, rng, change), _variant(body, rng, change), rng.choice(HINTS))
        case Pi(dom, cod):
            return Pi(_variant(dom, rng, change), _variant(cod, rng, change), rng.choice(HINTS))
    if rng.random() < change:
        return rng.choice([PROP, TYPE, Var(0), Var(1)])
    return Sort(t.tag) if isinstance(t, Sort) else Var(t.index)


@given(_terms(), st.integers(min_value=0, max_value=4))
def test_prop_shift_zero_identity(t, cutoff) -> None:
    assert shift(t, 0, cutoff) == t


@given(_terms(max_index=4), _terms(max_index=4))
def test_prop_shift_subst_cancellation(t, s) -> None:
    assert subst(shift(t, 1, 0), 0, s) == t


@given(_terms())
def test_prop_node_count_positive(t) -> None:
    assert node_count(t) >= 1


@given(_terms(max_index=1), _terms(max_index=1))
def test_prop_eq_agrees_with_the_oracle_on_independent_terms(a, b) -> None:
    assert (a == b) is structural_eq(a, b)
    assert (a != b) is not structural_eq(a, b)
    if a == b:
        assert hash(a) == hash(b)
    if repr(a) == repr(b):
        assert structural_eq(a, b)


@given(_terms(max_index=1), st.randoms(use_true_random=False))
def test_prop_eq_agrees_with_the_oracle_on_near_copies(t, rng) -> None:
    u = _variant(t, rng, change=0.2)
    assert (t == u) is (u == t) is structural_eq(t, u)
    if t == u:
        assert hash(t) == hash(u)


_leaf_nodes = st.one_of(st.integers(0, 3).map(Var), st.sampled_from([PROP, TYPE]))


@given(_leaf_nodes, _leaf_nodes)
def test_prop_leaf_eq_is_identity(a, b) -> None:
    same = structural_eq(a, b)
    assert (a is b) is (a == b) is (repr(a) == repr(b)) is same
    assert (a != b) is not same
    assert (hash(a) == hash(b)) is same


@given(_terms(), st.randoms(use_true_random=False))
def test_prop_hints_never_matter(t, rng) -> None:
    u = _variant(t, rng)
    assert t == u and u == t and not t != u
    assert hash(t) == hash(u)


# ------------- the nodes themselves -------------

NODES = [PROP, Var(3), App(Var(0), TYPE), Lam(PROP, Var(0), "x"), Pi(Var(1), Var(0))]


def test_repr_is_pinned() -> None:
    assert [repr(t) for t in NODES] == [
        "Sort(tag='Prop')",
        "Var(index=3)",
        "App(fn=Var(index=0), arg=Sort(tag='Type'))",
        "Lam(dom=Sort(tag='Prop'), body=Var(index=0), hint='x')",
        "Pi(dom=Var(index=1), cod=Var(index=0), hint=None)",
    ]


@pytest.mark.parametrize("t", NODES, ids=lambda t: type(t).__name__)
def test_fields_cannot_be_assigned_or_deleted(t) -> None:
    before, h = repr(t), hash(t)
    if type(t) is Pi:
        low = lower(t)
    for name in (*t.__match_args__, "_hash", "_low", "extra"):
        with pytest.raises(AttributeError):
            setattr(t, name, PROP)
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert repr(t) == before and hash(t) == h
    if type(t) is Pi:
        assert t._low is low


def test_constructors_check_index_and_tag() -> None:
    with pytest.raises(ValueError, match="negative de Bruijn index"):
        Var(-1)
    with pytest.raises(ValueError, match="bad sort tag"):
        Sort("Set")
    assert -1 not in VARS
    assert Sort("Prop") == PROP and hash(Sort("Prop")) == hash(PROP)


def test_eq_compares_classes_not_field_values() -> None:
    a, b = Var(0), Var(1)
    assert App(a, b) != Lam(a, b) != Pi(a, b) != App(a, b)
    assert Var(0) != PROP and PROP != Var(0)
    assert (Var(0) == 0) is False and (App(a, b) == (a, b)) is False


def test_hash_is_computed_on_first_use_and_kept() -> None:
    leaf = Var(2)
    t = Pi(leaf, App(leaf, Lam(PROP, Var(0))))
    assert getattr(t, "_hash", None) is None
    h = hash(t)
    assert t._hash == h and hash(t) == h
    assert leaf._hash == hash(Var(2))
    assert t.cod.arg.body._hash == hash(Var(0))


@pytest.mark.parametrize(
    "t",
    [*NODES, Lam(Pi(PROP, Var(0), "p"), App(Var(0), Var(1)), "f")],
    ids=lambda t: type(t).__name__,
)
def test_copy_deepcopy_and_pickle_round_trip(t) -> None:
    fresh = pickle.dumps(t)
    hash(t)
    # the cached hash stays behind: string hashes differ between processes
    assert pickle.dumps(t) == fresh
    copies = [copy.copy(t), copy.deepcopy(t)]
    copies += [pickle.loads(pickle.dumps(t, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for u in copies:
        assert repr(u) == repr(t)
        assert u == t and hash(u) == hash(t)
        assert _leaves(u) == _leaves(t)


def test_a_lowered_codomain_is_computed_on_first_use_and_kept() -> None:
    t = arrow(Var(1), App(Var(2), Var(0)))
    dependent = Pi(PROP, App(Var(0), Var(3)))
    assert not hasattr(t, "_low") and not hasattr(dependent, "_low")
    low = lower(t)
    assert low == App(Var(2), Var(0)) and t._low is low and lower(t) is low
    assert lower(dependent) is None and dependent._low is None
    # a codomain with no free index is handed back as itself
    closed = Pi(Var(0), Lam(PROP, Var(0)))
    assert lower(closed) is closed.cod


_LOWERED = [
    arrow(Var(1), App(Var(2), Var(0)), "x"),
    Pi(PROP, App(Var(0), Var(3)), "p"),
    Lam(Pi(PROP, Var(0), "p"), arrow(Var(0), Var(1)), "f"),
]


@pytest.mark.parametrize("build", range(len(_LOWERED)))
def test_a_filled_lowered_codomain_is_invisible(build) -> None:
    """A product whose lowered codomain is kept behaves as a fresh one:
    the same repr, ==, hash and pickled bytes, and no copy carries it."""
    fresh, filled = _LOWERED[build], copy.deepcopy(_LOWERED[build])
    products = [u for u in _nodes(filled) if type(u) is Pi]
    assert products
    for u in products:
        lower(u)
        assert hasattr(u, "_low")
    assert repr(filled) == repr(fresh)
    assert filled == fresh and fresh == filled and hash(filled) == hash(fresh)
    for p in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(filled, p) == pickle.dumps(fresh, p)
    # copy.copy rebuilds the root alone and shares its fields; the others
    # rebuild every node
    shallow = copy.copy(filled)
    deep = [copy.deepcopy(filled)]
    deep += [pickle.loads(pickle.dumps(filled, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    kept = {id(u) for u in products}
    for u in [shallow, *deep]:
        assert repr(u) == repr(fresh) and u == fresh and hash(u) == hash(fresh)
        rebuilt = [v for v in _nodes(u) if type(v) is Pi and id(v) not in kept]
        assert all(not hasattr(v, "_low") for v in rebuilt)
        assert len(rebuilt) == (len(products) if u is not shallow else type(u) is Pi)


def _nodes(t: Term) -> list[Term]:
    match t:
        case App(a, b) | Lam(a, b) | Pi(a, b):
            return [t, *_nodes(a), *_nodes(b)]
    return [t]


def _leaves(t: Term) -> list[int]:
    """The ids of t's leaf nodes, left to right."""
    match t:
        case App(a, b) | Lam(a, b) | Pi(a, b):
            return _leaves(a) + _leaves(b)
    return [id(t)]


# ------------- interned leaves -------------


@pytest.mark.parametrize("k", [0, 7, 10**4, 10**9])
def test_one_var_node_per_index_built_on_demand(k) -> None:
    known, size = k in VARS, len(VARS)
    v = Var(k)
    assert Var(k) is v and Var(index=k) is v and VARS[k] is v
    assert len(VARS) == size + (not known)
    assert v.index == k and repr(v) == f"Var(index={k})"


def test_a_fresh_index_is_stored_as_a_plain_int() -> None:
    class Index(int):
        pass

    k = 5 * 10**9  # no other test builds it
    v = Var(Index(k))
    assert type(v.index) is int and Var(k) is v
    assert Var(True) is Var(1) and type(Var(True).index) is int
    with pytest.raises(TypeError):
        Var(0.5)


def test_one_sort_node_per_tag() -> None:
    assert Sort("Prop") is PROP and Sort("Type") is TYPE
    assert Sort(tag="Prop") is PROP


def test_threads_racing_to_build_fresh_indices_get_one_node_each() -> None:
    start = 3 * 10**9  # no other test builds these
    fresh = range(start, start + 2_000)
    assert not any(k in VARS for k in fresh)
    workers = (os.cpu_count() or 1) + 1
    gate = threading.Barrier(workers)
    built: list[list[Var]] = [[] for _ in range(workers)]

    def build(out: list[Var]) -> None:
        gate.wait(timeout=10)
        out += [Var(k) for k in fresh]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in built]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for k, nodes in zip(fresh, zip(*built, strict=True)):
        assert all(v is VARS[k] for v in nodes)


# ------------- deep terms -------------

DEEP = 10_000


def _deep(kind: str, leaf: Term) -> Term:
    t = leaf
    for i in range(DEEP):
        if kind == "left spine":
            t = App(t, Var(i % 3))
        elif kind == "Pi chain":
            t = Pi(Var(i % 3), t, "x")
        else:
            t = Lam(PROP, t)
    return t


@pytest.mark.parametrize("kind", ["left spine", "Pi chain", "Lam body"])
def test_eq_and_hash_need_no_recursion_on_deep_terms(kind) -> None:
    a, b = _deep(kind, Var(0)), _deep(kind, Var(0))
    c = _deep(kind, Var(1))
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert hash(a) == hash(b)
    assert hash(c) == hash(_deep(kind, Var(1)))


def _with_a_deep_stack(f):
    """f(), in a thread with stack and recursion limit enough for the
    oracle's recursive walks, and the recursive `repr`, on DEEP levels."""
    out: list = []
    limit, size = sys.getrecursionlimit(), threading.stack_size(256 << 20)
    sys.setrecursionlimit(limit + 4 * DEEP)
    try:
        th = threading.Thread(target=lambda: out.append(f()))
        th.start()
        th.join(timeout=60)
    finally:
        threading.stack_size(size)
        sys.setrecursionlimit(limit)
    assert not th.is_alive() and len(out) == 1
    return out[0]


@pytest.mark.parametrize("kind", ["left spine", "Pi chain", "Lam body"])
def test_eq_hash_and_repr_agree_with_the_oracle_on_deep_terms(kind) -> None:
    a, b, c = _deep(kind, Var(0)), _deep(kind, Var(0)), _deep(kind, Var(1))
    same, differ = _with_a_deep_stack(lambda: (structural_eq(a, b), structural_eq(a, c)))
    assert same and not differ
    assert (a == b) is same and (a == c) is differ
    assert hash(a) == hash(b)
    ra, rb, rc = _with_a_deep_stack(lambda: (repr(a), repr(b), repr(c)))
    assert ra == rb and ra != rc
