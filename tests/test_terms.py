"""Shift, substitution and free-index behavior of the de Bruijn core."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from cubematch.terms import (
    PROP,
    TYPE,
    App,
    Lam,
    Pi,
    Var,
    app,
    arrow,
    free_indices,
    node_count,
    pick_fresh,
    shift,
    spine,
    subst,
)
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


def _terms(max_index: int = 6):
    base = st.one_of(
        st.builds(Var, st.integers(min_value=0, max_value=max_index)),
        st.just(PROP),
        st.just(TYPE),
    )
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.builds(App, sub, sub),
            st.builds(Lam, sub, sub),
            st.builds(Pi, sub, sub),
        ),
        max_leaves=12,
    )


@given(_terms(), st.integers(min_value=0, max_value=4))
def test_prop_shift_zero_identity(t, cutoff) -> None:
    assert shift(t, 0, cutoff) == t


@given(_terms(max_index=4), _terms(max_index=4))
def test_prop_shift_subst_cancellation(t, s) -> None:
    assert subst(shift(t, 1, 0), 0, s) == t


@given(_terms())
def test_prop_node_count_positive(t) -> None:
    assert node_count(t) >= 1
