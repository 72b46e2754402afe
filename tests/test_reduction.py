"""Normalization, conversion and normal-form classification."""

from __future__ import annotations

import threading
from random import Random

import pytest

from cubematch.errors import FuelExhausted, NotNormal
from cubematch.reduction import (
    Abstraction,
    Atomic,
    Fuel,
    Product,
    beta_eta_normalize,
    classify_normal,
    equivalent,
    is_normal,
)
from cubematch.terms import PROP, App, Lam, Pi, Var, app
from innermost import beta_eta_normalize_innermost
from named_ref import from_debruijn, to_debruijn
from smallstep import normalize_steps
from termgen import base_context, random_well_typed


def test_beta_identity() -> None:
    assert beta_eta_normalize(App(Lam(Var(0), Var(0)), Var(3))) == Var(3)


def test_eta_collapse_when_variable_not_free() -> None:
    # [x:U](f x) -> f ; under the binder f is #6, outside it is #5
    assert beta_eta_normalize(Lam(Var(0), App(Var(6), Var(0)))) == Var(5)


def test_eta_kept_when_variable_occurs() -> None:
    t = Lam(Var(0), App(Var(0), Var(0)))
    assert beta_eta_normalize(t) == t


def test_nested_eta_cascades() -> None:
    # [x][y]((f x) y): the inner collapse exposes the outer one
    t = Lam(Var(0), Lam(Var(1), App(App(Var(9), Var(1)), Var(0))))
    assert beta_eta_normalize(t) == Var(7)


TWO_STEPS = App(Lam(Var(0), Var(0)), App(Lam(Var(0), Var(0)), Var(1)))


def test_fuel_exhaustion_raises() -> None:
    with pytest.raises(FuelExhausted), Fuel(1):
        beta_eta_normalize(TWO_STEPS)
    with Fuel(2):
        assert beta_eta_normalize(TWO_STEPS) == Var(1)


def test_a_fuel_block_is_one_budget_for_every_normalization_in_it() -> None:
    with pytest.raises(FuelExhausted, match=r"^reduction fuel exhausted \(3 steps\)$"), Fuel(3):
        equivalent(TWO_STEPS, TWO_STEPS)
    assert equivalent(TWO_STEPS, TWO_STEPS)  # outside a block, a budget per call


def test_a_nested_fuel_block_restores_the_outer_budget() -> None:
    with Fuel(3) as outer:
        with Fuel(4):
            assert equivalent(TWO_STEPS, TWO_STEPS)
        assert outer.left == 3
        beta_eta_normalize(TWO_STEPS)
        assert outer.left == 1


def test_a_fuel_block_is_not_seen_by_another_thread() -> None:
    results = []
    with Fuel(1):
        worker = threading.Thread(target=lambda: results.append(beta_eta_normalize(TWO_STEPS)))
        worker.start()
        worker.join()
    assert results == [Var(1)]


def test_fuel_must_be_positive() -> None:
    with pytest.raises(ValueError):
        Fuel(0)


def test_equivalent_through_beta_and_eta() -> None:
    assert equivalent(App(Lam(Var(0), Var(0)), Var(4)), Var(4))
    assert equivalent(Lam(Var(0), App(Var(3), Var(0))), Var(2))
    assert not equivalent(Var(0), Var(1))  # distinct rigid heads


def test_classify_normal_cases() -> None:
    assert classify_normal(Lam(Var(0), Var(0))) == Abstraction()
    assert classify_normal(Pi(Var(0), Var(1))) == Product()
    got = classify_normal(app(Var(2), Var(1), Var(0)))
    assert got == Atomic(Var(2), (Var(1), Var(0)))
    assert classify_normal(PROP) == Atomic(PROP, ())


def test_classify_normal_rejects_redexes() -> None:
    with pytest.raises(NotNormal):
        classify_normal(App(Lam(Var(0), Var(0)), Var(1)))
    with pytest.raises(NotNormal):
        classify_normal(Lam(Var(0), App(Var(3), Var(0))))


def test_the_transported_goal_normalizes_to_the_spine(lp, term_source) -> None:
    # the constructed goal instantiated with the identity unknown collapses
    # to (G c d); checked against the independent small-step interpreter
    from cubematch import SubstTriple, Substitution, QContext, apply_subst
    from cubematch.encodings import build_thm1, thm1_witness

    art = build_thm1(term_source, lp)
    tau = Substitution(
        term_source.qctx,
        (SubstTriple(2, QContext(), Lam(Var(1), Var(0), "x")),),
    )
    sigma = thm1_witness(tau, art)
    applied = apply_subst(sigma, art.target.lhs)
    expected = apply_subst(sigma, art.target.rhs)
    assert beta_eta_normalize(applied) == expected

    scope = [f"v{i}" for i in range(sigma.image_len)]
    oracle = to_debruijn(normalize_steps(from_debruijn(applied, scope)), scope)
    assert oracle == expected


def test_strategies_and_oracle_agree_on_random_corpus() -> None:
    rng = Random(411)
    ctx = base_context()
    scope = [d.name or f"v{i}" for i, d in enumerate(ctx.decls)]
    for _ in range(150):
        t = random_well_typed(rng, max_size=18)
        nf = beta_eta_normalize(t)
        assert nf == beta_eta_normalize_innermost(t)
        assert beta_eta_normalize(nf) == nf  # idempotent
        assert is_normal(nf)
        classify_normal(nf)  # classification never errors on normal forms
        oracle = to_debruijn(normalize_steps(from_debruijn(t, scope)), scope)
        assert oracle == nf


def test_equivalent_is_an_equivalence_on_normalizing_terms() -> None:
    rng = Random(77)
    ts = [random_well_typed(rng, max_size=12) for _ in range(12)]
    for t in ts:
        assert equivalent(t, t)
    for t in ts:
        for s in ts:
            assert equivalent(t, s) == equivalent(s, t)
    for a in ts[:6]:
        for b in ts[:6]:
            for c in ts[:6]:
                if equivalent(a, b) and equivalent(b, c):
                    assert equivalent(a, c)
