"""Normalization, conversion and normal-form classification."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path
from random import Random

import pytest

from cubematch.errors import FuelExhausted, NotNormal
from cubematch.reduction import (
    DEFAULT_MAX_STEPS,
    Fuel,
    beta_eta_normalize,
    converts,
    equivalent,
)
from cubematch.terms import PROP, App, Lam, Pi, Var, app
from innermost import beta_eta_normalize_innermost
from match_walks import Abstraction, Atomic, Product, classify_normal, is_normal
from named_ref import from_debruijn, to_debruijn
from smallstep import normalize_steps
from termgen import base_context, random_well_typed

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_an_argument_used_twice_is_reduced_twice() -> None:
    # ([x:U](g x x)) (([y:U]y) a), with U, a, g at #0, #1, #2 outside:
    # one step for the outer redex, then one for each copy of the argument
    twice = Lam(Var(0), App(App(Var(3), Var(0)), Var(0)))
    t = App(twice, App(Lam(Var(0), Var(0)), Var(1)))
    with Fuel() as fuel:
        assert beta_eta_normalize(t) == App(App(Var(2), Var(1)), Var(1))
    assert fuel.left == DEFAULT_MAX_STEPS - 3


@pytest.mark.parametrize("copies", [2, 3])
def test_self_application_spends_the_default_budget_within_5_s(copies) -> None:
    # ([x:U]x x) ([x:U]x x) and ([x:U]x x x) ([x:U]x x x) never normalize.
    # Each step binds x to a variable bound in turn; were that pushed as a
    # fresh closure around the variable, every step would take longer than
    # the one before.  A child process, so an overrun can be stopped.
    code = (
        "from cubematch.errors import FuelExhausted\n"
        "from cubematch.reduction import beta_eta_normalize\n"
        "from cubematch.terms import PROP, App, Lam, Var, app\n"
        f"w = Lam(PROP, app(*[Var(0)] * {copies}))\n"
        "try:\n"
        "    beta_eta_normalize(App(w, w))\n"
        "except FuelExhausted as e:\n"
        "    print(e)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=5,
    )
    assert proc.stdout == f"reduction fuel exhausted ({DEFAULT_MAX_STEPS} steps)\n"


def test_fuel_must_be_positive() -> None:
    with pytest.raises(ValueError):
        Fuel(0)


def test_equivalent_through_beta_and_eta() -> None:
    assert equivalent(App(Lam(Var(0), Var(0)), Var(4)), Var(4))
    assert equivalent(Lam(Var(0), App(Var(3), Var(0))), Var(2))
    assert not equivalent(Var(0), Var(1))  # distinct rigid heads


def _g_a_spine(depth: int, end: Var) -> App:
    """g a (g a (... (g a end))), with g and a at #3 and #2."""
    t = end
    for _ in range(depth):
        t = App(App(Var(3), Var(2)), t)
    return t


@pytest.mark.parametrize("depth", [2_000, 10_000])
def test_rigid_clash_refutes_deep_spines_behind_a_head_redex(depth) -> None:
    # ([x:U]([y:U]x) a) S_b against S_c, with b and c at #1 and #0: the head
    # steps bind S_b instead of copying it, and the spines are compared on
    # a work list, so depth costs no stack; c against b is a rigid clash
    lhs = App(Lam(PROP, App(Lam(PROP, Var(1)), Var(3))), _g_a_spine(depth, Var(1)))
    assert not converts(lhs, _g_a_spine(depth, Var(0)))
    assert converts(lhs, _g_a_spine(depth, Var(1)))


def test_rigid_clash_skips_one_term_under_one_environment_only() -> None:
    # (h r) against (h r), r = ([x:U]x) a shared: the arguments are the same
    # term under the same (empty) environment, so no step is spent on them
    r = App(Lam(PROP, Var(0)), Var(1))
    with Fuel(1) as fuel:
        assert converts(App(Var(2), r), App(Var(2), r))
    assert fuel.left == 1
    # ([x:U] h (f x)) b against ([x:U] h (f x)) c, (f x) shared: the same
    # term under two environments, compared, and b is not c
    body = App(Var(3), App(Var(4), Var(0)))
    assert not converts(App(Lam(PROP, body), Var(1)), App(Lam(PROP, body), Var(0)))


def _lam_chain(depth: int, last: int) -> Lam:
    """[x1:U]...[xdepth:U] f x1 ... x(depth-1) y, with U at #0 and f at #1
    outside the chain and y the variable at index `last` inside it."""
    t = app(Var(depth + 1), *(Var(depth - 1 - i) for i in range(depth - 1)), Var(last))
    for i in reversed(range(depth)):
        t = Lam(Var(i), t)
    return t


def test_converts_decides_deep_chains_and_spines() -> None:
    # 10^4 binders, a spine of 10^4 arguments, and 10^4 nested arguments:
    # every pair waits on a work list, not on the stack.  Reading back
    # recurses once per level, so deciding conversion by normal forms
    # (`equivalent`) raises FuelExhausted ("term nests too deeply to
    # normalize") from about 1,000 levels on.
    depth = 10_000
    chain = _lam_chain(depth, 0)
    assert converts(chain, _lam_chain(depth, 0))
    assert not converts(chain, _lam_chain(depth, 1))
    # the chain eta-contracts to f: 10^4 eta comparisons
    assert converts(chain, Var(1))
    assert not converts(_lam_chain(depth, 1), Var(1))
    spine = _g_a_spine(depth, Var(1))
    assert converts(spine, _g_a_spine(depth, Var(1)))
    assert not converts(spine, _g_a_spine(depth, Var(0)))


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
