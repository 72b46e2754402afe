"""The kernel's walks agree with their `match` formulations in match_walks.

The package's walks dispatch on `type(t)` and hand back unchanged
subterms as the same objects.  Their results must still equal those of
the older formulation with binder hints included, which `==` ignores, so
results are compared through `repr`; errors must carry the same class and
message.  The sharing the walks promise is asserted with `is`.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import match_walks as old
from cubematch import problems, reduction, search, terms, typecheck
from cubematch.errors import CubeError
from cubematch.problems import (
    QContext,
    QDecl,
    Quant,
    SubstTriple,
    Substitution,
    apply_subst,
    apply_subst_in_prefix,
)
from cubematch.reduction import Fuel, beta_eta_normalize, is_normal
from cubematch.terms import PROP, TYPE, App, Lam, Pi, Term, Var, free_indices, shift, subst
from cubematch.typecheck import PRESETS, infer_type
from termgen import base_context, random_elementary_problem, random_well_typed
from test_kernel_invariants import _expand_domains, _expanded_context, _swap_argument

HINTS = (None, "x", "y")
BASE = len(base_context())

randoms = st.randoms(use_true_random=False)
props = settings(deadline=None)
specs = st.sampled_from(sorted(PRESETS))


def raw_terms(indices: int) -> st.SearchStrategy[Term]:
    """Terms of any shape, well-typed or not, with indices below `indices`."""
    leaves = st.one_of(st.integers(0, indices - 1).map(Var), st.sampled_from([PROP, TYPE]))
    hints = st.sampled_from(HINTS)
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(App, sub, sub),
            st.builds(Lam, sub, sub, hints),
            st.builds(Pi, sub, sub, hints),
        ),
        max_leaves=24,
    )


def _hinted(t: Term, rng: Random) -> Term:
    """t with a random display hint on every binder."""
    match t:
        case App(fn, arg):
            return App(_hinted(fn, rng), _hinted(arg, rng))
        case Lam(dom, body):
            return Lam(_hinted(dom, rng), _hinted(body, rng), rng.choice(HINTS))
        case Pi(dom, cod):
            return Pi(_hinted(dom, rng), _hinted(cod, rng), rng.choice(HINTS))
    return t


def _outcome(f, *args) -> str | tuple[type, str]:
    """repr of f's result, or the class and message of the error it raised."""
    try:
        return repr(f(*args))
    except (CubeError, ValueError) as e:
        return type(e), str(e)


# ------------- terms -------------


@props
@given(raw_terms(8), raw_terms(8), st.integers(-2, 3), st.integers(0, 3), st.integers(0, 3))
def test_shift_subst_and_free_indices_agree(t, s, d, c, j) -> None:
    assert _outcome(shift, t, d, c) == _outcome(old.shift, t, d, c)
    assert repr(subst(t, j, s)) == repr(old.subst(t, j, s))
    assert free_indices(t) == old.free_indices(t)
    assert is_normal(t) == old.is_normal(t)
    assert shift(t, 0, c) is t


# ------------- reduction -------------


@props
@given(randoms)
def test_normalization_agrees_and_shares_normal_forms(rng) -> None:
    t = _hinted(_expand_domains(random_well_typed(rng, max_size=20), BASE, rng), rng)
    nf = beta_eta_normalize(t)
    assert repr(nf) == repr(old.beta_eta_normalize(t))
    assert is_normal(nf) and old.is_normal(nf)
    assert beta_eta_normalize(nf) is nf
    steps = rng.randint(1, 6)

    def normalize_within_a_block() -> Term:
        with Fuel(steps):
            return beta_eta_normalize(t)

    assert _outcome(normalize_within_a_block) == _outcome(old.beta_eta_normalize, t, Fuel(steps))


# ------------- typing -------------


@props
@given(randoms, specs)
def test_inferred_types_agree_on_generated_terms(rng, spec_name) -> None:
    ctx = _expanded_context(rng) if rng.random() < 0.5 else base_context()
    t = _hinted(_expand_domains(random_well_typed(rng, max_size=20), BASE, rng), rng)
    if rng.random() < 0.5:
        t = _swap_argument(t, rng)
    spec = PRESETS[spec_name]
    assert _outcome(infer_type, ctx, t, spec) == _outcome(old.infer_type, ctx, t, spec)


@props
@given(raw_terms(BASE + 2), specs)
def test_inferred_types_agree_on_arbitrary_terms(t, spec_name) -> None:
    ctx, spec = base_context(), PRESETS[spec_name]
    assert _outcome(infer_type, ctx, t, spec) == _outcome(old.infer_type, ctx, t, spec)


# ------------- substitutions -------------


@props
@given(randoms, st.data())
def test_apply_subst_agrees(rng, data) -> None:
    p = random_elementary_problem(rng)
    triples: list[SubstTriple] = []
    image_len = 0
    for q, d in enumerate(p.qctx.decls):
        if d.quant is Quant.FORALL or rng.random() < 0.3:
            image_len += 1
            continue
        local = QContext(
            tuple(
                QDecl(Quant.EXISTS, data.draw(raw_terms(image_len + i + 1)))
                for i in range(rng.randrange(3))
            )
        )
        term = data.draw(raw_terms(image_len + len(local) + 1))
        triples.append(SubstTriple(q, local, term))
        image_len += len(local)
    s = Substitution(p.qctx, tuple(triples))
    extra = data.draw(raw_terms(len(p.qctx) + 2))
    for t in (p.lhs, p.rhs, extra):
        assert _outcome(apply_subst, s, t) == _outcome(old.apply_subst, s, t)
    for t in (p.lhs, p.rhs):
        assert apply_subst(Substitution(p.qctx), t) is t
    for q, d in enumerate(p.qctx.decls):
        assert repr(apply_subst_in_prefix(s, d.ty, q)) == repr(
            old.apply_subst_in_prefix(s, d.ty, q)
        )


# ------------- the walks dispatch on type(t) -------------

WALKS = [
    terms.shift,
    terms._shift,
    terms.subst,
    terms.free_indices,
    reduction._whnf,
    reduction._beta,
    reduction._eta_pass,
    reduction.is_normal,
    typecheck._infer,
    problems.apply_subst_in_prefix,
    problems._order,
    search.decision_size,
]


@pytest.mark.parametrize("walk", WALKS, ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_kernel_walks_use_no_match_statement(walk) -> None:
    tree = ast.parse(textwrap.dedent(inspect.getsource(walk)))
    assert not any(isinstance(node, ast.Match) for node in ast.walk(tree))
