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
from functools import lru_cache
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

import match_walks as old
from cubematch import problems, reduction, search, terms, typecheck
from cubematch.errors import ContextError, CubeError, FuelExhausted
from cubematch.problems import (
    QContext,
    QDecl,
    Quant,
    SubstTriple,
    Substitution,
    apply_subst,
    comparison_env,
    comparison_levels,
    replacement_entry,
    subst_well_typed,
)
from cubematch.reduction import (
    Fuel,
    beta_eta_normalize,
    converts,
    equivalent,
    instantiate,
    normalize_under,
)
from cubematch.terms import PROP, TYPE, App, Lam, Pi, Term, Var, app, arrow, free_indices, shift, subst
from cubematch.syntax import parse_problem, parse_term
from cubematch.typecheck import PRESETS, Scope, check_type, infer_type, wf_context
from conftest import FIXTURES
from termgen import base_context, random_elementary_problem, random_well_typed
from test_kernel_invariants import _expand_domains, _expanded_context, _swap_argument

HINTS = (None, "x", "y")
BASE = len(base_context())

randoms = st.randoms(use_true_random=False)
props = settings(deadline=None)
specs = st.sampled_from(sorted(PRESETS))


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def redex_terms(indices: int) -> st.SearchStrategy[Term]:
    """Terms like raw_terms, with eta expansions [x:A](g x) and
    self-applications [x:A](x x) planted, so that eta steps and terms
    without a normal form are common."""
    leaves = st.one_of(st.integers(0, indices - 1).map(Var), st.sampled_from([PROP, TYPE]))
    hints = st.sampled_from(HINTS)
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(App, sub, sub),
            st.builds(Lam, sub, sub, hints),
            st.builds(Pi, sub, sub, hints),
            st.builds(lambda a, g: Lam(a, App(old.shift(g, 1, 0), Var(0))), sub, sub),
            st.builds(lambda a: Lam(a, App(Var(0), Var(0))), sub),
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
    assert terms.describe(t) == old.describe(t)
    assert shift(t, 0, c) is t
    if all(k < j for k in free_indices(t)):
        assert subst(t, j, s) is t


# ------------- reduction -------------


@props
@given(randoms)
def test_normalization_agrees_and_shares_normal_forms(rng) -> None:
    t = _hinted(_expand_domains(random_well_typed(rng, max_size=20), BASE, rng), rng)
    nf = beta_eta_normalize(t)
    assert repr(nf) == repr(old.beta_eta_normalize(t))
    assert old.is_normal(nf)
    assert beta_eta_normalize(nf) is nf
    steps = rng.randint(1, 6)

    def normalize_within_a_block() -> Term:
        with Fuel(steps):
            return beta_eta_normalize(t)

    assert _outcome(normalize_within_a_block) == _outcome(old.beta_eta_normalize, t, Fuel(steps))


def _spends_as_substitution(normalize, t: Term, steps: int) -> None:
    """normalize() within Fuel(steps) gives what normal-order substitution
    gives on t, and leaves the same fuel."""
    fuel, tank = Fuel(steps), old.Tank(Fuel(steps))

    def within_the_budget() -> Term:
        with fuel:
            return normalize()

    expected = _outcome(lambda: old.eta_fixpoint(old.beta(t, tank), tank))
    assert _outcome(within_the_budget) == expected
    assert fuel.left == tank.left


@props
@given(redex_terms(6), st.integers(1, 60))
def test_normalization_spends_the_same_steps_as_substitution(t, steps) -> None:
    _spends_as_substitution(lambda: beta_eta_normalize(t), t, steps)


@props
@given(redex_terms(6), redex_terms(6), st.integers(1, 60))
def test_instantiation_spends_the_same_steps_as_substitution(cod, arg, steps) -> None:
    _spends_as_substitution(lambda: instantiate(cod, arg), old.subst(cod, 0, arg), steps)


@st.composite
def variable_argument_redexes(draw) -> Term:
    """[y1:Prop]...[yo:Prop](([x1:Prop]...[xk:Prop] h v1 ... vm) M1 ... Mj).

    The inner spine's head h is rigid, a y or a free index, and its
    arguments v are variables.  Read back, each v is a free index, a level
    (a y, or an x bound to a variable M or left unconsumed) or a closure (an
    x bound to any other M, such as a redex), read under the x binders
    left unconsumed.
    """
    outer, k = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    variables = st.integers(0, outer + k + 1).map(Var)
    head = draw(st.integers(k, outer + k + 1).map(Var))
    t = app(head, *draw(st.lists(variables, min_size=1, max_size=4)))
    for _ in range(k):
        t = Lam(PROP, t, draw(st.sampled_from(HINTS)))
    args = redex_terms(outer + 2)
    outside = st.one_of(
        st.integers(0, outer + 1).map(Var),
        args,
        st.builds(lambda a, b: App(Lam(PROP, a), b), args, args),
    )
    t = app(t, *draw(st.lists(outside, min_size=1, max_size=k + 1)))
    for _ in range(outer):
        t = Lam(PROP, t)
    return t


@settings(deadline=None, max_examples=400)
@given(variable_argument_redexes(), st.integers(1, 60))
def test_variable_arguments_read_back_as_substitution_gives_them(t, steps) -> None:
    _spends_as_substitution(lambda: beta_eta_normalize(t), t, steps)


SHARED = 100  # Var(SHARED + i) in a drawn term stands for shared subterm i

_atoms = st.one_of(st.integers(0, 5).map(Var), st.sampled_from([PROP, TYPE]))
_leaves = st.one_of(_atoms, st.integers(0, 2).map(lambda i: Var(SHARED + i)))
_normal_terms = st.recursive(
    _atoms,
    lambda sub: st.one_of(st.builds(App, sub, sub), st.builds(Lam, sub, sub), st.builds(Pi, sub, sub)),
    max_leaves=6,
).filter(old.is_normal)
_fresh_terms = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.builds(lambda h, args: app(h, *args), sub, st.lists(sub, min_size=1, max_size=3)),
        st.builds(Lam, sub, sub),
        st.builds(Pi, sub, sub),
        # a product whose codomain is headed by its own binder
        st.builds(lambda a, args: Pi(a, app(Var(0), *args)), sub, st.lists(sub, max_size=2)),
        # a head redex, and a self-application that never normalizes
        st.builds(lambda a, b, s: App(Lam(a, b), s), sub, sub, sub),
        st.builds(lambda a: Lam(a, App(Var(0), Var(0))), sub),
    ),
    max_leaves=10,
)
# rigid spines and products down to where the walk stops, then anything
_rigid_terms = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.builds(lambda h, args: app(h, *args), _atoms, st.lists(sub, min_size=2, max_size=3)),
        st.builds(Pi, sub, sub),
        st.builds(lambda a, args: Pi(a, app(Var(0), *args)), sub, st.lists(sub, max_size=2)),
        _fresh_terms,
    ),
    max_leaves=8,
)


@st.composite
def clash_pairs(draw) -> tuple[Term, Term]:
    """Two sides that agree in part, for the conversion test.

    Each side is a copy of one term in which some subterms are replaced by
    fresh ones and others are wrapped in a head redex that contracts back
    to them, so the two sides reach one subterm after different steps and
    under environments of different lengths.  Both sides hold the same
    three subterms as the same objects.  These are normal, because the two
    walks skip different pairs: the package skips one term under one
    environment, the substitution version one object.  An argument bound
    under a binder that is later contracted reaches the first as itself
    and the second as a copy; a product reached as one object on both
    sides has its codomain compared by the first under two environments.
    Comparing a normal term spends no step, so there the verdict and the
    fuel still agree.
    """
    shared = [draw(_normal_terms) for _ in range(3)]

    def fill(t: Term) -> Term:
        match t:
            case Var(i) if i >= SHARED:
                return shared[i - SHARED]
            case App(fn, arg):
                return App(fill(fn), fill(arg))
            case Lam(dom, body):
                return Lam(fill(dom), fill(body))
            case Pi(dom, cod):
                return Pi(fill(dom), fill(cod))
        return t

    def disguise(t: Term) -> Term:
        if any(t is s for s in shared):
            return t
        k = draw(st.integers(0, 19))
        if k == 0:
            return fill(draw(_fresh_terms))
        match t:
            case App(fn, arg):
                t = App(disguise(fn), disguise(arg))
            case Lam(dom, body):
                t = Lam(disguise(dom), disguise(body))
            case Pi(dom, cod):
                t = Pi(disguise(dom), disguise(cod))
            case Var(i):
                t = Var(i)
        if k <= 4:
            return App(Lam(PROP, old.shift(t, 1, 0)), fill(draw(_fresh_terms)))
        if k == 5:
            return App(Lam(PROP, Var(0)), t)
        return t

    t = fill(app(draw(_atoms), *draw(st.lists(_rigid_terms, min_size=2, max_size=3))))
    return disguise(t), disguise(t)


@props
@given(clash_pairs(), st.integers(1, 60))
def test_rigid_clash_spends_as_the_substitution_refutation(pair, steps) -> None:
    """`converts` gives the verdict or error, and leaves the fuel, of the
    copying conversion of the substituted terms; and a pair that converts
    and normalizes has one normal form.  The pairs need not be typed, so a
    pair that does not convert may still have one normal form: two
    abstractions whose domains differ may eta-contract to one term.  On
    typed pairs, test_converts_agrees_with_the_normal_forms in
    test_kernel_invariants checks both verdicts."""
    fuel, tank = Fuel(steps), old.Tank(Fuel(steps))

    def within_the_budget() -> bool:
        with fuel:
            return converts(*pair)

    verdict = _outcome(within_the_budget)
    assert verdict == _outcome(old.converts, *pair, tank)
    assert fuel.left == tank.left
    if verdict == "True":
        try:
            nf1, nf2 = (old.beta_eta_normalize(t, Fuel(100)) for t in pair)
        except FuelExhausted:
            return
        assert old.structural_eq(nf1, nf2)


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


def _nested_abstraction(rng: Random) -> Term:
    """[x1:A1]...[xn:An]body over base_context(), n from 1 to 4; x1 is a
    predicate in half the draws.

    Each domain and the body are drawn over base_context() and the binders
    before them: elements of U, propositions, a predicate P : U -> Prop,
    proofs of (P u), dependent products (u:U)(P u), function types and
    variables; the body may also be Prop or a kind, whose type Type has no
    sort, a polymorphic product, a dependent application (h u) of some
    h : (u:U)(P u), or a redex.  Nothing checks that the parts fit the
    calculus.
    """
    roles: list[str] = []

    def at(pos: int) -> Var:
        """Slot pos of base_context() and the binders, outermost first."""
        return Var(BASE + len(roles) - 1 - pos)

    def bound(role: str) -> list[Var]:
        return [at(BASE + i) for i, r in enumerate(roles) if r == role]

    def element() -> Term:
        u = rng.choice([at(2), *bound("elem")])  # a : U, or a binder of type U
        return App(at(4), u) if rng.random() < 0.3 else u  # f : U -> U

    doms: list[Term] = []
    for i in range(rng.randint(1, 4)):
        u = at(0)
        if i == 0 and rng.random() < 0.5:
            roles.append("pred")
            doms.append(Pi(u, PROP))
            continue
        pool = [("elem", u), ("prop", PROP), ("pred", Pi(u, PROP)), ("fun", arrow(u, u))]
        for pred in bound("pred"):
            pool += [("proof", App(pred, element())), ("dep", Pi(u, App(shift(pred, 1, 0), Var(0))))]
        pool += [("proof", x) for x in bound("prop")]
        role, dom = rng.choice(pool)
        roles.append(role)
        doms.append(dom)
    u = at(0)
    preds, deps = bound("pred"), bound("dep")
    kinds = ["sort", "product", "predicate", "dependent", "redex", "variable", "element"]
    kind = rng.choice(kinds)
    if kind == "sort":
        body = rng.choice([PROP, Pi(u, PROP)])  # Prop, or a kind
    elif kind == "product":
        bodies = [arrow(u, u), Pi(PROP, Var(0))]
        bodies += [Pi(u, App(shift(pred, 1, 0), Var(0))) for pred in preds]
        body = rng.choice(bodies)
    elif kind == "predicate" and preds:
        body = App(rng.choice(preds), element())  # a type, of sort Type
    elif kind == "dependent" and deps:
        body = App(rng.choice(deps), element())  # a proof, of sort Prop
    elif kind == "redex":
        # ([y:U](P y)) u, a type, or ([y:U]y) u
        inner = [Var(0), *(App(shift(pred, 1, 0), Var(0)) for pred in preds)]
        body = App(Lam(u, rng.choice(inner)), element())
    elif kind == "variable":
        body = Var(rng.randrange(len(roles)))
    else:
        body = element()
    for dom in reversed(doms):
        body = Lam(dom, body, rng.choice(HINTS))
    return body


@settings(deadline=None, max_examples=500)
@given(randoms, specs)
def test_typing_nested_abstractions_agrees_with_the_oracle(rng, spec_name) -> None:
    """infer_type, check_type and Scope.sort give the oracle's type, or raise
    its error, where the abstractions take their bodies' sorts from
    synthesis and the oracle sorts each body's type again."""
    ctx, spec = _expanded_context(rng), PRESETS[spec_name]
    t = _nested_abstraction(rng)
    if rng.random() < 0.5:
        t = _expand_domains(t, BASE, rng)
    want = _outcome(old.infer_type, ctx, t, spec)
    assert _outcome(infer_type, ctx, t, spec) == want
    assert _outcome(Scope(ctx.decls, spec).sort, t) == _outcome(old._Scope(ctx, spec, None).sort, t)
    if isinstance(want, str):
        ty = old.infer_type(ctx, t, spec)
        assert check_type(ctx, t, ty, spec)
        assert not check_type(ctx, t, PROP, spec)
        try:
            scope = wf_context(ctx, spec)
        except ContextError:
            return
        # every slot declared, so the sort synthesis returns is known
        assert typecheck._abstraction(scope, t) == (ty, old._Scope(ctx, spec, None).sort(ty))
    else:
        assert _outcome(check_type, ctx, t, PROP, spec) == want


# ------------- substitutions -------------


def _random_substitution(rng: Random, data, p, replacements) -> Substitution:
    """A substitution over p.qctx: about a third of the unknowns left
    unbound, local contexts of up to two declarations, and each replacement
    drawn by replacements(n) over the n slots it lives in."""
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
        term = data.draw(replacements(image_len + len(local)))
        triples.append(SubstTriple(q, local, term))
        image_len += len(local)
    return Substitution(p.qctx, tuple(triples))


@props
@given(randoms, st.data())
def test_apply_subst_agrees(rng, data) -> None:
    p = random_elementary_problem(rng)
    s = _random_substitution(rng, data, p, lambda n: raw_terms(n + 1))
    extra = data.draw(raw_terms(len(p.qctx) + 2))
    for t in (p.lhs, p.rhs, extra):
        assert _outcome(apply_subst, s, t) == _outcome(old.apply_subst, s, t)
    for t in (p.lhs, p.rhs):
        assert apply_subst(Substitution(p.qctx), t) is t
    # a side reaching only slots after every bound one is its own image
    bound = max((tr.pos for tr in s.triples), default=-1)
    n = len(p.qctx)
    for t in (p.lhs, p.rhs):
        if all(n - 1 - k > bound for k in free_indices(t)):
            assert apply_subst(s, t) is t
    # read in the image's numbering, a normal kept type, or side, whose
    # slots are kept and sit as far from it in the image as in the
    # problem reads back as itself
    for q, (env, img) in _image_envs(s).items():
        for t in (p.lhs, p.rhs) if q == n else (p.qctx.decls[q].ty,):
            slots = [q - 1 - k for k in free_indices(t)]
            if old.is_normal(t) and all(
                s.triple_at(r) is None and img - s.slots_before(r) == q - r for r in slots
            ):
                assert normalize_under(t, env, img) is t


def _image_envs(s: Substitution) -> dict[int, tuple[tuple, int]]:
    """For each kept slot q, and for q = len(s.qctx), the environment
    subst_well_typed reads q's declared type under, in the image's
    numbering, and the depth it reads back at: the length of the image of
    the slots before q.  Slots past a replacement with an index outside its
    image are left out, since the check stops there."""
    env: tuple = ()
    img = 0
    out: dict[int, tuple[tuple, int]] = {}
    for q in range(len(s.qctx)):
        tr = s.triple_at(q)
        if tr is None:
            out[q] = env, img
            env = (img,) + env
            img += 1
            continue
        img += len(tr.local)
        if any(k >= img for k in free_indices(tr.term)):
            break
        env = (replacement_entry(tr.term, tuple(range(img - 1, -1, -1))),) + env
    else:
        out[len(s.qctx)] = env, img
    return out


def _within(f, budget: Fuel):
    """f() inside a `with budget:` block."""
    with budget:
        return f()


@lru_cache(maxsize=None)
def _replacements(n: int) -> st.SearchStrategy[Term]:
    """Replacements over n >= 1 slots: bare variables, arbitrary terms, and
    terms with head redexes, eta redexes and self-applications."""
    head_redexes = st.builds(
        lambda a, b, x: App(Lam(a, b), x), raw_terms(n), redex_terms(n + 1), redex_terms(n)
    )
    return st.one_of(st.integers(0, n - 1).map(Var), raw_terms(n), redex_terms(n), head_redexes)


def _beta_normal(t: Term) -> bool:
    match t:
        case App(Lam(), _):
            return False
        case App(fn, arg) | Lam(fn, arg) | Pi(fn, arg):
            return _beta_normal(fn) and _beta_normal(arg)
    return True


@props
@given(randoms, st.data(), st.integers(1, 12))
def test_reading_under_the_image_environment_spends_as_the_copies(rng, data, steps) -> None:
    """Comparing the normal forms, and `converts`, of two sides read under
    comparison_env(s) give the verdict or error, and leave the fuel, of the
    same calls on the sides' copies apply_subst(s, ·) read under no
    environment.

    The environment numbers the image slots in the problem's own numbering,
    not the image's; the verdicts agree because no two image slots share a
    level.  `converts` skips a pair that is one term under one environment.
    Under comparison_env(s) every occurrence of a slot reaches its
    replacement as one such term, while the copies are separate objects;
    comparing a replacement that is beta-normal spends nothing, so
    `converts` is compared only when every replacement is.
    """
    p = random_elementary_problem(rng)
    assume(p.qctx.existential_positions())
    s = _random_substitution(rng, data, p, _replacements)
    env = comparison_env(s)
    n = len(p.qctx)
    assert len(env) == n
    assert all(type(e) is int or type(e[0]) is not Var for e in env)
    # kept slots read as their own levels, local slots below them; no two
    # image slots share a level
    levels = comparison_levels(s)
    kept = [q - n for q in range(n) if s.triple_at(q) is None]
    local = [lv for tr in s.triples for lv in levels[tr.pos][: len(tr.local)]]
    assert len(set(kept + local)) == len(kept) + len(local) == s.image_len
    assert all(lv < -n for lv in local)
    assert all(env[n - 1 - q] == q - n for q in range(n) if s.triple_at(q) is None)
    pairs = [(p.lhs, p.rhs), (data.draw(redex_terms(n)), data.draw(redex_terms(n)))]
    normal = all(_beta_normal(tr.term) for tr in s.triples)
    for lhs, rhs in pairs:
        copies = apply_subst(s, lhs), apply_subst(s, rhs)
        checks = [
            (
                lambda: normalize_under(lhs, env) == normalize_under(rhs, env),
                lambda: equivalent(*copies),
            )
        ]
        if normal:
            checks.append((lambda: converts(lhs, rhs, env), lambda: converts(*copies)))
        for under_env, on_copies in checks:
            fuel, copy_fuel = Fuel(steps), Fuel(steps)
            assert _outcome(_within, under_env, fuel) == _outcome(_within, on_copies, copy_fuel)
            assert fuel.left == copy_fuel.left


@props
@given(randoms, st.data())
def test_a_normal_term_without_bound_slots_reads_back_as_itself(rng, data) -> None:
    """Under comparison_env(s), a normal term over p.qctx that mentions no
    slot s binds is handed back as the same object, whatever s removes or
    splices in before the slots it does mention."""
    p = random_elementary_problem(rng)
    assume(p.qctx.existential_positions())
    s = _random_substitution(rng, data, p, _replacements)
    env = comparison_env(s)
    n = len(p.qctx)
    bound = {tr.pos for tr in s.triples}
    extra = [data.draw(raw_terms(n)) for _ in range(3)]
    for t in [p.lhs, p.rhs, *extra]:
        if old.is_normal(t) and not any(n - 1 - k in bound for k in free_indices(t)):
            assert normalize_under(t, env) is t


@props
@given(redex_terms(6), st.integers(0, 3), st.integers(1, 60))
def test_reading_under_offset_levels_spends_as_shifting(t, k, steps) -> None:
    """Normalizing t under the levels -1 - k, -2 - k, ... is normalizing
    shift(t, k, 0): the same result, with hints, and the same fuel left."""
    levels = tuple(range(-1 - k, -7 - k, -1))
    fuel, shift_fuel = Fuel(steps), Fuel(steps)
    got = _outcome(_within, lambda: normalize_under(t, levels), fuel)
    assert got == _outcome(_within, lambda: beta_eta_normalize(shift(t, k, 0)), shift_fuel)
    assert fuel.left == shift_fuel.left


# Replacements for the unknowns of the target fixtures, over the image of
# the slots before them: solutions, solutions with redexes planted, and
# near misses.  One that names a bound slot is not drawn when that slot is
# bound.
_GOOD = {
    "thm1_target.prob": {
        "F": ["[x:U]x", "[x:U]([y:U]y) x", "[x:U]a", "([g:U -> U]g) ([x:U]x)"],
        "f": [
            "[x1:U -> U][x2:P (x1 a)]x2",
            "[x1:U -> U][x2:P (x1 (([y:U]y) a))]x2",
            "[x1:U -> U][x2:P (x1 (F a))]x2",
        ],
    },
    "erratum_target.prob": {
        "X": ["A", "([Y:Prop]Y) A", "A -> A"],
        "f": [
            "[h:Prop -> Prop][x:P (h A)]x",
            "[h:Prop -> Prop][x:P (h X)]x",
            "[h:Prop -> Prop][x:P (h (([Y:Prop]Y) A))]x",
        ],
    },
    "thm2_invalid_target.prob": {
        "X": ["A", "([Y:Prop]Y) A"],
        "f": ["[h:Prop -> Prop][x:h A]x", "[h:Prop -> Prop][x:h X]x"],
    },
}


@lru_cache(maxsize=None)
def _target_fixture(name: str):
    return parse_problem((FIXTURES / name).read_text())


def _fixture_substitution(rng: Random, data, p, good: dict[str, list[str]]) -> Substitution:
    """A substitution over p.qctx: about a third of the unknowns left
    unbound, local contexts of up to two declarations (Prop, the outermost
    slot, or a term of any shape), and each replacement one of good's for
    that unknown, read over the image so far, or drawn by _replacements."""
    triples: list[SubstTriple] = []
    image: list[str] = []
    for q, d in enumerate(p.qctx.decls):
        if d.quant is Quant.FORALL or rng.random() < 0.3:
            image.append(d.name)
            continue
        local: list[QDecl] = []
        for i in range(rng.randrange(3)):
            n = len(image) + i
            ty = rng.choice([PROP, Var(n - 1), data.draw(raw_terms(n))])
            local.append(QDecl(Quant.EXISTS, ty, f"l{q}x{i}"))
        scope = image + [gd.name for gd in local]
        term = None
        if good.get(d.name) and rng.random() < 0.7:
            try:
                term = parse_term(rng.choice(good[d.name]), scope)
            except CubeError:
                pass
        if term is None:
            term = data.draw(_replacements(len(scope)))
        triples.append(SubstTriple(q, QContext(tuple(local)), term))
        image = scope
    return Substitution(p.qctx, tuple(triples))


@props
@given(randoms, st.data(), st.integers(1, 12), st.sampled_from([*sorted(_GOOD), None]))
def test_bound_slot_targets_read_in_place_spend_as_the_copies(rng, data, steps, fixture) -> None:
    """subst_well_typed, which reads each declared type under the
    environment of its prefix's image, gives the image context or the
    error, and leaves the fuel, of the copy in match_walks, which
    normalizes an apply_subst_in_prefix copy of it."""
    if fixture is None:
        spec, p = PRESETS["lP"], random_elementary_problem(rng)
        s = _random_substitution(rng, data, p, _replacements)
    else:
        spec, p = _target_fixture(fixture)
        s = _fixture_substitution(rng, data, p, _GOOD[fixture])
    fuel, copy_fuel = Fuel(steps), Fuel(steps)
    got = _outcome(_within, lambda: subst_well_typed(s, p.qctx, spec), fuel)
    assert got == _copying_outcome(s, p.qctx, spec, copy_fuel)
    assert fuel.left == copy_fuel.left


def _copying_outcome(s: Substitution, qctx: QContext, spec, fuel: Fuel):
    """_outcome of old.subst_well_typed within fuel, with each kept slot's
    copy in the image it returns normalized outside that budget: the
    package's image holds those normal forms."""
    try:
        with fuel:
            image = iter(old.subst_well_typed(s, qctx, spec))
    except (CubeError, ValueError) as e:
        return type(e), str(e)
    out: list[QDecl] = []
    for q in range(len(qctx)):
        tr = s.triple_at(q)
        if tr is None:
            d = next(image)
            out.append(QDecl(d.quant, beta_eta_normalize(d.ty), d.name))
        else:
            out.extend(next(image) for _ in tr.local)
    return repr(QContext(tuple(out)))


# A universal slot after each unknown, whose declared type mentions it; e
# mentions none, d both unknowns.
_KEPT_OVER_UNKNOWNS = """calculus lP
forall U : Prop
forall P : U -> Prop
forall a : U
forall h : U -> U
exists X : U
forall c : P X
forall e : P a
exists F : P X -> U
forall d : P (F c)
unify F c = h X
"""
_KEPT_GOOD = {
    "X": ["a", "h a", "([y:U]y) a", "([y:U]h y) (h a)", "([g:U -> U]g a) ([y:U]y)"],
    "F": ["[x:P X]h X", "[x:P X]([y:U]y) X", "[x:P X]a", "([y:U][x:P X]y) a"],
}


@props
@given(randoms, st.data(), st.integers(1, 12))
def test_kept_slots_over_bound_ones_read_in_place_spend_as_the_copies(rng, data, steps) -> None:
    """A universal slot whose declared type mentions an earlier unknown is
    read under the environment of its prefix's image and sort-checked in
    normal form: the image context or the error, and the fuel left, are
    those of normalizing match_walks' copy.  A normal kept type whose slots
    are kept and sit as far from it in the image as in the problem is
    handed back as the same object."""
    spec, p = parse_problem(_KEPT_OVER_UNKNOWNS)
    s = _fixture_substitution(rng, data, p, _KEPT_GOOD)
    fuel, copy_fuel = Fuel(steps), Fuel(steps)
    got = _outcome(_within, lambda: subst_well_typed(s, p.qctx, spec), fuel)
    assert got == _copying_outcome(s, p.qctx, spec, copy_fuel)
    assert fuel.left == copy_fuel.left
    if isinstance(got, str):
        image = subst_well_typed(s, p.qctx, spec)
        for q, d in enumerate(p.qctx.decls):
            slots = [q - 1 - k for k in free_indices(d.ty)]
            if s.triple_at(q) is None and all(
                s.triple_at(r) is None
                and s.slots_before(q) - s.slots_before(r) == q - r
                for r in slots
            ):
                assert image.decls[s.slots_before(q)].ty is d.ty


def test_a_bound_slot_type_past_its_prefix_raises_as_the_copy_does() -> None:
    # F : #2 over a one-slot prefix; under the local context [X:Prop, x:X]
    # the escaping index would read as X, which x inhabits
    qctx = QContext((QDecl(Quant.FORALL, PROP, "U"), QDecl(Quant.EXISTS, Var(2), "F")))
    local = QContext((QDecl(Quant.EXISTS, PROP, "X"), QDecl(Quant.EXISTS, Var(0), "x")))
    s = Substitution(qctx, (SubstTriple(1, local, Var(0)),))
    got = _outcome(subst_well_typed, s, qctx, PRESETS["lP"])
    assert got == _outcome(old.subst_well_typed, s, qctx, PRESETS["lP"])
    assert got == (ValueError, "index 2 escapes the quantified context (1 slots)")
    # a kept slot: c : #1 over a one-slot prefix, which the copy rejects too
    qctx = QContext((QDecl(Quant.FORALL, PROP, "U"), QDecl(Quant.FORALL, Var(1), "c")))
    got = _outcome(subst_well_typed, Substitution(qctx), qctx, PRESETS["lP"])
    assert got == _outcome(old.subst_well_typed, Substitution(qctx), qctx, PRESETS["lP"])
    assert got == (ValueError, "index 1 escapes the quantified context (1 slots)")
    # under a binder the index is counted from the prefix, (x:U) #2 naming
    # the free index 1; the copy names the index as written, 2
    qctx = QContext((QDecl(Quant.FORALL, PROP, "U"), QDecl(Quant.FORALL, Pi(Var(0), Var(2)), "c")))
    got = _outcome(subst_well_typed, Substitution(qctx), qctx, PRESETS["lP"])
    assert got == (ValueError, "index 1 escapes the quantified context (1 slots)")
    assert _outcome(old.subst_well_typed, Substitution(qctx), qctx, PRESETS["lP"]) == (
        ValueError,
        "index 2 escapes the quantified context (1 slots)",
    )


# ------------- the walks dispatch on type(t) -------------

WALKS = [
    terms.shift,
    terms._shift,
    terms.subst,
    terms.free_indices,
    terms.map_free,
    terms.describe,
    terms.spine,
    reduction._apply,
    reduction._nf,
    reduction.converts,
    typecheck._infer,
    typecheck._abstraction,
    problems.apply_subst,
    problems._order,
    search.decision_size,
    search.enumerate_candidates,
    search._inhabitants,
]
TERM_CLASSES = {"Term", "Var", "Sort", "App", "Lam", "Pi"}


def _names_a_term_class(node: ast.expr) -> bool:
    """node is a term class, or a tuple holding one."""
    if isinstance(node, ast.Tuple):
        return any(_names_a_term_class(e) for e in node.elts)
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in TERM_CLASSES


@pytest.mark.parametrize("walk", WALKS, ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_kernel_walks_use_no_match_statement(walk) -> None:
    """No `match` and no `isinstance(t, App)`: the walks test `type(t)`."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(walk)))
    assert not any(isinstance(node, ast.Match) for node in ast.walk(tree))
    isinstance_calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and len(node.args) == 2
    ]
    assert not any(_names_a_term_class(call.args[1]) for call in isinstance_calls)
