"""Beta/eta reduction, normalization, conversion, normal-form classification.

Strong normalization holds only for well-typed terms (and even there is
taken on faith), so every walk is budgeted by a Fuel allowance and raises
FuelExhausted instead of spinning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FuelExhausted, NotNormal
from .terms import App, Lam, Pi, Term, Var, free_indices, shift, spine, subst

__all__ = [
    "Fuel",
    "DEFAULT_MAX_STEPS",
    "NormalClass",
    "Abstraction",
    "Product",
    "Atomic",
    "beta_eta_normalize",
    "beta_eta_normalize_innermost",
    "equivalent",
    "is_normal",
    "classify_normal",
]

DEFAULT_MAX_STEPS = 100_000


@dataclass(frozen=True)
class Fuel:
    """Reduction step allowance."""

    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self) -> None:
        if self.max_steps <= 0:
            raise ValueError("fuel must be positive")


class _Tank:
    """Mutable countdown shared by one normalization walk."""

    __slots__ = ("left",)

    def __init__(self, fuel: Fuel | None):
        self.left = DEFAULT_MAX_STEPS if fuel is None else fuel.max_steps

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise FuelExhausted("reduction fuel exhausted")


@dataclass(frozen=True)
class Abstraction:
    """Normal form starting with a lambda."""


@dataclass(frozen=True)
class Product:
    """Normal form starting with a product."""


@dataclass(frozen=True)
class Atomic:
    """Normal form (head a1 ... an); the head is a variable or a sort."""

    head: Term
    args: tuple[Term, ...]


NormalClass = Abstraction | Product | Atomic


def _whnf(t: Term, tank: _Tank) -> tuple[Term, list[Term]]:
    """Contract head redexes only; returns the rigid head and pending args."""
    args: list[Term] = []
    while True:
        match t:
            case App(fn, arg):
                args.append(arg)
                t = fn
            case Lam(_, body) if args:
                tank.spend()
                t = subst(body, 0, args.pop())
            case _:
                return t, list(reversed(args))


def _beta(t: Term, tank: _Tank) -> Term:
    """Full beta-normal form, normal order (leftmost-outermost)."""
    head, args = _whnf(t, tank)
    match head:
        case Lam(dom, body, hint):
            head = Lam(_beta(dom, tank), _beta(body, tank), hint)
        case Pi(dom, cod, hint):
            head = Pi(_beta(dom, tank), _beta(cod, tank), hint)
        case _:
            pass
    out = head
    for a in args:
        out = App(out, _beta(a, tank))
    return out


def _inner(t: Term, tank: _Tank) -> Term:
    """Full beta-normal form, arguments first (rightmost-innermost)."""
    while True:
        match t:
            case App(fn, arg):
                arg_n = _inner(arg, tank)
                fn_n = _inner(fn, tank)
                if isinstance(fn_n, Lam):
                    tank.spend()
                    t = subst(fn_n.body, 0, arg_n)
                    continue
                return App(fn_n, arg_n)
            case Lam(dom, body, hint):
                return Lam(_inner(dom, tank), _inner(body, tank), hint)
            case Pi(dom, cod, hint):
                return Pi(_inner(dom, tank), _inner(cod, tank), hint)
            case _:
                return t


def _eta_pass(t: Term, tank: _Tank) -> tuple[Term, bool]:
    """One bottom-up sweep collapsing [x:T](t x) to t when x is not free in t."""
    match t:
        case App(fn, arg):
            fn2, c1 = _eta_pass(fn, tank)
            arg2, c2 = _eta_pass(arg, tank)
            return (App(fn2, arg2), True) if c1 or c2 else (t, False)
        case Pi(dom, cod, hint):
            dom2, c1 = _eta_pass(dom, tank)
            cod2, c2 = _eta_pass(cod, tank)
            return (Pi(dom2, cod2, hint), True) if c1 or c2 else (t, False)
        case Lam(dom, body, hint):
            dom2, c1 = _eta_pass(dom, tank)
            body2, c2 = _eta_pass(body, tank)
            match body2:
                case App(g, Var(0)) if 0 not in free_indices(g):
                    tank.spend()
                    return shift(g, -1, 0), True
            return (Lam(dom2, body2, hint), True) if c1 or c2 else (t, False)
        case _:
            return t, False


def _eta_fixpoint(t: Term, tank: _Tank) -> Term:
    changed = True
    while changed:
        t, changed = _eta_pass(t, tank)
    return t


def beta_eta_normalize(t: Term, fuel: Fuel | None = None) -> Term:
    """The beta-normal, maximally eta-contracted form of t.

    Contraction order is beta first (normal order), then eta to a fixed
    point; on beta-normal input eta cannot re-create a beta redex, so the
    result has neither kind of redex.
    """
    tank = _Tank(fuel)
    try:
        return _eta_fixpoint(_beta(t, tank), tank)
    except RecursionError:
        raise FuelExhausted("term nests too deeply to normalize") from None


def beta_eta_normalize_innermost(t: Term, fuel: Fuel | None = None) -> Term:
    """Arguments-first route to the same normal form.

    Exists as an independent path for confluence smoke checks; callers
    wanting the contractual normalizer use beta_eta_normalize.
    """
    tank = _Tank(fuel)
    try:
        return _eta_fixpoint(_inner(t, tank), tank)
    except RecursionError:
        raise FuelExhausted("term nests too deeply to normalize") from None


def equivalent(t1: Term, t2: Term, fuel: Fuel | None = None) -> bool:
    """Beta-eta conversion: same normal form."""
    return beta_eta_normalize(t1, fuel) == beta_eta_normalize(t2, fuel)


def is_normal(t: Term) -> bool:
    """No beta redex and no eta redex anywhere."""
    match t:
        case App(Lam(), _):
            return False
        case App(fn, arg):
            return is_normal(fn) and is_normal(arg)
        case Lam(dom, body):
            match body:
                case App(g, Var(0)) if 0 not in free_indices(g):
                    return False
            return is_normal(dom) and is_normal(body)
        case Pi(dom, cod):
            return is_normal(dom) and is_normal(cod)
        case _:
            return True


def classify_normal(t: Term) -> NormalClass:
    """Split a normal term into abstraction, product, or head and spine."""
    if not is_normal(t):
        raise NotNormal("term still has a beta or eta redex")
    match t:
        case Lam():
            return Abstraction()
        case Pi():
            return Product()
        case _:
            head, args = spine(t)
            return Atomic(head, args)
