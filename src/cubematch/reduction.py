"""Beta/eta reduction, normalization, conversion, normal-form classification.

Strong normalization holds only for well-typed terms (and even there is
taken on faith), so every normalization draws on a Fuel budget and raises
FuelExhausted instead of spinning.  `with Fuel(n):` makes n steps the one
budget shared by every normalization in the block (a context variable,
so other threads do not see it); outside any block each call draws a
default Fuel of its own.
"""

from __future__ import annotations

from contextvars import ContextVar, Token
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
    "equivalent",
    "is_normal",
    "classify_normal",
]

DEFAULT_MAX_STEPS = 100_000


class Fuel:
    """A countdown of reduction steps; a context manager sharing it."""

    __slots__ = ("max_steps", "left", "_tokens")

    def __init__(self, max_steps: int = DEFAULT_MAX_STEPS):
        if max_steps <= 0:
            raise ValueError("fuel must be positive")
        self.max_steps = max_steps
        self.left = max_steps
        self._tokens: list[Token[Fuel | None]] = []

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise FuelExhausted(f"reduction fuel exhausted ({self.max_steps} steps)")

    def __enter__(self) -> Fuel:
        self._tokens.append(_BUDGET.set(self))
        return self

    def __exit__(self, *exc: object) -> None:
        _BUDGET.reset(self._tokens.pop())


_BUDGET: ContextVar[Fuel | None] = ContextVar("cubematch_fuel", default=None)


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


def _whnf(t: Term, fuel: Fuel) -> tuple[Term, list[Term]]:
    """Contract head redexes only; returns the rigid head and pending args."""
    args: list[Term] = []
    while True:
        tt = type(t)
        if tt is App:
            args.append(t.arg)
            t = t.fn
        elif tt is Lam and args:
            fuel.spend()
            t = subst(t.body, 0, args.pop())
        else:
            args.reverse()
            return t, args


def _beta(t: Term, fuel: Fuel) -> Term:
    """Full beta-normal form, normal order (leftmost-outermost).

    A subterm without a beta redex comes back as the same object.
    """
    tt = type(t)
    if tt is App:
        nodes: list[App] = []
        head = t
        while type(head) is App:
            nodes.append(head)
            head = head.fn
        if type(head) is Lam:
            head, args = _whnf(t, fuel)
            out = _beta(head, fuel)
            for a in args:
                out = App(out, _beta(a, fuel))
            return out
        out = _beta(head, fuel)
        for node in reversed(nodes):
            arg = _beta(node.arg, fuel)
            out = node if out is node.fn and arg is node.arg else App(out, arg)
        return out
    if tt is Lam:
        dom = _beta(t.dom, fuel)
        body = _beta(t.body, fuel)
        if dom is t.dom and body is t.body:
            return t
        return Lam(dom, body, t.hint)
    if tt is Pi:
        dom = _beta(t.dom, fuel)
        cod = _beta(t.cod, fuel)
        if dom is t.dom and cod is t.cod:
            return t
        return Pi(dom, cod, t.hint)
    return t


def _eta_redex(body: Term) -> bool:
    """body is (g #0) with #0 not free in g, so [x:T]body contracts to g."""
    if type(body) is not App:
        return False
    arg = body.arg
    return type(arg) is Var and arg.index == 0 and 0 not in free_indices(body.fn)


def _eta_pass(t: Term, fuel: Fuel) -> Term:
    """One bottom-up sweep collapsing [x:T](t x) to t when x is not free in t.

    Returns t itself when the sweep contracts nothing.
    """
    tt = type(t)
    if tt is App:
        fn = _eta_pass(t.fn, fuel)
        arg = _eta_pass(t.arg, fuel)
        if fn is t.fn and arg is t.arg:
            return t
        return App(fn, arg)
    if tt is Pi:
        dom = _eta_pass(t.dom, fuel)
        cod = _eta_pass(t.cod, fuel)
        if dom is t.dom and cod is t.cod:
            return t
        return Pi(dom, cod, t.hint)
    if tt is Lam:
        dom = _eta_pass(t.dom, fuel)
        body = _eta_pass(t.body, fuel)
        if _eta_redex(body):
            fuel.spend()
            return shift(body.fn, -1, 0)
        if dom is t.dom and body is t.body:
            return t
        return Lam(dom, body, t.hint)
    return t


def beta_eta_normalize(t: Term) -> Term:
    """The beta-normal, maximally eta-contracted form of t.

    Contraction order is beta first (normal order), then one bottom-up eta
    pass; on beta-normal input eta cannot re-create a beta redex, so the
    result has neither kind of redex.  Each step spends one unit of the
    enclosing `with Fuel(...)` block's budget, or of a default Fuel of
    this call's own outside any block.
    """
    fuel = _BUDGET.get() or Fuel()
    try:
        # One eta pass is the fixed point: on beta-normal input, a
        # bottom-up contraction creates no redex the same pass has not
        # already visited (it only changes the subtree it sits in, whose
        # ancestors are tested after it, and keeps the free variables).
        return _eta_pass(_beta(t, fuel), fuel)
    except RecursionError:
        raise FuelExhausted("term nests too deeply to normalize") from None


def equivalent(t1: Term, t2: Term) -> bool:
    """Beta-eta conversion: same normal form."""
    return beta_eta_normalize(t1) == beta_eta_normalize(t2)


def is_normal(t: Term) -> bool:
    """No beta redex and no eta redex anywhere."""
    tt = type(t)
    if tt is App:
        return type(t.fn) is not Lam and is_normal(t.fn) and is_normal(t.arg)
    if tt is Lam:
        return not _eta_redex(t.body) and is_normal(t.dom) and is_normal(t.body)
    if tt is Pi:
        return is_normal(t.dom) and is_normal(t.cod)
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
