"""De Bruijn terms for the cube calculi.

Five constructors: the two sorts, variables, application, annotated
abstraction and products.  An index n occurring under k binders with
n >= k points at the enclosing context slot n - k, counting inward from
the innermost declaration.  Terms are immutable and hashable; binder
display hints never take part in equality or hashing.

The kernel's recursive walks (here, in `reduction`, `typecheck`,
`problems` and `search`) dispatch on `type(t) is Var/App/Lam/Pi` and read
fields directly rather than using structural `match`, which costs an
isinstance check and a field unpacking per node.  A walk that rebuilds
terms hands back its input object when it changes nothing, so unchanged
subterms stay physically shared: `shift(t, 0, c) is t`, and normalizing
a normal term allocates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

__all__ = [
    "Term",
    "Sort",
    "Var",
    "App",
    "Lam",
    "Pi",
    "PROP",
    "TYPE",
    "shift",
    "subst",
    "free_indices",
    "arrow",
    "app",
    "spine",
    "node_count",
    "describe",
    "pick_fresh",
]


@dataclass(frozen=True)
class Sort:
    """One of the two sorts, tagged "Prop" or "Type"."""

    tag: str

    def __post_init__(self) -> None:
        if self.tag not in ("Prop", "Type"):
            raise ValueError(f"bad sort tag: {self.tag!r}")


@dataclass(frozen=True)
class Var:
    """A de Bruijn index (always non-negative)."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"negative de Bruijn index: {self.index}")


@dataclass(frozen=True)
class App:
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Lam:
    """Annotated abstraction [x:dom]body."""

    dom: Term
    body: Term
    hint: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Pi:
    """Product (x:dom)cod; prints as dom -> cod when cod ignores the binder."""

    dom: Term
    cod: Term
    hint: str | None = field(default=None, compare=False)


Term = Sort | Var | App | Lam | Pi

PROP = Sort("Prop")
TYPE = Sort("Type")


def shift(t: Term, d: int, cutoff: int = 0) -> Term:
    """Move free indices >= cutoff by d; bound structure is untouched.

    Ending up below zero means a still-referenced binder was dropped,
    which is a defect in the caller, not a property of the input.
    """
    if d == 0:
        return t
    return _shift(t, d, cutoff)


def _shift(t: Term, d: int, cutoff: int) -> Term:
    tt = type(t)
    if tt is Var:
        k = t.index
        if k < cutoff:
            return t
        if k + d < 0:
            raise ValueError(f"shift would make index {k} negative (d={d})")
        return Var(k + d)
    if tt is App:
        fn = _shift(t.fn, d, cutoff)
        arg = _shift(t.arg, d, cutoff)
        if fn is t.fn and arg is t.arg:
            return t
        return App(fn, arg)
    if tt is Lam:
        dom = _shift(t.dom, d, cutoff)
        body = _shift(t.body, d, cutoff + 1)
        if dom is t.dom and body is t.body:
            return t
        return Lam(dom, body, t.hint)
    if tt is Pi:
        dom = _shift(t.dom, d, cutoff)
        cod = _shift(t.cod, d, cutoff + 1)
        if dom is t.dom and cod is t.cod:
            return t
        return Pi(dom, cod, t.hint)
    return t


def subst(t: Term, j: int, s: Term) -> Term:
    """Replace index j by s, dropping higher indices by one.

    The renormalization makes `subst(body, 0, arg)` exactly the beta step
    for a consumed binder, and `subst(shift(t, 1, 0), 0, s) == t`.
    """
    # s is shifted under binders only where j occurs, once per depth
    lifted: dict[int, Term] = {0: s}

    def go(t: Term, depth: int) -> Term:
        tt = type(t)
        if tt is Var:
            k = t.index - depth
            if k < j:
                return t
            if k > j:
                return Var(t.index - 1)
            r = lifted.get(depth)
            if r is None:
                r = lifted[depth] = _shift(s, depth, 0)
            return r
        if tt is App:
            fn = go(t.fn, depth)
            arg = go(t.arg, depth)
            if fn is t.fn and arg is t.arg:
                return t
            return App(fn, arg)
        if tt is Lam:
            dom = go(t.dom, depth)
            body = go(t.body, depth + 1)
            if dom is t.dom and body is t.body:
                return t
            return Lam(dom, body, t.hint)
        if tt is Pi:
            dom = go(t.dom, depth)
            cod = go(t.cod, depth + 1)
            if dom is t.dom and cod is t.cod:
                return t
            return Pi(dom, cod, t.hint)
        return t

    return go(t, 0)


def free_indices(t: Term) -> set[int]:
    """Context slots referenced by t, adjusted across binders."""
    out: set[int] = set()

    def walk(t: Term, depth: int) -> None:
        tt = type(t)
        if tt is Var:
            if t.index >= depth:
                out.add(t.index - depth)
        elif tt is App:
            walk(t.fn, depth)
            walk(t.arg, depth)
        elif tt is Lam:
            walk(t.dom, depth)
            walk(t.body, depth + 1)
        elif tt is Pi:
            walk(t.dom, depth)
            walk(t.cod, depth + 1)

    walk(t, 0)
    return out


def arrow(dom: Term, cod: Term, hint: str | None = None) -> Pi:
    """Non-dependent product dom -> cod (cod hoisted over the unused binder)."""
    return Pi(dom, shift(cod, 1, 0), hint)


def app(fn: Term, *args: Term) -> Term:
    """Left-nested application (fn a1 ... an)."""
    out = fn
    for a in args:
        out = App(out, a)
    return out


def spine(t: Term) -> tuple[Term, tuple[Term, ...]]:
    """Unfold applications into (head, args) with args in application order."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    return t, tuple(reversed(args))


def node_count(t: Term) -> int:
    tt = type(t)
    if tt is App:
        return 1 + node_count(t.fn) + node_count(t.arg)
    if tt is Lam:
        return 1 + node_count(t.dom) + node_count(t.body)
    if tt is Pi:
        return 1 + node_count(t.dom) + node_count(t.cod)
    return 1


def describe(t: Term) -> str:
    """Index-based rendering for diagnostics; needs no name information."""
    match t:
        case Sort(tag):
            return tag
        case Var(k):
            return f"#{k}"
        case App():
            head, args = spine(t)
            return "(" + " ".join(describe(x) for x in (head, *args)) + ")"
        case Lam(dom, body):
            return f"[:{describe(dom)}]{describe(body)}"
        case Pi(dom, cod):
            return f"(:{describe(dom)}){describe(cod)}"
    raise AssertionError("unreachable")


def pick_fresh(hint: str | None, taken: Collection[str]) -> str:
    """A display name from the hint, numeric-suffixed away from `taken`."""
    if hint and hint not in taken:
        return hint
    base = hint or "x"
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"
