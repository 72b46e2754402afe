"""De Bruijn terms for the cube calculi.

Five constructors: the two sorts, variables, application, annotated
abstraction and products.  An index n occurring under k binders with
n >= k points at the enclosing context slot n - k, counting inward from
the innermost declaration.  Terms are immutable and hashable; binder
display hints never take part in equality or hashing.
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
    match t:
        case Var(k):
            if k < cutoff:
                return t
            if k + d < 0:
                raise ValueError(f"shift would make index {k} negative (d={d})")
            return Var(k + d)
        case App(fn, arg):
            return App(shift(fn, d, cutoff), shift(arg, d, cutoff))
        case Lam(dom, body, hint):
            return Lam(shift(dom, d, cutoff), shift(body, d, cutoff + 1), hint)
        case Pi(dom, cod, hint):
            return Pi(shift(dom, d, cutoff), shift(cod, d, cutoff + 1), hint)
        case _:
            return t


def subst(t: Term, j: int, s: Term) -> Term:
    """Replace index j by s, dropping higher indices by one.

    The renormalization makes `subst(body, 0, arg)` exactly the beta step
    for a consumed binder, and `subst(shift(t, 1, 0), 0, s) == t`.
    """
    match t:
        case Var(k):
            if k == j:
                return s
            if k > j:
                return Var(k - 1)
            return t
        case App(fn, arg):
            return App(subst(fn, j, s), subst(arg, j, s))
        case Lam(dom, body, hint):
            return Lam(subst(dom, j, s), subst(body, j + 1, shift(s, 1, 0)), hint)
        case Pi(dom, cod, hint):
            return Pi(subst(dom, j, s), subst(cod, j + 1, shift(s, 1, 0)), hint)
        case _:
            return t


def free_indices(t: Term) -> set[int]:
    """Context slots referenced by t, adjusted across binders."""
    out: set[int] = set()

    def walk(t: Term, depth: int) -> None:
        match t:
            case Var(k):
                if k >= depth:
                    out.add(k - depth)
            case App(fn, arg):
                walk(fn, depth)
                walk(arg, depth)
            case Lam(dom, body):
                walk(dom, depth)
                walk(body, depth + 1)
            case Pi(dom, cod):
                walk(dom, depth)
                walk(cod, depth + 1)

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
    match t:
        case App(fn, arg):
            return 1 + node_count(fn) + node_count(arg)
        case Lam(dom, body):
            return 1 + node_count(dom) + node_count(body)
        case Pi(dom, cod):
            return 1 + node_count(dom) + node_count(cod)
        case _:
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
