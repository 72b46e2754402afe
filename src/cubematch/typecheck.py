"""Context formation and type synthesis for the eight cube calculi.

A calculus is a rule set R of sort pairs steering product formation; the
synthesis rules are syntax-directed, so one pass computes the (normal-form)
type when it exists and a precise error when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import (
    ContextError,
    CubeError,
    NoRuleApplies,
    NotAType,
    SortPairMissing,
    TypeHasNoType,
    TypingError,
)
from .reduction import beta_eta_normalize
from .terms import TYPE, App, Lam, Pi, Sort, Term, Var, describe, free_indices, shift, subst

__all__ = [
    "SortPair",
    "PP",
    "PT",
    "TP",
    "TT",
    "ALL_PAIRS",
    "CubeSpec",
    "PRESETS",
    "cube_spec",
    "Decl",
    "Context",
    "wf_context",
    "infer_type",
    "check_type",
    "sort_of",
]

SortPair = tuple[str, str]

PP: SortPair = ("Prop", "Prop")
PT: SortPair = ("Prop", "Type")
TP: SortPair = ("Type", "Prop")
TT: SortPair = ("Type", "Type")
ALL_PAIRS: frozenset[SortPair] = frozenset({PP, PT, TP, TT})


def pair_text(pair: SortPair) -> str:
    return f"{pair[0]}-{pair[1]}"


@dataclass(frozen=True)
class CubeSpec:
    """The rule set selecting one calculus; Prop-Prop is always present."""

    rules: frozenset[SortPair]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.rules <= ALL_PAIRS:
            raise ValueError("rules must be sort pairs over Prop/Type")
        if PP not in self.rules:
            raise ValueError("the pair Prop-Prop is mandatory")

    def allows(self, pair: SortPair) -> bool:
        return pair in self.rules

    def missing(self, required: Iterable[SortPair]) -> frozenset[SortPair]:
        return frozenset(required) - self.rules

    def label(self) -> str:
        """The calculus as a file header names it; the name is used only
        when it is the preset with these rules, so the header re-parses."""
        if self.name in PRESETS and PRESETS[self.name].rules == self.rules:
            return self.name
        pairs = ", ".join(pair_text(p) for p in sorted(self.rules))
        return f"custom ({pairs})"


PRESETS: dict[str, CubeSpec] = {
    "stlc": CubeSpec(frozenset({PP}), name="stlc"),
    "lP": CubeSpec(frozenset({PP, PT}), name="lP"),
    "l2": CubeSpec(frozenset({PP, TP}), name="l2"),
    "lw-weak": CubeSpec(frozenset({PP, TT}), name="lw-weak"),
    "lw": CubeSpec(frozenset({PP, TP, TT}), name="lw"),
    "lP2": CubeSpec(frozenset({PP, PT, TP}), name="lP2"),
    "lPw-weak": CubeSpec(frozenset({PP, PT, TT}), name="lPw-weak"),
    "coc": CubeSpec(ALL_PAIRS, name="coc"),
}


def cube_spec(name: str) -> CubeSpec:
    """Look up a calculus preset by its surface name."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(PRESETS)
        raise CubeError(f"unknown calculus {name!r}; expected one of: {known}") from None


@dataclass(frozen=True)
class Decl:
    """One declaration x:T; the name is display-only."""

    ty: Term
    name: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Context:
    """Ordered declarations, outermost first; Var(0) is the innermost."""

    decls: tuple[Decl, ...] = ()

    def __len__(self) -> int:
        return len(self.decls)

    def __iter__(self) -> Iterator[Decl]:
        return iter(self.decls)

    def extended(self, ty: Term, name: str | None = None) -> Context:
        return Context(self.decls + (Decl(ty, name),))

    def lookup(self, index: int) -> Term:
        """Type of Var(index), shifted into the full context."""
        pos = len(self.decls) - 1 - index
        if pos < 0:
            raise NoRuleApplies(f"unbound de Bruijn index {index}")
        return shift(self.decls[pos].ty, index + 1, 0)


def sort_of(ctx: Context, T: Term, spec: CubeSpec) -> Sort:
    """The sort of T (Prop or Type); errors when T is not a type."""
    return Scope(ctx.decls, spec).sort(T)


def wf_context(ctx: Context, spec: CubeSpec) -> None:
    """Every declared type must be well-sorted in its prefix."""
    scope = Scope((), spec)
    for q, d in enumerate(ctx.decls):
        try:
            scope.declare(d.ty)
        except TypingError as e:
            label = d.name or f"#{q}"
            pair = e.pair if isinstance(e, SortPairMissing) else None
            raise ContextError(
                f"declaration {q} ({label}) is ill-formed: {e.message}",
                position=q,
                name=d.name,
                pair=pair,
            ) from e


def infer_type(ctx: Context, t: Term, spec: CubeSpec) -> Term:
    """Synthesize the normal-form type of t; the context is trusted.

    Both judgements of the calculus are covered: wf_context for contexts,
    this function for terms.  Every returned type is beta-eta normal, and
    the synthesis relies on that: conversion at application arguments is
    `==` on two normal forms.  Each declared type of ctx is normalized at
    most once per call, on its first use, and a binder's domain once,
    after it has been found well-sorted.
    """
    return Scope(ctx.decls, spec).infer(t)


def check_type(ctx: Context, t: Term, T: Term, spec: CubeSpec) -> bool:
    """True iff the synthesized type converts to T (T itself is trusted).

    T is normalized once and compared with `==` to the synthesized type,
    which is already normal.
    """
    return Scope(ctx.decls, spec).check(t, beta_eta_normalize(T))


class Scope:
    """One typing context, grown by declaring types, and the queries on it.

    The package does its typing in these.  `sort_of`, `infer_type` and
    `check_type` use one per call; `wf_context`, `subst_well_typed` and
    `enumerate_candidates` keep one for a whole walk over many declarations
    or candidates, so each declared type is normalized once however often
    it is looked up.  The operations are `declare` (sort check, then push
    the normal form), `infer` and `check`.

    Slots below `declared` hold the caller's trusted types, normalized in
    place on first lookup; every other slot arrives normal.  Each slot
    memoises the shifted copies lookup hands out, keyed by distance, and
    lower memoises lowered codomains.  A typing error abandons the scope,
    so pushes need no matching pop then.  Its normalizations draw on the
    enclosing `with Fuel(...)` budget; a scope holds no budget of its own.
    """

    __slots__ = ("tys", "shifted", "lowered", "declared", "spec")

    def __init__(self, decls: tuple[Decl, ...], spec: CubeSpec):
        self.tys: list[Term] = [d.ty for d in decls]
        self.declared = len(decls)
        self.shifted: list[dict[int, Term] | None] = [None] * self.declared
        self.lowered: dict[int, tuple[Pi, Term | None]] = {}
        self.spec = spec

    def declare(self, ty: Term) -> Sort:
        """Check that ty is a type here, then push its normal form; its sort."""
        s = self.sort(ty)
        self.push(beta_eta_normalize(ty))
        return s

    def infer(self, t: Term) -> Term:
        """The normal-form type of t."""
        return _infer(self, t)

    def check(self, t: Term, nf: Term) -> bool:
        """True iff t's type is nf, which must be normal."""
        return _infer(self, t) == nf

    def sort(self, T: Term) -> Sort:
        """The sort of T; errors when T is not a type."""
        ty = _infer(self, T)
        if not isinstance(ty, Sort):
            raise NotAType(f"{describe(T)} has type {describe(ty)}, not a sort")
        return ty

    def push(self, nf: Term) -> None:
        """Enter a binder or declaration whose type nf is already normal."""
        self.tys.append(nf)
        self.shifted.append(None)

    def pop(self) -> None:
        self.tys.pop()
        self.shifted.pop()

    def lookup(self, k: int) -> Term:
        """Normal type of Var(k), shifted into the whole scope."""
        pos = len(self.tys) - 1 - k
        if pos < 0:
            raise NoRuleApplies(f"unbound de Bruijn index {k}")
        memo = self.shifted[pos]
        if memo is None:
            if pos < self.declared:
                self.tys[pos] = beta_eta_normalize(self.tys[pos])
            memo = self.shifted[pos] = {}
        else:
            ty = memo.get(k)
            if ty is not None:
                return ty
        ty = memo[k] = shift(self.tys[pos], k + 1, 0)
        return ty

    def lower(self, pi: Pi) -> Term | None:
        """pi's codomain moved out from under its binder; None when it uses it.

        A normal codomain that ignores its binder stays normal when lowered.
        Memoised by identity, since lookup and lower hand out the same
        objects again along a spine such as (g a b); each entry keeps pi
        alive, so its id cannot be reused while the scope lives.
        """
        hit = self.lowered.get(id(pi))
        if hit is None:
            cod = pi.cod
            low = None if 0 in free_indices(cod) else shift(cod, -1, 0)
            hit = self.lowered[id(pi)] = (pi, low)
        return hit[1]


def _infer(scope: Scope, t: Term) -> Term:
    tt = type(t)
    if tt is Var:
        return scope.lookup(t.index)
    if tt is App:
        fn_ty = _infer(scope, t.fn)
        if type(fn_ty) is not Pi:
            raise NoRuleApplies(
                f"cannot apply {describe(t.fn)}: its type {describe(fn_ty)}"
                " is not a product"
            )
        arg = t.arg
        arg_ty = _infer(scope, arg)
        if arg_ty != fn_ty.dom:
            raise NoRuleApplies(
                f"argument {describe(arg)} has type {describe(arg_ty)},"
                f" but {describe(fn_ty.dom)} is expected"
            )
        lowered = scope.lower(fn_ty)
        if lowered is None:
            return beta_eta_normalize(subst(fn_ty.cod, 0, arg))
        return lowered
    if tt is Lam:
        s1 = scope.declare(t.dom)
        nf_dom = scope.tys[-1]
        body_ty = _infer(scope, t.body)
        s2 = scope.sort(body_ty)
        scope.pop()
        pair = (s1.tag, s2.tag)
        if not scope.spec.allows(pair):
            raise SortPairMissing(
                pair,
                f"abstraction {describe(t)} would live in a product needing"
                f" the sort pair {pair_text(pair)}, which {scope.spec.label()} lacks",
            )
        return Pi(nf_dom, body_ty, t.hint)
    if tt is Pi:
        s1 = scope.declare(t.dom)
        s2 = scope.sort(t.cod)
        scope.pop()
        pair = (s1.tag, s2.tag)
        if not scope.spec.allows(pair):
            raise SortPairMissing(
                pair,
                f"product {describe(t)} needs the sort pair {pair_text(pair)},"
                f" which {scope.spec.label()} lacks",
            )
        return s2
    if tt is Sort:
        if t.tag == "Prop":
            return TYPE
        raise TypeHasNoType("the sort Type has no type")
    raise AssertionError("unreachable")
