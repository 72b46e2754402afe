"""Context formation and type synthesis for the eight cube calculi.

A calculus is a rule set R of sort pairs steering product formation; the
synthesis rules are syntax-directed, so one pass computes the (normal-form)
type when it exists and a precise error when it does not.

Each term is typed once.  In the cube every synthesized type other than
Type has a sort, and a product has its codomain's sort, so an
abstraction's type has its body's sort and an application spine's type
the sort of its head's type.  An abstraction takes its body's sort that
way, from the body's synthesis, instead of inferring the body's type
again: a slot keeps the sort `Scope.declare` found for its type, a nested
abstraction passes its own up, and the type Prop of a product or of Prop
has sort Type.  It falls back to `Scope.sort` on the body's type only
where that sort is not known: for a spine headed by an abstraction, a
redex, for a body whose type is Type, which has none and so fails there,
and for a spine headed by a trusted slot (one a `Scope` is built over)
that keeps no sort yet.  That sort is then kept in the trusted slot, so
it is found at most once per slot.  Every other subterm is typed without
its sort.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import (
    ContextError,
    CubeError,
    NoRuleApplies,
    NotAType,
    SortPairMissing,
    TypeHasNoType,
    TypingError,
)
from .record import Record
from .reduction import beta_eta_normalize, instantiate
from .terms import PROP, TYPE, App, Lam, Pi, Sort, Term, Var, describe, lower, shift

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
]

SortPair = tuple[str, str]

PP: SortPair = ("Prop", "Prop")
PT: SortPair = ("Prop", "Type")
TP: SortPair = ("Type", "Prop")
TT: SortPair = ("Type", "Type")
ALL_PAIRS: frozenset[SortPair] = frozenset({PP, PT, TP, TT})


def pair_text(pair: SortPair) -> str:
    return f"{pair[0]}-{pair[1]}"


class CubeSpec(Record):
    """The rule set selecting one calculus; Prop-Prop is always present.

    The name is display-only: `==` and `hash` compare the rules."""

    __slots__ = ("rules", "name")
    __match_args__ = __slots__
    rules: frozenset[SortPair]
    name: str | None
    _defaults = {"name": None}

    def _check(self) -> None:
        if not self.rules <= ALL_PAIRS:
            raise ValueError("rules must be sort pairs over Prop/Type")
        if PP not in self.rules:
            raise ValueError("the pair Prop-Prop is mandatory")

    def _key(self) -> tuple:
        return (self.rules,)

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


class Decl(Record):
    """One declaration x:T; the name is display-only."""

    __slots__ = ("ty", "name")
    __match_args__ = __slots__
    ty: Term
    name: str | None
    _defaults = {"name": None}

    def _key(self) -> tuple:
        return (self.ty,)


class Context(Record):
    """Ordered declarations, outermost first; Var(0) is the innermost."""

    __slots__ = ("decls",)
    __match_args__ = __slots__
    decls: tuple[Decl, ...]
    _defaults = {"decls": ()}

    def __len__(self) -> int:
        return len(self.decls)

    def __iter__(self) -> Iterator[Decl]:
        return iter(self.decls)

    def extended(self, ty: Term, name: str | None = None) -> Context:
        return Context(self.decls + (Decl(ty, name),))


def wf_context(ctx: Context, spec: CubeSpec) -> Scope:
    """Every declared type must be well-sorted in its prefix.

    Returns the scope that checked them, holding ctx's types in normal form,
    so a caller can go on typing terms over ctx without normalizing again.
    """
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
    return scope


def infer_type(ctx: Context, t: Term, spec: CubeSpec) -> Term:
    """Synthesize the normal-form type of t; the context is trusted.

    Both judgements of the calculus are covered: wf_context for contexts,
    this function for terms.  Every returned type is beta-eta normal, and
    the synthesis relies on that: conversion at application arguments is
    `==` on two normal forms.  Each declared type of ctx is normalized
    once per call, on entry, and a binder's domain once, after it has been
    found well-sorted.
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

    The package does its typing in these.  `infer_type` and `check_type`
    use one per call; `wf_context`, `make_problem` and `subst_well_typed`
    keep one for a whole walk over many declarations or sides, so each
    declared type is normalized once however often it is looked up.
    `search` generates its candidates over one, reading its slots' types
    with `lookup`, and types nothing in it.  The operations are `declare`
    (sort check, then push the normal form), `sort`, `infer` and `check`.

    Every slot holds a normal type: the constructor normalizes the caller's
    trusted types, and every later slot is pushed normal.  A slot entered
    by `declare` also keeps the sort that declare found for its type, and
    one pushed with its sort keeps that; a trusted slot, from the
    constructor or from `push` without a sort, keeps None until an
    abstraction whose body it heads finds its sort, and then keeps that.
    Each slot memoises the shifted copies lookup hands out, keyed by
    distance, and `_infer` reads a variable's type from that memo in place
    when it is there.  A product's lowered codomain is kept in the product
    node itself (`terms.lower`), not here.  A typing error abandons the
    scope, so pushes need no matching pop then.  Its normalizations draw
    on the enclosing `with Fuel(...)` budget; a scope holds no budget of
    its own.
    """

    __slots__ = ("tys", "sorts", "shifted", "spec")

    def __init__(self, decls: tuple[Decl, ...], spec: CubeSpec):
        self.tys: list[Term] = [beta_eta_normalize(d.ty) for d in decls]
        self.sorts: list[Sort | None] = [None] * len(decls)
        self.shifted: list[dict[int, Term] | None] = [None] * len(decls)
        self.spec = spec

    def declare(self, ty: Term) -> Sort:
        """Check that ty is a type here, then push its normal form; its sort."""
        s = self.sort(ty)
        self.tys.append(beta_eta_normalize(ty))
        self.sorts.append(s)
        self.shifted.append(None)
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
        if type(ty) is not Sort:
            raise NotAType(f"{describe(T)} has type {describe(ty)}, not a sort")
        return ty

    def push(self, nf: Term, sort: Sort | None = None) -> None:
        """Enter a binder or declaration whose type nf is already normal:
        sort is its sort when the caller has checked it, and None for a
        trusted type whose sort is not known."""
        self.tys.append(nf)
        self.sorts.append(sort)
        self.shifted.append(None)

    def pop(self) -> None:
        self.tys.pop()
        self.sorts.pop()
        self.shifted.pop()

    def lookup(self, k: int) -> Term:
        """Normal type of Var(k), shifted into the whole scope."""
        pos = len(self.tys) - 1 - k
        if pos < 0:
            raise NoRuleApplies(f"unbound de Bruijn index {k}")
        memo = self.shifted[pos]
        if memo is None:
            memo = self.shifted[pos] = {}
        else:
            ty = memo.get(k)
            if ty is not None:
                return ty
        ty = memo[k] = shift(self.tys[pos], k + 1, 0)
        return ty


def _infer(scope: Scope, t: Term) -> Term:
    """t's normal-form type.  A variable as an application's function or
    argument has its type read from its slot's memo in place, or from
    `Scope.lookup` when the memo holds none yet; a product's lowered
    codomain is read from the product node, or filled by `terms.lower`."""
    tt = type(t)
    if tt is Var:
        return scope.lookup(t.index)
    if tt is App:
        shifted = scope.shifted
        fn = t.fn
        if type(fn) is Var:
            k = fn.index
            memo = shifted[-1 - k] if k < len(shifted) else None
            fn_ty = (memo.get(k) if memo else None) or scope.lookup(k)
        else:
            fn_ty = _infer(scope, fn)
        if type(fn_ty) is not Pi:
            raise NoRuleApplies(
                f"cannot apply {describe(fn)}: its type {describe(fn_ty)}"
                " is not a product"
            )
        arg = t.arg
        if type(arg) is Var:
            k = arg.index
            memo = shifted[-1 - k] if k < len(shifted) else None
            arg_ty = (memo.get(k) if memo else None) or scope.lookup(k)
        else:
            arg_ty = _infer(scope, arg)
        if arg_ty is not fn_ty.dom and arg_ty != fn_ty.dom:
            raise NoRuleApplies(
                f"argument {describe(arg)} has type {describe(arg_ty)},"
                f" but {describe(fn_ty.dom)} is expected"
            )
        try:
            low = fn_ty._low
        except AttributeError:
            low = lower(fn_ty)
        if low is None:
            return instantiate(fn_ty.cod, arg)
        return low
    if tt is Lam:
        return _abstraction(scope, t)[0]
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


def _abstraction(scope: Scope, t: Lam) -> tuple[Pi, Sort]:
    """The type of the abstraction t, and that type's sort: its body's.

    The body's sort comes from the body's synthesis, as the cube's rules
    give it: an abstraction's type has its body's sort and a product its
    codomain's, so an application spine's type has the sort of its head's
    type, which for a variable head is the sort its slot keeps; the type
    Prop of a product or of Prop has sort Type.  Where that is not known,
    for a slot that keeps no sort, a spine headed by an abstraction (a
    redex) and the type Type, the body's type is sorted with `Scope.sort`,
    which raises `TypeHasNoType` for Type; a slot that kept no sort keeps
    the one found.
    """
    s1 = scope.declare(t.dom)
    nf_dom = scope.tys[-1]
    body = t.body
    if type(body) is Lam:
        body_ty, s2 = _abstraction(scope, body)
    else:
        body_ty = _infer(scope, body)
        head = body
        while type(head) is App:
            head = head.fn
        th = type(head)
        if th is Var:
            pos = len(scope.sorts) - 1 - head.index
            s2 = scope.sorts[pos]
            if s2 is None:
                s2 = scope.sorts[pos] = scope.sort(body_ty)
        elif th is Lam or body_ty is not PROP:
            s2 = scope.sort(body_ty)
        else:
            s2 = TYPE
    scope.pop()
    pair = (s1.tag, s2.tag)
    if not scope.spec.allows(pair):
        raise SortPairMissing(
            pair,
            f"abstraction {describe(t)} would live in a product needing"
            f" the sort pair {pair_text(pair)}, which {scope.spec.label()} lacks",
        )
    return Pi(nf_dom, body_ty, t.hint), s2
