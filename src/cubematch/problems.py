"""Quantified contexts, substitutions, the order function, and problems.

A quantified context marks each declaration universal (a parameter) or
existential (an unknown).  A substitution maps existential slots to
replacement terms, each with a local all-existential context spliced in
at the slot; applying it re-numbers the remaining slots accordingly, so
substituted terms live in the image context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from typing import Iterator

from .errors import (
    NotAType,
    NotNormal,
    OrderUndefined,
    ProblemError,
    SubstitutionError,
    TypingError,
)
from .reduction import beta_eta_normalize, equivalent
from .terms import (
    PROP,
    App,
    Lam,
    Pi,
    Sort,
    Term,
    Var,
    arrow,
    describe,
    free_indices,
    shift,
    spine,
)
from .typecheck import (
    TT,
    Context,
    CubeSpec,
    Decl,
    Scope,
    infer_type,
    wf_context,
)

__all__ = [
    "Quant",
    "QDecl",
    "QContext",
    "SubstTriple",
    "Substitution",
    "OrderValue",
    "INFINITE",
    "ProblemKind",
    "Problem",
    "is_closed",
    "apply_subst",
    "apply_subst_in_prefix",
    "subst_well_typed",
    "order",
    "make_problem",
    "is_solution",
    "is_term_elementary",
    "is_type_elementary",
]


class Quant(Enum):
    FORALL = "forall"
    EXISTS = "exists"


@dataclass(frozen=True)
class QDecl:
    quant: Quant
    ty: Term
    name: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class QContext:
    """Declarations with quantifiers, outermost first."""

    decls: tuple[QDecl, ...] = ()

    def __len__(self) -> int:
        return len(self.decls)

    def __iter__(self) -> Iterator[QDecl]:
        return iter(self.decls)

    def plain(self) -> Context:
        return Context(tuple(Decl(d.ty, d.name) for d in self.decls))

    def extended(self, quant: Quant, ty: Term, name: str | None = None) -> QContext:
        return QContext(self.decls + (QDecl(quant, ty, name),))

    def prefix(self, length: int) -> QContext:
        return QContext(self.decls[:length])

    def existential_positions(self) -> list[int]:
        return [q for q, d in enumerate(self.decls) if d.quant is Quant.EXISTS]


@dataclass(frozen=True)
class SubstTriple:
    """One binding: the slot, a local all-existential context, the term.

    The term (and the local declarations) are expressed over the image of
    the slot's prefix followed by the local context itself.
    """

    pos: int
    local: QContext
    term: Term


@dataclass(frozen=True)
class Substitution:
    """At most one triple per slot, each targeting an existential slot."""

    qctx: QContext
    triples: tuple[SubstTriple, ...] = ()
    _by_pos: dict[int, SubstTriple] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _cum: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.triples, key=lambda tr: tr.pos))
        object.__setattr__(self, "triples", ordered)
        by_pos: dict[int, SubstTriple] = {}
        for tr in ordered:
            if tr.pos in by_pos:
                raise ValueError(f"two triples target slot {tr.pos}")
            if not 0 <= tr.pos < len(self.qctx):
                raise ValueError(f"slot {tr.pos} is outside the context")
            if self.qctx.decls[tr.pos].quant is not Quant.EXISTS:
                raise ValueError(
                    f"slot {tr.pos} is universal; only unknowns can be bound"
                )
            if any(d.quant is not Quant.EXISTS for d in tr.local):
                raise ValueError("local contexts must be all-existential")
            by_pos[tr.pos] = tr
        cum = [0]
        for q in range(len(self.qctx)):
            tr = by_pos.get(q)
            cum.append(cum[-1] + (1 if tr is None else len(tr.local)))
        object.__setattr__(self, "_by_pos", by_pos)
        object.__setattr__(self, "_cum", tuple(cum))

    def triple_at(self, pos: int) -> SubstTriple | None:
        return self._by_pos.get(pos)

    def slots_before(self, pos: int) -> int:
        """Length of the image of the first `pos` declarations."""
        return self._cum[pos]

    @property
    def image_len(self) -> int:
        return self._cum[len(self.qctx)]


def apply_subst(s: Substitution, t: Term) -> Term:
    """Homomorphic application; the result lives in the image context.

    No normalization happens here: replacing F by [x:U]x in (F a) yields
    the redex (([x:U]x) a) for the caller to reduce.
    """
    return apply_subst_in_prefix(s, t, len(s.qctx))


def apply_subst_in_prefix(s: Substitution, t: Term, length: int) -> Term:
    """Apply s to a term expressed over the first `length` declarations."""
    lim = length
    img = s.slots_before(lim)
    by_pos, cum = s._by_pos, s._cum

    def go(t: Term, depth: int) -> Term:
        tt = type(t)
        if tt is Var:
            k = t.index
            if k < depth:
                return t
            pos = lim - 1 - (k - depth)
            if pos < 0:
                raise ValueError(
                    f"index {k} escapes the quantified context ({lim} slots)"
                )
            tr = by_pos.get(pos)
            if tr is None:
                k_img = img - 1 - cum[pos] + depth
                return t if k_img == k else Var(k_img)
            inner = cum[pos] + len(tr.local)
            return shift(tr.term, img - inner + depth, 0)
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


def is_closed(t: Term, qctx: QContext) -> bool:
    """Free slots all universal, with recursively closed declared types."""
    length = len(qctx)
    memo: dict[int, bool] = {}

    def closed_at(pos: int) -> bool:
        if pos < 0:
            raise ValueError("term has free indices outside the context")
        if pos in memo:
            return memo[pos]
        d = qctx.decls[pos]
        ok = d.quant is Quant.FORALL and all(
            closed_at(pos - 1 - i) for i in free_indices(d.ty)
        )
        memo[pos] = ok
        return ok

    return all(closed_at(length - 1 - i) for i in free_indices(t))


def subst_well_typed(s: Substitution, qctx: QContext, spec: CubeSpec) -> QContext:
    """Decide well-typedness of s in qctx and return the image context.

    Walks the declarations in order.  Universal slots (and untouched
    existential slots) keep their declaration with the type instantiated
    and re-sorted; a bound existential slot is replaced by its local
    context, and its replacement must check against the instantiated type
    over the image so far plus that local context.  One typing scope
    follows the image as it grows, so each image type is sorted and
    normalized once.
    """
    if s.qctx != qctx:
        raise ValueError("substitution was built for a different context")
    scope = Scope((), spec)
    image: list[QDecl] = []
    for q, d in enumerate(qctx.decls):
        ty_img = apply_subst_in_prefix(s, d.ty, q)
        tr = s.triple_at(q)
        if tr is None:
            try:
                scope.declare(ty_img)
            except TypingError as e:
                raise SubstitutionError(
                    f"declaration {q}: instantiated type is ill-sorted: {e.message}",
                    position=q,
                    check="sort",
                ) from e
            image.append(QDecl(d.quant, ty_img, d.name))
            continue
        for gd in tr.local:
            try:
                scope.declare(gd.ty)
            except TypingError as e:
                raise SubstitutionError(
                    f"declaration {q}: local context entry is ill-sorted:"
                    f" {e.message}",
                    position=q,
                    check="sort",
                ) from e
            image.append(QDecl(Quant.EXISTS, gd.ty, gd.name))
        target = beta_eta_normalize(shift(ty_img, len(tr.local), 0))
        try:
            ok = scope.check(tr.term, target)
        except TypingError as e:
            raise SubstitutionError(
                f"declaration {q}: replacement is ill-typed: {e.message}",
                position=q,
                check="instantiation",
            ) from e
        if not ok:
            raise SubstitutionError(
                f"declaration {q}: replacement {describe(tr.term)} does not"
                " have the instantiated declared type",
                position=q,
                check="instantiation",
            )
    return QContext(tuple(image))


@dataclass(frozen=True)
class OrderValue:
    """A finite order (>= 1) or the infinite order (value None)."""

    value: int | None

    def __post_init__(self) -> None:
        if self.value is not None and self.value < 1:
            raise ValueError("finite orders start at 1")

    @classmethod
    def finite(cls, n: int) -> OrderValue:
        return cls(n)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def plus(self, n: int) -> OrderValue:
        if self.value is None:
            return self
        return OrderValue(self.value + n)

    @staticmethod
    def max(a: OrderValue, b: OrderValue) -> OrderValue:
        if a.value is None or b.value is None:
            return INFINITE
        return a if a.value >= b.value else b

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


INFINITE = OrderValue(None)


def order(T: Term, qctx: QContext) -> OrderValue:
    """The order of the (normalized) type T in qctx.

    Universally-headed atoms have order 1, existentially-headed ones are
    infinite, Prop-headed ones have order 2; a product takes the max of
    1 + order(domain) and the codomain's order with the bound variable
    counted existentially.  Type-headed atoms have no defining clause and
    raise instead of guessing.
    """
    return _order(beta_eta_normalize(T), qctx)


def _order(tn: Term, qctx: QContext) -> OrderValue:
    tt = type(tn)
    if tt is Lam:
        raise NotAType("an abstraction has no order")
    if tt is Pi:
        u = _order(tn.dom, qctx)
        v = _order(tn.cod, qctx.extended(Quant.EXISTS, tn.dom, tn.hint))
        return OrderValue.max(u.plus(1), v)
    head, _ = spine(tn)
    th = type(head)
    if th is Sort:
        if head.tag == "Prop":
            return OrderValue.finite(2)
        raise OrderUndefined("no order clause for an atom headed by the sort Type")
    if th is Var:
        pos = len(qctx) - 1 - head.index
        if pos < 0:
            raise ValueError(f"index {head.index} escapes the quantified context")
        if qctx.decls[pos].quant is Quant.FORALL:
            return OrderValue.finite(1)
        return INFINITE
    raise NotNormal("atom head is reducible")


class ProblemKind(Enum):
    MATCHING = "matching"
    UNIFICATION = "unification"


@dataclass(frozen=True)
class Problem:
    """Two same-typed sides over a quantified context.

    The kind is derived: matching iff the right-hand side is closed.
    Construct through make_problem, which validates and fills the cached
    common type and the maximum order over existential declarations.
    """

    qctx: QContext
    lhs: Term
    rhs: Term
    kind: ProblemKind
    common_type: Term
    max_existential_order: OrderValue | None


def make_problem(qctx: QContext, a: Term, b: Term, spec: CubeSpec) -> Problem:
    """Validate and classify the triple (qctx, a, b)."""
    wf_context(qctx.plain(), spec)
    ta = _infer_side(qctx, a, spec, "left")
    tb = _infer_side(qctx, b, spec, "right")
    if ta != tb:
        raise ProblemError(
            f"sides have different types: {describe(ta)} vs {describe(tb)}"
        )
    kind = ProblemKind.MATCHING if is_closed(b, qctx) else ProblemKind.UNIFICATION
    orders = [
        order(d.ty, qctx.prefix(q))
        for q, d in enumerate(qctx.decls)
        if d.quant is Quant.EXISTS
    ]
    max_order = reduce(OrderValue.max, orders) if orders else None
    return Problem(qctx, a, b, kind, ta, max_order)


def _infer_side(qctx: QContext, t: Term, spec: CubeSpec, side: str) -> Term:
    try:
        return infer_type(qctx.plain(), t, spec)
    except TypingError as e:
        raise ProblemError(f"{side}-hand side is ill-typed: {e.message}") from e


def is_solution(s: Substitution, p: Problem, spec: CubeSpec) -> bool:
    """Well-typed for the problem's context, and the sides convert."""
    if s.qctx != p.qctx:
        raise ValueError("substitution was built for a different context")
    try:
        subst_well_typed(s, p.qctx, spec)
    except SubstitutionError:
        return False
    return equivalent(apply_subst(s, p.lhs), apply_subst(s, p.rhs))


def _base_chain(ctx_len: int, arity: int) -> Term:
    """The arity-fold arrow over the variable declared at slot 0."""
    u = Var(ctx_len - 1)
    out: Term = u
    for _ in range(arity):
        out = arrow(u, out)
    return out


def is_term_elementary(p: Problem) -> bool:
    """First slot declares a universal base type of sort Prop, every later
    type is one of its 0..3-fold arrows, and both sides inhabit it."""
    decls = p.qctx.decls
    if not decls:
        return False
    first = decls[0]
    if first.quant is not Quant.FORALL or first.ty != PROP:
        return False
    for q in range(1, len(decls)):
        ty = beta_eta_normalize(decls[q].ty)
        if ty not in [_base_chain(q, k) for k in range(4)]:
            return False
    return p.common_type == Var(len(decls) - 1)


def is_type_elementary(p: Problem, spec: CubeSpec) -> bool:
    """Every declared type is a 0..3-fold arrow over Prop and both sides
    inhabit Prop; only meaningful where type constructors exist, so the
    check is False outright when Type-Type is not in the rule set."""
    if TT not in spec.rules:
        return False
    allowed: list[Term] = [PROP]
    for _ in range(3):
        allowed.append(arrow(PROP, allowed[-1]))
    for d in p.qctx.decls:
        if beta_eta_normalize(d.ty) not in allowed:
            return False
    return p.common_type == PROP
