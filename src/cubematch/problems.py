"""Quantified contexts, substitutions, the order function, and problems.

A quantified context marks each declaration universal (a parameter) or
existential (an unknown).  A substitution maps existential slots to
replacement terms, each with a local all-existential context spliced in
at the slot; applying it re-numbers the remaining slots accordingly, so
substituted terms live in the image context.

The reduction machine reads a substitution's effect without a copy,
under an environment that binds each bound slot to its replacement
(`replacement_entry`), in one of two numberings.  `comparison_env` reads
in the problem's own numbering: a kept slot q of L is the level q - L,
which reads back as its own index, so a side that is normal and mentions
no bound slot reads back as itself.  `is_solution` converts two sides
under it with `reduction.converts`, which reads neither back; since the
numbering is injective, its verdicts are those of the image copies.
`search.solve_bounded` builds no substitution to get that environment:
it walks in the problem's own numbering, and each leaf's environment is
`comparison_env` of the leaf's assignment.
A typing scope over the image needs the image's numbering instead: a
kept slot is its position in the image, 0 the outermost, and a type is
read back at the depth of the image built so far.  Such an environment
only grows as the image does, so `subst_well_typed` keeps one for a
whole call and neither copies a declared type nor normalizes one twice.

`subst_well_typed` walks in two parts that share one slot loop: the
part that depends on the context alone, which escape-checks every
declared type and walks the universal slots before the first unknown,
and the rest, which goes on from it with the substitution.
`well_typed_check(p, spec)` keeps the first part for one problem, so a
caller that checks many substitutions of it (`search.solve_bounded`)
checks the problem's own facts once.  It is the well-typedness half of
`is_solution` alone: `is_solution` is one call of a fresh checker
followed by `converts` under `comparison_env`, and the search, which has
converted a leaf's sides under that environment before it builds a
substitution, calls the checker alone, so each side of a found leaf is
converted once.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from collections.abc import Callable, Iterator

from .errors import (
    NotAType,
    NotNormal,
    OrderUndefined,
    ProblemError,
    SubstitutionError,
    TypingError,
)
from .record import Record, slot_setters
from .reduction import beta_eta_normalize, converts, normalize_under
from .terms import (
    PROP,
    Lam,
    Pi,
    Sort,
    Term,
    Var,
    arrow,
    describe,
    free_indices,
    map_free,
    shift,
    spine,
)
from .typecheck import (
    TT,
    Context,
    CubeSpec,
    Decl,
    Scope,
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
    "apply_subst",
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


class QDecl(Record):
    """One quantified declaration; the name is display-only."""

    __slots__ = ("quant", "ty", "name")
    __match_args__ = __slots__
    quant: Quant
    ty: Term
    name: str | None

    def __init__(self, quant: Quant, ty: Term, name: str | None = None) -> None:
        _set_quant(self, quant)
        _set_qdecl_ty(self, ty)
        _set_qdecl_name(self, name)

    def _key(self) -> tuple:
        return self.quant, self.ty


class QContext(Record):
    """Declarations with quantifiers, outermost first."""

    __slots__ = ("decls",)
    __match_args__ = __slots__
    decls: tuple[QDecl, ...]

    def __init__(self, decls: tuple[QDecl, ...] = ()) -> None:
        _set_qdecls(self, decls)

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


_set_quant, _set_qdecl_ty, _set_qdecl_name = slot_setters(QDecl)
(_set_qdecls,) = slot_setters(QContext)


class SubstTriple(Record):
    """One binding: the slot, a local all-existential context, the term.

    The term (and the local declarations) are expressed over the image of
    the slot's prefix followed by the local context itself.
    """

    __slots__ = ("pos", "local", "term")
    __match_args__ = __slots__
    pos: int
    local: QContext
    term: Term

    def __init__(self, pos: int, local: QContext, term: Term) -> None:
        _set_pos(self, pos)
        _set_local(self, local)
        _set_term(self, term)


class Substitution(Record):
    """At most one triple per slot, each targeting an existential slot.

    The triples are kept sorted by slot.  The tables `triple_at` and
    `slots_before` read are derived from them and are not fields: they take
    no part in `==` or `hash` and are rebuilt, not copied, by `copy` and
    `pickle`.
    """

    __slots__ = ("qctx", "triples", "_by_pos", "_cum")
    __match_args__ = ("qctx", "triples")
    qctx: QContext
    triples: tuple[SubstTriple, ...]
    _by_pos: dict[int, SubstTriple]
    _cum: tuple[int, ...]

    def __init__(self, qctx: QContext, triples: tuple[SubstTriple, ...] = ()) -> None:
        ordered = tuple(sorted(triples, key=lambda tr: tr.pos))
        by_pos: dict[int, SubstTriple] = {}
        for tr in ordered:
            if tr.pos in by_pos:
                raise ValueError(f"two triples target slot {tr.pos}")
            if not 0 <= tr.pos < len(qctx):
                raise ValueError(f"slot {tr.pos} is outside the context")
            if qctx.decls[tr.pos].quant is not Quant.EXISTS:
                raise ValueError(
                    f"slot {tr.pos} is universal; only unknowns can be bound"
                )
            if any(d.quant is not Quant.EXISTS for d in tr.local):
                raise ValueError("local contexts must be all-existential")
            by_pos[tr.pos] = tr
        cum = [0]
        for q in range(len(qctx)):
            tr = by_pos.get(q)
            cum.append(cum[-1] + (1 if tr is None else len(tr.local)))
        _set_qctx(self, qctx)
        _set_triples(self, ordered)
        _set_by_pos(self, by_pos)
        _set_cum(self, tuple(cum))

    def triple_at(self, pos: int) -> SubstTriple | None:
        return self._by_pos.get(pos)

    def slots_before(self, pos: int) -> int:
        """Length of the image of the first `pos` declarations."""
        return self._cum[pos]

    @property
    def image_len(self) -> int:
        return self._cum[len(self.qctx)]


_set_pos, _set_local, _set_term = slot_setters(SubstTriple)
_set_qctx, _set_triples, _set_by_pos, _set_cum = slot_setters(
    Substitution, *Substitution.__slots__
)


def apply_subst(s: Substitution, t: Term) -> Term:
    """Homomorphic application; the result lives in the image context.

    No normalization happens here: replacing F by [x:U]x in (F a) yields
    the redex (([x:U]x) a) for the caller to reduce.
    """
    lim = len(s.qctx)
    img = s.image_len
    by_pos, cum = s._by_pos, s._cum

    def on_var(v: Var, depth: int) -> Term:
        k = v.index
        pos = lim - 1 - (k - depth)
        if pos < 0:
            raise ValueError(
                f"index {k} escapes the quantified context ({lim} slots)"
            )
        tr = by_pos.get(pos)
        if tr is None:
            k_img = img - 1 - cum[pos] + depth
            return v if k_img == k else Var(k_img)
        inner = cum[pos] + len(tr.local)
        return shift(tr.term, img - inner + depth, 0)

    return map_free(t, on_var)


def replacement_entry(term: Term, env: tuple) -> tuple | int:
    """The environment entry that binds a slot to term, which lives over
    the slots that the environment env binds, innermost first: a bare
    variable is what env binds it to, so that no closure holds one, and
    anything else the closure of the term under env."""
    if type(term) is Var:
        return env[term.index]
    return term, env, len(env)


def comparison_levels(s: Substitution) -> dict[int, tuple[int, ...]]:
    """For each bound slot of s, the levels its replacement is read over in
    the problem's own numbering, innermost first.

    Of L = len(s.qctx) slots, a kept slot q has level q - L, so it reads
    back at depth 0 as its own index L - 1 - q, and each local-context slot
    a fresh level below -L, in image order.  A replacement lives over the
    image of the slots before its own followed by its local context, and
    is read over those image slots' levels.  The map from image slots to
    levels is injective, so two terms read under `comparison_env` are equal
    exactly when their images are.  Each image slot's level is computed
    once.  Each bound slot gets a tuple of its own: `converts` skips a pair
    that is one term under one environment object, so sharing one between
    two slots could change the fuel it spends.
    """
    length = len(s.qctx)
    by_pos = s._by_pos
    seen: list[int] = []  # levels of the image slots so far, outermost first
    fresh = -length
    out: dict[int, tuple[int, ...]] = {}
    for q in range(length):
        tr = by_pos.get(q)
        if tr is None:
            seen.append(q - length)
            continue
        for _ in tr.local:
            fresh -= 1
            seen.append(fresh)
        out[q] = tuple(reversed(seen))
    return out


def comparison_env(s: Substitution) -> tuple:
    """The environment that reads a term over s.qctx as its image under s,
    in the problem's own numbering, innermost first: a kept slot q is the
    level q - L, a bound slot the `replacement_entry` of its replacement
    over its `comparison_levels`.  Normalizing t under it takes the steps,
    and spends the fuel, that normalizing apply_subst(s, t) does, and gives
    that normal form with each image slot renumbered injectively; a normal
    t that mentions no bound slot reads back as t itself, with nothing
    allocated."""
    levels = comparison_levels(s)
    length = len(s.qctx)
    by_pos = s._by_pos
    return tuple(
        q - length if q not in levels else replacement_entry(by_pos[q].term, levels[q])
        for q in range(length - 1, -1, -1)
    )


def _is_closed(t: Term, qctx: QContext) -> bool:
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
    normalized once: a kept slot's type, read normal, is sort-checked and
    pushed with its sort as it is (`Scope.push`), not normalized again by
    `Scope.declare`.

    No declared type is copied.  Each is normalized under one environment
    kept for the whole call, in the image's numbering, in the steps and
    fuel of normalizing its copy: a kept slot enters it as its image
    position and a bound slot as the `replacement_entry` of its
    replacement, over the image so far, local context included, and a
    type is read back at the depth of the image so far.  A bound slot's
    normal form is its replacement's target; a kept slot's is what the
    scope sort-checks and the image holds, which on a well-formed qctx is
    the verdict on the copy: a well-typed substitution keeps a type's
    sort, and so does normalizing.  A declared type with a free index
    past its prefix raises ValueError when the walk reaches its slot.

    The walk runs in two parts: `_checked_prefix`, which depends on qctx
    alone, and the rest of the slots, walked on from it with s; the same
    parts serve `well_typed_check`, which runs the first once per problem.
    """
    if s.qctx != qctx:
        raise ValueError("substitution was built for a different context")
    scope, image, env, first, end, escape = _checked_prefix(qctx, spec)
    image = list(image)
    _walk_slots(qctx, s._by_pos, scope, image, env, first, end)
    if escape is not None:
        raise ValueError(escape)
    return QContext(tuple(image))


def _checked_prefix(qctx: QContext, spec: CubeSpec) -> tuple:
    """The part of `subst_well_typed`'s walk that no substitution changes.

    Every declared type is checked for a free index past its prefix; the
    first slot that has one ends the walk, which raises its message there.
    The universal slots before the first existential one are walked as
    `_walk_slots` walks any kept slot: no substitution binds them or a
    slot before them.  Returns (scope, image, env, first, end, escape):
    the typing scope, image and environment after those slots, the first
    slot left to walk, the slot the walk ends before, and the escape
    message there, or None.  An ill-sorted slot among them raises the
    SubstitutionError that every substitution meets.
    """
    decls = qctx.decls
    end, escape = len(decls), None
    for q, d in enumerate(decls):
        escaping = [i for i in free_indices(d.ty) if i >= q]
        if escaping:
            end = q
            escape = f"index {max(escaping)} escapes the quantified context ({q} slots)"
            break
    first = next((q for q in range(end) if decls[q].quant is Quant.EXISTS), end)
    scope = Scope((), spec)
    image: list[QDecl] = []
    env = _walk_slots(qctx, {}, scope, image, (), 0, first)
    return scope, tuple(image), env, first, end, escape


def _walk_slots(
    qctx: QContext,
    bound: dict[int, SubstTriple],
    scope: Scope,
    image: list[QDecl],
    env: tuple,
    start: int,
    stop: int,
) -> tuple:
    """Walk qctx's slots start..stop-1, each bound one to its triple in
    bound, growing scope and image; env binds the slots before start,
    innermost first, and the one binding the slots before stop is
    returned."""
    for q in range(start, stop):
        d = qctx.decls[q]
        tr = bound.get(q)
        if tr is None:
            ty_img = normalize_under(d.ty, env, len(image))
            try:
                scope.push(ty_img, scope.sort(ty_img))
            except TypingError as e:
                raise SubstitutionError(
                    f"declaration {q}: instantiated type is ill-sorted: {e.message}",
                    position=q,
                    check="sort",
                ) from e
            env = (len(image),) + env
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
        img = len(image)
        target = normalize_under(d.ty, env, img)
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
        env = (replacement_entry(tr.term, tuple(range(img - 1, -1, -1))),) + env
    return env


class OrderValue(Record):
    """A finite order (>= 1) or the infinite order (value None)."""

    __slots__ = ("value",)
    __match_args__ = __slots__
    value: int | None

    def _check(self) -> None:
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


class Problem(Record):
    """Two same-typed sides over a quantified context.

    The kind is derived: matching iff the right-hand side is closed.
    Construct through make_problem, which validates and fills the cached
    common type and the maximum order over existential declarations.
    """

    __slots__ = ("qctx", "lhs", "rhs", "kind", "common_type", "max_existential_order")
    __match_args__ = __slots__
    qctx: QContext
    lhs: Term
    rhs: Term
    kind: ProblemKind
    common_type: Term
    max_existential_order: OrderValue | None


def make_problem(qctx: QContext, a: Term, b: Term, spec: CubeSpec) -> Problem:
    """Validate and classify the triple (qctx, a, b).

    Both sides are typed in the scope that checked the context, which holds
    each declared type in normal form; the orders are read off those.
    """
    scope = wf_context(qctx.plain(), spec)
    ta = _infer_side(scope, a, "left")
    tb = _infer_side(scope, b, "right")
    if ta != tb:
        raise ProblemError(
            f"sides have different types: {describe(ta)} vs {describe(tb)}"
        )
    kind = ProblemKind.MATCHING if _is_closed(b, qctx) else ProblemKind.UNIFICATION
    orders = [
        _order(scope.tys[q], qctx.prefix(q))
        for q, d in enumerate(qctx.decls)
        if d.quant is Quant.EXISTS
    ]
    max_order = reduce(OrderValue.max, orders) if orders else None
    return Problem(qctx, a, b, kind, ta, max_order)


def _infer_side(scope: Scope, t: Term, side: str) -> Term:
    try:
        return scope.infer(t)
    except TypingError as e:
        raise ProblemError(f"{side}-hand side is ill-typed: {e.message}") from e


def is_solution(s: Substitution, p: Problem, spec: CubeSpec) -> bool:
    """Well-typed for the problem's context, and the sides convert.

    The well-typedness check is one call of a fresh
    `well_typed_check(p, spec)`, which reads in the image's numbering.
    Only a well-typed s has its sides converted, as their images under s
    without being copied: `reduction.converts` compares them under
    `comparison_env(s)`, which binds every bound slot to its replacement,
    and reads neither back.  It reads in the problem's own numbering, not
    the image's; the verdict is the copies', since the renumbering is
    injective, and the steps are at most those of normalizing the copies.
    """
    return well_typed_check(p, spec)(s) and converts(p.lhs, p.rhs, comparison_env(s))


def well_typed_check(p: Problem, spec: CubeSpec) -> Callable[[Substitution], bool]:
    """The well-typedness half of `is_solution` for p under spec, as a
    function of the substitution that checks p's own facts once.

    Its first call walks the part of `subst_well_typed` that depends on
    p.qctx alone (`_checked_prefix`: the escape check of every declared
    type, and the universal slots before the first unknown, normalized
    and sorted) and keeps the outcome: the prefix, which every later call
    goes on from, or the SubstitutionError that makes every check False.
    Each call still types each replacement against its target, sorts the
    kept slots after the prefix, and raises an escaping index when the
    walk reaches its slot; it converts no side.  The prefix's fuel is
    spent once, by the first call, not once per call.  A caller that has
    converted the sides itself, under the same environment, keeps one
    checker for many substitutions of p (`search.solve_bounded`).
    """
    prefix: tuple | None = None

    def check(s: Substitution) -> bool:
        nonlocal prefix
        if s.qctx != p.qctx:
            raise ValueError("substitution was built for a different context")
        if prefix is None:
            try:
                prefix = _checked_prefix(p.qctx, spec)
            except SubstitutionError:
                prefix = ()  # ill-sorted under spec, whatever s binds
        if not prefix:
            return False
        # walk on from the prefix in its scope, and leave that as found
        scope, image, env, first, end, escape = prefix
        depth = len(scope.tys)
        try:
            _walk_slots(p.qctx, s._by_pos, scope, list(image), env, first, end)
        except SubstitutionError:
            return False
        finally:
            while len(scope.tys) > depth:
                scope.pop()
        if escape is not None:
            raise ValueError(escape)
        return True

    return check


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
