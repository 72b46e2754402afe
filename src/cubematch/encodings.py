"""Executable encodings of elementary unification into low-order matching.

Each builder wraps an elementary problem (gamma, u1, u2) in one shared
block of fresh declarations over a base type B,

    z : B   [P : B -> Prop]   c, d : A   G : A -> A -> A
    f : (h:B->B) A[h u1] -> A[h u2]        with A = (P z), or z without P

and emits the matching problem

    t1 = (G (f [x:B]z c) (f [x:B]z d))        t2 = (G c d)

where f is the one new unknown.  One private _build does the work; a
three-row table keyed by ArtifactKind fixes what differs:

* build_thm1: roles (z, P), B is the source's slot 0 (term-elementary
  source); needs dependent types; f gets a third-order type.
* build_erratum: roles (P, Z), B = Prop (type-elementary source); needs
  polymorphism and type constructors; f gets a fourth-order type.
* build_thm2_invalid: roles (Z,), B = Prop, no predicate; the superseded
  variant kept as a regression.  It needs the same capabilities as
  build_erratum and f's type has infinite order, which is exactly why it
  is flagged invalid.

Every block index is computed from a role's position in its row.

Witness transport in both directions is kernel-verified, never assumed.
The Goldfarb-style numeral and solution-shape builders live here too, as
typability regressions over the term-elementary signature.
"""

from __future__ import annotations

from enum import Enum
from collections.abc import Mapping

from .errors import CapabilityError, CubeError, ElementarityError, WitnessError
from .problems import (
    INFINITE,
    OrderValue,
    Problem,
    ProblemKind,
    QContext,
    QDecl,
    Quant,
    SubstTriple,
    Substitution,
    apply_subst,
    is_solution,
    is_term_elementary,
    is_type_elementary,
    make_problem,
    order,
)
from .record import Record
from .terms import PROP, App, Lam, Pi, Term, Var, app, arrow, pick_fresh, shift
from .typecheck import PT, TP, TT, CubeSpec, SortPair, pair_text

__all__ = [
    "ArtifactKind",
    "ReductionArtifact",
    "GoldfarbShapes",
    "build_thm1",
    "thm1_witness",
    "thm1_extract",
    "build_erratum",
    "build_thm2_invalid",
    "goldfarb_numeral",
    "goldfarb_tpl",
    "goldfarb_solution_shapes",
]


class ArtifactKind(Enum):
    THM1 = "thm1"
    ERRATUM_THM2 = "erratum"
    INVALID_THM2 = "thm2-invalid"


class ReductionArtifact(Record):
    """A source problem, its constructed matching target, and metadata."""

    __slots__ = (
        "kind",
        "source",
        "target",
        "spec",
        "names",
        "f_position",
        "f_order",
        "required_pairs",
        "invalid_per_erratum",
    )
    __match_args__ = __slots__
    kind: ArtifactKind
    source: Problem
    target: Problem
    spec: CubeSpec
    names: Mapping[str, str]
    f_position: int
    f_order: OrderValue
    required_pairs: frozenset[SortPair]
    invalid_per_erratum: bool


class _Variant(Record):
    """One row of the encoding table.

    roles are the leading block declarations in order: the point z/Z of
    the base type B and, where present, the predicate P : B -> Prop.
    term_level picks B: the source's slot 0 for a term-elementary source,
    Prop for a type-elementary one (and the binder hint of [x:B]z).
    """

    __slots__ = ("roles", "term_level", "required", "purpose", "f_order")
    __match_args__ = __slots__
    roles: tuple[str, ...]
    term_level: bool
    required: frozenset[SortPair]
    purpose: str
    f_order: OrderValue

_VARIANTS = {
    ArtifactKind.THM1: _Variant(
        ("z", "P"),
        True,
        frozenset({PT}),
        "the predicate declaration over the base type",
        OrderValue.finite(3),
    ),
    ArtifactKind.ERRATUM_THM2: _Variant(
        ("P", "Z"),
        False,
        frozenset({TP, TT}),
        "the polymorphic predicate block",
        OrderValue.finite(4),
    ),
    ArtifactKind.INVALID_THM2: _Variant(
        ("Z",), False, frozenset({TP, TT}), "the polymorphic block", INFINITE
    ),
}


def _base(row: _Variant, n: int) -> Term:
    """The base type B seen from a context of length n."""
    return Var(n - 1) if row.term_level else PROP


def _point_type(roles: tuple[str, ...], j: int, point: Term) -> Term:
    """A = (P point), or just point without P, seen j slots into the block."""
    return App(Var(j - 1 - roles.index("P")), point) if "P" in roles else point


def _hooked(roles: tuple[str, ...], u: Term, d: int = 0) -> Term:
    """A[h u] under the binder h one slot past G and d binders more; u is
    lifted past them all, in one shift."""
    j = len(roles) + 4 + d
    return _point_type(roles, j, App(Var(d), shift(u, j, 0)))


def _fresh_names(source: Problem, roles: tuple[str, ...]) -> dict[str, str]:
    taken = {d.name for d in source.qctx.decls if d.name}
    out: dict[str, str] = {}
    for role in roles:
        name = pick_fresh(role, taken)
        taken.add(name)
        out[role] = name
    return out


def _require(spec: CubeSpec, required: frozenset[SortPair], purpose: str) -> None:
    missing = spec.missing(required)
    if missing:
        pairs = ", ".join(pair_text(p) for p in sorted(missing))
        raise CapabilityError(
            f"{spec.label()} lacks {pairs}, needed for {purpose}", missing=missing
        )


def _build(kind: ArtifactKind, source: Problem, spec: CubeSpec) -> ReductionArtifact:
    """Append the block roles + [c:A, d:A, G:A->A->A, f] and emit the goal.

    Block slot j sits at context position g + j; role i seen from slot j
    is Var(j - 1 - i).  f : (h:B->B) A[h u1] -> A[h u2] is the last slot.
    """
    row = _VARIANTS[kind]
    _require(spec, row.required, row.purpose)
    if row.term_level:
        if not is_term_elementary(source):
            raise ElementarityError("source problem is not term-elementary")
    elif not is_type_elementary(source, spec):
        raise ElementarityError("source problem is not type-elementary")
    roles, g = row.roles, len(source.qctx)
    k = len(roles)
    z = roles.index("z" if row.term_level else "Z")
    names = _fresh_names(source, roles + ("c", "d", "G", "f"))

    types: list[Term] = []
    for j in range(k):
        b = _base(row, g + j)
        types.append(b if j == z else arrow(b, PROP))
    a = [_point_type(roles, j, Var(j - 1 - z)) for j in range(k, k + 3)]
    types += [a[0], a[1], arrow(a[2], arrow(a[2], a[2]))]
    bb = _base(row, g + k + 3)
    hooked = Pi(_hooked(roles, source.lhs), _hooked(roles, source.rhs, 1))
    types.append(Pi(arrow(bb, bb), hooked, "h"))
    block = tuple(
        QDecl(Quant.EXISTS if role == "f" else Quant.FORALL, ty, names[role])
        for role, ty in zip(names, types)
    )
    qctx = QContext(source.qctx.decls + block)

    m = len(qctx)
    # [x:B]z: z seen from slot k + 4, one binder deep
    lam_z = Lam(_base(row, m), Var(k + 4 - z), "x" if row.term_level else "X")
    t1 = app(Var(1), app(Var(0), lam_z, Var(3)), app(Var(0), lam_z, Var(2)))
    t2 = app(Var(1), Var(3), Var(2))
    target = make_problem(qctx, t1, t2, spec)
    if target.kind is not ProblemKind.MATCHING:
        raise CubeError("internal: constructed target is not a matching problem")
    f_pos = m - 1
    f_order = order(qctx.decls[f_pos].ty, qctx.prefix(f_pos))
    if f_order != row.f_order:
        raise CubeError(
            f"internal: unknown's type has order {f_order}, expected {row.f_order}"
        )
    return ReductionArtifact(
        kind=kind,
        source=source,
        target=target,
        spec=spec,
        names=names,
        f_position=f_pos,
        f_order=f_order,
        required_pairs=row.required,
        invalid_per_erratum=kind is ArtifactKind.INVALID_THM2,
    )


def build_thm1(source: Problem, spec: CubeSpec) -> ReductionArtifact:
    """Dependent-types encoding; the new unknown's type is third-order.

    Appends [z:U, P:U->Prop, c:(P z), d:(P z), G:(P z)->(P z)->(P z)] and
    the unknown f : (h:U->U)(P (h u1)) -> (P (h u2)) to the source context.
    """
    return _build(ArtifactKind.THM1, source, spec)


def build_erratum(source: Problem, spec: CubeSpec) -> ReductionArtifact:
    """Corrected polymorphic encoding; the unknown's type is fourth-order.

    Appends [P:Prop->Prop, Z:Prop, c:(P Z), d:(P Z), G:(P Z)->(P Z)->(P Z)]
    and f : (h:Prop->Prop)(P (h u1)) -> (P (h u2)) to the source context.
    """
    return _build(ArtifactKind.ERRATUM_THM2, source, spec)


def build_thm2_invalid(source: Problem, spec: CubeSpec) -> ReductionArtifact:
    """The superseded polymorphic encoding, kept as a negative regression.

    Appends [Z:Prop, c:Z, d:Z, G:Z->Z->Z] and the unknown
    f : (h:Prop->Prop)(h u1) -> (h u2), whose type has infinite order; every
    serialization of the artifact carries the invalid flag.
    """
    return _build(ArtifactKind.INVALID_THM2, source, spec)


def _transport_witness(tau: Substitution, art: ReductionArtifact) -> Substitution:
    """sigma = tau + {f := [x1:B->B][x2:A[x1 tau_u1]]x2}; kernel-verified.

    Indices are over the image of the block prefix, so x1 sits where f's
    binder h sat and A[x1 tau_u1] is built exactly like f's domain."""
    if tau.qctx != art.source.qctx or not is_solution(tau, art.source, art.spec):
        raise WitnessError("tau does not solve the source problem")
    row = _VARIANTS[art.kind]
    b = _base(row, tau.image_len + len(row.roles) + 3)
    dom2 = _hooked(row.roles, apply_subst(tau, art.source.lhs))
    tf = Lam(arrow(b, b), Lam(dom2, Var(0), "x2"), "x1")
    sigma = Substitution(
        art.target.qctx,
        tau.triples + (SubstTriple(art.f_position, QContext(), tf),),
    )
    if not is_solution(sigma, art.target, art.spec):
        raise CubeError("internal: transported witness fails kernel verification")
    return sigma


def thm1_witness(tau: Substitution, art: ReductionArtifact) -> Substitution:
    """Extend a source solution to a target solution; kernel-verified."""
    if art.kind is not ArtifactKind.THM1:
        raise ValueError("artifact was not built by build_thm1")
    return _transport_witness(tau, art)


def _erratum_witness(tau: Substitution, art: ReductionArtifact) -> Substitution:
    """Same transport for the corrected polymorphic encoding."""
    if art.kind is not ArtifactKind.ERRATUM_THM2:
        raise ValueError("artifact was not built by build_erratum")
    return _transport_witness(tau, art)


def thm1_extract(sigma: Substitution, art: ReductionArtifact) -> Substitution:
    """Restrict a target solution to the source unknowns; kernel-verified.

    The target forces the transported unknown to project its second
    argument, which only typechecks when the instantiated sides agree, so
    the restriction must solve the source; failing that is a kernel bug.
    """
    if art.kind is not ArtifactKind.THM1:
        raise ValueError("artifact was not built by build_thm1")
    if sigma.qctx != art.target.qctx or not is_solution(sigma, art.target, art.spec):
        raise WitnessError("sigma does not solve the constructed matching problem")
    g = len(art.source.qctx)
    tau = Substitution(
        art.source.qctx, tuple(tr for tr in sigma.triples if tr.pos < g)
    )
    if not is_solution(tau, art.source, art.spec):
        raise CubeError("internal: restricted solution fails on the source")
    return tau


class GoldfarbShapes(Record):
    """Slots of the base type, its constant and the binary operator.

    The context must declare them term-elementary-style: U universal of
    sort Prop, a:U and g:U->U->U universal.
    """

    __slots__ = ("qctx", "u_pos", "a_pos", "g_pos")
    __match_args__ = __slots__
    qctx: QContext
    u_pos: int
    a_pos: int
    g_pos: int

    def _check(self) -> None:
        decls, u_pos, a_pos, g_pos = self.qctx.decls, self.u_pos, self.a_pos, self.g_pos
        if not all(0 <= p < len(decls) for p in (u_pos, a_pos, g_pos)):
            raise ValueError(f"slot positions must index the {len(decls)} declarations")
        u, a, g = decls[u_pos], decls[a_pos], decls[g_pos]
        u_at = lambda pos: Var(pos - 1 - u_pos)  # noqa: E731
        if u.quant is not Quant.FORALL or u.ty != PROP:
            raise ValueError("base-type slot must be a universal of sort Prop")
        if a.quant is not Quant.FORALL or a.ty != u_at(a_pos):
            raise ValueError("constant slot must be a universal of the base type")
        uu = u_at(g_pos)
        if g.quant is not Quant.FORALL or g.ty != arrow(uu, arrow(uu, uu)):
            raise ValueError("operator slot must be universal of type U->U->U")

    @classmethod
    def standard(cls) -> GoldfarbShapes:
        u = QDecl(Quant.FORALL, PROP, "U")
        a = QDecl(Quant.FORALL, Var(0), "a")
        g = QDecl(Quant.FORALL, arrow(Var(1), arrow(Var(1), Var(1))), "g")
        return cls(QContext((u, a, g)), 0, 1, 2)

    def _u(self, depth: int) -> Var:
        return Var(len(self.qctx) - 1 - self.u_pos + depth)

    def _a(self, depth: int) -> Var:
        return Var(len(self.qctx) - 1 - self.a_pos + depth)

    def _g(self, depth: int) -> Var:
        return Var(len(self.qctx) - 1 - self.g_pos + depth)


def goldfarb_numeral(n: int, shapes: GoldfarbShapes) -> Term:
    """[w1:U](g a (g a ... (g a w1))) with n applications of (g a _)."""
    if n < 0:
        raise ValueError("numerals encode naturals")
    body: Term = Var(0)
    for _ in range(n):
        body = app(shapes._g(1), shapes._a(1), body)
    return Lam(shapes._u(0), body, "w1")


def goldfarb_tpl(n_i: int, p: int, shapes: GoldfarbShapes) -> Term:
    """[w1:U][w2:U](g (N(n_i*p) w1) (N(p) w2)) over the numeral builder N.

    The composite first index is read as the numeral of the arithmetic
    product n_i * p (the multiplication-gadget reading; see the docs).
    """
    left = App(shift(goldfarb_numeral(n_i * p, shapes), 2, 0), Var(1))
    right = App(shift(goldfarb_numeral(p, shapes), 2, 0), Var(0))
    body = app(shapes._g(2), left, right)
    return Lam(shapes._u(0), Lam(shapes._u(1), body, "w2"), "w1")


def goldfarb_solution_shapes(
    n_i: int, n_j: int, shapes: GoldfarbShapes
) -> tuple[Term, Term]:
    """The unary shape [w1:U](N(n_i) w1) and the ternary fold

    [w1][w2][w3](g (t_0 w1 w2) (g (t_1 w1 w2) ... (g (t_{n_j-1} w1 w2) w3)))

    over the two-argument shapes t_p = goldfarb_tpl(n_i, p, ...)."""
    f_shape = Lam(
        shapes._u(0), App(shift(goldfarb_numeral(n_i, shapes), 1, 0), Var(0)), "w1"
    )
    acc: Term = Var(0)  # w3
    for p in reversed(range(n_j)):
        tp = shift(goldfarb_tpl(n_i, p, shapes), 3, 0)
        acc = app(shapes._g(3), app(tp, Var(2), Var(1)), acc)
    g_shape = Lam(
        shapes._u(0),
        Lam(shapes._u(1), Lam(shapes._u(2), acc, "w3"), "w2"),
        "w1",
    )
    return f_shape, g_shape
