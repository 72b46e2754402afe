"""The kernel's walks written with structural `match`, as test oracles.

The package's walks dispatch on `type(t)` and hand back unchanged
subterms as the same objects.  These copies keep the older formulation:
every walk pattern-matches each node and rebuilds every node it passes,
`subst` shifts the replacement once per binder it crosses, and the type
synthesizer keeps no memo.  Term equality and `describe` are recursive
`match` walks as well, so no oracle relies on the terms' own `==` or on
the package's walks, and agreement with the package
(tests/test_walk_equivalence.py, tests/test_terms.py) is a real
cross-check.

The normal-form classifier lives here too, since the package has no use
for it: `classify_normal` splits a normal form into an abstraction, a
product or a head applied to arguments, as the paper states every normal
form is.

The substitution check and the search oracle at the end keep the paths
that copy: `subst_well_typed` builds each slot's instantiated type as a
copy before normalizing it, and each chosen candidate is substituted into
the later declared types and into both sides, and the copies are
converted on the package's machine, so the two paths can be compared
on results and on the fuel spent from one `with Fuel(...)` budget.
"""

from __future__ import annotations

from cubematch.errors import (
    FuelExhausted,
    NoRuleApplies,
    NotAType,
    NotNormal,
    SortPairMissing,
    SubstitutionError,
    TypeHasNoType,
    TypingError,
)
from cubematch.problems import (
    Problem,
    QContext,
    QDecl,
    Quant,
    SubstTriple,
    Substitution,
)
from cubematch.reduction import DEFAULT_MAX_STEPS, Fuel, normalize_under
from cubematch.reduction import converts as machine_converts
from cubematch.record import Record
from cubematch.search import SearchBudget, decision_size, enumerate_candidates
from cubematch.terms import TYPE, App, Lam, Pi, Sort, Term, Var, app, spine
from cubematch.typecheck import Context, CubeSpec, Scope, pair_text


class Tank:
    """Step countdown for one normalization, as the package counts steps."""

    def __init__(self, fuel: Fuel | None):
        self.max_steps = DEFAULT_MAX_STEPS if fuel is None else fuel.max_steps
        self.left = self.max_steps

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise FuelExhausted(f"reduction fuel exhausted ({self.max_steps} steps)")


# -- terms ---------------------------------------------------------------------


def structural_eq(a: Term, b: Term) -> bool:
    """Same constructors, tags and indices; binder hints are ignored."""
    match a, b:
        case Sort(x), Sort(y):
            return x == y
        case Var(i), Var(j):
            return i == j
        case App(f, x), App(g, y):
            return structural_eq(f, g) and structural_eq(x, y)
        case Lam(d, x), Lam(e, y):
            return structural_eq(d, e) and structural_eq(x, y)
        case Pi(d, x), Pi(e, y):
            return structural_eq(d, e) and structural_eq(x, y)
    return False


def describe(t: Term) -> str:
    match t:
        case Sort(tag):
            return tag
        case Var(k):
            return f"#{k}"
        case App():
            args: list[Term] = []
            while isinstance(t, App):
                args.append(t.arg)
                t = t.fn
            return "(" + " ".join(describe(x) for x in (t, *reversed(args))) + ")"
        case Lam(dom, body):
            return f"[:{describe(dom)}]{describe(body)}"
        case Pi(dom, cod):
            return f"(:{describe(dom)}){describe(cod)}"
    raise AssertionError("unreachable")


def shift(t: Term, d: int, cutoff: int = 0) -> Term:
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


# -- reduction -----------------------------------------------------------------


def whnf(t: Term, tank: Tank) -> tuple[Term, list[Term]]:
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


def converts(t1: Term, t2: Term, tank: Tank) -> bool:
    """Conversion of substituted terms, compared lazily: weak head forms
    compared by head class, index or tag and arity; product parts, then
    arguments in application order, pushed on a stack; a pair of one
    object on both sides skipped.  A pair headed by an abstraction waits
    on a second stack, read only when the first is empty: two abstractions
    push their domains, then their bodies; an abstraction against anything
    else pushes its body against the other side, as left by whnf, shifted
    and applied to the bound variable."""
    todo: list = [(t1, t2)]
    lams: list = []
    while todo or lams:
        if todo:
            a, b = todo.pop()
            if a is b:
                continue
            ha, args_a = whnf(a, tank)
            hb, args_b = whnf(b, tank)
            match ha, hb:
                case (Lam(), _) | (_, Lam()):
                    lams.append((ha, args_a, hb, args_b))
                    continue
        else:
            ha, args_a, hb, args_b = lams.pop()
            match ha, hb:
                case Lam(dom_a, body_a), Lam(dom_b, body_b):
                    todo += [(dom_a, dom_b), (body_a, body_b)]
                    continue
                case Lam(_, body), _:
                    other = app(hb, *args_b)
                case _, Lam(_, body):
                    other = app(ha, *args_a)
            ha, args_a = whnf(body, tank)
            hb, args_b = whnf(App(shift(other, 1, 0), Var(0)), tank)
            match ha:
                case Lam():
                    lams.append((ha, args_a, hb, args_b))
                    continue
        if len(args_a) != len(args_b):
            return False
        match ha, hb:
            case Pi(dom_a, cod_a), Pi(dom_b, cod_b):
                todo += [(dom_a, dom_b), (cod_a, cod_b)]
            case Var(i), Var(j) if i == j:
                pass
            case Sort(x), Sort(y) if x == y:
                pass
            case _:
                return False
        todo += zip(args_a, args_b)
    return True


def beta(t: Term, tank: Tank) -> Term:
    head, args = whnf(t, tank)
    match head:
        case Lam(dom, body, hint):
            head = Lam(beta(dom, tank), beta(body, tank), hint)
        case Pi(dom, cod, hint):
            head = Pi(beta(dom, tank), beta(cod, tank), hint)
    out = head
    for a in args:
        out = App(out, beta(a, tank))
    return out


def eta_pass(t: Term, tank: Tank) -> tuple[Term, bool]:
    match t:
        case App(fn, arg):
            fn2, c1 = eta_pass(fn, tank)
            arg2, c2 = eta_pass(arg, tank)
            return (App(fn2, arg2), True) if c1 or c2 else (t, False)
        case Pi(dom, cod, hint):
            dom2, c1 = eta_pass(dom, tank)
            cod2, c2 = eta_pass(cod, tank)
            return (Pi(dom2, cod2, hint), True) if c1 or c2 else (t, False)
        case Lam(dom, body, hint):
            dom2, c1 = eta_pass(dom, tank)
            body2, c2 = eta_pass(body, tank)
            match body2:
                case App(g, Var(0)) if 0 not in free_indices(g):
                    tank.spend()
                    return shift(g, -1, 0), True
            return (Lam(dom2, body2, hint), True) if c1 or c2 else (t, False)
        case _:
            return t, False


def eta_fixpoint(t: Term, tank: Tank) -> Term:
    changed = True
    while changed:
        t, changed = eta_pass(t, tank)
    return t


def beta_eta_normalize(t: Term, fuel: Fuel | None = None) -> Term:
    tank = Tank(fuel)
    try:
        return eta_fixpoint(beta(t, tank), tank)
    except RecursionError:
        raise FuelExhausted("term nests too deeply to normalize") from None


def is_normal(t: Term) -> bool:
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


class Abstraction(Record):
    """Normal form starting with a lambda."""

    __slots__ = ()


class Product(Record):
    """Normal form starting with a product."""

    __slots__ = ()


class Atomic(Record):
    """Normal form (head a1 ... an); the head is a variable or a sort."""

    __slots__ = ("head", "args")
    __match_args__ = __slots__
    head: Term
    args: tuple[Term, ...]


NormalClass = Abstraction | Product | Atomic


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


# -- typing --------------------------------------------------------------------


class _Scope:
    """Declared types normalized on first lookup; binder domains pushed normal."""

    def __init__(self, ctx: Context, spec: CubeSpec, fuel: Fuel | None):
        self.tys = [d.ty for d in ctx.decls]
        self.normal = [False] * len(self.tys)
        self.spec = spec
        self.fuel = fuel

    def lookup(self, k: int) -> Term:
        pos = len(self.tys) - 1 - k
        if pos < 0:
            raise NoRuleApplies(f"unbound de Bruijn index {k}")
        if not self.normal[pos]:
            self.tys[pos] = beta_eta_normalize(self.tys[pos], self.fuel)
            self.normal[pos] = True
        return shift(self.tys[pos], k + 1, 0)

    def sort(self, T: Term) -> Sort:
        ty = infer(self, T)
        if not isinstance(ty, Sort):
            raise NotAType(f"{describe(T)} has type {describe(ty)}, not a sort")
        return ty

    def declare(self, ty: Term) -> Sort:
        s = self.sort(ty)
        self.tys.append(beta_eta_normalize(ty, self.fuel))
        self.normal.append(True)
        return s

    def pop(self) -> None:
        self.tys.pop()
        self.normal.pop()


def infer(scope: _Scope, t: Term) -> Term:
    match t:
        case Var(k):
            return scope.lookup(k)
        case App(fn, arg):
            fn_ty = infer(scope, fn)
            if not isinstance(fn_ty, Pi):
                raise NoRuleApplies(
                    f"cannot apply {describe(fn)}: its type {describe(fn_ty)}"
                    " is not a product"
                )
            arg_ty = infer(scope, arg)
            if not structural_eq(arg_ty, fn_ty.dom):
                raise NoRuleApplies(
                    f"argument {describe(arg)} has type {describe(arg_ty)},"
                    f" but {describe(fn_ty.dom)} is expected"
                )
            if 0 in free_indices(fn_ty.cod):
                return beta_eta_normalize(subst(fn_ty.cod, 0, arg), scope.fuel)
            return shift(fn_ty.cod, -1, 0)
        case Lam(dom, body, hint):
            s1 = scope.declare(dom)
            nf_dom = scope.tys[-1]
            body_ty = infer(scope, body)
            s2 = scope.sort(body_ty)
            scope.pop()
            pair = (s1.tag, s2.tag)
            if not scope.spec.allows(pair):
                raise SortPairMissing(
                    pair,
                    f"abstraction {describe(t)} would live in a product needing"
                    f" the sort pair {pair_text(pair)}, which {scope.spec.label()} lacks",
                )
            return Pi(nf_dom, body_ty, hint)
        case Pi(dom, cod, hint):
            s1 = scope.declare(dom)
            s2 = scope.sort(cod)
            scope.pop()
            pair = (s1.tag, s2.tag)
            if not scope.spec.allows(pair):
                raise SortPairMissing(
                    pair,
                    f"product {describe(t)} needs the sort pair {pair_text(pair)},"
                    f" which {scope.spec.label()} lacks",
                )
            return s2
        case Sort("Prop"):
            return TYPE
        case Sort(_):
            raise TypeHasNoType("the sort Type has no type")
    raise AssertionError("unreachable")


def infer_type(ctx: Context, t: Term, spec: CubeSpec, fuel: Fuel | None = None) -> Term:
    return infer(_Scope(ctx, spec, fuel), t)


# -- substitutions -------------------------------------------------------------


def apply_subst_in_prefix(s: Substitution, t: Term, length: int) -> Term:
    lim = length
    img = s.slots_before(lim)

    def go(t: Term, depth: int) -> Term:
        match t:
            case Var(k):
                if k < depth:
                    return t
                pos = lim - 1 - (k - depth)
                if pos < 0:
                    raise ValueError(
                        f"index {k} escapes the quantified context ({lim} slots)"
                    )
                tr = s.triple_at(pos)
                if tr is None:
                    return Var(img - 1 - s.slots_before(pos) + depth)
                inner = s.slots_before(pos) + len(tr.local)
                return shift(tr.term, img - inner + depth, 0)
            case App(fn, arg):
                return App(go(fn, depth), go(arg, depth))
            case Lam(dom, body, hint):
                return Lam(go(dom, depth), go(body, depth + 1), hint)
            case Pi(dom, cod, hint):
                return Pi(go(dom, depth), go(cod, depth + 1), hint)
            case _:
                return t

    return go(t, 0)


def apply_subst(s: Substitution, t: Term) -> Term:
    return apply_subst_in_prefix(s, t, len(s.qctx))


def subst_well_typed(s: Substitution, qctx: QContext, spec: CubeSpec) -> QContext:
    """The well-typedness check that copies: every slot's instantiated type
    is built with apply_subst_in_prefix, a bound slot's too.  A kept slot's
    copy is normalized and the normal form sort-checked in the package's
    scope, while the image keeps the copy; a bound slot's copy is
    normalized under the levels that skip its local context, before its
    replacement is checked against it in that scope."""
    if s.qctx != qctx:
        raise ValueError("substitution was built for a different context")
    scope = Scope((), spec)
    image: list[QDecl] = []
    for q, d in enumerate(qctx.decls):
        ty_img = apply_subst_in_prefix(s, d.ty, q)
        tr = s.triple_at(q)
        if tr is None:
            try:
                scope.declare(normalize_under(ty_img, ()))
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
        levels = tuple(range(-1 - len(tr.local), -1 - len(image), -1))
        target = normalize_under(ty_img, levels)
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


def is_solution(s: Substitution, p: Problem, spec: CubeSpec) -> bool:
    """Well-typed by the copying check above, and the copied images of the
    two sides convert on the package's machine."""
    if s.qctx != p.qctx:
        raise ValueError("substitution was built for a different context")
    try:
        subst_well_typed(s, p.qctx, spec)
    except SubstitutionError:
        return False
    return machine_converts(apply_subst(s, p.lhs), apply_subst(s, p.rhs))


# -- search --------------------------------------------------------------------


def _fill(t: Term, k: int, cand: Term) -> Term:
    """t with Var(k) replaced by cand, which lives k slots further out."""
    return subst(t, k, shift(cand, k, 0))


def solve_bounded(p: Problem, budget: SearchBudget, spec: CubeSpec) -> list[Substitution]:
    """The search with the leaf path that copies.

    Each chosen candidate is substituted into the later declared types and
    into both sides; the last unknown's candidates are substituted into the
    sides leaf by leaf, level by level, and each pair of copies is converted
    on the package's machine.  A leaf whose copies convert
    is then typed by subst_well_typed above; its sides, already converted,
    are not converted again.
    """
    ex_positions = p.qctx.existential_positions()
    last = len(ex_positions) - 1
    found: list[Substitution] = []
    cand_cache: dict = {}
    leaves: dict[int, list] = {}

    def test(lhs: Term, rhs: Term, chosen: tuple[Term, ...]) -> None:
        if not machine_converts(lhs, rhs):
            return
        triples = (SubstTriple(q, QContext(), c) for q, c in zip(ex_positions, chosen))
        s = Substitution(p.qctx, tuple(triples))
        try:
            subst_well_typed(s, p.qctx, spec)
        except SubstitutionError:
            return
        found.append(s)

    def dfs(decls: tuple[QDecl, ...], lhs: Term, rhs: Term, chosen: tuple[Term, ...], level: int) -> None:
        i = len(chosen)
        r = ex_positions[i] - i
        key = (QContext(decls[:r]), decls[r].ty)
        if key not in cand_cache:
            cand_cache[key] = [
                (c, decision_size(c)) for c in enumerate_candidates(*key, budget, spec)
            ]
        k = len(decls) - 1 - r
        for cand, size in cand_cache[key]:
            if i == last:
                leaves.setdefault(max(level, size), []).append((lhs, rhs, k, chosen, cand))
                continue
            later = tuple(
                QDecl(d.quant, _fill(d.ty, j, cand), d.name) for j, d in enumerate(decls[r + 1 :])
            )
            dfs(
                decls[:r] + later,
                _fill(lhs, k, cand),
                _fill(rhs, k, cand),
                chosen + (cand,),
                max(level, size),
            )

    if last < 0:
        test(p.lhs, p.rhs, ())
    else:
        dfs(p.qctx.decls, p.lhs, p.rhs, (), 0)
        for level in sorted(leaves):
            for lhs, rhs, k, chosen, cand in leaves[level]:
                test(_fill(lhs, k, cand), _fill(rhs, k, cand), chosen + (cand,))
            if len(found) >= budget.max_solutions:
                break

    def sol_key(s: Substitution) -> tuple:
        sizes = [decision_size(tr.term) for tr in s.triples] or [0]
        return max(sizes), sum(sizes), tuple(describe(tr.term) for tr in s.triples)

    found.sort(key=sol_key)
    return found[: budget.max_solutions]
