"""The kernel's walks written with structural `match`, as test oracles.

The package's walks dispatch on `type(t)` and hand back unchanged
subterms as the same objects.  These copies keep the older formulation:
every walk pattern-matches each node and rebuilds every node it passes,
`subst` shifts the replacement once per binder it crosses, and the type
synthesizer keeps no memo.  They call nothing in the package but the term
classes, `describe` and the error classes, so agreement with the package
(tests/test_walk_equivalence.py) is a real cross-check.
"""

from __future__ import annotations

from cubematch.errors import FuelExhausted, NoRuleApplies, NotAType, SortPairMissing, TypeHasNoType
from cubematch.problems import Substitution
from cubematch.reduction import DEFAULT_MAX_STEPS, Fuel
from cubematch.terms import TYPE, App, Lam, Pi, Sort, Term, Var, describe
from cubematch.typecheck import Context, CubeSpec, pair_text


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
            if arg_ty != fn_ty.dom:
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
