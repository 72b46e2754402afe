"""Bounded brute-force enumeration of candidate instantiations.

Candidates are generated type-directed in eta-long beta-normal form:
product types force an abstraction, atomic types force a fully-applied
head chosen among the universal declarations (and enclosing binders), and
sort types additionally admit sorts and products as inhabitants.  Sizes
are enumerated in increasing order and each candidate is generated once,
at its exact size.  Every result is re-verified with the typechecker
before being returned, and the output order is deterministic: size first,
then a structural key.

Size here counts choice nodes: abstraction domains are dictated by the
target type and cost nothing, everything else costs one node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .problems import (
    Problem,
    QContext,
    QDecl,
    SubstTriple,
    Substitution,
    apply_subst,
    apply_subst_in_prefix,
    is_solution,
)
from .reduction import Fuel, beta_eta_normalize, equivalent
from .terms import PROP, TYPE, App, Lam, Pi, Sort, Term, Var, describe, subst
from .typecheck import CubeSpec, Scope

__all__ = ["SearchBudget", "decision_size", "enumerate_candidates", "solve_bounded"]


@dataclass(frozen=True)
class SearchBudget:
    max_term_size: int = 6
    max_solutions: int = 16

    def __post_init__(self) -> None:
        if self.max_term_size <= 0 or self.max_solutions <= 0:
            raise ValueError("budgets must be positive")


def decision_size(t: Term) -> int:
    """Node count with forced abstraction domains excluded."""
    tt = type(t)
    if tt is App:
        return 1 + decision_size(t.fn) + decision_size(t.arg)
    if tt is Lam:
        return 1 + decision_size(t.body)
    if tt is Pi:
        return 1 + decision_size(t.dom) + decision_size(t.cod)
    return 1


def _candidate_key(t: Term) -> tuple[int, str]:
    return decision_size(t), describe(t)


def enumerate_candidates(
    qctx: QContext,
    T: Term,
    budget: SearchBudget,
    spec: CubeSpec,
    fuel: Fuel | None = None,
) -> list[Term]:
    """All eta-long beta-normal inhabitants of T over the universal slots,
    within the size budget, verified, in deterministic order.

    Generation runs size by size and builds each candidate once, at its
    exact size, in one typing scope over qctx that then typechecks every
    candidate against T.  The scope hands out the declared types normalized
    and shifted, T is normalized once on entry, and generation trusts every
    target and head type derived from them to be normal.  A generated
    product domain is the exception: an eta-long domain such as
    (P [x:U](h x)) holds an eta redex, so it is normalized before it enters
    the scope.  Past an argument, a codomain that ignores its binder is
    lowered, which keeps it normal; only a dependent one is instantiated
    and normalized.
    """
    target = beta_eta_normalize(T, fuel)
    scope = Scope(qctx.plain().decls, spec, fuel)
    unknowns = set(qctx.existential_positions())

    def under(dom: Term, tn: Term, size: int) -> list[Term]:
        """gen under a binder of type dom, collected before the pop: a term
        yielded while the binder is pushed would reach a caller that reads
        the scope at its own depth."""
        scope.push(dom)
        found = list(gen(tn, size))
        scope.pop()
        return found

    def gen(tn: Term, size: int) -> Iterator[Term]:
        """The inhabitants of tn of exactly this size."""
        if size <= 0:
            return
        if isinstance(tn, Pi):
            for body in under(tn.dom, tn.cod, size - 1):
                yield Lam(tn.dom, body, tn.hint)
            return
        depth = len(scope.tys)
        for pos in range(depth):
            if pos not in unknowns:
                k = depth - 1 - pos
                yield from spines(Var(k), scope.lookup(k), tn, size - 1)
        if isinstance(tn, Sort):
            if tn == TYPE and size == 1:
                yield PROP
            for s1, s2 in spec.rules:
                if Sort(s2) != tn:
                    continue
                for dom_size in range(1, size - 1):
                    for dom in gen(Sort(s1), dom_size):
                        nf_dom = beta_eta_normalize(dom, fuel)
                        for cod in under(nf_dom, tn, size - 1 - dom_size):
                            yield Pi(dom, cod)

    def spines(head: Term, head_ty: Term, target: Term, size: int) -> Iterator[Term]:
        if head_ty == target:
            if size == 0:
                yield head
            return
        if not isinstance(head_ty, Pi):
            return
        lowered = scope.lower(head_ty)
        for arg_size in range(1, size):
            for arg in gen(head_ty.dom, arg_size):
                rest = lowered
                if rest is None:
                    rest = beta_eta_normalize(subst(head_ty.cod, 0, arg), fuel)
                yield from spines(App(head, arg), rest, target, size - 1 - arg_size)

    out = [
        cand
        for size in range(1, budget.max_term_size + 1)
        for cand in gen(target, size)
        if scope.check(cand, target)
    ]
    out.sort(key=_candidate_key)
    return out


def solve_bounded(
    p: Problem, budget: SearchBudget, spec: CubeSpec, fuel: Fuel | None = None
) -> list[Substitution]:
    """Assign enumerated candidates to the unknowns in declaration order
    and keep the assignments that verify as solutions.

    Each full assignment is first tested for conversion of the two sides;
    only one that converts is verified in full with is_solution, so every
    returned solution is re-verified.  Testing conversion first drops no
    solution: each candidate was checked against its slot's image type,
    so every assignment is a well-typed substitution.

    Sound but deliberately incomplete beyond the budget.  The result order
    sorts by largest component first, so enlarging the size budget only
    appends; the list is cut at max_solutions.
    """
    ex_positions = p.qctx.existential_positions()
    found: list[Substitution] = []
    cand_cache: dict[tuple[QContext, Term], list[Term]] = {}

    def image_prefix(sub: Substitution, upto: int) -> QContext:
        decls = []
        for q in range(upto):
            if sub.triple_at(q) is not None:
                continue
            d = p.qctx.decls[q]
            decls.append(QDecl(d.quant, apply_subst_in_prefix(sub, d.ty, q), d.name))
        return QContext(tuple(decls))

    def dfs(i: int, triples: tuple[SubstTriple, ...]) -> None:
        if i == len(ex_positions):
            s = Substitution(p.qctx, triples)
            if equivalent(
                apply_subst(s, p.lhs), apply_subst(s, p.rhs), fuel
            ) and is_solution(s, p, spec, fuel):
                found.append(s)
            return
        q = ex_positions[i]
        partial = Substitution(p.qctx, triples)
        ictx = image_prefix(partial, q)
        ty_img = apply_subst_in_prefix(partial, p.qctx.decls[q].ty, q)
        key = (ictx, ty_img)
        if key not in cand_cache:
            cand_cache[key] = enumerate_candidates(ictx, ty_img, budget, spec, fuel)
        for cand in cand_cache[key]:
            dfs(i + 1, triples + (SubstTriple(q, QContext(), cand),))

    dfs(0, ())

    def sol_key(s: Substitution) -> tuple[int, int, tuple[str, ...]]:
        sizes = [decision_size(tr.term) for tr in s.triples] or [0]
        return max(sizes), sum(sizes), tuple(describe(tr.term) for tr in s.triples)

    found.sort(key=sol_key)
    return found[: budget.max_solutions]
