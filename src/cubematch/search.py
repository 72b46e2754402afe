"""Bounded brute-force enumeration of candidate instantiations.

Candidates are generated type-directed in eta-long beta-normal form:
product types force an abstraction, atomic types force a fully-applied
head chosen among the universal declarations (and enclosing binders), and
sort types additionally admit sorts and products as inhabitants.  Sizes
are enumerated in increasing order and each candidate is generated once,
at its exact size.  Generation is goal-directed and memoised: a head is
expanded only if its product chain can end in the target, and each
sub-enumeration runs once per generation, keyed by the identities of its
target and of the binder types pushed above the declared ones.  The heads
that reach an atomic target are found once per generation too, not once
per size.  Every result is well typed by construction, so none is typed
again, and the output order is deterministic: size first, then the
printed form.

`solve_bounded` walks the declarations in one typing scope in the
problem's own numbering and copies none of them: each unknown keeps a
slot, which heads no candidate, and an unknown's target and a universal
slot's type are read under an environment that binds the earlier
unknowns to their candidates (`reduction.normalize_under`).  It tests
the assignments level by level, a level being the size of an
assignment's largest candidate, and stops after the first level that
fills `max_solutions`.  A leaf is never a copy of the problem: its two
sides are converted by `reduction.converts` under the walk's environment
completed by the last unknown's candidate, which is the comparison
environment of its assignment (`problems.comparison_env`), on the
normalizer's own machine and without reading either side back, so most
leaves are refuted at their first rigid heads that differ.  A leaf whose
sides convert is typed with one `problems.well_typed_check` per call,
which checks the problem's own facts once, not once per found solution,
and converts no side again.

Size here counts choice nodes: abstraction domains are dictated by the
target type and cost nothing, everything else costs one node.
"""

from __future__ import annotations

from .problems import (
    Problem,
    QContext,
    SubstTriple,
    Substitution,
    apply_subst,
    replacement_entry,
    well_typed_check,
)
from .record import Record
from .reduction import beta_eta_normalize, converts, instantiate, normalize_under
from .terms import PROP, TYPE, App, Lam, Pi, Sort, Term, Var, describe, lower
from .typecheck import CubeSpec, Scope

__all__ = ["SearchBudget", "decision_size", "enumerate_candidates", "solve_bounded"]


class SearchBudget(Record):
    __slots__ = ("max_term_size", "max_solutions")
    __match_args__ = __slots__
    max_term_size: int
    max_solutions: int
    _defaults = {"max_term_size": 6, "max_solutions": 16}

    def _check(self) -> None:
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


def enumerate_candidates(
    qctx: QContext, T: Term, budget: SearchBudget, spec: CubeSpec
) -> list[Term]:
    """All eta-long beta-normal inhabitants of T over the universal slots,
    within the size budget, in deterministic order.

    qctx and T are trusted, as `check_type` trusts its T.  Builds a scope
    over qctx, which holds the declared types normalized, normalizes T,
    and generates in them with `_inhabitants`.
    """
    target = beta_eta_normalize(T)
    scope = Scope(qctx.plain().decls, spec)
    return _inhabitants(scope, target, budget, frozenset(qctx.existential_positions()))


def _inhabitants(
    scope: Scope, target: Term, budget: SearchBudget, unknowns: frozenset[int] = frozenset()
) -> list[Term]:
    """The candidates for target, which is normal, over the slots of scope,
    but for the positions in unknowns; the scope's slots are left as found.

    Generation runs size by size and builds each candidate once, at its
    exact size, in scope; each size's batch is sorted by its printed form.
    Each candidate is well typed by construction, so none is typed again:
    a property test types them, with the typechecker as oracle.  Generation
    trusts every target and head type derived from the scope's types and
    target to be normal.  A generated product domain is the exception: an
    eta-long domain such as (P [x:U](h x)) holds an eta redex, so it is
    normalized before it enters the scope.  Past an argument, a codomain
    that ignores its binder is lowered, which keeps it normal; only a
    dependent one is instantiated and normalized.  A product keeps its
    lowered codomain in the node (`terms.lower`), so this call holds no
    memo of them, and nothing of one outlives the types it was read
    from.  gen and spines return whole lists, so each pops every binder
    it pushes before returning.

    gen is memoised for the duration of this call.  Its key is the size
    and the ids of the target and of the binder types pushed above the
    scope's slots.  Identity, not `==`, because `==` ignores binder hints
    and a generated abstraction takes its hint from the target.  Each entry
    holds the objects whose ids its key names, so no id can be reused
    while the memo lives.  A memoised list is shared by every caller and
    never mutated.  A head is expanded only if its product chain, lowered
    link by link, reaches the target; a dependent link keeps the head,
    since its instances are not known in advance.  Which heads reach a
    target does not depend on the size, so they are kept per key without
    the size, each with its looked-up type, in position order, holding the
    same objects as the memo's entry: an atomic target's miss at a further
    size only builds the spines of that list.
    """
    spec = scope.spec
    base = len(scope.tys)  # binder types are pushed above the scope's slots
    # key -> (inhabitants, the objects whose ids the key holds); holding
    # them keeps every id in a key from being reused while the memo lives
    memo: dict[tuple[int, ...], tuple[list[Term], tuple[Term, ...]]] = {}
    # the same key without the size -> (the heads that reach the target,
    # each with its looked-up type, and the same objects)
    heads: dict[tuple[int, ...], tuple[list[tuple[Var, Term]], tuple[Term, ...]]] = {}

    def reaches(ty: Term, tn: Term) -> bool:
        """ty's product chain can end in tn."""
        while ty != tn:
            if type(ty) is not Pi:
                return False
            try:
                ty = ty._low
            except AttributeError:
                ty = lower(ty)
            if ty is None:
                return True
        return True

    def gen(tn: Term, size: int) -> list[Term]:
        """The inhabitants of tn of exactly this size; shared, never mutate."""
        if size <= 0:
            return []
        held = (tn, *scope.tys[base:])
        key = (size, *map(id, held))
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        if type(tn) is Pi:
            scope.push(tn.dom)
            bodies = gen(tn.cod, size - 1)
            scope.pop()
            out = [Lam(tn.dom, body, tn.hint) for body in bodies]
            memo[key] = out, held
            return out
        hit = heads.get(key[1:])
        if hit is None:
            hit = heads[key[1:]] = [], held
            depth = len(scope.tys)
            for pos in range(depth):
                if pos not in unknowns:
                    k = depth - 1 - pos
                    head_ty = scope.lookup(k)
                    if reaches(head_ty, tn):
                        hit[0].append((Var(k), head_ty))
        out = []
        for head, head_ty in hit[0]:
            spines(head, head_ty, tn, size - 1, out)
        if type(tn) is Sort:
            if tn == TYPE and size == 1:
                out.append(PROP)
            for s1, s2 in spec.rules:
                if Sort(s2) != tn:
                    continue
                for dom_size in range(1, size - 1):
                    for dom in gen(Sort(s1), dom_size):
                        scope.push(beta_eta_normalize(dom))
                        cods = gen(tn, size - 1 - dom_size)
                        scope.pop()
                        out.extend(Pi(dom, cod) for cod in cods)
        memo[key] = out, held
        return out

    def spines(head: Term, head_ty: Term, target: Term, size: int, out: list[Term]) -> None:
        """Append the spines (head args...) of exactly this size that reach target."""
        if head_ty == target:
            if size == 0:
                out.append(head)
            return
        if type(head_ty) is not Pi:
            return
        try:
            lowered = head_ty._low
        except AttributeError:
            lowered = lower(head_ty)
        for arg_size in range(1, size):
            for arg in gen(head_ty.dom, arg_size):
                rest = lowered
                if rest is None:
                    rest = instantiate(head_ty.cod, arg)
                spines(App(head, arg), rest, target, size - 1 - arg_size, out)

    found: list[Term] = []
    for size in range(1, budget.max_term_size + 1):
        found.extend(sorted(gen(target, size), key=describe))
    return found


def solve_bounded(p: Problem, budget: SearchBudget, spec: CubeSpec) -> list[Substitution]:
    """Assign enumerated candidates to the unknowns in declaration order
    and keep the assignments that verify as solutions.

    The declarations are walked in order in one typing scope in the
    problem's own numbering, and nothing is copied.  Of the problem's L
    slots, a universal slot q is bound to the level q - L and an earlier
    unknown to its candidate's `replacement_entry`, whose closure is the
    walk's own environment; a declared type over the first q slots is
    read under that environment and read back at depth q - L
    (`normalize_under`).  A universal slot's type is pushed on the scope.
    An unknown's slot holds Prop, a constant that nothing reads: the slot
    heads no candidate, and every type reads it as its candidate.  An
    unknown's target is read the same way; its candidates are generated
    in the scope and cached by the scope's types and the target.  A type
    is read at each walk node that reaches it, so a universal slot's type
    holding a redex spends its fuel once per assignment of the unknowns
    before it.  A leaf's environment is the levels of the universal slots
    after the last unknown, then the entry of the last unknown's
    candidate, then the walk's environment: the comparison environment
    of its own assignment (`problems.comparison_env`).  A leaf is
    recorded under its level, the largest candidate size in its
    assignment.  The levels are then tested in ascending order, and the
    search stops after the first level at which max_solutions have been
    found; every solution of a higher level would sort after them.

    A leaf reads both sides under its environment, as their images under the
    assignment, without copying them: `converts` compares them once, heads
    first, and reads neither back, so it rejects most leaves at their first
    rigid heads that differ.  It draws on the same `with Fuel(...)` budget
    and spends what it would on substituted copies.  Only a leaf whose sides
    convert becomes a Substitution, its candidates read over the image with
    `apply_subst`, and is typed with the call's `well_typed_check`, so every
    returned solution is typed by the kernel and has its sides converted,
    once each: the problem's own facts, the escape check of every declared
    type and the universal slots before the first unknown, once per call,
    and every check that depends on the assignment once per solution.  So a
    redex in the type of such a slot spends its fuel once in the check, not
    once per found solution; the sides are not converted again, since the
    leaf's environment is the one `is_solution` converts them under.  Testing
    conversion first drops no solution: each candidate is well typed by
    construction against its slot's instantiated type, so every assignment
    is well-typed.

    Sound but deliberately incomplete beyond the budget.  The result order
    sorts by largest component first, so enlarging the size budget only
    appends; the list is cut at max_solutions.
    """
    decls = p.qctx.decls
    length = len(decls)
    ex_positions = p.qctx.existential_positions()
    last = len(ex_positions) - 1
    found: list[Substitution] = []
    well_typed = well_typed_check(p, spec)
    scope = Scope((), spec)
    cand_cache: dict[tuple[tuple[Term, ...], Term], list[tuple[Term, int]]] = {}
    # level -> leaves: (the environment of the slots before the last
    # unknown, the earlier candidates, the last unknown's candidate)
    leaves: dict[int, list[tuple[tuple, tuple[Term, ...], Term]]] = {}

    def test(env: tuple, chosen: tuple[Term, ...]) -> None:
        if not converts(p.lhs, p.rhs, env):
            return
        triples: list[SubstTriple] = []
        for q, c in zip(ex_positions, chosen):
            if triples:  # no unknown comes before the first one
                c = apply_subst(Substitution(p.qctx.prefix(q), tuple(triples)), c)
            triples.append(SubstTriple(q, QContext(), c))
        s = Substitution(p.qctx, tuple(triples))
        if well_typed(s):
            found.append(s)

    def walk(walked: tuple, chosen: tuple[Term, ...], level: int) -> None:
        """Push the universal slots up to the next unknown and try its
        candidates; walked binds each slot before them, innermost first."""
        i = len(chosen)
        start, e = len(walked), ex_positions[i]
        for q in range(start, e):
            scope.push(normalize_under(decls[q].ty, walked, q - length))
            walked = (q - length,) + walked
        target = normalize_under(decls[e].ty, walked, e - length)
        key = (tuple(scope.tys), target)
        cands = cand_cache.get(key)
        if cands is None:
            cands = cand_cache[key] = [
                (c, decision_size(c))
                for c in _inhabitants(scope, target, budget, frozenset(ex_positions[:i]))
            ]
        if i == last:
            for cand, size in cands:
                leaves.setdefault(max(level, size), []).append((walked, chosen, cand))
        else:
            # the unknown's slot heads no candidate, and every type reads it
            # as its candidate; it holds a constant, not its target, so that
            # the cache keys do not vary with the earlier candidates
            scope.push(PROP)
            for cand, size in cands:
                entry = replacement_entry(cand, walked)
                walk((entry,) + walked, chosen + (cand,), max(level, size))
            scope.pop()
        for _ in range(start, e):
            scope.pop()

    if last < 0:
        test((), ())
    else:
        walk((), (), 0)
        # the slots after the last unknown are universal: each is its level
        tail = tuple(range(-1, ex_positions[last] - length, -1))
        for level in sorted(leaves):
            for walked, chosen, cand in leaves[level]:
                test(tail + (replacement_entry(cand, walked),) + walked, chosen + (cand,))
            if len(found) >= budget.max_solutions:
                break

    def sol_key(s: Substitution) -> tuple[int, int, tuple[str, ...]]:
        sizes = [decision_size(tr.term) for tr in s.triples] or [0]
        return max(sizes), sum(sizes), tuple(describe(tr.term) for tr in s.triples)

    found.sort(key=sol_key)
    return found[: budget.max_solutions]
