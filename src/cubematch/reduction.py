"""Beta/eta reduction, normalization and conversion.

Strong normalization holds only for well-typed terms (and even there is
taken on faith), so every normalization draws on a Fuel budget and raises
FuelExhausted instead of spinning.  `with Fuel(n):` makes n steps the one
budget shared by every normalization in the block (a context variable,
so other threads do not see it); outside any block each call draws a
default Fuel of its own.

Normalization runs a strong call-by-name machine over de Bruijn
environments instead of substituting.  `_apply` runs a term's head:
it pushes argument closures and contracts a head redex by binding the
closure for the binder.  `_nf` reads the result back to a term, reading
the arguments back in turn, and checks each abstraction for an eta redex
as it is rebuilt.  An environment is a tuple, innermost binder first,
with one entry for each binder between the top of the term being
normalized and the current subterm; an index i >= n (n entries) is free
and reads back under d binders as d + i - n.  An entry is either a level
or a closure (term, env, n).  The readback binds each binder it rebuilds
to its level, the number of binders above it, and slot j of the outer
context has level -1 - j; a variable bound to level l reads back under d
binders as d - 1 - l.

The machine contracts the redexes that normal-order substitution would,
one for one: a closure is never shared or updated, so an argument bound
to a variable used twice is reduced twice.  Each beta and each eta
contraction spends one unit of fuel, and `--fuel` keeps its meaning.
Conversion (`converts`) contracts no eta redex: it meets one by applying
the other side to a fresh variable, so it spends beta steps only.
An argument that is itself a variable is pushed as what the variable is
bound to (its closure or its level), never as a new closure around it;
otherwise a self-application such as (x x)[x := [x:U]x x] would build a
chain of closures one link longer at each step and reach its budget in
quadratic time.  So a closure in an environment never holds a bare
variable.

The machine can also start from a non-empty environment, as Crégut's
strongly reducing Krivine machine does ("Strongly reducing variants of
the Krivine abstract machine", HOSC 20(3), 2007): `normalize_under(t,
env)` reads t with its free indices bound to env's entries.  A term's
image under a substitution is read this way, without being copied: each
replaced slot is bound to the closure of its replacement and each kept
slot to a level.  It takes the steps of normalizing the copy.  The levels
may number the image's slots by position, 0 the outermost, read back at
a depth of the image's length, so that the result lives over the image:
`problems.subst_well_typed` reads an instantiated declared type this way,
for a typing scope over the image, under one environment that grows by
an entry per slot and serves every prefix.  Or they may number the slots
any other way that gives no two image slots one level: the readback then
differs only by that renumbering, and `==` and `converts` give the same
verdicts.  `problems.comparison_env` gives a kept slot q of a
problem's L slots the level q - L, which reads back at depth 0 as its own
index in the problem, so a normal side that mentions no replaced slot is
handed back as it is.  `search.solve_bounded` walks in that numbering: it
reads a declared type over the problem's first q slots at the negative
depth q - L.  `instantiate` binds one slot.

`converts(t1, t2, env)`, the one test of whether two sides convert, runs
the same machine from the same kind of environment but reads neither
side back: it runs both to weak head form and compares their heads, and
goes on to the parts only while they agree (Coquand's algorithm, with
eta met by applying the other side to a fresh variable).  So the first
difference ends it, and a deep term costs no stack.  `problems.is_solution`
converts a substitution's two sides under `comparison_env`, and
`search.solve_bounded` converts each leaf under the same environment,
built by its walk.  `equivalent` is the definition, the comparison of
normal forms, against which the tests check `converts`.
"""

from __future__ import annotations

from contextvars import ContextVar, Token

from .errors import FuelExhausted
from .terms import VARS, App, Lam, Pi, Term, Var, free_indices, shift

__all__ = ["Fuel", "DEFAULT_MAX_STEPS", "beta_eta_normalize", "equivalent"]

DEFAULT_MAX_STEPS = 100_000


class Fuel:
    """A countdown of reduction steps; a context manager sharing it."""

    __slots__ = ("max_steps", "left", "_tokens")

    def __init__(self, max_steps: int = DEFAULT_MAX_STEPS):
        if max_steps <= 0:
            raise ValueError("fuel must be positive")
        self.max_steps = max_steps
        self.left = max_steps
        self._tokens: list[Token[Fuel | None]] = []

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise FuelExhausted(f"reduction fuel exhausted ({self.max_steps} steps)")

    def __enter__(self) -> Fuel:
        self._tokens.append(_BUDGET.set(self))
        return self

    def __exit__(self, *exc: object) -> None:
        _BUDGET.reset(self._tokens.pop())


_BUDGET: ContextVar[Fuel | None] = ContextVar("cubematch_fuel", default=None)


def _apply(t: Term, env: tuple, n: int, args: list, fuel: Fuel) -> tuple[Term | int, tuple, int]:
    """Run t under env, applied to the entries on args, to weak head form.

    args is a stack of environment entries whose last one is the next
    argument.  Each head redex is contracted by binding its argument, one
    step of fuel, and a variable bound to a closure continues as that
    closure.  Returns the head with its environment: not an application,
    not an abstraction while args remain, and a variable as its level (the
    level it is bound to, or n - 1 - i for a free index i); the entries
    left on args are its arguments.
    """
    while True:
        tt = type(t)
        if tt is App:
            a = t.arg
            if type(a) is not Var:
                args.append((a, env, n))
            elif a.index < n:
                args.append(env[a.index])
            else:
                args.append(n - 1 - a.index)
            t = t.fn
        elif tt is Lam and args:
            fuel.spend()
            env = (args.pop(),) + env
            n += 1
            t = t.body
        elif tt is Var and t.index < n:
            e = env[t.index]
            if type(e) is not tuple:
                return e, env, n
            t, env, n = e
        else:
            return (n - 1 - t.index if tt is Var else t), env, n


def _nf(t: Term, env: tuple, n: int, d: int, fuel: Fuel) -> Term:
    """The beta-eta normal form of t under env, read back under d binders.

    Each abstraction is checked for an eta redex once its parts are normal,
    so the eta contractions are those of one bottom-up pass over the beta
    normal form.  A subterm whose reading changes nothing is handed back as
    the same object.  A variable that reads back as a variable, a free
    index or one bound to a level, is the shared node `VARS` holds for its
    new index; a rigid head or an argument that is such a variable is read
    in place, with no call for it.
    """
    tt = type(t)
    if tt is Var:
        i = t.index
        e = env[i] if i < n else n - 1 - i
        if type(e) is int:
            k = d - 1 - e
            return VARS.get(k) or Var(k)
        t, env, n = e  # a closure never holds a bare variable
        tt = type(t)
    if tt is App:
        nodes: list[App] = []
        head = t
        while type(head) is App:
            nodes.append(head)
            head = head.fn
        th = type(head)
        if th is Lam or (th is Var and head.index < n and type(env[head.index]) is tuple):
            args: list = []
            head, henv, hn = _apply(t, env, n, args, fuel)
            if type(head) is int:
                out = VARS.get(d - 1 - head) or Var(d - 1 - head)
            else:
                out = _nf(head, henv, hn, d, fuel)
            for e in reversed(args):
                if type(e) is int:
                    k = d - 1 - e
                    out = App(out, VARS.get(k) or Var(k))
                else:
                    out = App(out, _nf(e[0], e[1], e[2], d, fuel))
            return out
        if th is Var:  # rigid: free, or bound to a level
            i = head.index
            k = d - 1 - (env[i] if i < n else n - 1 - i)
            out = VARS.get(k) or Var(k)
        else:
            out = _nf(head, env, n, d, fuel)
        for node in reversed(nodes):
            arg = node.arg
            if type(arg) is Var:
                i = arg.index
                e = env[i] if i < n else n - 1 - i
                if type(e) is int:
                    k = d - 1 - e
                    arg = VARS.get(k) or Var(k)
                else:
                    arg = _nf(e[0], e[1], e[2], d, fuel)
            else:
                arg = _nf(arg, env, n, d, fuel)
            out = node if out is node.fn and arg is node.arg else App(out, arg)
        return out
    if tt is Lam:
        dom = _nf(t.dom, env, n, d, fuel)
        body = _nf(t.body, (d,) + env, n + 1, d + 1, fuel)
        if _eta_redex(body):
            fuel.spend()
            return shift(body.fn, -1, 0)
        if dom is t.dom and body is t.body:
            return t
        return Lam(dom, body, t.hint)
    if tt is Pi:
        dom = _nf(t.dom, env, n, d, fuel)
        cod = _nf(t.cod, (d,) + env, n + 1, d + 1, fuel)
        if dom is t.dom and cod is t.cod:
            return t
        return Pi(dom, cod, t.hint)
    return t


def _eta_redex(body: Term) -> bool:
    """body is (g #0) with #0 not free in g, so [x:T]body contracts to g."""
    if type(body) is not App:
        return False
    arg = body.arg
    return type(arg) is Var and arg.index == 0 and 0 not in free_indices(body.fn)


def normalize_under(t: Term, env: tuple, depth: int = 0) -> Term:
    """The beta-eta normal form of t with its free index i bound to env[i].

    env is an environment as the machine keeps one, read back at `depth`:
    a level l reads back as the index depth - 1 - l, and a closure
    (term, env', n) stands for that term, itself read under env'.  At the
    default depth 0, a level -1 - j stands for slot j of the outer
    context; an environment whose levels are the positions of a context
    of k slots, 0 the outermost, reads back over that context at depth k.
    Depth may be negative: `search.solve_bounded` binds a problem's slot
    p of L to the level p - L and reads a type over its first q slots at
    depth q - L, so that slot p reads back as the index q - 1 - p.
    No closure may hold a bare variable; bind its level instead.  The same
    steps are taken, and the same fuel spent, as in normalizing t with
    every bound index replaced by what it is bound to.
    """
    fuel = _BUDGET.get() or Fuel()
    try:
        return _nf(t, env, len(env), depth, fuel)
    except RecursionError:
        raise FuelExhausted("term nests too deeply to normalize") from None


def beta_eta_normalize(t: Term) -> Term:
    """The beta-normal, maximally eta-contracted form of t.

    Beta steps are contracted in normal order, call by name, then eta in
    one bottom-up pass over the beta normal form; on beta-normal input eta
    cannot re-create a beta redex, so the result has neither kind of redex.
    Each step spends one unit of the enclosing `with Fuel(...)` block's
    budget, or of a default Fuel of this call's own outside any block.
    """
    return normalize_under(t, ())


def instantiate(cod: Term, arg: Term) -> Term:
    """beta_eta_normalize(subst(cod, 0, arg)), in one walk and the same steps.

    cod's index 0 is bound to arg, as a closure or the level of a variable,
    instead of being replaced; the typing of a dependent application and
    search's dependent spines instantiate a codomain this way.
    """
    return normalize_under(cod, (-1 - arg.index if type(arg) is Var else (arg, (), 0),))


def equivalent(t1: Term, t2: Term) -> bool:
    """Beta-eta conversion by its definition: same normal form.

    The package decides conversion with `converts`, which reads nothing
    back; the tests check it against this definition.
    """
    return beta_eta_normalize(t1) == beta_eta_normalize(t2)


def converts(t1: Term, t2: Term, env: tuple = ()) -> bool:
    """t1 and t2, both read under env as `normalize_under` reads a term,
    have one beta-eta normal form, decided by comparing their heads lazily,
    without reading either back (Coquand, "An algorithm for type-checking
    dependent types", SCP 26, 1996).

    A work item is a pair of environment entries and the number d of
    binders entered above them; both sides start as (t, env, len(env)) at
    depth 0.  Each side is run to weak head form and the heads are
    compared: class (variable, sort or product), level or tag, and the
    number of arguments.  A product pushes its domains, then its codomains
    with the binder bound to the same fresh level d on both sides; the
    arguments are pushed next, in application order.  A pair of the same
    term under the same environment object is skipped, and so is a pair of
    one level.  A pair headed by
    an abstraction waits on a second list, read only when the first is
    empty, so a pair of rigid heads that differ is found after the same
    steps as if abstractions were not compared at all.  Two abstractions
    compare their domains, then their bodies under d; an abstraction
    against anything else compares its body under d with the other side,
    as already run, applied to d (eta), so no redex is contracted twice.

    On two terms of one type that normalize, the verdict is that of
    `equivalent`, in no more steps: no eta redex is contracted, and the
    first pair that differs ends the walk.  Domains are compared, so on
    two abstractions of different types the verdict may differ.  The head
    steps spend the enclosing `with Fuel(...)` budget, or a default Fuel
    of this call's own outside any block.  Nothing recurses, so deep terms
    cost no stack.
    """
    fuel = _BUDGET.get() or Fuel()
    n = len(env)
    todo: list = [((t1, env, n), (t2, env, n), 0)]
    lams: list = []  # (abstraction, env, n, other head, env, n, other args, d)
    while True:
        if todo:
            a, b, d = todo.pop()
            if type(b) is int:
                if type(a) is int and a == b:
                    continue
                hb, env_b, n_b, args_b = b, (), 0, ()
            elif type(a) is tuple and a[0] is b[0] and a[1] is b[1]:
                continue
            else:
                args_b = []
                hb, env_b, n_b = _apply(b[0], b[1], b[2], args_b, fuel)
        elif lams:
            lam, env_a, n_a, hb, env_b, n_b, args_b, d = lams.pop()
            if type(hb) is Lam:
                todo.append(((lam.dom, env_a, n_a), (hb.dom, env_b, n_b), d))
                todo.append(((lam.body, (d,) + env_a, n_a + 1), (hb.body, (d,) + env_b, n_b + 1), d + 1))
                continue
            # eta: the body under d against the other side applied to d, its
            # last argument, so at the bottom of its stack
            a = (lam.body, (d,) + env_a, n_a + 1)
            args_b = [d, *args_b]
            d += 1
        else:
            return True
        if type(a) is int:
            ha, env_a, n_a, args_a = a, (), 0, ()
        else:
            args_a = []
            ha, env_a, n_a = _apply(a[0], a[1], a[2], args_a, fuel)
        # a variable head is a level; args are stacks, the first argument last
        if type(ha) is Lam:
            lams.append((ha, env_a, n_a, hb, env_b, n_b, args_b, d))
        elif type(hb) is Lam:
            lams.append((hb, env_b, n_b, ha, env_a, n_a, args_a, d))
        elif type(ha) is not type(hb) or len(args_a) != len(args_b):
            return False
        else:
            if type(ha) is Pi:
                todo.append(((ha.dom, env_a, n_a), (hb.dom, env_b, n_b), d))
                todo.append(((ha.cod, (d,) + env_a, n_a + 1), (hb.cod, (d,) + env_b, n_b + 1), d + 1))
            elif ha != hb:
                return False
            todo.extend(zip(reversed(args_a), reversed(args_b), [d] * len(args_a)))
