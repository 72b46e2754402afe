"""De Bruijn terms for the cube calculi.

Five constructors: the two sorts, variables, application, annotated
abstraction and products.  An index n occurring under k binders with
n >= k points at the enclosing context slot n - k, counting inward from
the innermost declaration.  Binder display hints never take part in
equality or hashing.

Terms are plain `__slots__` objects.  They are immutable: the one
constructor of each class checks its fields (a `Var` index is never
negative, a `Sort` tag is "Prop" or "Type") and assignment or deletion
raises `AttributeError`.  Two facts about a node are computed on first
use and kept in it, in slots that are not fields: its hash, and for a
product its lowered codomain (`lower`: the codomain moved out from under
its binder, or None when it uses the binder), which typing an
application and search's head chains read at every product they pass.
Neither takes part in `==`, `hash` or the `repr`.  `==` returns at once
for the same object, so subterms shared between two terms are never
walked, and both `==` and `hash` run on an explicit stack, so the depth
of a term is not limited by Python's recursion limit.  `copy`, `deepcopy`
and `pickle` rebuild a node through its constructor, without the cached
data.

The leaves are interned: there is one `Var` node per index and one `Sort`
node per tag in the process, so `Var(k) is Var(k)`, `Sort("Prop") is
PROP`, and leaf `==` is identity.  The nodes live in per-process tables
filled on demand, through `dict.setdefault`, so two threads building the
same fresh index get one node, and `Var(10**9)` builds that one node
alone.  The variable table is public as `VARS`, index to node, for walks
that read a node back by index: `VARS.get(k) or Var(k)` costs a dict
lookup where `Var(k)` costs a constructor call.  Only `Var` writes to it.
Copies and unpickled leaves are the shared nodes too, since they are
built through the constructor.

The kernel's recursive walks (here, in `reduction`, `typecheck`,
`problems` and `search`) dispatch on `type(t) is Var/App/Lam/Pi` and read
fields directly rather than using structural `match`, which costs an
isinstance check and a field unpacking per node.  A walk that rebuilds
terms hands back its input object when it changes nothing, so unchanged
subterms stay physically shared: `shift(t, 0, c) is t`, and normalizing
a normal term allocates nothing.

`map_free(t, on_var)` is the one rebuild walk: `subst`, `free_indices`
and `problems.apply_subst` are each a variable rule passed to it.  It
is public, outside `__all__` like `VARS`, for `problems`; so is `lower`,
for `typecheck` and `search`.  Only `shift` keeps a specialised walk,
`_shift`: it is the hottest walk, and a call per variable through a
callback slows it measurably.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Collection

from .record import Record, slot_setters

__all__ = [
    "Term",
    "Sort",
    "Var",
    "App",
    "Lam",
    "Pi",
    "PROP",
    "TYPE",
    "shift",
    "subst",
    "free_indices",
    "arrow",
    "app",
    "spine",
    "node_count",
    "describe",
    "pick_fresh",
]


class _Node(Record):
    """What the five constructors share: `==` and `hash` up to binder hints.

    The leaves, being interned, replace `==` by identity.  Immutability,
    the `repr`, and pickling by constructor call come from `Record`; the
    cached hash is not a field, so it is never pickled."""

    __slots__ = ("_hash",)

    def __eq__(self, other: object) -> bool:
        """Structural equality up to hints; shared subterms are skipped by `is`.

        The walk follows one pair of children and stacks the other, so no
        depth of term exhausts the Python stack."""
        a, b = self, other
        todo: list[Term] = []
        while True:
            if a is not b:
                ta = type(a)
                if ta is not type(b):
                    return False
                if ta is App:
                    if a.arg is not b.arg:
                        todo.append(a.arg)
                        todo.append(b.arg)
                    a, b = a.fn, b.fn
                    continue
                if ta is Pi:
                    if a.cod is not b.cod:
                        todo.append(a.cod)
                        todo.append(b.cod)
                    a, b = a.dom, b.dom
                    continue
                if ta is Lam:
                    if a.body is not b.body:
                        todo.append(a.body)
                        todo.append(b.body)
                    a, b = a.dom, b.dom
                    continue
                return False  # two distinct leaves: leaves are interned
            if not todo:
                return True
            b = todo.pop()
            a = todo.pop()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return _fill_hash(self)


class Sort(_Node):
    """One of the two sorts, tagged "Prop" or "Type"; one node per tag."""

    __slots__ = ("tag",)
    __match_args__ = __slots__
    tag: str

    def __new__(cls, tag: str) -> Sort:
        if tag not in ("Prop", "Type"):
            raise ValueError(f"bad sort tag: {tag!r}")
        node = _SORTS.get(tag)
        if node is None:
            node = object.__new__(cls)
            _set_tag(node, tag)
            node = _SORTS.setdefault(tag, node)
        return node

    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = _Node.__hash__


class Var(_Node):
    """A de Bruijn index (always non-negative); one node per index."""

    __slots__ = ("index",)
    __match_args__ = __slots__
    index: int

    def __new__(cls, index: int) -> Var:
        node = VARS.get(index)
        if node is None:
            # the node is shared: keep no int subclass such as bool in it
            index = operator.index(index)
            if index < 0:
                raise ValueError(f"negative de Bruijn index: {index}")
            node = object.__new__(cls)
            _set_index(node, index)
            node = VARS.setdefault(index, node)
        return node

    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = _Node.__hash__


class App(_Node):
    __slots__ = ("fn", "arg")
    __match_args__ = __slots__
    fn: Term
    arg: Term

    def __init__(self, fn: Term, arg: Term) -> None:
        _set_fn(self, fn)
        _set_arg(self, arg)


class Lam(_Node):
    """Annotated abstraction [x:dom]body."""

    __slots__ = ("dom", "body", "hint")
    __match_args__ = __slots__
    dom: Term
    body: Term
    hint: str | None

    def __init__(self, dom: Term, body: Term, hint: str | None = None) -> None:
        _set_lam_dom(self, dom)
        _set_body(self, body)
        _set_lam_hint(self, hint)


class Pi(_Node):
    """Product (x:dom)cod; prints as dom -> cod when cod ignores the binder.

    `_low` caches `lower(self)` once it is asked for; it is not a field."""

    __slots__ = ("dom", "cod", "hint", "_low")
    __match_args__ = ("dom", "cod", "hint")
    dom: Term
    cod: Term
    hint: str | None

    def __init__(self, dom: Term, cod: Term, hint: str | None = None) -> None:
        _set_pi_dom(self, dom)
        _set_cod(self, cod)
        _set_pi_hint(self, hint)


(_set_hash,) = slot_setters(_Node, "_hash")
(_set_tag,) = slot_setters(Sort)
(_set_index,) = slot_setters(Var)
_set_fn, _set_arg = slot_setters(App)
_set_lam_dom, _set_body, _set_lam_hint = slot_setters(Lam)
_set_pi_dom, _set_cod, _set_pi_hint = slot_setters(Pi)
(_set_low,) = slot_setters(Pi, "_low")

VARS: dict[int, Var] = {}
_SORTS: dict[str, Sort] = {}


def _fill_hash(root: Term) -> int:
    """Hash root and cache the hash of every node below it that has none yet.

    Post-order on an explicit stack: a node is hashed once both children
    carry a cached hash.  Each class mixes in a tag of its own."""
    todo = [root]
    while todo:
        t = todo[-1]
        tt = type(t)
        if tt is Var:
            h = hash((1, t.index))
        elif tt is Sort:
            h = hash((0, t.tag))
        else:
            if tt is App:
                tag, left, right = 2, t.fn, t.arg
            elif tt is Lam:
                tag, left, right = 3, t.dom, t.body
            else:
                tag, left, right = 4, t.dom, t.cod
            hl = getattr(left, "_hash", None)
            hr = getattr(right, "_hash", None)
            if hl is None or hr is None:
                if hr is None:
                    todo.append(right)
                if hl is None:
                    todo.append(left)
                continue
            h = hash((tag, hl, hr))
        _set_hash(t, h)
        todo.pop()
    return h


Term = Sort | Var | App | Lam | Pi

PROP = Sort("Prop")
TYPE = Sort("Type")


def shift(t: Term, d: int, cutoff: int = 0) -> Term:
    """Move free indices >= cutoff by d; bound structure is untouched.

    Ending up below zero means a still-referenced binder was dropped,
    which is a defect in the caller, not a property of the input.
    """
    if d == 0:
        return t
    return _shift(t, d, cutoff)


def _shift(t: Term, d: int, cutoff: int) -> Term:
    # map_free with the shift rule written in: `Scope.lookup`, `lower`
    # and the eta step make this the hottest walk, and map_free's
    # callback slowed `verify-large` measurably (ROADMAP.md).
    tt = type(t)
    if tt is Var:
        k = t.index
        if k < cutoff:
            return t
        if k + d < 0:
            raise ValueError(f"shift would make index {k} negative (d={d})")
        k += d
        return VARS.get(k) or Var(k)
    if tt is App:
        fn = _shift(t.fn, d, cutoff)
        arg = _shift(t.arg, d, cutoff)
        if fn is t.fn and arg is t.arg:
            return t
        return App(fn, arg)
    if tt is Lam:
        dom = _shift(t.dom, d, cutoff)
        body = _shift(t.body, d, cutoff + 1)
        if dom is t.dom and body is t.body:
            return t
        return Lam(dom, body, t.hint)
    if tt is Pi:
        dom = _shift(t.dom, d, cutoff)
        cod = _shift(t.cod, d, cutoff + 1)
        if dom is t.dom and cod is t.cod:
            return t
        return Pi(dom, cod, t.hint)
    return t


def map_free(t: Term, on_var: Callable[[Var, int], Term], depth: int = 0) -> Term:
    """t with each free variable v, met under depth binders, replaced by
    on_var(v, depth); unchanged subterms are handed back as the same object.

    A variable is free when its index is at least its depth, which counts
    the binders above it in t from the given depth.
    """
    tt = type(t)
    if tt is Var:
        return t if t.index < depth else on_var(t, depth)
    if tt is App:
        fn = map_free(t.fn, on_var, depth)
        arg = map_free(t.arg, on_var, depth)
        if fn is t.fn and arg is t.arg:
            return t
        return App(fn, arg)
    if tt is Lam:
        dom = map_free(t.dom, on_var, depth)
        body = map_free(t.body, on_var, depth + 1)
        if dom is t.dom and body is t.body:
            return t
        return Lam(dom, body, t.hint)
    if tt is Pi:
        dom = map_free(t.dom, on_var, depth)
        cod = map_free(t.cod, on_var, depth + 1)
        if dom is t.dom and cod is t.cod:
            return t
        return Pi(dom, cod, t.hint)
    return t


def subst(t: Term, j: int, s: Term) -> Term:
    """Replace index j by s, dropping higher indices by one.

    The renormalization makes `subst(body, 0, arg)` exactly the beta step
    for a consumed binder, and `subst(shift(t, 1, 0), 0, s) == t`.
    """
    # s is shifted under binders only where j occurs, once per depth
    lifted: dict[int, Term] = {0: s}

    def on_var(v: Var, depth: int) -> Term:
        k = v.index - depth
        if k < j:
            return v
        if k > j:
            k = v.index - 1
            return VARS.get(k) or Var(k)
        r = lifted.get(depth)
        if r is None:
            r = lifted[depth] = _shift(s, depth, 0)
        return r

    return map_free(t, on_var)


def free_indices(t: Term) -> set[int]:
    """Context slots referenced by t, adjusted across binders."""
    out: set[int] = set()

    def on_var(v: Var, depth: int) -> Term:
        out.add(v.index - depth)
        return v

    map_free(t, on_var)
    return out


def lower(pi: Pi) -> Term | None:
    """pi's codomain moved out from under its binder; None when it uses it.

    A normal codomain that ignores its binder stays normal when lowered.
    The answer is computed on first use and kept in the node; a hot walk
    reads `pi._low` itself and calls this only when that slot is empty."""
    try:
        return pi._low
    except AttributeError:
        cod = pi.cod
        low = None if 0 in free_indices(cod) else _shift(cod, -1, 0)
        _set_low(pi, low)
        return low


def arrow(dom: Term, cod: Term, hint: str | None = None) -> Pi:
    """Non-dependent product dom -> cod (cod hoisted over the unused binder)."""
    return Pi(dom, shift(cod, 1, 0), hint)


def app(fn: Term, *args: Term) -> Term:
    """Left-nested application (fn a1 ... an)."""
    out = fn
    for a in args:
        out = App(out, a)
    return out


def spine(t: Term) -> tuple[Term, tuple[Term, ...]]:
    """Unfold applications into (head, args) with args in application order."""
    args: list[Term] = []
    while type(t) is App:
        args.append(t.arg)
        t = t.fn
    return t, tuple(reversed(args))


def node_count(t: Term) -> int:
    tt = type(t)
    if tt is App:
        return 1 + node_count(t.fn) + node_count(t.arg)
    if tt is Lam:
        return 1 + node_count(t.dom) + node_count(t.body)
    if tt is Pi:
        return 1 + node_count(t.dom) + node_count(t.cod)
    return 1


def describe(t: Term) -> str:
    """Index-based rendering for diagnostics; needs no name information."""
    tt = type(t)
    if tt is Var:
        return f"#{t.index}"
    if tt is App:
        head, args = spine(t)
        return "(" + " ".join([describe(head), *map(describe, args)]) + ")"
    if tt is Lam:
        return f"[:{describe(t.dom)}]{describe(t.body)}"
    if tt is Pi:
        return f"(:{describe(t.dom)}){describe(t.cod)}"
    return t.tag


def pick_fresh(hint: str | None, taken: Collection[str]) -> str:
    """A display name from the hint, numeric-suffixed away from `taken`."""
    if hint and hint not in taken:
        return hint
    base = hint or "x"
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"
