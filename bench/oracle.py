"""Independent checks for the benchmark's verdicts.

Everything here goes through the named-variable reference implementation
in `tests/named_ref.py` and the one-redex-at-a-time interpreter in
`tests/smallstep.py`.  Neither shares reduction or index machinery with
the kernel, so a verdict confirmed here is confirmed by a second method.
The benchmark also uses the named constructors to build its inputs and the
answers it expects, so expected right-hand sides and types never come from
the kernel's normalizer.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from named_ref import (  # noqa: E402
    NApp,
    NLam,
    NPi,
    NSort,
    NTerm,
    NVar,
    from_debruijn,
    nfree,
    nsubst,
    to_debruijn,
)
from smallstep import normalize_steps  # noqa: E402

__all__ = [
    "NApp",
    "NLam",
    "NPi",
    "NSort",
    "NTerm",
    "NVar",
    "apps",
    "arrows",
    "decision_size",
    "nfree",
    "show",
    "solves",
    "to_debruijn",
    "nsubst",
]


def apps(head: str, *args: NTerm) -> NTerm:
    out: NTerm = NVar(head)
    for a in args:
        out = NApp(out, a)
    return out


def arrows(base: str, k: int) -> NTerm:
    """base -> base -> ... -> base with k arrows, built by hand."""
    atom = NSort(base) if base in ("Prop", "Type") else NVar(base)
    out: NTerm = atom
    for i in range(k):
        out = NPi(f"_{i}", atom, out)
    return out


def decision_size(t: NTerm) -> int:
    """Choice nodes, counted the way the search counts them."""
    match t:
        case NApp(fn, arg):
            return 1 + decision_size(fn) + decision_size(arg)
        case NLam(_, _, body):
            return 1 + decision_size(body)
        case _:
            return 1


def show(t: NTerm) -> str:
    """Surface syntax for the fragment the generators produce."""
    match t:
        case NVar(x):
            return x
        case NSort(tag):
            return tag
        case NApp():
            head, args = t, []
            while isinstance(head, NApp):
                args.append(head.arg)
                head = head.fn
            parts = [show(head)]
            for a in reversed(args):
                s = show(a)
                parts.append(s if isinstance(a, (NVar, NSort)) else f"({s})")
            return " ".join(parts)
        case NLam(x, dom, body):
            return f"[{x}:{show(dom)}]{show(body)}"
        case NPi(x, dom, cod):
            if x not in nfree(cod):
                d = show(dom)
                return f"{d if isinstance(dom, (NVar, NSort, NApp)) else '(' + d + ')'} -> {show(cod)}"
            return f"({x}:{show(dom)}){show(cod)}"
    raise ValueError(f"cannot show {t!r}")


def solves(problem, subst) -> str | None:
    """None when the oracle confirms `subst` solves `problem`, else why not.

    Every replacement must use only universals declared before its unknown
    (the search is restricted to those), and after named substitution both
    sides must reach the same normal form under small-step reduction.
    """
    decls = problem.qctx.decls
    names = [d.name for d in decls]
    if len(set(names)) != len(names):
        return "oracle needs distinct declaration names"
    lhs = from_debruijn(problem.lhs, names)
    rhs = from_debruijn(problem.rhs, names)
    for tr in subst.triples:
        if len(tr.local):
            return "oracle handles empty local contexts only"
        image = [
            names[q] for q in range(tr.pos) if subst.triple_at(q) is None
        ]
        try:
            repl = from_debruijn(tr.term, image)
        except KeyError:
            return f"replacement for {names[tr.pos]} has an index outside its context"
        allowed = {names[q] for q in range(tr.pos) if decls[q].quant.value == "forall"}
        stray = nfree(repl) - allowed
        if stray:
            return f"replacement for {names[tr.pos]} mentions {sorted(stray)}"
        lhs = nsubst(lhs, names[tr.pos], repl)
        rhs = nsubst(rhs, names[tr.pos], repl)
    nl = to_debruijn(normalize_steps(lhs), names)
    nr = to_debruijn(normalize_steps(rhs), names)
    if nl != nr:
        return "sides do not convert under the small-step oracle"
    return None
