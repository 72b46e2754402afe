"""Arguments-first normalizer, an oracle for the package's normal-order one.

Beta reduction contracts the innermost redex first (arguments before the
function), then eta runs to a fixpoint.  Built on the `match` walks of
match_walks, it shares no reduction code with `beta_eta_normalize`, so
equal results from the two strategies are a confluence check.
"""

from __future__ import annotations

from cubematch.errors import FuelExhausted
from cubematch.reduction import Fuel
from cubematch.terms import App, Lam, Pi, Term
from match_walks import Tank, eta_fixpoint, subst


def _inner(t: Term, tank: Tank) -> Term:
    """Full beta-normal form, arguments first (rightmost-innermost)."""
    while True:
        match t:
            case App(fn, arg):
                arg_n = _inner(arg, tank)
                fn_n = _inner(fn, tank)
                if isinstance(fn_n, Lam):
                    tank.spend()
                    t = subst(fn_n.body, 0, arg_n)
                    continue
                return App(fn_n, arg_n)
            case Lam(dom, body, hint):
                return Lam(_inner(dom, tank), _inner(body, tank), hint)
            case Pi(dom, cod, hint):
                return Pi(_inner(dom, tank), _inner(cod, tank), hint)
            case _:
                return t


def beta_eta_normalize_innermost(t: Term, fuel: Fuel | None = None) -> Term:
    """Arguments-first route to the normal form of beta_eta_normalize."""
    tank = Tank(fuel)
    try:
        return eta_fixpoint(_inner(t, tank), tank)
    except RecursionError:
        raise FuelExhausted("term nests too deeply to normalize") from None
