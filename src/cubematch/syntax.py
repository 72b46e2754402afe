"""Concrete syntax: parser and printer for terms, problem files and
substitution files.

Term grammar (ASCII only, comments run from # to end of line):

    term  :=  [x:term]term  |  (x:term)term  |  app ("->" term)?
    app   :=  atom+
    atom  :=  Prop | Type | IDENT | "(" term ")"

Binders extend as far right as possible, so an abstraction or product
used as an application argument must be parenthesized; arrows associate
to the right and application to the left.  Names resolve to the nearest
enclosing binder; shadowing is allowed.  `T -> U` is the product whose
binder nothing names: U is read under a scope entry no name matches.

The tokenizer turns a text into plain tuples `(kind, text, start, end)`,
offsets into the text, ending with an "eof" token.  A `SourceSpan`, with
its line and column, is computed from the text and the offsets only
where one is reported: in an error and for a problem's `=`.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import CubeError, ParseError, ProblemError, UnboundName
from .problems import (
    Problem,
    ProblemKind,
    QContext,
    QDecl,
    Quant,
    SubstTriple,
    Substitution,
    make_problem,
)
from .record import Record
from .terms import (
    PROP,
    TYPE,
    App,
    Lam,
    Pi,
    Term,
    Var,
)
from .typecheck import CubeSpec, SortPair, cube_spec

__all__ = [
    "SourceSpan",
    "parse_term",
    "parse_problem",
    "ParsedProblem",
    "parse_problem_file",
    "parse_substitution",
    "print_term",
    "print_problem",
    "print_substitution",
    "scope_names",
]

KEYWORDS = frozenset(
    {"forall", "exists", "match", "unify", "calculus", "custom", "where", "Prop", "Type"}
)


class SourceSpan(Record):
    __slots__ = ("start", "end", "line", "col")
    __match_args__ = __slots__
    start: int
    end: int
    line: int
    col: int

    def _check(self) -> None:
        if self.start > self.end:
            raise ValueError("span ends before it starts")

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def _span(text: str, start: int, end: int) -> SourceSpan:
    """The span of text[start:end], with the 1-based line and column of start."""
    line = text.count("\n", 0, start) + 1
    return SourceSpan(start, end, line, start - text.rfind("\n", 0, start))


# (kind, text, start, end); kind is "ident", "kw", "punct" or "eof"
_Tok = tuple[str, str, int, int]


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == "#":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif ch in "()[]:,=-":
            j = i + 2 if text.startswith(("->", ":="), i) else i + 1
            toks.append(("punct", text[i:j], i, j))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(("kw" if word in KEYWORDS else "ident", word, i, j))
            i = j
        else:
            raise ParseError(f"stray character {ch!r}", span=_span(text, i, i + 1))
    toks.append(("eof", "", n, n))
    return toks


class _Parser:
    def __init__(self, text: str, tokens: list[_Tok]):
        self.text = text
        self.toks = tokens
        self.i = 0

    def error(self, tok: _Tok, message: str, cls: type[CubeError] = ParseError) -> CubeError:
        return cls(message, span=_span(self.text, tok[2], tok[3]))

    def peek(self, k: int = 0) -> _Tok:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def advance(self) -> _Tok:
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t[0] == kind and (text is None or t[1] == text)

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        t = self.peek()
        if not self.at(kind, text):
            raise self.error(t, f"expected {text or kind!r}, found {t[1] or 'end of input'!r}")
        return self.advance()

    def done(self) -> bool:
        return self.peek()[0] == "eof"

    def finish(self, what: str) -> None:
        if not self.done():
            tok = self.peek()
            raise self.error(tok, f"unexpected {tok[1]!r} after {what}")

    def until(self, kind: str, text: str) -> _Parser:
        """Skip to the next such token or the end.

        Returns a parser over the skipped tokens, whose end of input is
        the token that stopped them."""
        start = self.i
        while not (self.done() or self.at(kind, text)):
            self.advance()
        _, _, s, e = self.peek()
        return _Parser(self.text, self.toks[start : self.i] + [("eof", "", s, e)])

    # -- terms ------------------------------------------------------------

    def term(self, scope: list[str]) -> Term:
        if self.at("punct", "["):
            self.advance()
            name = self.expect("ident")[1]
            self.expect("punct", ":")
            dom = self.term(scope)
            self.expect("punct", "]")
            body = self.term(scope + [name])
            return Lam(dom, body, name)
        if self.at("punct", "(") and self.peek(1)[0] == "ident" and self.peek(2)[1] == ":":
            self.advance()
            name = self.expect("ident")[1]
            self.expect("punct", ":")
            dom = self.term(scope)
            self.expect("punct", ")")
            cod = self.term(scope + [name])
            return Pi(dom, cod, name)
        left = self.app(scope)
        if self.at("punct", "->"):
            self.advance()
            return Pi(left, self.term(scope + [""]))  # no name resolves to ""
        return left

    def app(self, scope: list[str]) -> Term:
        t = self.atom(scope)
        while self.peek()[0] == "ident" or self.peek()[1] in ("Prop", "Type", "("):
            t = App(t, self.atom(scope))
        return t

    def atom(self, scope: list[str]) -> Term:
        tok = self.peek()
        kind, text = tok[0], tok[1]
        if kind == "kw" and text in ("Prop", "Type"):
            self.advance()
            return PROP if text == "Prop" else TYPE
        if kind == "ident":
            self.advance()
            for k in range(len(scope) - 1, -1, -1):
                if scope[k] == text:
                    return Var(len(scope) - 1 - k)
            raise self.error(tok, f"unbound name {text!r}", UnboundName)
        if kind == "punct" and text == "(":
            self.advance()
            inner = self.term(scope)
            self.expect("punct", ")")
            return inner
        raise self.error(tok, f"expected a term, found {text or 'end of input'!r}")

    # -- calculus header --------------------------------------------------

    def calculus(self) -> CubeSpec:
        self.expect("kw", "calculus")
        tok = self.peek()
        if self.at("kw", "custom"):
            self.advance()
            self.expect("punct", "(")
            pairs: set[SortPair] = set()
            while True:
                pairs.add(self._sort_pair())
                if self.at("punct", ","):
                    self.advance()
                    continue
                break
            self.expect("punct", ")")
            try:
                return CubeSpec(frozenset(pairs))
            except ValueError as e:
                raise self.error(tok, str(e)) from None
        if tok[0] == "ident":
            self.advance()
            name = tok[1]
            while self.at("punct", "-") and self.peek(1)[0] == "ident":
                self.advance()
                name += "-" + self.advance()[1]  # lw-weak, lPw-weak
            try:
                return cube_spec(name)
            except CubeError as e:
                raise self.error(tok, str(e)) from None
        raise self.error(tok, "expected a calculus name or custom (...)")

    def _sort_pair(self) -> SortPair:
        s1 = self._sort_name()
        self.expect("punct", "-")
        s2 = self._sort_name()
        return (s1, s2)

    def _sort_name(self) -> str:
        tok = self.peek()
        if tok[0] == "kw" and tok[1] in ("Prop", "Type"):
            self.advance()
            return tok[1]
        raise self.error(tok, "expected Prop or Type")


def parse_term(text: str, scope: Sequence[str] = ()) -> Term:
    """Parse one term, resolving names against scope (outermost first)."""
    p = _Parser(text, _tokenize(text))
    t = p.term(list(scope))
    p.finish("the term")
    return t


class ParsedProblem(Record):
    """A problem file before validation."""

    __slots__ = ("spec", "qctx", "lhs", "rhs", "goal_keyword", "eq_span")
    __match_args__ = __slots__
    spec: CubeSpec
    qctx: QContext
    lhs: Term
    rhs: Term
    goal_keyword: str
    eq_span: SourceSpan


def parse_problem_file(text: str) -> ParsedProblem:
    """Read the file shape; no typechecking happens here."""
    p = _Parser(text, _tokenize(text))
    spec = p.calculus()
    decls: list[QDecl] = []
    scope: list[str] = []
    while p.at("kw", "forall") or p.at("kw", "exists"):
        quant = Quant.FORALL if p.advance()[1] == "forall" else Quant.EXISTS
        name = p.expect("ident")[1]
        p.expect("punct", ":")
        ty = p.term(scope)
        decls.append(QDecl(quant, ty, name))
        scope.append(name)
    if not (p.at("kw", "match") or p.at("kw", "unify")):
        tok = p.peek()
        raise p.error(tok, f"expected a declaration or a goal, found {tok[1] or 'end of input'!r}")
    goal_kw = p.advance()[1]
    lhs = p.term(scope)
    eq = p.expect("punct", "=")
    rhs = p.term(scope)
    p.finish("the goal")
    eq_span = _span(text, eq[2], eq[3])
    return ParsedProblem(spec, QContext(tuple(decls)), lhs, rhs, goal_kw, eq_span)


def parse_problem(text: str, spec: CubeSpec | None = None) -> tuple[CubeSpec, Problem]:
    """Parse and validate a problem file; spec overrides the header."""
    raw = parse_problem_file(text)
    active = spec or raw.spec
    try:
        problem = make_problem(raw.qctx, raw.lhs, raw.rhs, active)
    except ProblemError as e:
        raise ProblemError(e.message, span=e.span or raw.eq_span) from e
    if raw.goal_keyword == "match" and problem.kind is not ProblemKind.MATCHING:
        raise ProblemError(
            "goal says match but the right-hand side is not closed",
            span=raw.eq_span,
        )
    return active, problem


# -- substitution files ----------------------------------------------------


def parse_substitution(text: str, qctx: QContext) -> Substitution:
    """Read lines `NAME := term [where exists y : T, exists z : T]`.

    Bindings are processed in declaration order regardless of line order;
    each replacement is scoped over the image of the slots before its own
    (universals and untouched unknowns keep their names, bound unknowns
    contribute their local names instead).  NAME and the names in each
    scope follow the printer's rule: the innermost declaration with a name
    keeps it, a shadowed one answers to the fresh name printed for it.
    """
    # the whole text is tokenized at once, so a stray character is reported
    # before any other fault, even one on an earlier line; a new line
    # starts wherever a newline lies between two tokens
    lines: list[list[_Tok]] = []
    for tok in _tokenize(text)[:-1]:
        if lines and text.find("\n", lines[-1][-1][3], tok[2]) < 0:
            lines[-1].append(tok)
        else:
            lines.append([tok])

    decl_names = scope_names(qctx)
    staged: dict[int, tuple[_Parser, list[tuple[str, _Parser]]]] = {}
    for ltoks in lines:
        end = ltoks[-1][3]
        lp = _Parser(text, ltoks + [("eof", "", end, end)])
        name_tok = lp.advance()
        if name_tok[0] != "ident" or not lp.at("punct", ":="):
            raise lp.error(name_tok, "expected `NAME := term`")
        lp.advance()
        term = lp.until("kw", "where")
        local_specs: list[tuple[str, _Parser]] = []
        if lp.at("kw", "where"):
            lp.advance()
            while True:
                lp.expect("kw", "exists")
                local_name = lp.expect("ident")[1]
                lp.expect("punct", ":")
                local_specs.append((local_name, lp.until("punct", ",")))
                if lp.done():
                    break
                lp.advance()
        name = name_tok[1]
        if name not in decl_names:
            raise lp.error(name_tok, f"{name!r} is not declared in the context", UnboundName)
        pos = decl_names.index(name)
        if qctx.decls[pos].quant is not Quant.EXISTS:
            raise lp.error(name_tok, f"{name!r} is universal and cannot be bound")
        if pos in staged:
            raise lp.error(name_tok, f"{name!r} is bound twice")
        staged[pos] = (term, local_specs)

    def parse_staged(sub: _Parser, scope: list[str]) -> Term:
        if sub.done():
            raise sub.error(sub.peek(), "missing term")
        t = sub.term(scope)
        sub.finish("the term")
        return t

    triples: list[SubstTriple] = []
    image: list[str | None] = []
    for pos, d in enumerate(qctx.decls):
        if pos not in staged:
            image.append(d.name)
            continue
        term, local_specs = staged[pos]
        local_decls: list[QDecl] = []
        for local_name, ty in local_specs:
            ty_term = parse_staged(ty, _distinct_names(image))
            local_decls.append(QDecl(Quant.EXISTS, ty_term, local_name))
            image.append(local_name)
        body = parse_staged(term, _distinct_names(image))
        triples.append(SubstTriple(pos, QContext(tuple(local_decls)), body))
    return Substitution(qctx, tuple(triples))


# -- printing ----------------------------------------------------------------

_TERM, _APP, _ATOM = 0, 1, 2


def print_term(t: Term, scope: Sequence[str] = ()) -> str:
    """Render t against scope; parsing the result gives back t."""
    out: list[str] = []
    _pt(t, _Scope(scope), _used_binders(t), out)
    return "".join(out)


class _Scope:
    """The printer's display names, innermost last, kept in step with the
    set of names a binder's fresh name must avoid.

    `fresh(hint)` is `pick_fresh(hint, set(names) | KEYWORDS)`, without
    building that set or scanning suffixes from 0: `low[base]` is a suffix
    below which every base+suffix is taken.  A scan raises it to where it
    stopped, and a pop lowers it for every base the popped name could be
    made from.  An arrow's binder is named "", which no fresh name can be.
    """

    __slots__ = ("names", "taken", "low")

    def __init__(self, names: Sequence[str]) -> None:
        self.names = list(names)
        self.taken = set(names) | KEYWORDS
        self.low: dict[str, int] = {}

    def fresh(self, hint: str | None) -> str:
        taken = self.taken
        if hint and hint not in taken:
            return hint
        base = hint or "x"
        i = self.low.get(base, 0)
        while f"{base}{i}" in taken:
            i += 1
        self.low[base] = i
        return f"{base}{i}"

    def push(self, name: str) -> None:
        """Enter a binder named `fresh` or ""; a fresh name is never taken."""
        self.names.append(name)
        if name:
            self.taken.add(name)

    def pop(self) -> None:
        name = self.names.pop()
        if not name:
            return
        self.taken.remove(name)
        low = self.low
        # name is base + str(i) at each split before a run of its last
        # digits that has no leading zero
        j = len(name)
        while j > 1 and "0" <= name[j - 1] <= "9":
            j -= 1
            if name[j] != "0" or j == len(name) - 1:
                base, i = name[:j], int(name[j:])
                if low.get(base, 0) > i:
                    low[base] = i


def _used_binders(t: Term) -> set[int]:
    """The ids of the binders in t that some variable of their scope names.

    One pass on an explicit stack, so the printer asks whether a product is
    an arrow in constant time instead of walking its codomain.  An item is
    a subterm, its depth, and the binder it is the scope of, if any; path[j]
    is the binder at depth j above the current subterm.
    """
    used: set[int] = set()
    path: list[Term] = []
    todo: list[tuple[Term, int, Term | None]] = [(t, 0, None)]
    while todo:
        t, depth, binder = todo.pop()
        if binder is not None:
            del path[depth - 1 :]
            path.append(binder)
        tt = type(t)
        if tt is Var:
            if t.index < depth:
                used.add(id(path[depth - 1 - t.index]))
        elif tt is App:
            todo.append((t.arg, depth, None))
            todo.append((t.fn, depth, None))
        elif tt is Lam:
            todo.append((t.body, depth + 1, t))
            todo.append((t.dom, depth, None))
        elif tt is Pi:
            todo.append((t.cod, depth + 1, t))
            todo.append((t.dom, depth, None))
    return used


def _pt(t: Term, scope: _Scope, used: set[int], out: list[str]) -> None:
    """Append the text of t to out; scope grows and shrinks back in place.

    The walk runs on an explicit stack, so no depth of term exhausts the
    Python stack.  An item is a term with its precedence level, a string
    to write, a binder name to enter as a 1-tuple, or None to leave the
    innermost binder.
    """
    todo: list = [(t, _TERM)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        if item is None:
            scope.pop()
            continue
        if len(item) == 1:
            scope.push(item[0])
            continue
        t, level = item
        tt = type(t)
        if tt is Var:
            names = scope.names
            if t.index >= len(names):
                raise ValueError(f"unbound index {t.index} while printing")
            out.append(names[-1 - t.index])
        elif tt is App:
            if level > _APP:
                out.append("(")
                todo.append(")")
            todo += [(t.arg, _ATOM), " ", (t.fn, _APP)]
        elif tt is Lam or tt is Pi:
            if level > _TERM:
                out.append("(")
                todo.append(")")
            if tt is Lam:
                name = scope.fresh(t.hint)
                out.append(f"[{name}:")
                todo += [None, (t.body, _TERM), (name,), "]", (t.dom, _TERM)]
            elif id(t) not in used:
                # cod never names the binder
                todo += [None, (t.cod, _TERM), ("",), " -> ", (t.dom, _APP)]
            else:
                name = scope.fresh(t.hint)
                out.append(f"({name}:")
                todo += [None, (t.cod, _TERM), (name,), ")", (t.dom, _TERM)]
        else:
            out.append(t.tag)


def _distinct_names(names: Sequence[str | None]) -> list[str]:
    """Display names for declarations listed outermost first.

    The innermost declaration with a given name keeps it, so every name
    resolves to the slot it resolves to as written; a shadowed or unnamed
    declaration gets a fresh name that no declaration in the list has.
    Names are assigned outer-first.  Files are printed and read with this
    one rule, over the full context and over each binding's image scope.
    """
    innermost = {n: i for i, n in enumerate(names)}
    # every given name is taken from the start; the scope is never popped
    scope = _Scope([n for n in names if n])
    out: list[str] = []
    for i, n in enumerate(names):
        if n is None or n in KEYWORDS or innermost[n] != i:
            n = scope.fresh(n)
            scope.push(n)
        out.append(n)
    return out


def scope_names(qctx: QContext) -> list[str]:
    """Distinct display names for every slot, as the printer uses them."""
    return _distinct_names([d.name for d in qctx.decls])


def print_problem(spec: CubeSpec, p: Problem) -> str:
    names = scope_names(p.qctx)
    lines = [f"calculus {spec.label()}"]
    scope: list[str] = []
    for d, n in zip(p.qctx.decls, names):
        lines.append(f"{d.quant.value} {n} : {print_term(d.ty, scope)}")
        scope.append(n)
    kw = "match" if p.kind is ProblemKind.MATCHING else "unify"
    lines.append(f"{kw} {print_term(p.lhs, scope)} = {print_term(p.rhs, scope)}")
    return "\n".join(lines) + "\n"


def print_substitution(s: Substitution) -> str:
    """Render bindings in declaration order, scoped like parse_substitution."""
    decl_names = scope_names(s.qctx)
    lines: list[str] = []
    image: list[str | None] = []
    for q, d in enumerate(s.qctx.decls):
        tr = s.triple_at(q)
        if tr is None:
            image.append(d.name)
            continue
        local_names = _distinct_names(image + [gd.name for gd in tr.local])[len(image):]
        clauses: list[str] = []
        for n, gd in zip(local_names, tr.local):
            clauses.append(f"exists {n} : {print_term(gd.ty, _distinct_names(image))}")
            image.append(n)
        line = f"{decl_names[q]} := {print_term(tr.term, _distinct_names(image))}"
        if clauses:
            line += " where " + ", ".join(clauses)
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")
