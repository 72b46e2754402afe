"""Concrete syntax: parser and printer for terms, problem files and
substitution files.

Term grammar (ASCII only, comments run from # to end of line):

    term  :=  [x:term]term  |  (x:term)term  |  app ("->" term)?
    app   :=  atom+
    atom  :=  Prop | Type | IDENT | "(" term ")"

Binders extend as far right as possible, so an abstraction or product
used as an application argument must be parenthesized; arrows associate
to the right and application to the left.  Names resolve to the nearest
enclosing binder; shadowing is allowed.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import ParseError, ProblemError, UnboundName
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
from .record import Record, slot_setters
from .terms import (
    PROP,
    TYPE,
    App,
    Lam,
    Pi,
    Sort,
    Term,
    Var,
    free_indices,
    pick_fresh,
    shift,
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

_PUNCT = ("->", ":=", "(", ")", "[", "]", ":", ",", "=", "-")


class SourceSpan(Record):
    __slots__ = ("start", "end", "line", "col")
    __match_args__ = __slots__
    start: int
    end: int
    line: int
    col: int

    def __init__(self, start: int, end: int, line: int, col: int) -> None:
        if start > end:
            raise ValueError("span ends before it starts")
        _set_start(self, start)
        _set_end(self, end)
        _set_line(self, line)
        _set_col(self, col)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class Token(Record):
    __slots__ = ("kind", "text", "span")
    __match_args__ = __slots__
    kind: str  # "ident" | "kw" | "punct" | "eof"
    text: str
    span: SourceSpan

    def __init__(self, kind: str, text: str, span: SourceSpan) -> None:
        _set_token_kind(self, kind)
        _set_text(self, text)
        _set_span(self, span)


_set_start, _set_end, _set_line, _set_col = slot_setters(SourceSpan)
_set_token_kind, _set_text, _set_span = slot_setters(Token)


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = False
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token("punct", p, SourceSpan(i, i + len(p), line, col)))
                i += len(p)
                col += len(p)
                matched = True
                break
        if matched:
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, SourceSpan(i, j, line, col)))
            col += j - i
            i = j
            continue
        raise ParseError(
            f"stray character {ch!r}", span=SourceSpan(i, i + 1, line, col)
        )
    toks.append(Token("eof", "", SourceSpan(n, n, line, col)))
    return toks


# tokens staged for a later parse, and the token that ended them
_Staged = tuple[list[Token], Token]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or 'end of input'!r}", span=t.span)
        return self.advance()

    def done(self) -> bool:
        return self.peek().kind == "eof"

    def until(self, kind: str, text: str) -> _Staged:
        """Skip to the next such token or the end: the skipped tokens and it."""
        start = self.i
        while not (self.done() or self.at(kind, text)):
            self.advance()
        return self.toks[start : self.i], self.peek()

    # -- terms ------------------------------------------------------------

    def term(self, scope: list[str]) -> Term:
        if self.at("punct", "["):
            self.advance()
            name = self.expect("ident").text
            self.expect("punct", ":")
            dom = self.term(scope)
            self.expect("punct", "]")
            body = self.term(scope + [name])
            return Lam(dom, body, name)
        if (
            self.at("punct", "(")
            and self.peek(1).kind == "ident"
            and self.peek(2).kind == "punct"
            and self.peek(2).text == ":"
        ):
            self.advance()
            name = self.expect("ident").text
            self.expect("punct", ":")
            dom = self.term(scope)
            self.expect("punct", ")")
            cod = self.term(scope + [name])
            return Pi(dom, cod, name)
        left = self.app(scope)
        if self.at("punct", "->"):
            self.advance()
            right = self.term(scope)
            return Pi(left, shift(right, 1, 0))
        return left

    def app(self, scope: list[str]) -> Term:
        t = self.atom(scope)
        while self._starts_atom():
            t = App(t, self.atom(scope))
        return t

    def _starts_atom(self) -> bool:
        tok = self.peek()
        if tok.kind == "ident":
            return True
        if tok.kind == "kw" and tok.text in ("Prop", "Type"):
            return True
        return tok.kind == "punct" and tok.text == "("

    def atom(self, scope: list[str]) -> Term:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "Prop":
            self.advance()
            return PROP
        if tok.kind == "kw" and tok.text == "Type":
            self.advance()
            return TYPE
        if tok.kind == "ident":
            self.advance()
            for k in range(len(scope) - 1, -1, -1):
                if scope[k] == tok.text:
                    return Var(len(scope) - 1 - k)
            raise UnboundName(f"unbound name {tok.text!r}", span=tok.span)
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            inner = self.term(scope)
            self.expect("punct", ")")
            return inner
        raise ParseError(
            f"expected a term, found {tok.text or 'end of input'!r}", span=tok.span
        )

    # -- calculus header --------------------------------------------------

    def calculus(self) -> CubeSpec:
        self.expect("kw", "calculus")
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "custom":
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
                raise ParseError(str(e), span=tok.span) from None
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            while self.at("punct", "-") and self.peek(1).kind == "ident":
                self.advance()
                name += "-" + self.advance().text  # lw-weak, lPw-weak
            try:
                return cube_spec(name)
            except Exception as e:
                raise ParseError(str(e), span=tok.span) from None
        raise ParseError("expected a calculus name or custom (...)", span=tok.span)

    def _sort_pair(self) -> SortPair:
        s1 = self._sort_name()
        self.expect("punct", "-")
        s2 = self._sort_name()
        return (s1, s2)

    def _sort_name(self) -> str:
        tok = self.peek()
        if tok.kind == "kw" and tok.text in ("Prop", "Type"):
            self.advance()
            return tok.text
        raise ParseError("expected Prop or Type", span=tok.span)


def parse_term(text: str, scope: Sequence[str] = ()) -> Term:
    """Parse one term, resolving names against scope (outermost first)."""
    p = _Parser(_tokenize(text))
    t = p.term(list(scope))
    if not p.done():
        tok = p.peek()
        raise ParseError(f"unexpected {tok.text!r} after the term", span=tok.span)
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
    p = _Parser(_tokenize(text))
    spec = p.calculus()
    decls: list[QDecl] = []
    scope: list[str] = []
    while p.at("kw", "forall") or p.at("kw", "exists"):
        quant = Quant.FORALL if p.advance().text == "forall" else Quant.EXISTS
        name = p.expect("ident").text
        p.expect("punct", ":")
        ty = p.term(scope)
        decls.append(QDecl(quant, ty, name))
        scope.append(name)
    if not (p.at("kw", "match") or p.at("kw", "unify")):
        tok = p.peek()
        raise ParseError(
            f"expected a declaration or a goal, found {tok.text or 'end of input'!r}",
            span=tok.span,
        )
    goal_kw = p.advance().text
    lhs = p.term(scope)
    eq = p.expect("punct", "=")
    rhs = p.term(scope)
    if not p.done():
        tok = p.peek()
        raise ParseError(f"unexpected {tok.text!r} after the goal", span=tok.span)
    return ParsedProblem(spec, QContext(tuple(decls)), lhs, rhs, goal_kw, eq.span)


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
    toks = _tokenize(text)
    lines: dict[int, list[Token]] = {}
    for tok in toks:
        if tok.kind == "eof":
            continue
        lines.setdefault(tok.span.line, []).append(tok)

    decl_names = scope_names(qctx)
    staged: dict[int, tuple[_Staged, list[tuple[str, _Staged]]]] = {}
    for _, ltoks in sorted(lines.items()):
        name_tok = ltoks[0]
        if name_tok.kind != "ident" or len(ltoks) < 2 or ltoks[1].text != ":=":
            raise ParseError("expected `NAME := term`", span=name_tok.span)
        last = ltoks[-1].span
        end = SourceSpan(last.end, last.end, last.line, last.col + last.end - last.start)
        lp = _Parser(ltoks + [Token("eof", "", end)])
        lp.i = 2
        term = lp.until("kw", "where")
        local_specs: list[tuple[str, _Staged]] = []
        if lp.at("kw", "where"):
            lp.advance()
            while True:
                lp.expect("kw", "exists")
                local_name = lp.expect("ident").text
                lp.expect("punct", ":")
                local_specs.append((local_name, lp.until("punct", ",")))
                if lp.done():
                    break
                lp.advance()
        if name_tok.text not in decl_names:
            raise UnboundName(
                f"{name_tok.text!r} is not declared in the context", span=name_tok.span
            )
        pos = decl_names.index(name_tok.text)
        if qctx.decls[pos].quant is not Quant.EXISTS:
            raise ParseError(
                f"{name_tok.text!r} is universal and cannot be bound",
                span=name_tok.span,
            )
        if pos in staged:
            raise ParseError(
                f"{name_tok.text!r} is bound twice", span=name_tok.span
            )
        staged[pos] = (term, local_specs)

    def parse_toks(toks: _Staged, scope: list[str]) -> Term:
        ts, stop = toks
        if not ts:
            raise ParseError("missing term", span=stop.span)
        sub = _Parser(ts + [Token("eof", "", stop.span)])
        t = sub.term(scope)
        if not sub.done():
            tok = sub.peek()
            raise ParseError(f"unexpected {tok.text!r} after the term", span=tok.span)
        return t

    triples: list[SubstTriple] = []
    image: list[str | None] = []
    for pos, d in enumerate(qctx.decls):
        if pos not in staged:
            image.append(d.name)
            continue
        term_toks, local_specs = staged[pos]
        local_decls: list[QDecl] = []
        for local_name, ty_toks in local_specs:
            ty = parse_toks(ty_toks, _distinct_names(image))
            local_decls.append(QDecl(Quant.EXISTS, ty, local_name))
            image.append(local_name)
        term = parse_toks(term_toks, _distinct_names(image))
        triples.append(SubstTriple(pos, QContext(tuple(local_decls)), term))
    return Substitution(qctx, tuple(triples))


# -- printing ----------------------------------------------------------------

_TERM, _APP, _ATOM = 0, 1, 2


def print_term(t: Term, scope: Sequence[str] = ()) -> str:
    """Render t against scope; parsing the result gives back t."""
    return _pt(t, list(scope), _TERM)


def _pt(t: Term, scope: list[str], level: int) -> str:
    match t:
        case Sort(tag):
            return tag
        case Var(k):
            if k >= len(scope):
                raise ValueError(f"unbound index {k} while printing")
            return scope[len(scope) - 1 - k]
        case App(fn, arg):
            s = f"{_pt(fn, scope, _APP)} {_pt(arg, scope, _ATOM)}"
            return f"({s})" if level > _APP else s
        case Lam(dom, body, hint):
            name = pick_fresh(hint, set(scope) | KEYWORDS)
            s = f"[{name}:{_pt(dom, scope, _TERM)}]{_pt(body, scope + [name], _TERM)}"
            return f"({s})" if level > _TERM else s
        case Pi(dom, cod, hint):
            if 0 not in free_indices(cod):
                s = f"{_pt(dom, scope, _APP)} -> {_pt(shift(cod, -1, 0), scope, _TERM)}"
            else:
                name = pick_fresh(hint, set(scope) | KEYWORDS)
                s = f"({name}:{_pt(dom, scope, _TERM)}){_pt(cod, scope + [name], _TERM)}"
            return f"({s})" if level > _TERM else s
    raise AssertionError("unreachable")


def _distinct_names(names: Sequence[str | None]) -> list[str]:
    """Display names for declarations listed outermost first.

    The innermost declaration with a given name keeps it, so every name
    resolves to the slot it resolves to as written; a shadowed or unnamed
    declaration gets a fresh name that no declaration in the list has.
    Names are assigned outer-first.  Files are printed and read with this
    one rule, over the full context and over each binding's image scope.
    """
    innermost = {n: i for i, n in enumerate(names)}
    taken = {n for n in names if n} | KEYWORDS
    out: list[str] = []
    for i, n in enumerate(names):
        if n is None or n in KEYWORDS or innermost[n] != i:
            n = pick_fresh(n, taken)
            taken.add(n)
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
