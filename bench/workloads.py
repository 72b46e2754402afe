"""The benchmark's three workloads: seeded inputs, operations, checks.

A workload builds all of its inputs from the seed when it is constructed,
validates them, and exposes one round of operations.  Every round runs the
same operations on the same inputs, so a run is a whole number of rounds.
Each operation returns its verdict and is judged against an answer the
benchmark knows by construction; `deep_check` runs the slower independent
checks on the results of one round, outside the timed region.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from cubematch import (
    QContext,
    QDecl,
    Quant,
    SearchBudget,
    SubstTriple,
    Substitution,
    build_erratum,
    build_thm1,
    build_thm2_invalid,
    cube_spec,
    goldfarb_numeral,
    goldfarb_solution_shapes,
    infer_type,
    is_solution,
    make_problem,
    node_count,
    parse_problem,
    parse_substitution,
    parse_term,
    solve_bounded,
    thm1_extract,
    thm1_witness,
)
from cubematch.cli import artifact_file_text
from cubematch.encodings import GoldfarbShapes
from cubematch.syntax import parse_problem_file

import oracle
from oracle import NLam, NSort, NVar, apps, arrows, nsubst, show, to_debruijn

ROOT = Path(__file__).resolve().parent.parent
LP = cube_spec("lP")


@dataclass
class Op:
    """One call into the program and the verdict it must give."""

    kind: str
    run: Callable[..., Any]
    expect: Callable[[Any], bool]
    nodes: int
    known_fault: bool = False


def child_env() -> dict[str, str]:
    """Environment for processes the benchmark starts.

    They import cubematch from this checkout's `src/`, and they may cache
    bytecode there, as an installed package would; PYTHONDONTWRITEBYTECODE
    in the caller's environment would otherwise add a recompile of the
    package to every command.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def _problem_nodes(p) -> int:
    return (
        sum(node_count(d.ty) for d in p.qctx.decls)
        + node_count(p.lhs)
        + node_count(p.rhs)
    )


def _subst_nodes(s) -> int:
    return sum(
        node_count(tr.term) + sum(node_count(d.ty) for d in tr.local)
        for tr in s.triples
    )


def _qctx(decls: list[tuple[str, str, Any]]) -> QContext:
    """Quantified context from (quantifier, name, named type) triples."""
    out: list[QDecl] = []
    scope: list[str] = []
    for quant, name, ty in decls:
        out.append(QDecl(Quant(quant), to_debruijn(ty, scope), name))
        scope.append(name)
    return QContext(tuple(out))


def _numeral_body(n: int, last: str) -> Any:
    """g a (g a ... (g a last)) with n applications, built by hand."""
    body: Any = NVar(last)
    for _ in range(n):
        body = apps("g", NVar("a"), body)
    return body


class _InProcess:
    parsed_bytes = 0  # in-process workloads hand the kernel terms, not text

    def solutions(self, results: list[Any]) -> int:
        return 0

    def warm_up(self) -> None:
        for op in self.warm_ops:
            op.run()

    def call(self, op: Op, profiler=None) -> Any:
        if profiler is None:
            return op.run()
        profiler.enable()
        try:
            return op.run()
        finally:
            profiler.disable()


# -- verify-large ------------------------------------------------------------


class VerifyLarge(_InProcess):
    """Kernel verdicts on large, deeply nested terms.

    Per round: `infer_type` of the Goldfarb g- and f-shapes for n = 3..10
    (19-2227 nodes); `is_solution` on nine numeral problems
    (F a) = g a (g a ... a), n = 29 + 20k +- 4 for k = 0..8, with the right
    witness N(n) and an off-by-one witness; and build_thm1 -> thm1_witness
    -> thm1_extract on the sources with k = 1, 4 and 7.  The seed draws the
    numeral sizes and the side of the off-by-one witness.
    """

    SCOPE = ["U", "a", "g"]

    def __init__(self, seed: int, workdir: Path | None = None):
        rng = _rng(seed, "verify-large")
        shapes = GoldfarbShapes.standard()
        ctx = shapes.qctx.plain()
        t_unary = to_debruijn(arrows("U", 1), self.SCOPE)
        t_ternary = to_debruijn(arrows("U", 3), self.SCOPE)
        self.ops: list[Op] = []
        self.warm_ops: list[Op] = []
        self.pipelines: list[tuple[Any, Substitution]] = []

        for n in range(3, 11):
            f_shape, g_shape = goldfarb_solution_shapes(n, n, shapes)
            for shape, want in ((g_shape, t_ternary), (f_shape, t_unary)):
                self.ops.append(
                    Op(
                        "infer_type",
                        lambda s=shape: infer_type(ctx, s, LP),
                        lambda ty, w=want: ty == w,
                        node_count(shape),
                    )
                )

        qctx = _qctx(
            [
                ("forall", "U", NSort("Prop")),
                ("forall", "a", NVar("U")),
                ("forall", "g", arrows("U", 2)),
                ("exists", "F", arrows("U", 1)),
            ]
        )
        scope = ["U", "a", "g", "F"]
        sources = []
        for k in range(9):
            n = 29 + 20 * k + rng.randrange(-4, 5)
            off = n + rng.choice((-1, 1))
            rhs = to_debruijn(_numeral_body(n, "a"), scope)
            p = make_problem(qctx, to_debruijn(apps("F", NVar("a")), scope), rhs, LP)
            hand = to_debruijn(NLam("w", NVar("U"), _numeral_body(n, "w")), self.SCOPE)
            if goldfarb_numeral(n, shapes) != hand:
                raise ValueError(f"goldfarb_numeral({n}) differs from the hand-built numeral")
            yes = Substitution(qctx, (SubstTriple(3, QContext(), goldfarb_numeral(n, shapes)),))
            no = Substitution(qctx, (SubstTriple(3, QContext(), goldfarb_numeral(off, shapes)),))
            sources.append((p, yes))
            for s, want in ((yes, True), (no, False)):
                self.ops.append(
                    Op(
                        "is_solution",
                        lambda s=s, p=p: is_solution(s, p, LP),
                        lambda v, w=want: v is w,
                        _problem_nodes(p) + _subst_nodes(s),
                    )
                )

        for k in (1, 4, 7):
            self._add_pipeline(*sources[k])

        # One of each kind, smallest inputs first; the pipeline's three
        # steps depend on each other, so its first source runs whole.
        shapes_first = min(self.ops[:16], key=lambda op: op.nodes)
        self.warm_ops = [shapes_first, *self.ops[16:18], *self.ops[34:37]]

    def _add_pipeline(self, p, tau: Substitution) -> None:
        state: dict[str, Any] = {}
        g = len(p.qctx)
        # The target's block is [z, P, c, d, G, f]; f is the last slot.
        f_pos = g + 5

        def build():
            state["art"] = art = build_thm1(p, LP)
            return art

        def witness():
            state["sigma"] = sigma = thm1_witness(tau, state["art"])
            return sigma

        def extract():
            return thm1_extract(state["sigma"], state["art"])

        # Input sizes: the witness and extract steps are charged the target
        # problem plus tau; the witness transported to f is left out.
        target_nodes = _problem_nodes(build_thm1(p, LP).target)
        self.ops += [
            Op(
                "build_thm1",
                build,
                lambda art: art.f_order.value == 3
                and art.target.kind.value == "matching"
                and len(art.target.qctx) == g + 6
                and art.f_position == f_pos,
                _problem_nodes(p),
            ),
            Op(
                "thm1_witness",
                witness,
                lambda sigma: sigma.triple_at(f_pos) is not None
                and sigma.triple_at(3) == tau.triple_at(3),
                _subst_nodes(tau) + target_nodes,
            ),
            Op(
                "thm1_extract",
                extract,
                lambda back: back == tau,
                target_nodes + _subst_nodes(tau),
            ),
        ]
        self.pipelines.append((state, tau))

    def deep_check(self, results: list[Any]) -> list[str]:
        problems = []
        for state, tau in self.pipelines:
            art = state["art"]
            why = oracle.solves(art.target, state["sigma"])
            if why:
                problems.append(f"thm1 witness: {why}")
            why = oracle.solves(art.source, tau)
            if why:
                problems.append(f"thm1 source witness: {why}")
        return problems


# -- solve-small -------------------------------------------------------------


def _rand_term(rng: random.Random, atoms: list[str], funs: dict[str, int], depth: int):
    """A random first-order term of the base type."""
    if depth == 0 or not funs or rng.random() < 0.35:
        return NVar(rng.choice(atoms))
    f = rng.choice(sorted(funs))
    return apps(f, *(_rand_term(rng, atoms, funs, depth - 1) for _ in range(funs[f])))


def _rand_body(rng, atoms, funs, binders, limit):
    """A term over `atoms` that mentions every binder, within `limit` choice nodes."""
    for _ in range(10_000):
        t = _rand_term(rng, atoms + binders, funs, 2)
        if oracle.decision_size(t) <= limit and all(
            b in oracle.nfree(t) for b in binders
        ):
            return t
    raise ValueError(f"no term over {binders} within {limit} choice nodes")


class SolveSmall(_InProcess):
    """Many `solve_bounded` calls on small elementary problems.

    Per round, 40 instances: 16 with one planted unknown, 8 whose right side
    is headed by a universal declared after the unknown (no solution; the
    whole budget is searched), 6 with more solutions than `max_solutions`,
    5 with two unknowns of one type (the candidate cache hits) and 5 with
    two unknowns of different types.  Within each kind the size budget
    cycles through 6, 7, 8 and the signature through a fixed list, so every
    seed draws the same mix; the seed picks the terms.
    """

    # Universals besides U:Prop and a:U; two-unknown instances stay small.
    SIGNATURES = {
        "planted": (("h",), ("b", "h"), ("g",), ("b", "g"), ("b", "h", "g")),
        "scope": (("h",), ("b", "h"), ("g",), ("b", "g"), ("b", "h", "g")),
        "many": (("b", "h"), ("b", "g"), ("b", "h", "g")),
        "same2": (("h",), ("b", "h")),
        "diff2": (("h",), ("b", "h")),
    }
    COUNTS = {"planted": 16, "scope": 8, "many": 6, "same2": 5, "diff2": 5}

    def __init__(self, seed: int, workdir: Path | None = None):
        rng = _rng(seed, "solve-small")
        self.ops: list[Op] = []
        self.instances: list[tuple[str, Any, SearchBudget, Any]] = []
        self.warm_ops = []
        for kind, count in self.COUNTS.items():
            for j in range(count):
                sig = self._signature(self.SIGNATURES[kind][j % len(self.SIGNATURES[kind])])
                p, budget, planted = getattr(self, f"_{kind}")(rng, sig, 6 + j % 3)
                self.instances.append((kind, p, budget, planted))
                self.ops.append(
                    Op(
                        f"solve_{kind}",
                        lambda p=p, b=budget: solve_bounded(p, b, LP),
                        self._expect(kind, budget, planted),
                        _problem_nodes(p),
                    )
                )
            self.warm_ops.append(self.ops[-count])
        self.sample = rng.sample(range(len(self.instances)), 4)

    @staticmethod
    def _expect(kind: str, budget: SearchBudget, planted) -> Callable[[Any], bool]:
        if kind == "scope":
            return lambda sols: sols == []
        if kind == "many":
            return lambda sols: len(sols) == budget.max_solutions

        def found(sols):
            if not sols:
                return False
            if len(sols) < budget.max_solutions:
                return any(s.triples == planted for s in sols)
            return True

        return found

    @staticmethod
    def _signature(extra: tuple[str, ...]):
        """Declarations, base-type atoms and function symbols of a signature."""
        decls = [("forall", "U", NSort("Prop")), ("forall", "a", NVar("U"))]
        atoms, funs = ["a"], {}
        if "b" in extra:
            decls.append(("forall", "b", NVar("U")))
            atoms.append("b")
        for name, arity in (("h", 1), ("g", 2)):
            if name in extra:
                decls.append(("forall", name, arrows("U", arity)))
                funs[name] = arity
        return decls, atoms, funs

    @staticmethod
    def _finish(decls, lhs, rhs, unknowns, bodies, budget):
        qctx = _qctx(decls)
        names = [d[1] for d in decls]
        p = make_problem(qctx, to_debruijn(lhs, names), to_debruijn(rhs, names), LP)
        planted = []
        for name, body in zip(unknowns, bodies):
            pos = names.index(name)
            image = [n for n in names[:pos] if n not in unknowns]
            planted.append(SubstTriple(pos, QContext(), to_debruijn(body, image)))
        return p, budget, tuple(planted)

    def _planted(self, rng, sig, size):
        decls, atoms, funs = sig
        decls.append(("exists", "F", arrows("U", 1)))
        body = _rand_body(rng, atoms, funs, ["x"], size - 1)
        arg = _rand_term(rng, atoms, funs, 1)
        lhs = apps("F", arg)
        rhs = nsubst(body, "x", arg)
        return self._finish(
            decls, lhs, rhs, ["F"], [NLam("x", NVar("U"), body)], SearchBudget(size, 16)
        )

    def _scope(self, rng, sig, size):
        decls, atoms, funs = sig
        decls.append(("exists", "F", arrows("U", 1)))
        decls.append(("forall", "c", NVar("U")))
        lhs = apps("F", _rand_term(rng, atoms, funs, 1))
        if rng.random() < 0.5:
            rhs = NVar("c")
        else:
            decls.append(("forall", "k", arrows("U", 1)))
            rhs = apps("k", _rand_term(rng, atoms, funs, 1))
        return self._finish(decls, lhs, rhs, [], [], SearchBudget(size, 16))

    def _many(self, rng, sig, size):
        decls, atoms, funs = sig
        decls.append(("exists", "F", arrows("U", 1)))
        arg = _rand_term(rng, atoms, funs, 1)
        lhs, rhs = apps("F", arg), apps("F", NVar("b" if arg != NVar("b") else "a"))
        return self._finish(decls, lhs, rhs, [], [], SearchBudget(size, 3))

    def _two(self, rng, sig, size, h_arity):
        decls, atoms, funs = sig
        decls.append(("exists", "F", arrows("U", 1)))
        decls.append(("exists", "H", arrows("U", h_arity)))
        ys = [f"y{i}" for i in range(h_arity)]
        body_f = _rand_body(rng, atoms, funs, ["x"], size - 1)
        body_h = _rand_body(rng, atoms, funs, ys[:1], size - h_arity)
        args = [_rand_term(rng, atoms, funs, 1) for _ in ys]
        inner = body_h
        for y, a in zip(ys, args):
            inner = nsubst(inner, y, a)
        lhs = apps("F", apps("H", *args))
        rhs = nsubst(body_f, "x", inner)
        lam_h: Any = body_h
        for y in reversed(ys):
            lam_h = NLam(y, NVar("U"), lam_h)
        return self._finish(
            decls,
            lhs,
            rhs,
            ["F", "H"],
            [NLam("x", NVar("U"), body_f), lam_h],
            SearchBudget(size, 16),
        )

    def _same2(self, rng, sig, size):
        return self._two(rng, sig, size, 1)

    def _diff2(self, rng, sig, size):
        return self._two(rng, sig, size, 2)

    def solutions(self, results: list[Any]) -> int:
        return sum(len(sols) for sols in results if isinstance(sols, list))

    def deep_check(self, results: list[Any]) -> list[str]:
        problems = []
        for (kind, p, budget, _), sols in zip(self.instances, results):
            for s in sols:
                why = oracle.solves(p, s)
                if why:
                    problems.append(f"{kind}: {why}")
        for i in self.sample:
            kind, p, budget, _ = self.instances[i]
            bigger = SearchBudget(budget.max_term_size + 1, budget.max_solutions)
            more = solve_bounded(p, bigger, LP)
            if more[: len(results[i])] != results[i]:
                problems.append(f"{kind}: a larger size budget reordered the result")
        return problems


# -- cli-files ---------------------------------------------------------------

# The thm1 target of (F a) = a.  By hand, within size 6 it has exactly two
# solutions, F := [x:U]x and F := [x:U]a, each with f projecting its proof
# argument; so `solve --size 6 --max-solutions 2` has searched everything.
FAULT_PROBLEM = """\
calculus lP
forall U : Prop
forall a : U
exists F : U -> U
forall z : U
forall P : U -> Prop
forall c : P z
forall d : P z
forall G : P z -> P z -> P z
exists f : (h:U -> U)(P (h (F a))) -> (P (h a))
match G (f ([x:U]z) c) (f ([x:U]z) d) = G c d
"""


class CliFiles:
    """`cubematch` subprocesses over seeded generated files, one at a time.

    Per round, 21 commands: check (small, large, ill-typed), classify
    (small, large), order, normalize (small, large), verify (yes, no),
    build thm1 (small and large sources), erratum and thm2-invalid, each
    followed by `order` on the written file, and solve (planted, scope
    violation, and the thm1 target whose exhaustive flag is wrong).
    """

    PLAIN = [sys.executable, "-c", "from cubematch.cli import entry; entry()"]

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, "cli-files")
        self.dir = workdir
        self.env = child_env()
        self.peak_rss_kb = 0
        files: dict[str, str] = {}

        # small: one planted unknown over a random signature
        decls, atoms, funs = SolveSmall._signature(("b", "h", "g"))
        decls.append(("exists", "F", arrows("U", 1)))
        body = _rand_body(rng, atoms, funs, ["x"], 5)
        arg = _rand_term(rng, atoms, funs, 1)
        small = [d[1] for d in decls], apps("F", arg), nsubst(body, "x", arg)
        files["small.prob"] = _problem_text("lP", decls, small[1], small[2])
        late = apps("F", _rand_term(rng, atoms, funs, 1))
        files["scope.prob"] = _problem_text(
            "lP", decls + [("forall", "late", NVar("U"))], late, NVar("late")
        )
        # large: a numeral problem with its right and off-by-one witnesses
        n = 120 + rng.randrange(-4, 5)
        off = n + rng.choice((-1, 1))
        num_decls = [
            ("forall", "U", NSort("Prop")),
            ("forall", "a", NVar("U")),
            ("forall", "g", arrows("U", 2)),
            ("exists", "F", arrows("U", 1)),
        ]
        large = [d[1] for d in num_decls], apps("F", NVar("a")), _numeral_body(n, "a")
        files["large.prob"] = _problem_text("lP", num_decls, large[1], large[2])
        files["yes.subst"] = f"F := {show(NLam('w', NVar('U'), _numeral_body(n, 'w')))}\n"
        files["no.subst"] = f"F := {show(NLam('w', NVar('U'), _numeral_body(off, 'w')))}\n"
        # prop: a type-elementary source for the polymorphic builders
        prop_decls = [
            ("forall", "A", NSort("Prop")),
            ("forall", "B", NSort("Prop")),
            ("forall", "K", arrows("Prop", 2)),
            ("exists", "X", NSort("Prop")),
        ]
        prop_rhs = _rand_term(rng, ["A", "B"], {"K": 2}, 2)
        files["prop.prob"] = _problem_text("lw", prop_decls, NVar("X"), prop_rhs)
        # bad: well-formed syntax, ill-typed right side
        bad_rhs = rng.choice([apps("a", NVar("a")), NVar("U"), apps("F", NVar("F"))])
        files["bad.prob"] = _problem_text("lP", num_decls, large[1], bad_rhs)
        files["fault.prob"] = FAULT_PROBLEM
        for name, text in files.items():
            (workdir / name).write_text(text)

        # Input sizes, and the problems the deep check needs, from an
        # in-process parse of the same files.
        nodes = {
            n: _problem_nodes(parse_problem_file(t)) for n, t in files.items() if n.endswith(".prob")
        }
        problems = {n: parse_problem(files[n])[1] for n in ("small.prob", "large.prob", "prop.prob")}
        for name in ("yes.subst", "no.subst"):
            nodes[name] = _subst_nodes(parse_substitution(files[name], problems["large.prob"].qctx))
        size = {n: len(t.encode()) for n, t in files.items()}
        self.small_problem = problems["small.prob"]

        def same_terms(d, names, lhs, rhs):
            return parse_term(d["lhs"], names) == to_debruijn(lhs, names) and parse_term(
                d["rhs"], names
            ) == to_debruijn(rhs, names)

        plan = [
            (["check", "small.prob"], 0, lambda d: d["lhs_type"] == "U"),
            (["check", "large.prob"], 0, lambda d: d["kind"] == "matching"),
            (["check", "bad.prob"], 2, lambda d: d["error"]["kind"] == "ProblemError"),
            (
                ["classify", "small.prob"],
                0,
                lambda d: d["term_elementary"] is True and d["max_existential_order"] == 2,
            ),
            (
                ["classify", "large.prob"],
                0,
                lambda d: d["term_elementary"] is True and d["kind"] == "matching",
            ),
            (["order", "small.prob", "F"], 0, lambda d: d["order"] == 2),
            (["normalize", "small.prob"], 0, lambda d: same_terms(d, *small)),
            (["normalize", "large.prob"], 0, lambda d: same_terms(d, *large)),
            (["verify", "large.prob", "yes.subst"], 0, lambda d: d["solution"] is True),
            (["verify", "large.prob", "no.subst"], 1, lambda d: d["solution"] is False),
        ]
        builders = {"thm1": build_thm1, "erratum": build_erratum, "thm2-invalid": build_thm2_invalid}
        for kind, src, order in (
            ("thm1", "small.prob", 3),
            ("thm1", "large.prob", 3),
            ("erratum", "prop.prob", 4),
            ("thm2-invalid", "prop.prob", "inf"),
        ):
            out = f"built-{kind}-{src}"
            built = builders[kind](problems[src], cube_spec("lw" if src == "prop.prob" else "lP"))
            nodes[out] = _problem_nodes(built.target)
            size[out] = len(artifact_file_text(built).encode())
            plan.append((["build", kind, src, "-o", out], 0, lambda d, o=order: d["f_order"] == o))
            plan.append((["order", out, "f"], 0, lambda d, o=order: d["order"] == o))
        plan += [
            (
                ["solve", "small.prob", "--size", "6"],
                0,
                lambda d: d["count"] >= 1 and len(d["solutions"]) == d["count"],
            ),
            (["solve", "scope.prob", "--size", "6"], 1, lambda d: d["count"] == 0),
            # The known fault: both solutions are found, yet the report says
            # the search was cut short.
            (
                ["solve", "fault.prob", "--size", "6", "--max-solutions", "2"],
                0,
                lambda d: d["count"] == 2 and d["exhaustive_within_budget"] is True,
            ),
        ]
        self.ops: list[Op] = []
        self.parsed_bytes = 0
        for argv, code, check in plan:
            inputs = argv[2:3] if argv[0] == "build" else [a for a in argv[1:] if a in nodes]
            self.parsed_bytes += sum(size[a] for a in inputs)
            self.ops.append(
                Op(
                    argv[0],
                    self._command(argv),
                    self._judge(code, check),
                    sum(nodes[a] for a in inputs),
                    known_fault=argv[1] == "fault.prob",
                )
            )
        self.solve_small = next(i for i, (argv, _, _) in enumerate(plan) if argv[:2] == ["solve", "small.prob"])
        self.warm_ops = [self.ops[0]]

    def _command(self, argv: list[str]) -> Callable[..., Any]:
        def run(prefix: list[str]) -> subprocess.CompletedProcess:
            """Run one command; wait4 gives this child's own peak memory."""
            args = [*prefix, *argv, "--format", "json"]
            with open(self.dir / "stdout", "w+") as out, open(self.dir / "stderr", "w+") as err:
                proc = subprocess.Popen(args, stdout=out, stderr=err, env=self.env, cwd=self.dir)
                timer = threading.Timer(60, proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    timer.cancel()
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
                out.seek(0)
                err.seek(0)
                return subprocess.CompletedProcess(args, proc.returncode, out.read(), err.read())

        return run

    @staticmethod
    def _judge(code: int, check: Callable[[dict], bool]) -> Callable[[Any], bool]:
        def judge(proc) -> bool:
            if proc.returncode != code or "Traceback" in proc.stderr:
                return False
            try:
                report = json.loads(proc.stdout)
                return report["outcome"] == ("yes", "no", "error")[code] and bool(
                    check(report["details"])
                )
            except (ValueError, KeyError, TypeError):
                return False

        return judge

    @staticmethod
    def profiled(out: Path) -> list[str]:
        """Command prefix that runs the CLI under cProfile, writing to out.

        Same as `python -m cProfile -o out`, which exits 0 whatever the
        command's own exit status; this keeps that status.
        """
        return [sys.executable, "-c", _PROFILED_CLI, str(out)]

    def import_ms(self, runs: int) -> float:
        """Median cumulative `-X importtime` entry for cubematch.cli."""
        samples = []
        for _ in range(runs):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import cubematch.cli"],
                capture_output=True, text=True, env=self.env, cwd=self.dir, timeout=60,
            )
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() == "cubematch.cli":
                    samples.append(int(parts[1]) / 1e3)
        if len(samples) != runs:
            raise RuntimeError("no -X importtime entry for cubematch.cli")
        return statistics.median(samples)

    def solutions(self, results: list[Any]) -> int:
        total = 0
        for op, proc in zip(self.ops, results):
            if op.kind == "solve" and proc.returncode in (0, 1):
                total += json.loads(proc.stdout)["details"]["count"]
        return total

    def warm_up(self) -> None:
        for op in self.warm_ops:
            op.run(self.PLAIN)

    def call(self, op: Op, prefix: list[str] | None = None) -> Any:
        return op.run(prefix or self.PLAIN)

    def deep_check(self, results: list[Any]) -> list[str]:
        problems = []
        report = json.loads(results[self.solve_small].stdout)
        for block in report["details"]["solutions"]:
            s = parse_substitution(block, self.small_problem.qctx)
            why = oracle.solves(self.small_problem, s)
            if why:
                problems.append(f"solve small.prob: {why}")
        return problems


_PROFILED_CLI = """\
import cProfile, sys
out = sys.argv.pop(1)
code = 0
prof = cProfile.Profile()
prof.enable()
try:
    from cubematch.cli import entry
    entry()
except SystemExit as e:
    code = e.code
finally:
    prof.disable()
    prof.dump_stats(out)
sys.exit(code)
"""


def _problem_text(calculus: str, decls, lhs, rhs) -> str:
    lines = [f"calculus {calculus}"]
    lines += [f"{q} {name} : {show(ty)}" for q, name, ty in decls]
    lines.append(f"unify {show(lhs)} = {show(rhs)}")
    return "\n".join(lines) + "\n"


WORKLOADS = {
    "verify-large": VerifyLarge,
    "solve-small": SolveSmall,
    "cli-files": CliFiles,
}
