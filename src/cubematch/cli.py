"""Command-line front end.

Exit codes: 0 affirmative, 1 well-posed negative answer, 2 error.  The
--format json mode emits one object {"command", "outcome", "details"};
details fields per command are documented in the README.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .encodings import (
    ReductionArtifact,
    build_erratum,
    build_thm1,
    build_thm2_invalid,
)
from .errors import CubeError
from .problems import (
    Problem,
    is_solution,
    is_term_elementary,
    is_type_elementary,
    order,
)
from .reduction import DEFAULT_MAX_STEPS, Fuel, beta_eta_normalize
from .search import SearchBudget, solve_bounded
from .syntax import (
    parse_problem,
    parse_substitution,
    parse_term,
    print_problem,
    print_substitution,
    print_term,
    scope_names,
)
from .typecheck import TT, CubeSpec, cube_spec, pair_text

_EXIT = {"yes": 0, "no": 1, "error": 2}

_BUILDERS = {
    "thm1": build_thm1,
    "erratum": build_erratum,
    "thm2-invalid": build_thm2_invalid,
}


@dataclass
class Verdict:
    command: str
    outcome: str  # yes | no | error
    details: dict[str, Any]

    @property
    def exit_code(self) -> int:
        return _EXIT[self.outcome]


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cubematch",
        description="Typecheck, normalize, classify, verify, build and solve "
        "matching/unification problems over the eight cube calculi.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--calculus", help="override the file's calculus header")
        p.add_argument(
            "--fuel",
            type=_positive,
            default=DEFAULT_MAX_STEPS,
            help="max reduction steps of the whole command (default %(default)s)",
        )
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="report style",
        )

    p = sub.add_parser("check", help="typecheck the goal's sides and context")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("normalize", help="print beta-eta normal forms")
    p.add_argument("file")
    p.add_argument("--term", help="normalize this term in the file's context instead")
    common(p)

    p = sub.add_parser("order", help="report the order of a declared variable's type")
    p.add_argument("file")
    p.add_argument("var")
    common(p)

    p = sub.add_parser("classify", help="matching/unification and elementarity flags")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("verify", help="check a substitution against the goal")
    p.add_argument("file")
    p.add_argument("subst_file")
    common(p)

    p = sub.add_parser("build", help="emit a constructed matching problem")
    p.add_argument("kind", choices=tuple(_BUILDERS))
    p.add_argument("source_file")
    p.add_argument("-o", "--out", required=True)
    common(p)

    p = sub.add_parser("solve", help="bounded brute-force solution search")
    p.add_argument("file")
    p.add_argument("--size", type=_positive, default=6, help="max candidate term size")
    p.add_argument(
        "--max-solutions", type=_positive, default=16, help="stop after this many solutions"
    )
    common(p)
    return ap


def _load(args: argparse.Namespace, path: str | None = None) -> tuple[CubeSpec, Problem]:
    override = cube_spec(args.calculus) if args.calculus else None
    text = Path(path if path is not None else args.file).read_text()
    return parse_problem(text, spec=override)


def _cmd_check(args: argparse.Namespace) -> Verdict:
    spec, problem = _load(args)
    scope = scope_names(problem.qctx)
    return Verdict(
        "check",
        "yes",
        {
            "calculus": spec.label(),
            "kind": problem.kind.value,
            "lhs_type": print_term(problem.common_type, scope),
            "rhs_type": print_term(problem.common_type, scope),
        },
    )


def _cmd_normalize(args: argparse.Namespace) -> Verdict:
    _, problem = _load(args)
    scope = scope_names(problem.qctx)
    if args.term is not None:
        nf = beta_eta_normalize(parse_term(args.term, scope))
        return Verdict("normalize", "yes", {"term": print_term(nf, scope)})
    lhs = beta_eta_normalize(problem.lhs)
    rhs = beta_eta_normalize(problem.rhs)
    return Verdict(
        "normalize",
        "yes",
        {"lhs": print_term(lhs, scope), "rhs": print_term(rhs, scope)},
    )


def _cmd_order(args: argparse.Namespace) -> Verdict:
    _, problem = _load(args)
    names = scope_names(problem.qctx)
    if args.var not in names:
        raise CubeError(f"{args.var!r} is not declared in the context")
    pos = names.index(args.var)
    o = order(problem.qctx.decls[pos].ty, problem.qctx.prefix(pos))
    return Verdict(
        "order",
        "yes",
        {"variable": args.var, "order": o.value if o.value is not None else "inf"},
    )


def _cmd_classify(args: argparse.Namespace) -> Verdict:
    spec, problem = _load(args)
    details: dict[str, Any] = {
        "kind": problem.kind.value,
        "term_elementary": is_term_elementary(problem),
        "type_elementary": is_type_elementary(problem, spec),
    }
    if TT not in spec.rules:
        details["type_elementary_note"] = (
            f"type constructors ({pair_text(TT)}) are not available in "
            f"{spec.label()}, so the type-level fragment does not apply"
        )
    mo = problem.max_existential_order
    details["max_existential_order"] = (
        None if mo is None else (mo.value if mo.value is not None else "inf")
    )
    return Verdict("classify", "yes", details)


def _cmd_verify(args: argparse.Namespace) -> Verdict:
    spec, problem = _load(args)
    s = parse_substitution(Path(args.subst_file).read_text(), problem.qctx)
    ok = is_solution(s, problem, spec)
    return Verdict("verify", "yes" if ok else "no", {"solution": ok})


def _artifact_details(art: ReductionArtifact) -> dict[str, Any]:
    return {
        "kind": art.kind.value,
        "f_order": art.f_order.value if art.f_order.value is not None else "inf",
        "required_pairs": [pair_text(p) for p in sorted(art.required_pairs)],
        "invalid_per_erratum": art.invalid_per_erratum,
    }


def artifact_file_text(art: ReductionArtifact) -> str:
    """Problem-file serialization with the metadata block as comments."""
    meta = _artifact_details(art)
    lines = [
        f"# artifact: {meta['kind']}",
        f"# f-order: {meta['f_order']}",
        f"# requires: {', '.join(meta['required_pairs'])}",
        f"# invalid-per-erratum: {'true' if meta['invalid_per_erratum'] else 'false'}",
    ]
    return "\n".join(lines) + "\n" + print_problem(art.spec, art.target)


def _cmd_build(args: argparse.Namespace) -> Verdict:
    spec, source = _load(args, path=args.source_file)
    art = _BUILDERS[args.kind](source, spec)
    Path(args.out).write_text(artifact_file_text(art))
    details = _artifact_details(art)
    details["out"] = args.out
    return Verdict("build", "yes", details)


def _cmd_solve(args: argparse.Namespace) -> Verdict:
    spec, problem = _load(args)
    k = args.max_solutions
    # One solution past the limit tells whether the limit cut the list.
    budget = SearchBudget(max_term_size=args.size, max_solutions=k + 1)
    found = solve_bounded(problem, budget, spec)
    shown = found[:k]
    details = {
        "solutions": [print_substitution(s) for s in shown],
        "count": len(shown),
        "max_term_size": args.size,
        "exhaustive_within_budget": len(found) <= k,
    }
    return Verdict("solve", "yes" if found else "no", details)


_DISPATCH = {
    "check": _cmd_check,
    "normalize": _cmd_normalize,
    "order": _cmd_order,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "build": _cmd_build,
    "solve": _cmd_solve,
}


def _render_text(v: Verdict) -> str:
    lines = [f"{v.command}: {v.outcome}"]
    for key, val in v.details.items():
        if key == "solutions":
            for i, block in enumerate(val):
                lines.append(f"# solution {i}")
                lines.append(block.rstrip("\n"))
            continue
        if key == "error":
            continue
        lines.append(f"{key}: {val}")
    if "error" in v.details:
        err = v.details["error"]
        loc = f" at {err['span']}" if err.get("span") else ""
        lines.append(f"error{loc}: {err['message']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        with Fuel(args.fuel):
            verdict = _DISPATCH[args.command](args)
    except CubeError as e:
        err: dict[str, Any] = {"kind": type(e).__name__, "message": e.message}
        if e.span is not None:
            err["span"] = str(e.span)
        verdict = Verdict(args.command, "error", {"error": err})
    except OSError as e:
        verdict = Verdict(
            args.command, "error", {"error": {"kind": "OSError", "message": str(e)}}
        )
    except Exception as e:  # a defect or a resource limit, never a "no"
        message = f"{type(e).__name__}: {e}"
        verdict = Verdict(
            args.command, "error", {"error": {"kind": "internal", "message": message}}
        )
    if args.format == "json":
        text = json.dumps(
            {"command": verdict.command, "outcome": verdict.outcome, "details": verdict.details}
        )
    else:
        text = _render_text(verdict)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Nobody reads the verdict: an error, not a "no".  Standard output
        # goes to devnull so the interpreter's flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT["error"]
    return verdict.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
