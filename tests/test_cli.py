"""Command-line behavior: verdicts, exit codes, file emission."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import FIXTURES
from cubematch.cli import main
from cubematch.problems import is_solution
from cubematch.syntax import parse_problem, parse_substitution


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def jrun(capsys, *argv: str) -> tuple[int, dict]:
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def fx(name: str) -> str:
    return str(FIXTURES / name)


# ------------- check -------------


def test_check_yes(capsys) -> None:
    code, out = run(capsys, "check", fx("thm1_target.prob"))
    assert code == 0 and "yes" in out


def test_check_wrong_calculus_reports_the_missing_pair(capsys) -> None:
    code, payload = jrun(
        capsys, "check", fx("thm1_target.prob"), "--calculus", "stlc"
    )
    assert code == 2
    assert payload["outcome"] == "error"
    assert "Prop-Type" in payload["details"]["error"]["message"]


def test_check_empty_file_is_a_syntax_error(capsys, tmp_path) -> None:
    empty = tmp_path / "empty.prob"
    empty.write_text("")
    code, payload = jrun(capsys, "check", str(empty))
    assert code == 2 and payload["details"]["error"]["kind"] == "ParseError"


# ------------- normalize -------------


def test_normalize_inline_identity_redex(capsys) -> None:
    code, payload = jrun(
        capsys, "normalize", fx("term_source.prob"), "--term", "([x:U]x) a"
    )
    assert code == 0 and payload["details"]["term"] == "a"


def test_normalize_goal_sides(capsys) -> None:
    code, payload = jrun(capsys, "normalize", fx("term_source.prob"))
    assert code == 0
    assert payload["details"]["lhs"] == "F a"
    assert payload["details"]["rhs"] == "a"


def test_normalize_instantiated_goal_collapses_to_the_spine(capsys) -> None:
    # the goal's left side with the unknown replaced by the projection
    # binding reduces to the closed right side
    sigma_t1 = (
        "G (([x1:U -> U][x2:P (x1 a)]x2) ([x:U]z) c)"
        " (([x1:U -> U][x2:P (x1 a)]x2) ([x:U]z) d)"
    )
    code, payload = jrun(
        capsys, "normalize", fx("thm1_target.prob"), "--term", sigma_t1
    )
    assert code == 0 and payload["details"]["term"] == "G c d"


def test_normalize_fuel_exhaustion_is_exit_2(capsys) -> None:
    code, payload = jrun(
        capsys,
        "normalize",
        fx("term_source.prob"),
        "--term",
        "([x:U]x) (([y:U]y) a)",
        "--fuel",
        "1",
    )
    assert code == 2 and payload["details"]["error"]["kind"] == "FuelExhausted"


def test_fuel_bounds_the_whole_command(capsys, tmp_path) -> None:
    # each side takes 2 beta steps, so the command takes 4
    four = tmp_path / "four.prob"
    four.write_text(
        "calculus lP\nforall U : Prop\nforall a : U\n"
        "match ([x:U][y:U]x) a a = ([x:U][y:U]x) a a\n"
    )
    code, payload = jrun(capsys, "normalize", str(four), "--fuel", "3")
    assert code == 2
    assert payload["details"]["error"] == {
        "kind": "FuelExhausted",
        "message": "reduction fuel exhausted (3 steps)",
    }
    code, payload = jrun(capsys, "normalize", str(four), "--fuel", "4")
    assert code == 0 and payload["details"] == {"lhs": "a", "rhs": "a"}


def test_normalize_rejects_an_ill_typed_goal(capsys, tmp_path) -> None:
    bad = tmp_path / "bad.prob"
    bad.write_text("calculus stlc\nforall U : Prop\nforall a : U\nmatch a a = a\n")
    code, payload = jrun(capsys, "normalize", str(bad))
    assert code == 2 and payload["outcome"] == "error"


def test_normalize_honours_the_calculus_override(capsys) -> None:
    argv = ("normalize", fx("thm1_target.prob"), "--calculus", "stlc")
    code, payload = jrun(capsys, *argv)
    assert code == 2
    assert payload["details"]["error"]["kind"] == "ContextError"
    code, payload = jrun(capsys, *argv, "--term", "G c d")
    assert code == 2
    assert payload["details"]["error"]["kind"] == "ContextError"


# ------------- order / classify -------------


def test_order_of_the_constructed_unknowns(capsys) -> None:
    for fixture, expected in [
        ("thm1_target.prob", 3),
        ("erratum_target.prob", 4),
        ("thm2_invalid_target.prob", "inf"),
    ]:
        code, payload = jrun(capsys, "order", fx(fixture), "f")
        assert code == 0 and payload["details"]["order"] == expected


def test_order_unknown_variable(capsys) -> None:
    code, _ = run(capsys, "order", fx("term_source.prob"), "nope")
    assert code == 2


def test_classify(capsys) -> None:
    code, payload = jrun(capsys, "classify", fx("term_source.prob"))
    assert code == 0
    d = payload["details"]
    assert d["kind"] == "matching"
    assert d["term_elementary"] is True
    assert d["type_elementary"] is False
    assert d["max_existential_order"] == 2
    assert "type_elementary_note" in d  # lP lacks type constructors


def test_classify_type_level(capsys) -> None:
    code, payload = jrun(capsys, "classify", fx("type_source.prob"))
    d = payload["details"]
    assert d["type_elementary"] is True and "type_elementary_note" not in d


# ------------- verify -------------


def test_verify_yes_and_no(capsys) -> None:
    code, _ = run(capsys, "verify", fx("term_source.prob"), fx("thm1_tau_identity.subst"))
    assert code == 0
    code, _ = run(capsys, "verify", fx("term_source.prob"), fx("thm1_tau_bad.subst"))
    assert code == 1  # ill-typed binding is a well-posed "no"


def test_verify_transported_solution(capsys) -> None:
    code, _ = run(capsys, "verify", fx("thm1_target.prob"), fx("thm1_sigma.subst"))
    assert code == 0


# ------------- build -------------


def test_build_thm1_output_reparses_and_checks(capsys, tmp_path) -> None:
    out = tmp_path / "t.prob"
    code, payload = jrun(
        capsys, "build", "thm1", fx("term_source.prob"), "-o", str(out)
    )
    assert code == 0
    assert payload["details"]["f_order"] == 3
    assert payload["details"]["invalid_per_erratum"] is False
    code2, _ = run(capsys, "check", str(out))
    assert code2 == 0
    code3, payload3 = jrun(capsys, "order", str(out), "f")
    assert payload3["details"]["order"] == 3


def test_build_matches_the_fixture_transcriptions(capsys, tmp_path) -> None:
    from cubematch.syntax import parse_problem

    for kind, source, fixture, golden in [
        ("thm1", "term_source.prob", "thm1_target.prob", "thm1_built.prob"),
        ("erratum", "type_source.prob", "erratum_target.prob", "erratum_built.prob"),
        (
            "thm2-invalid",
            "type_source.prob",
            "thm2_invalid_target.prob",
            "thm2_invalid_built.prob",
        ),
    ]:
        out = tmp_path / f"{kind}.prob"
        code, _ = run(capsys, "build", kind, fx(source), "-o", str(out))
        assert code == 0
        _, built = parse_problem(out.read_text())
        _, expected = parse_problem((FIXTURES / fixture).read_text())
        assert built == expected, kind
        # `==` on terms ignores binder hints and display names; the golden
        # files pin the emitted text itself, metadata comments included.
        assert out.read_text() == (FIXTURES / golden).read_text(), kind


def test_build_capability_failure(capsys, tmp_path) -> None:
    code, payload = jrun(
        capsys,
        "build",
        "erratum",
        fx("type_source.prob"),
        "-o",
        str(tmp_path / "x.prob"),
        "--calculus",
        "lPw-weak",
    )
    assert code == 2
    assert "Type-Prop" in payload["details"]["error"]["message"]


def test_build_flags_the_invalid_variant(capsys, tmp_path) -> None:
    out = tmp_path / "inv.prob"
    code, payload = jrun(
        capsys, "build", "thm2-invalid", fx("type_source.prob"), "-o", str(out)
    )
    assert code == 0
    assert payload["details"]["invalid_per_erratum"] is True
    assert "# invalid-per-erratum: true" in out.read_text()


# ------------- solve -------------


def test_solve_finds_and_reverifies(capsys, tmp_path) -> None:
    code, payload = jrun(capsys, "solve", fx("term_source.prob"), "--size", "4")
    assert code == 0
    assert payload["details"]["count"] == 2
    # every emitted block re-verifies through the verify command
    for i, block in enumerate(payload["details"]["solutions"]):
        sf = tmp_path / f"s{i}.subst"
        sf.write_text(block)
        rc, _ = run(capsys, "verify", fx("term_source.prob"), str(sf))
        assert rc == 0


def test_solve_text_report_prints_each_solution_block(capsys) -> None:
    code, out = run(capsys, "solve", fx("term_source.prob"), "--size", "4")
    assert code == 0
    report, details = out.split("\ncount: ")
    assert details.startswith("2\n")
    head, *blocks = re.split(r"^# solution (\d+)\n", report, flags=re.M)
    assert head == "solve: yes\n"
    assert blocks[::2] == ["0", "1"]
    spec, problem = parse_problem(Path(fx("term_source.prob")).read_text())
    for block in blocks[1::2]:
        assert is_solution(parse_substitution(block, problem.qctx), problem, spec)


def test_solve_negative_answer_is_exit_1(capsys, tmp_path) -> None:
    clash = tmp_path / "clash.prob"
    clash.write_text(
        "calculus lP\nforall U : Prop\nforall a : U\nforall b : U\nmatch a = b\n"
    )
    code, payload = jrun(capsys, "solve", str(clash), "--size", "5")
    assert code == 1 and payload["details"]["count"] == 0


def test_solve_flags_truncation_only_when_more_solutions_exist(capsys) -> None:
    # Within size 6 the thm1 target has exactly two solutions.
    argv = ("solve", fx("thm1_target.prob"), "--size", "6", "--max-solutions")
    code, payload = jrun(capsys, *argv, "2")
    assert code == 0
    assert payload["details"]["count"] == 2
    assert payload["details"]["exhaustive_within_budget"] is True
    code, payload = jrun(capsys, *argv, "1")
    assert code == 0
    assert payload["details"]["count"] == 1
    assert len(payload["details"]["solutions"]) == 1
    assert payload["details"]["exhaustive_within_budget"] is False


def test_solve_flags_truncation_when_exactly_max_solutions_exist(capsys, tmp_path) -> None:
    # Within size 8, F X = h a has six solutions at levels 3, 4, 4, 4, 5
    # and 7; the search stops after the level that fills its budget.
    prob = tmp_path / "levels.prob"
    prob.write_text(
        "calculus lP\nforall U : Prop\nforall a : U\nforall h : U -> U\n"
        "exists F : U -> U\nexists X : U\nmatch F X = h a\n"
    )
    argv = ("solve", str(prob), "--size", "8", "--max-solutions")
    for k, count, exhaustive in (("7", 6, True), ("6", 6, True), ("5", 5, False),
                                 ("4", 4, False), ("1", 1, False)):
        code, payload = jrun(capsys, *argv, k)
        assert code == 0
        assert payload["details"]["count"] == count
        assert payload["details"]["exhaustive_within_budget"] is exhaustive


def test_solve_keeps_the_binder_hints_of_each_head(capsys, tmp_path) -> None:
    # f's and g's argument types differ only in their binder hints, which
    # term equality ignores; each head's argument keeps its own name.
    prob = tmp_path / "hints.prob"
    prob.write_text(
        "calculus lP\nforall U : Prop\nforall f : ((u : U) U) -> U\n"
        "forall g : ((v : U) U) -> U\nexists F : U\nunify F = F\n"
    )
    code, out = run(capsys, "solve", str(prob), "--size", "4", "--max-solutions", "20")
    assert code == 0
    assert out == (
        "solve: yes\n"
        "# solution 0\n"
        "F := g ([v:U]v)\n"
        "# solution 1\n"
        "F := f ([u:U]u)\n"
        "count: 2\n"
        "max_term_size: 4\n"
        "exhaustive_within_budget: True\n"
    )


@pytest.mark.parametrize(
    "fixture, proof",
    [
        ("erratum_target.prob", "[h:Prop -> Prop][x0:P (h A)]x0"),
        ("thm2_invalid_target.prob", "[h:Prop -> Prop][x0:h A]x0"),
    ],
)
def test_solve_prints_the_one_target_solution_with_its_binder_names(capsys, fixture, proof) -> None:
    code, out = run(capsys, "solve", fx(fixture), "--size", "8")
    assert code == 0
    assert out == (
        "solve: yes\n"
        "# solution 0\n"
        "X := A\n"
        f"f := {proof}\n"
        "count: 1\n"
        "max_term_size: 8\n"
        "exhaustive_within_budget: True\n"
    )


REPEATED_A ="calculus lP\nforall U : Prop\nforall a : U\nforall a : U\nexists F : U\n"


@pytest.mark.parametrize("goal, count", [("match F = a", 1), ("unify F = F", 2)])
def test_solutions_over_a_repeated_name_reverify(capsys, tmp_path, goal, count) -> None:
    # the shadowed a prints as a0, and a0 reads back as that declaration
    prob = tmp_path / "repeated.prob"
    prob.write_text(REPEATED_A + goal + "\n")
    code, payload = jrun(capsys, "solve", str(prob), "--size", "3")
    assert code == 0 and payload["details"]["count"] == count
    for i, block in enumerate(payload["details"]["solutions"]):
        sf = tmp_path / f"s{i}.subst"
        sf.write_text(block)
        rc, _ = run(capsys, "verify", str(prob), str(sf))
        assert rc == 0


def test_a_repeated_name_resolves_to_the_nearest_declaration(capsys, tmp_path) -> None:
    prob = tmp_path / "repeated.prob"
    prob.write_text(REPEATED_A + "match F = a\n")
    for text, expected in (("F := a", 0), ("F := a0", 1)):
        sf = tmp_path / "hand.subst"
        sf.write_text(text + "\n")
        rc, _ = run(capsys, "verify", str(prob), str(sf))
        assert rc == expected
    code, payload = jrun(capsys, "order", str(prob), "a0")
    assert code == 0 and payload["details"]["order"] == 1


@pytest.mark.parametrize("flag", ["--size", "--max-solutions", "--fuel"])
def test_non_positive_budgets_are_usage_errors(flag) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["solve", fx("term_source.prob"), flag, "0"])
    assert exc.value.code == 2


def test_unexpected_failure_is_an_internal_error_not_a_no(tmp_path) -> None:
    # Deep enough to exhaust the interpreter's stack in the recursive walks.
    deep = tmp_path / "deep.prob"
    chain = " -> ".join(["U"] * 1001)
    deep.write_text(
        f"calculus lP\nforall U : Prop\nforall a : U\nexists F : {chain}\nunify a = a\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "cubematch.cli", "check", str(deep), "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["outcome"] == "error"
    assert payload["details"]["error"]["kind"] == "internal"
    assert "RecursionError" in payload["details"]["error"]["message"]
    assert "Traceback" not in proc.stderr


def test_missing_file_is_exit_2(capsys) -> None:
    code, _ = run(capsys, "check", "no-such-file.prob")
    assert code == 2


def cli(*argv: str | bytes, **env: str) -> subprocess.CompletedProcess:
    """`python -m cubematch.cli argv` in a child, with env added; bytes out."""
    return subprocess.run(
        [sys.executable, "-m", "cubematch.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
        timeout=120,
    )


@pytest.mark.parametrize("role", ["problem", "substitution"])
def test_an_undecodable_file_is_an_input_error_naming_it(capsys, tmp_path, role) -> None:
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"calculus lP\n\xff\n")
    if role == "problem":
        code, payload = jrun(capsys, "check", str(bad))
    else:
        code, payload = jrun(capsys, "verify", fx("thm1_target.prob"), str(bad))
    assert code == 2 and payload["outcome"] == "error"
    err = payload["details"]["error"]
    assert err["kind"] == "ParseError"
    assert err["message"] == f"{bad} is not UTF-8 text: byte 0xff at offset 12"


def test_files_are_utf8_whatever_the_locale(tmp_path) -> None:
    prob = tmp_path / "comment.prob"
    text = (FIXTURES / "term_source.prob").read_text(encoding="utf-8")
    prob.write_text("# résumé: a non-ASCII comment\n" + text, encoding="utf-8")
    proc = cli("check", str(prob), "--format", "json", LC_ALL="C", PYTHONUTF8="0")
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["outcome"] == "yes"


CAFE = "calculus lP\nforall U : Prop\nforall café : U\nexists F : U -> U\nunify F café = café\n"


def test_a_text_report_is_utf8_whatever_stdout_encoding(tmp_path) -> None:
    prob = tmp_path / "cafe.prob"
    prob.write_text(CAFE, encoding="utf-8")
    proc = cli("normalize", str(prob), PYTHONIOENCODING="ascii")
    assert proc.returncode == 0 and b"Traceback" not in proc.stderr
    assert proc.stdout.decode("utf-8") == "normalize: yes\nlhs: F café\nrhs: café\n"
    # JSON reports are ASCII: the same bytes as before reports were UTF-8
    proc = cli("normalize", str(prob), "--format", "json", PYTHONIOENCODING="ascii")
    assert proc.returncode == 0
    assert proc.stdout == (
        b'{"command": "normalize", "outcome": "yes", '
        b'"details": {"lhs": "F caf\\u00e9", "rhs": "caf\\u00e9"}}\n'
    )


def test_an_undecodable_argument_is_reported_as_given(tmp_path) -> None:
    # the locale cannot decode byte 0xff; the report writes it back as is
    out = os.fsencode(tmp_path) + b"/built\xff.prob"
    for env in ({}, {"LC_ALL": "C", "PYTHONUTF8": "0"}, {"PYTHONIOENCODING": "ascii"}):
        proc = cli("build", "thm1", fx("term_source.prob"), "-o", out, **env)
        assert proc.returncode == 0 and b"Traceback" not in proc.stderr, env
        assert proc.stdout.endswith(b"\nout: " + out + b"\n"), env
        assert Path(os.fsdecode(out)).is_file()


def test_the_cli_imports_no_typing_dataclasses_inspect_or_pathlib() -> None:
    # -S: no site hooks, which may import any of these on their own
    probe = "import sys, cubematch.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "cubematch.cli" in loaded
    assert not {"typing", "dataclasses", "inspect", "pathlib"} & loaded


@pytest.mark.parametrize("command", ["check", "solve"])
def test_closed_output_pipe_is_exit_2_without_a_traceback(command) -> None:
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cubematch.cli", command, fx("thm1_target.prob")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
