"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is exact (structural equality or stated integer constants) and
the stated wall-clock budgets are asserted, not advisory.
"""

from __future__ import annotations

import time
from random import Random

from conftest import FIXTURES
from cubematch.encodings import (
    build_erratum,
    build_thm1,
    build_thm2_invalid,
    thm1_extract,
    thm1_witness,
)
from cubematch.errors import CapabilityError, SortPairMissing
from cubematch.problems import (
    INFINITE,
    OrderValue,
    QContext,
    SubstTriple,
    Substitution,
    apply_subst,
    is_solution,
    make_problem,
)
from cubematch.reduction import beta_eta_normalize
from cubematch.search import SearchBudget, solve_bounded
from cubematch.syntax import parse_problem, parse_substitution, print_problem
from cubematch.terms import PROP, App, Lam, Pi, Sort, Var, app, arrow
from cubematch.typecheck import (
    PP,
    PT,
    TP,
    TT,
    Context,
    PRESETS,
    check_type,
    cube_spec,
    infer_type,
)
from cubematch.encodings import GoldfarbShapes, goldfarb_numeral, goldfarb_solution_shapes, goldfarb_tpl
from innermost import beta_eta_normalize_innermost
from match_walks import Atomic, classify_normal, is_normal
from termgen import random_elementary_problem, random_well_typed


def _report(label: str, ok: bool, elapsed: float, budget: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" < {budget:g}s" if budget is not None else "")
    print(f"{status} {label} [{timing}]")
    assert ok, label
    if budget is not None:
        assert elapsed < budget, f"{label}: {elapsed:.2f}s over the {budget:g}s budget"


def test_criterion_1_capability_matrix() -> None:
    t0 = time.monotonic()
    ctx = Context().extended(PROP, "U")
    probes = {
        PP: Pi(Var(0), Var(1)),  # (x:U)U
        PT: Pi(Var(0), PROP),  # (x:U)Prop
        TP: Pi(PROP, Var(0)),  # (X:Prop)X
        TT: Pi(PROP, PROP),  # (X:Prop)Prop
    }
    cases = 0
    ok = True
    for spec in PRESETS.values():
        for pair, probe in probes.items():
            cases += 1
            try:
                infer_type(ctx, probe, spec)
                succeeded = True
            except SortPairMissing as e:
                succeeded = False
                ok = ok and e.pair == pair  # the diagnostic names the pair
            ok = ok and (succeeded == (pair in spec.rules))
    ok = ok and cases == 32
    _report("criterion 1: cube capability matrix (32 cases)", ok, time.monotonic() - t0, 1.0)


def test_criterion_2_dependent_encoding_end_to_end() -> None:
    t0 = time.monotonic()
    lp = cube_spec("lP")
    _, source = parse_problem((FIXTURES / "term_source.prob").read_text())
    art = build_thm1(source, lp)
    ok = art.f_order == OrderValue.finite(3)

    tau = Substitution(
        source.qctx, (SubstTriple(2, QContext(), Lam(Var(1), Var(0), "x")),)
    )
    sigma = thm1_witness(tau, art)
    ok = ok and is_solution(sigma, art.target, lp)
    lhs = apply_subst(sigma, art.target.lhs)
    ok = ok and beta_eta_normalize(lhs) == apply_subst(sigma, art.target.rhs)

    found = solve_bounded(art.target, SearchBudget(8, 16), lp)
    ok = ok and len(found) > 0
    for s in found:
        back = thm1_extract(s, art)
        ok = ok and is_solution(back, source, lp)
    _report(
        "criterion 2: dependent-types encoding end to end (order 3, witness, extraction)",
        ok,
        time.monotonic() - t0,
        5.0,
    )


def test_criterion_3_polymorphic_encoding_constants() -> None:
    t0 = time.monotonic()
    _, source_lw = parse_problem((FIXTURES / "type_source.prob").read_text())
    ok = True
    for name in ("lw", "coc"):
        spec = cube_spec(name)
        src = make_problem(source_lw.qctx, source_lw.lhs, source_lw.rhs, spec)
        ok = ok and build_erratum(src, spec).f_order == OrderValue.finite(4)
        ok = ok and build_thm2_invalid(src, spec).f_order == INFINITE
    for name in ("lw-weak", "lPw-weak", "l2", "lP2"):
        spec = cube_spec(name)
        for build in (build_erratum, build_thm2_invalid):
            try:
                build(source_lw, spec)
                ok = False
            except CapabilityError:
                pass
    _report(
        "criterion 3: corrected order 4 / flagged order inf, with calculus gating",
        ok,
        time.monotonic() - t0,
    )


def test_criterion_4_numeral_and_shape_typability() -> None:
    t0 = time.monotonic()
    stlc = cube_spec("stlc")
    sh = GoldfarbShapes.standard()
    plain = sh.qctx.plain()
    u = Var(2)
    uu = arrow(u, u)
    uuu = arrow(u, arrow(u, u))
    u4 = arrow(u, arrow(u, arrow(u, u)))
    ok = all(check_type(plain, goldfarb_numeral(n, sh), uu, stlc) for n in (0, 1, 2, 5))
    ok = ok and check_type(plain, goldfarb_tpl(2, 3, sh), uuu, stlc)
    for n_i, n_j in [(1, 1), (2, 2)]:
        fs, gs = goldfarb_solution_shapes(n_i, n_j, sh)
        ok = ok and check_type(plain, fs, uu, stlc)
        ok = ok and check_type(plain, gs, u4, stlc)
    for n in range(6):
        applied = beta_eta_normalize(App(goldfarb_numeral(n, sh), Var(1)))
        expected: object = Var(1)
        for _ in range(n):
            expected = app(Var(0), Var(1), expected)
        ok = ok and applied == expected
    _report(
        "criterion 4: numeral and solution-shape typability and unfolding",
        ok,
        time.monotonic() - t0,
    )


def test_criterion_5_oracle_and_pipeline_suite() -> None:
    t0 = time.monotonic()
    lp = cube_spec("lP")
    rng = Random(20260808)
    solvable = 0
    ok = True
    for _ in range(50):
        p = random_elementary_problem(rng, spec=lp, max_unknowns=2, side_size=6)
        sols = solve_bounded(p, SearchBudget(6, 8), lp)
        for s in sols:
            ok = ok and is_solution(s, p, lp)  # every oracle answer re-verifies
        if not sols:
            continue
        solvable += 1
        art = build_thm1(p, lp)
        sigma = thm1_witness(sols[0], art)
        ok = ok and is_solution(sigma, art.target, lp)
        back = thm1_extract(sigma, art)
        ok = ok and is_solution(back, p, lp)
    ok = ok and solvable > 0
    _report(
        f"criterion 5: oracle + pipeline loop on 50 random problems ({solvable} solvable)",
        ok,
        time.monotonic() - t0,
        60.0,
    )


def test_criterion_6_confluence_and_idempotence_smoke() -> None:
    t0 = time.monotonic()
    rng = Random(1009)
    ok = True
    for _ in range(1000):
        t = random_well_typed(rng, max_size=20)
        a = beta_eta_normalize(t)
        b = beta_eta_normalize_innermost(t)
        ok = ok and a == b
        ok = ok and beta_eta_normalize(a) == a
        ok = ok and is_normal(a)
        # every normal form is an abstraction, a product or a head applied
        # to arguments, the head a variable or a sort
        shape = classify_normal(a)
        ok = ok and (type(shape) is not Atomic or type(shape.head) in (Var, Sort))
    _report(
        "criterion 6: two strategies agree and normalization is idempotent (1000 terms)",
        ok,
        time.monotonic() - t0,
        30.0,
    )


def test_criterion_7_surface_round_trip() -> None:
    t0 = time.monotonic()
    ok = True
    fixtures = [
        "term_source.prob",
        "type_source.prob",
        "thm1_target.prob",
        "erratum_target.prob",
        "thm2_invalid_target.prob",
    ]
    for name in fixtures:
        spec, p = parse_problem((FIXTURES / name).read_text())
        text = print_problem(spec, p)
        spec2, p2 = parse_problem(text)
        ok = ok and spec2 == spec and p2 == p
        ok = ok and print_problem(spec2, p2) == text
    # the transcribed targets are exactly what the builders emit
    lp, lw = cube_spec("lP"), cube_spec("lw")
    _, term_src = parse_problem((FIXTURES / "term_source.prob").read_text())
    _, type_src = parse_problem((FIXTURES / "type_source.prob").read_text())
    ok = ok and build_thm1(term_src, lp).target == parse_problem((FIXTURES / "thm1_target.prob").read_text())[1]
    ok = ok and build_erratum(type_src, lw).target == parse_problem((FIXTURES / "erratum_target.prob").read_text())[1]
    ok = ok and build_thm2_invalid(type_src, lw).target == parse_problem((FIXTURES / "thm2_invalid_target.prob").read_text())[1]
    # substitution files round-trip through verification as well
    _, target = parse_problem((FIXTURES / "thm1_target.prob").read_text())
    sigma = parse_substitution((FIXTURES / "thm1_sigma.subst").read_text(), target.qctx)
    ok = ok and is_solution(sigma, target, lp)
    _report("criterion 7: surface round-trip on the transcribed fixtures", ok, time.monotonic() - t0)
