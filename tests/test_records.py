"""The contract of the package's value classes (the records), and of the
normal-form classes that tests/match_walks.py keeps for the tests.

Every public record keeps the behaviour it had as a frozen dataclass: its
constructor (positional, keyword, defaults, validation), immutability,
`==`/`hash` that ignore display names, a pinned `repr`, `__match_args__`,
and `copy`/`deepcopy`/`pickle` round trips.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from cubematch import (
    PROP,
    Context,
    CubeSpec,
    Decl,
    GoldfarbShapes,
    Lam,
    OrderValue,
    QContext,
    QDecl,
    Quant,
    ReductionArtifact,
    SearchBudget,
    SourceSpan,
    SubstTriple,
    Substitution,
    Var,
    cube_spec,
    make_problem,
)
from cubematch.cli import Verdict
from cubematch.encodings import ArtifactKind
from cubematch.record import Record
from cubematch.syntax import parse_problem_file
from cubematch.terms import Pi, lower
from cubematch.typecheck import PP, PT, TT
from match_walks import Abstraction, Atomic, Product

A = QDecl(Quant.FORALL, PROP, "A")
X = QDecl(Quant.EXISTS, PROP, "X")
QCTX = QContext((A, X))
PROBLEM = make_problem(QCTX, Var(0), Var(1), cube_spec("lw"))
STLC = CubeSpec(frozenset({PP}), "stlc")
TRIPLE = SubstTriple(1, QContext(), Var(0))


def samples() -> dict[str, object]:
    """One instance of every public record; the repr pins below are the
    strings these printed as frozen dataclasses."""
    return {
        "Abstraction": Abstraction(),
        "Product": Product(),
        "Atomic": Atomic(Var(0), (PROP, Var(1))),
        "Decl": Decl(PROP, "A"),
        "Context": Context((Decl(PROP, "A"), Decl(Var(0), "x"))),
        "CubeSpec": STLC,
        "QDecl": A,
        "QContext": QCTX,
        "SubstTriple": SubstTriple(2, QContext(), Lam(Var(1), Var(0), "x")),
        "Substitution": Substitution(QCTX, (TRIPLE,)),
        "OrderValue": OrderValue(3),
        "Problem": PROBLEM,
        "ReductionArtifact": ReductionArtifact(
            ArtifactKind.THM1,
            PROBLEM,
            PROBLEM,
            STLC,
            {"X": "f"},
            1,
            OrderValue(None),
            frozenset({PT}),
            False,
        ),
        "GoldfarbShapes": GoldfarbShapes.standard(),
        "SearchBudget": SearchBudget(),
        "SourceSpan": SourceSpan(0, 3, 1, 1),
        "ParsedProblem": parse_problem_file("calculus stlc\nforall A : Prop\nmatch A = A\n"),
        "Verdict": Verdict("check", "yes", {"kind": "matching"}),
    }


_QCTX_REPR = (
    "QContext(decls=(QDecl(quant=<Quant.FORALL: 'forall'>, ty=Sort(tag='Prop'), name='A'), "
    "QDecl(quant=<Quant.EXISTS: 'exists'>, ty=Sort(tag='Prop'), name='X')))"
)
_PROBLEM_REPR = (
    f"Problem(qctx={_QCTX_REPR}, lhs=Var(index=0), rhs=Var(index=1), "
    "kind=<ProblemKind.MATCHING: 'matching'>, common_type=Sort(tag='Prop'), "
    "max_existential_order=OrderValue(value=2))"
)
_STLC_REPR = "CubeSpec(rules=frozenset({('Prop', 'Prop')}), name='stlc')"

REPRS = {
    "Abstraction": "Abstraction()",
    "Product": "Product()",
    "Atomic": "Atomic(head=Var(index=0), args=(Sort(tag='Prop'), Var(index=1)))",
    "Decl": "Decl(ty=Sort(tag='Prop'), name='A')",
    "Context": "Context(decls=(Decl(ty=Sort(tag='Prop'), name='A'), "
    "Decl(ty=Var(index=0), name='x')))",
    "CubeSpec": _STLC_REPR,
    "QDecl": "QDecl(quant=<Quant.FORALL: 'forall'>, ty=Sort(tag='Prop'), name='A')",
    "QContext": _QCTX_REPR,
    "SubstTriple": "SubstTriple(pos=2, local=QContext(decls=()), "
    "term=Lam(dom=Var(index=1), body=Var(index=0), hint='x'))",
    "Substitution": f"Substitution(qctx={_QCTX_REPR}, "
    "triples=(SubstTriple(pos=1, local=QContext(decls=()), term=Var(index=0)),))",
    "OrderValue": "OrderValue(value=3)",
    "Problem": _PROBLEM_REPR,
    "ReductionArtifact": "ReductionArtifact(kind=<ArtifactKind.THM1: 'thm1'>, "
    f"source={_PROBLEM_REPR}, target={_PROBLEM_REPR}, spec={_STLC_REPR}, "
    "names={'X': 'f'}, f_position=1, f_order=OrderValue(value=None), "
    "required_pairs=frozenset({('Prop', 'Type')}), invalid_per_erratum=False)",
    "GoldfarbShapes": "GoldfarbShapes(qctx=QContext(decls=("
    "QDecl(quant=<Quant.FORALL: 'forall'>, ty=Sort(tag='Prop'), name='U'), "
    "QDecl(quant=<Quant.FORALL: 'forall'>, ty=Var(index=0), name='a'), "
    "QDecl(quant=<Quant.FORALL: 'forall'>, ty=Pi(dom=Var(index=1), "
    "cod=Pi(dom=Var(index=2), cod=Var(index=3), hint=None), hint=None), name='g'))), "
    "u_pos=0, a_pos=1, g_pos=2)",
    "SearchBudget": "SearchBudget(max_term_size=6, max_solutions=16)",
    "SourceSpan": "SourceSpan(start=0, end=3, line=1, col=1)",
    "ParsedProblem": f"ParsedProblem(spec={_STLC_REPR}, qctx=QContext(decls=("
    "QDecl(quant=<Quant.FORALL: 'forall'>, ty=Sort(tag='Prop'), name='A'),)), "
    "lhs=Var(index=0), rhs=Var(index=0), goal_keyword='match', "
    "eq_span=SourceSpan(start=38, end=39, line=3, col=9))",
    "Verdict": "Verdict(command='check', outcome='yes', details={'kind': 'matching'})",
}

NAMES = list(REPRS)
UNHASHABLE = {"ReductionArtifact", "Verdict"}  # they hold a dict


def test_every_public_record_is_pinned() -> None:
    assert set(samples()) == set(REPRS)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_repr(name) -> None:
    assert repr(samples()[name]) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_keyword_construction_matches_positional(name) -> None:
    r = samples()[name]
    fields = type(r).__match_args__
    by_keyword = type(r)(**{f: getattr(r, f) for f in fields})
    by_position = type(r)(*(getattr(r, f) for f in fields))
    assert repr(by_keyword) == repr(by_position) == repr(r)
    assert by_keyword == by_position == r


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name) -> None:
    r = samples()[name]
    before = repr(r)
    for field in (*type(r).__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(r, field, None)
        with pytest.raises(AttributeError):
            delattr(r, field)
    assert repr(r) == before


@pytest.mark.parametrize("name", NAMES)
def test_copy_deepcopy_and_pickle_round_trip(name) -> None:
    r = samples()[name]
    copies = [copy.copy(r), copy.deepcopy(r)]
    copies += [pickle.loads(pickle.dumps(r, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is type(r) and repr(c) == repr(r) and c == r
        if name not in UNHASHABLE:
            assert hash(c) == hash(r)


def test_substitution_rebuilds_its_tables_and_does_not_pickle_them() -> None:
    s = Substitution(QCTX, (TRIPLE,))
    assert s.__reduce__() == (Substitution, (QCTX, (TRIPLE,)))
    for p in range(pickle.HIGHEST_PROTOCOL + 1):
        assert b"_by_pos" not in pickle.dumps(s, p) and b"_cum" not in pickle.dumps(s, p)
    for c in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert c._by_pos is not s._by_pos
        assert c.triple_at(1) == TRIPLE and c.triple_at(0) is None
        assert [c.slots_before(q) for q in range(3)] == [0, 1, 1] and c.image_len == 1


def test_a_kept_lowered_codomain_changes_no_record() -> None:
    # g : U -> U -> U; lowering its type's products fills a slot in each,
    # which no record shows, compares, hashes or pickles
    fresh, filled = GoldfarbShapes.standard(), copy.deepcopy(GoldfarbShapes.standard())
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    ty = filled.qctx.decls[2].ty
    while type(ty) is Pi:
        lower(ty)
        ty = ty.cod
    assert hasattr(filled.qctx.decls[2].ty, "_low")
    assert repr(filled) == repr(fresh) and filled == fresh and hash(filled) == hash(fresh)
    assert [pickle.dumps(filled, p) for p in protocols] == [pickle.dumps(fresh, p) for p in protocols]
    for c in (copy.deepcopy(filled), *(pickle.loads(pickle.dumps(filled, p)) for p in protocols)):
        assert c == fresh and not hasattr(c.qctx.decls[2].ty, "_low")


def test_eq_and_hash_ignore_display_names() -> None:
    renamed = QContext((QDecl(Quant.FORALL, PROP, "B"), QDecl(Quant.EXISTS, PROP)))
    pairs = [
        (A, QDecl(Quant.FORALL, PROP, "B")),
        (A, QDecl(Quant.FORALL, PROP)),
        (Decl(PROP, "A"), Decl(PROP, None)),
        (STLC, CubeSpec(frozenset({PP}), "other")),
        (QCTX, renamed),
        (Substitution(QCTX, (TRIPLE,)), Substitution(renamed, (TRIPLE,))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and not a != b
    assert cube_spec("stlc") == CubeSpec(frozenset({PP}))


def test_eq_compares_fields_and_classes() -> None:
    assert A != X and QDecl(Quant.FORALL, Var(0)) != A
    assert Decl(PROP) != Decl(Var(0))
    assert Abstraction() == Abstraction() and Abstraction() != Product()
    assert OrderValue(2) == OrderValue(2) != OrderValue(3)
    assert SearchBudget(3, 2) != SearchBudget(2, 3)
    assert Substitution(QCTX) != Substitution(QCTX, (TRIPLE,))
    # records of different classes with equal fields differ
    assert Decl(PROP, "A") != QDecl(Quant.FORALL, PROP, "A")
    assert (Context() == QContext()) is False and (OrderValue(1) == 1) is False


def test_substitution_sorts_its_triples() -> None:
    qctx = QContext((X, QDecl(Quant.EXISTS, PROP, "Y")))
    t0, t1 = SubstTriple(0, QContext(), PROP), SubstTriple(1, QContext(), PROP)
    s = Substitution(qctx, (t1, t0))
    assert s.triples == (t0, t1) and s == Substitution(qctx, (t0, t1))


def test_defaults() -> None:
    assert QDecl(Quant.FORALL, PROP).name is None and Decl(PROP).name is None
    assert CubeSpec(frozenset({PP})).name is None
    assert Context().decls == () and QContext().decls == ()
    assert Substitution(QCTX).triples == ()
    assert SearchBudget() == SearchBudget(6, 16) == SearchBudget(max_solutions=16)
    assert SearchBudget(max_solutions=2) == SearchBudget(6, 2)


def test_match_args_drive_structural_patterns() -> None:
    match Substitution(QCTX, (TRIPLE,)):
        case Substitution(QContext((QDecl(Quant.FORALL, _, name), _)), (SubstTriple(pos),)):
            assert (name, pos) == ("A", 1)
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: OrderValue(0), "finite orders start at 1"),
        (lambda: SearchBudget(0, 1), "budgets must be positive"),
        (lambda: SearchBudget(1, 0), "budgets must be positive"),
        (lambda: CubeSpec(frozenset({PT, TT})), "the pair Prop-Prop is mandatory"),
        (lambda: CubeSpec(frozenset({PP, ("Prop", "Set")})), "rules must be sort pairs"),
        (lambda: SourceSpan(4, 3, 1, 1), "span ends before it starts"),
        (lambda: Substitution(QCTX, (SubstTriple(0, QContext(), PROP),)), "universal"),
        (lambda: Substitution(QCTX, (TRIPLE, TRIPLE)), "two triples target slot 1"),
        (
            lambda: GoldfarbShapes(QContext((A, X, QDecl(Quant.FORALL, PROP))), 0, 1, 2),
            "constant slot",
        ),
        (lambda: GoldfarbShapes(GoldfarbShapes.standard().qctx, -3, -2, -1), "slot positions"),
        (lambda: GoldfarbShapes(GoldfarbShapes.standard().qctx, 0, 1, 7), "slot positions"),
    ],
)
def test_constructors_validate(build, message) -> None:
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: OrderValue(1, 2), r"OrderValue\(\) got 2 arguments for its fields \(value\)"),
        (lambda: SearchBudget(size=3), "SearchBudget.*unexpected keyword argument 'size'"),
        (
            lambda: CubeSpec(frozenset({PP}), rules=frozenset({PP})),
            "CubeSpec.*multiple values for argument 'rules'",
        ),
        (lambda: Atomic(Var(0)), "Atomic.*missing required argument 'args'"),
        (lambda: Decl(name="A"), "Decl.*missing required argument 'ty'"),
    ],
)
def test_the_shared_constructor_rejects_bad_arguments(build, message) -> None:
    with pytest.raises(TypeError, match=message):
        build()


def test_defaults_name_fields() -> None:
    # every module defining a record is loaded by the cli import above
    classes, todo = [], [Record]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    names = {c.__name__ for c in classes}
    assert {"CubeSpec", "Decl", "Context", "SearchBudget", "Verdict", "_Variant", "Var"} <= names
    for cls in classes:
        assert set(cls._defaults) <= set(cls.__match_args__), cls
