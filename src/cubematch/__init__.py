"""cubematch: the eight lambda-cube calculi as an executable kernel.

Terms, reduction and typing live in the kernel modules; quantified
contexts, substitutions and matching/unification problems in `problems`;
the executable problem encodings in `encodings`; the bounded enumeration
oracle in `search`; concrete syntax in `syntax`; the CLI in `cli`.
"""

from .errors import (
    CapabilityError,
    ContextError,
    CubeError,
    ElementarityError,
    FuelExhausted,
    NoRuleApplies,
    NotAType,
    NotNormal,
    OrderUndefined,
    ParseError,
    ProblemError,
    SortPairMissing,
    SubstitutionError,
    TypeHasNoType,
    TypingError,
    UnboundName,
    WitnessError,
)
from .terms import (
    PROP,
    TYPE,
    App,
    Lam,
    Pi,
    Sort,
    Term,
    Var,
    app,
    arrow,
    free_indices,
    node_count,
    pick_fresh,
    shift,
    spine,
    subst,
)
from .reduction import Fuel, beta_eta_normalize, equivalent
from .typecheck import (
    ALL_PAIRS,
    PP,
    PT,
    TP,
    TT,
    Context,
    CubeSpec,
    Decl,
    PRESETS,
    check_type,
    cube_spec,
    infer_type,
    wf_context,
)
from .problems import (
    INFINITE,
    OrderValue,
    Problem,
    ProblemKind,
    QContext,
    QDecl,
    Quant,
    SubstTriple,
    Substitution,
    apply_subst,
    is_solution,
    is_term_elementary,
    is_type_elementary,
    make_problem,
    order,
    subst_well_typed,
)
from .encodings import (
    ArtifactKind,
    GoldfarbShapes,
    ReductionArtifact,
    build_erratum,
    build_thm1,
    build_thm2_invalid,
    goldfarb_numeral,
    goldfarb_solution_shapes,
    goldfarb_tpl,
    thm1_extract,
    thm1_witness,
)
from .search import SearchBudget, enumerate_candidates, solve_bounded
from .syntax import (
    SourceSpan,
    parse_problem,
    parse_substitution,
    parse_term,
    print_problem,
    print_substitution,
    print_term,
)

__version__ = "0.1.0"
