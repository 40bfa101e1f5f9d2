"""Exact certification of left-orderable Dehn filling intervals for
two-bridge knots, via Alexander polynomial root analysis and twisted
sl2 group cohomology, all in exact rational arithmetic."""

from .certify import (
    Certificate,
    CertifyResult,
    RootBranchReport,
    Verdict,
    analyze_roots,
    certify,
    check_rigidity,
    meridian_trace_check,
)
from .cohomology import (
    FamilyCocycleForms,
    KnotWalk,
    cohomology_dims,
    family_cocycle_forms,
    knot_rows,
    knot_walk,
    vanishing_identity,
)
from .polynomials import (
    LaurentPoly,
    Poly,
    RootAtEndpoint,
    RootForm,
    isolate_real_roots,
    refine_isolating_interval,
    root_form,
    squarefree_decomposition,
    sturm_count,
)
from .quotient import (
    AlgebraicElement,
    MatrixOverField,
    ModulusBranch,
    NullspaceResult,
    SplitRequired,
)
from .reps import (
    AlexanderMismatch,
    Mat3,
    MeridianRep,
    alexander_polynomial,
    alexander_via_fox,
    alexander_via_rep,
    burde_de_rham_assignment,
    f_upper_entry,
    normalize_alexander,
)
from .twobridge import (
    ContinuedFraction,
    KnotPresentation,
    TwoBridgeFraction,
    build_presentation,
    cf_to_fraction,
    family_fraction,
    family_v,
    family_word,
    riley_exponents,
)
from .words import Word, WordParseError

__version__ = "0.1.0"
