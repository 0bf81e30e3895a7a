"""Decompositions of topes over symmetric cycles in tope graphs.

Given a tope set (from an exact rational simple central arrangement, which is
validated on construction, or given explicitly) and a symmetric cycle in its
tope graph, the package computes the unique inclusion-minimal subset of cycle
vertices summing to any tope, builds the two simplicial complexes that subset
carries, and verifies the exact Dehn-Sommerville type identities their long
f-vectors satisfy.  All decisions use exact integer/rational arithmetic."""

from .arrangements import (
    Arrangement,
    ArrangementError,
    ccw_half_turn_counts,
    enumerate_topes,
    hypercube_topes,
    moment_curve,
    primitive_vector,
    rank2_fan,
    totally_cyclic_fan,
)
from .complexes import (
    FaceComplex,
    delta_face_masks,
    lambda_face_masks,
    long_f_vector,
)
from .core import (
    DimensionError,
    SignVector,
    Violation,
    all_plus,
    flip,
    negate,
    parse_sign_vector,
    separation_set,
    sign_vector_str,
)
from .cycles import (
    CycleError,
    SymmetricCycle,
    canonical_hypercube_cycle,
    find_symmetric_cycle,
    normalize_cycle,
    symmetric_cycle,
    validate_cycle,
)
from .decomposition import (
    Decomposition,
    DecompositionError,
    decompose,
)
from .dehn_sommerville import (
    DSReport,
    SpecialCaseNote,
    check_alternating_sum,
    check_ds,
    ds_polynomial_sides,
    special_cases,
)
from .oracles import (
    CensusResult,
    FullSystemFeasibleError,
    HalfplaneCheck,
    census,
    check_halfplane_condition,
    nu_counts,
)

__version__ = "0.1.0"
