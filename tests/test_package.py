import types

import topecycles

PUBLIC_NAMES = [
    "Arrangement",
    "ArrangementError",
    "CensusResult",
    "CycleError",
    "DSReport",
    "Decomposition",
    "DecompositionError",
    "DimensionError",
    "FaceComplex",
    "FullSystemFeasibleError",
    "HalfplaneCheck",
    "SignVector",
    "SpecialCaseNote",
    "SymmetricCycle",
    "Violation",
    "canonical_hypercube_cycle",
    "census",
    "check_ds",
    "check_halfplane_condition",
    "decompose",
    "delta_face_masks",
    "enumerate_topes",
    "find_symmetric_cycle",
    "hypercube_topes",
    "lambda_face_masks",
    "long_f_vector",
    "moment_curve",
    "negate",
    "nu_counts",
    "parse_sign_vector",
    "primitive_vector",
    "rank2_fan",
    "sign_vector_str",
    "symmetric_cycle",
    "totally_cyclic_fan",
]


def test_the_package_exports_these_35_public_names():
    # the names __init__ imports; its submodules, bound as attributes once imported, are not among them
    names = sorted(n for n, v in vars(topecycles).items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES and len(names) == 35
