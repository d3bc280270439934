"""The public names the package exports."""

import types

import filternorm

PUBLIC = {
    # decision
    "OUTCOME_EQUIVALENT", "OUTCOME_INCONCLUSIVE", "OUTCOME_NOT_EQUIVALENT",
    "STAGE_F_MIN_POSITIVE", "STAGE_GRAM_NOT_PD", "STAGE_NO_FULL_RANK_VECTOR",
    "BlockCertificate", "FailureWitness", "Verdict",
    "anchor_transform", "decide_equivalence", "find_irreducible_corner",
    "solve_adjoint_block",
    # numerics
    "DEFAULT_TOL", "Projection", "Tolerances",
    # maps
    "CpMap", "adjoint", "apply", "conjugate", "corner_rep", "identity_map",
    "is_doubly_stochastic", "is_irreducible", "leaves_invariant",
    "restrict_to_corner", "spectral_radius_perron", "transform",
    # scaling
    "NormalFormResult", "ScalingConvergenceError", "ScalingResult",
    "SingularMarginalError", "check_2x2_inequality", "filter_normal_form",
    "pauli_coefficients", "scale_to_doubly_stochastic",
    # file formats
    "NotPositiveError", "StateFormatError", "load_state", "save_filters",
    "save_state", "verdict_to_dict",
    # states
    "BipartiteState", "SchmidtPair", "apply_filter", "diagonal_state",
    "embed_rectangular", "find_full_rank_vector", "is_ppt", "maximally_entangled",
    "operator_schmidt", "partial_trace_first", "partial_trace_second",
    "partial_transpose", "random_state", "state_to_map", "tensor_rank",
    "vec_to_matrix",
}


def test_package_exports_exactly_the_public_names():
    """Stage internals (``normalize_corner``, the quadratic model, the
    alignment transform) stay in ``filternorm.decide``; submodules and
    ``__version__`` are not counted."""
    exported = {
        name for name, value in vars(filternorm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC
