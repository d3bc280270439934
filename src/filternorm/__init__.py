"""Filter normal forms of bipartite states.

Decides whether the positive map associated with a PPT state (holding a
full-tensor-rank vector in its range) is equivalent to a doubly stochastic
map, and when it is, computes the local filters realizing the state's normal
form by operator Sinkhorn scaling of the certified irreducible blocks.
"""

from .decide import (
    OUTCOME_EQUIVALENT,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_NOT_EQUIVALENT,
    STAGE_F_MIN_POSITIVE,
    STAGE_GRAM_NOT_PD,
    STAGE_NO_FULL_RANK_VECTOR,
    BlockCertificate,
    FailureWitness,
    Verdict,
    anchor_transform,
    decide_equivalence,
    find_irreducible_corner,
    solve_adjoint_block,
)
from .linalg import DEFAULT_TOL, Projection, Tolerances
from .maps import (
    CpMap,
    adjoint,
    apply,
    conjugate,
    corner_rep,
    is_doubly_stochastic,
    is_irreducible,
    restrict_to_corner,
    transform,
)
from .scaling import (
    NormalFormResult,
    ScalingConvergenceError,
    ScalingResult,
    SingularMarginalError,
    check_2x2_inequality,
    filter_normal_form,
    pauli_coefficients,
    scale_to_doubly_stochastic,
)
from .stateio import (
    NotPositiveError,
    StateFormatError,
    load_state,
    save_filters,
    save_state,
    verdict_to_dict,
)
from .states import (
    BipartiteState,
    apply_filter,
    diagonal_state,
    embed_rectangular,
    find_full_rank_vector,
    is_ppt,
    maximally_entangled,
    partial_trace_first,
    partial_trace_second,
    partial_transpose,
    random_state,
    state_to_map,
    vec_to_matrix,
)

__version__ = "0.1.0"
