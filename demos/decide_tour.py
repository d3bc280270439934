"""Tour of the decision pipeline on two small diagonal states.

The map associated with a diagonal two-qubit state acts on diagonals like a
classical 2x2 matrix, so these examples make every stage easy to follow: the
weight pattern [[1,0],[0,1]] scales to doubly stochastic, while [[1,1],[0,1]]
famously cannot (its support misses a positive diagonal through the zero).
"""

import numpy as np

from filternorm import (
    anchor_transform,
    decide_equivalence,
    diagonal_state,
    find_full_rank_vector,
    find_irreducible_corner,
    solve_adjoint_block,
    state_to_map,
)
from filternorm.linalg import identity_projection


def describe(name, weights):
    print(f"=== {name}: diagonal weights {weights.tolist()} ===")
    state = diagonal_state(weights / weights.sum())

    v = find_full_rank_vector(state)
    print(f"full-tensor-rank range vector: {np.round(v, 4)}")

    prefilter, anchored = anchor_transform(state, v)
    print(f"anchoring filter P (P (x) Id moves the state):\n{np.round(prefilter, 4)}")

    T = state_to_map(anchored)
    corner, lam, delta = find_irreducible_corner(T, identity_projection(state.k))
    print(f"irreducible corner: rank {corner.rank}, spectral radius {lam:.6g}")

    block = solve_adjoint_block(T, corner, lam, delta)
    if block.W is None:
        print(f"no matching adjoint corner: quadratic minimum {block.min_f:.6g}, "
              f"smallest Gram eigenvalue {block.gram_min_eig:.6g}")
    else:
        print(f"matching adjoint corner found (rank {block.W.rank}), "
              f"quadratic minimum {block.min_f:.2e}")

    verdict = decide_equivalence(state)
    print(f"verdict: {verdict.outcome} after {verdict.iterations} iteration(s)")
    for i, (V, val) in enumerate(verdict.blocks, start=1):
        print(f"  block {i}: rank {V.rank}, spectral radius {val:.6g}")
    print()


def main():
    describe("scalable state", np.diag([1.0, 1.0]))
    describe("non-equivalent state", np.array([[1.0, 1.0], [0.0, 1.0]]))


if __name__ == "__main__":
    main()
