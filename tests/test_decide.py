"""Decision pipeline: anchoring, corner search, quadratic solver, main loop."""

import numpy as np
import pytest

import oracles
from filternorm import (
    OUTCOME_EQUIVALENT,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_NOT_EQUIVALENT,
    STAGE_F_MIN_POSITIVE,
    STAGE_NO_FULL_RANK_VECTOR,
    BipartiteState,
    CpMap,
    anchor_transform,
    apply,
    apply_filter,
    corner_rep,
    decide_equivalence,
    diagonal_state,
    embed_rectangular,
    find_full_rank_vector,
    find_irreducible_corner,
    identity_map,
    is_irreducible,
    leaves_invariant,
    maximally_entangled,
    partial_transpose,
    solve_adjoint_block,
    spectral_radius_perron,
    state_to_map,
    transform,
)
from filternorm.decide import (
    _boundary_rank_drop,
    _coords_to_block,
    adjoint_block_quadratic,
    normalize_corner,
)
from filternorm.linalg import (
    DEFAULT_TOL,
    identity_projection,
    projection_from_matrix,
    projector_onto,
    psd_check,
    rank_eps,
    same_subspace,
)
from filternorm.maps import _corner_perron
from helpers import (
    blocky_state,
    hidden_blocky,
    hidden_upper_triangular,
    ill_filtered,
    neq2_state,
    pattern_state,
    pattern_weights,
    random_invertible,
    random_unitary,
    repeated_block_state,
    separable_full_rank,
    unitary_mixture,
    upper_triangular_map_kraus,
)

U2 = np.eye(2, dtype=complex).reshape(4)
IDENTITY_STATE = BipartiteState(k=2, m=2, rho=np.eye(4, dtype=complex) / 4)


def normalized_t1(k, s, rng):
    """Random map with normalized leading invariant corner, via the pipeline."""
    T = CpMap(src_dim=k, dst_dim=k,
              kraus=tuple(upper_triangular_map_kraus(k, s, rng)))
    lead = projector_onto(np.eye(k, dtype=complex)[:, :s])
    lam, _, _, delta = _corner_perron(T, lead, DEFAULT_TOL)
    Q, T1, s1 = normalize_corner(T, lead, lam, delta)
    return T1, s1


def test_anchor_canonical_vector_gives_identity_prefilter():
    """Anchoring on the entangled sum leaves the map untouched."""
    st = maximally_entangled(2)
    P, T = anchor_transform(st, U2)
    assert np.abs(P - np.eye(2)).max() == 0.0
    assert np.abs(T.superop - state_to_map(st).superop).max() < 1e-14


def test_anchor_inverts_the_coefficient_matrix():
    """A vector with coefficient matrix diag(2,1) anchors with P = diag(1/2,1)."""
    v = np.array([2.0, 0.0, 0.0, 1.0], dtype=complex)
    P, T = anchor_transform(IDENTITY_STATE, v)
    assert np.abs(P - np.diag([0.5, 1.0])).max() < 1e-12
    # the anchored map is the map of (P (x) Id) rho (P (x) Id)*
    F = np.kron(P, np.eye(2))
    filtered = BipartiteState(k=2, m=2, rho=F @ IDENTITY_STATE.rho @ F.conj().T)
    assert np.abs(T.superop - state_to_map(filtered).superop).max() < 1e-14


def test_anchor_rejects_bad_vectors():
    """Rank-deficient vectors and vectors outside the range are rejected."""
    prod = np.kron(np.array([1.0, 0.0]), np.array([1.0, 0.0])).astype(complex)
    with pytest.raises(ValueError):
        anchor_transform(IDENTITY_STATE, prod)
    with pytest.raises(ValueError):
        anchor_transform(maximally_entangled(2), np.array([1.0, 0.0, 0.0, -1.0]))
    with pytest.raises(ValueError):
        anchor_transform(BipartiteState(k=2, m=3, rho=np.eye(6) / 6), U2)


def test_anchor_transform_filters_the_kraus_operators_of_ill_filtered_states():
    """``separable_full_rank(4)`` under ``A (x) B``, each factor of condition
    number 1e6.  Filtering rho in the state domain rejected the anchored state
    on each of these draws ("state matrix is not Hermitian"); the anchored map
    is the state's map with ``K -> K P^t``, bit for bit."""
    for seed in range(1000, 1010):
        rng = np.random.default_rng(seed)
        st = ill_filtered(separable_full_rank(4, rng), 1e6, rng)
        P, T = anchor_transform(st, find_full_rank_vector(st))
        want = transform(state_to_map(st), np.eye(4), P.T)
        assert np.array_equal(T.kraus, want.kraus), seed


def test_anchored_map_does_not_shrink_images():
    """After anchoring, rank(T(X)) >= rank(X) on random PSD inputs."""
    rng = np.random.default_rng(0)
    st = separable_full_rank(3, rng)
    v = np.eye(3, dtype=complex).reshape(9)
    _, T = anchor_transform(st, v)
    for r in (1, 2, 3):
        g = rng.standard_normal((3, r)) + 1j * rng.standard_normal((3, r))
        X = g @ g.conj().T
        assert rank_eps(apply(T, X)) >= rank_eps(X)


def test_find_irreducible_corner_identity_map():
    """The identity map is maximally reducible: a rank-1 corner with value 1."""
    V, lam, _ = find_irreducible_corner(identity_map(2), identity_projection(2))
    assert V.rank == 1
    assert abs(lam - 1.0) < 1e-9


def test_find_irreducible_corner_neq2():
    """The anchored map of the (1,1,0,1)/3 state shrinks to the second axis."""
    _, T = anchor_transform(neq2_state(), U2)
    V, lam, _ = find_irreducible_corner(T, identity_projection(2))
    e22 = projector_onto(np.eye(2, dtype=complex)[:, [1]])
    assert same_subspace(V, e22)
    assert abs(lam - 1.0 / 3.0) < 1e-9


def test_nearly_equal_roots_stay_apart():
    """Roots ``1e-6`` apart are two roots, not the split of one: the search
    lands on the larger one's corner, and a two-block decision keeps both."""
    e11, e22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    T = CpMap(src_dim=2, dst_dim=2, kraus=[e11, np.sqrt(1 + 1e-6) * e22])
    V, lam, _ = find_irreducible_corner(T, identity_projection(2))
    assert same_subspace(V, projector_onto(np.eye(2, dtype=complex)[:, [1]]))
    assert abs(lam - (1 + 1e-6)) < 1e-12
    assert abs(spectral_radius_perron(T, identity_projection(2))[0] - lam) < 1e-12
    B = np.array([[1.0, 2.0], [3.0, 1.0]])
    w = np.block([[B, np.zeros((2, 2))], [np.zeros((2, 2)), (1 + 1e-6) * B]])
    verdict = decide_equivalence(pattern_state(w), rng=np.random.default_rng(0))
    assert verdict.outcome == OUTCOME_EQUIVALENT
    (V1, lam1), (V2, lam2) = verdict.blocks
    assert (V1.rank, V2.rank) == (2, 2)
    assert 5e-7 < lam1 - lam2 < 2e-6


def test_find_irreducible_corner_keeps_irreducible_corners():
    """An already irreducible map comes back unchanged, and only such a map.

    On every input the search returns the whole corner exactly when
    ``is_irreducible`` holds there: both read the same Perron root, eigenspace
    and multiplicity.
    """
    T = state_to_map(diagonal_state(np.ones((2, 2)) / 4.0))
    V, lam, _ = find_irreducible_corner(T, identity_projection(2))
    assert same_subspace(V, identity_projection(2))
    assert is_irreducible(T, V)
    assert abs(lam - 0.5) < 1e-9

    rng = np.random.default_rng(5)
    maps = [unitary_mixture(k, 3, rng) for k in (2, 3, 4)]
    for k, s in ((3, 1), (4, 2), (5, 3)):
        ops = tuple(upper_triangular_map_kraus(k, s, rng))
        maps.append(CpMap(src_dim=k, dst_dim=k, kraus=ops))
    weights = [np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(3),
               np.eye(3) + np.roll(np.eye(3), 1, axis=1)]
    weights += [pattern_weights(k, k, rng) + np.eye(k) for k in (3, 4, 5)]
    maps += [state_to_map(pattern_state(w)) for w in weights]
    for k in (3, 4, 5, 8):
        eye = np.eye(k, dtype=complex)
        shift = tuple(np.outer(eye[(i + 1) % k], eye[i]) for i in range(k))
        maps.append(CpMap(src_dim=k, dst_dim=k, kraus=shift))
    seen = set()
    for T in maps:
        whole = identity_projection(T.src_dim)
        V, _, _ = find_irreducible_corner(T, whole)
        kept = same_subspace(V, whole)
        assert kept == is_irreducible(T, whole)
        seen.add(kept)
    assert seen == {True, False}


def test_find_irreducible_corner_analyses_an_irreducible_corner_once(monkeypatch):
    """An irreducible corner costs one corner representation and one SVD of it,
    not two: the search hands the adjoint Perron vector on, so
    ``solve_adjoint_block`` builds no representation of ``T`` again (only of
    the normalized map, for its postcondition)."""
    corners, svds = [], []

    def counted_rep(*args, **kwargs):
        corners.append(args[:2])
        return corner_rep(*args, **kwargs)

    def counted_svd(a, *args, _svd=np.linalg.svd, **kwargs):
        svds.append(np.shape(a))
        return _svd(a, *args, **kwargs)

    monkeypatch.setattr("filternorm.maps.corner_rep", counted_rep)
    monkeypatch.setattr("filternorm.decide.corner_rep", counted_rep)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    rng = np.random.default_rng(3)
    for k in (2, 4, 6):
        T = unitary_mixture(k, 3, rng)
        corners.clear()
        svds.clear()
        V, lam, delta = find_irreducible_corner(T, identity_projection(k))
        assert V.rank == k
        assert [(M is T, P.rank) for M, P in corners] == [(True, k)]
        assert svds.count((k * k, k * k)) == 1
        solve_adjoint_block(T, V, lam, delta)
        assert not any(M is T for M, _ in corners[1:])
    _, T = anchor_transform(neq2_state(), U2)
    V, lam, delta = find_irreducible_corner(T, identity_projection(2))
    corners.clear()
    assert solve_adjoint_block(T, V, lam, delta).W is None
    assert not any(M is T for M, _ in corners)


def test_boundary_rank_drop_lands_on_a_smaller_invariant_corner():
    """On ``c`` copies of an irreducible block the closed-form boundary step
    returns a PSD Perron eigenvector of lower rank whose image is invariant."""
    rng = np.random.default_rng(8)
    for c in (2, 3):
        for s in (2, 3, 4):
            U = random_unitary(c * s, rng)
            ops = [rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
                   for _ in range(3)]
            kraus = [U @ np.kron(np.eye(c), K) @ U.conj().T for K in ops]
            T = CpMap(src_dim=c * s, dst_dim=c * s, kraus=kraus)
            V = identity_projection(c * s)
            lam, space, gamma, _ = _corner_perron(T, V, DEFAULT_TOL)
            assert space.shape[0] == c * c
            assert rank_eps(gamma) == V.rank
            B = _boundary_rank_drop(space, gamma, V, DEFAULT_TOL)
            assert psd_check(B)
            assert np.linalg.norm(apply(T, B) - lam * B) <= 1e-10 * np.linalg.norm(B)
            assert 0 < rank_eps(B) < V.rank
            assert leaves_invariant(T, projection_from_matrix(B))


def test_find_irreducible_corner_output_contract():
    """Returned corners are invariant, irreducible, and nested in the input."""
    rng = np.random.default_rng(1)
    for k, dims in [(3, [1, 2]), (4, [2, 2])]:
        st = blocky_state(k, dims, rng)
        v = np.eye(k, dtype=complex).reshape(k * k)
        _, T = anchor_transform(st, v)
        V, lam, _ = find_irreducible_corner(T, identity_projection(k))
        assert V.rank <= k
        assert leaves_invariant(T, V)
        assert is_irreducible(T, V)
        assert lam > 0


def test_normalize_corner_neq2_hand_formula():
    """On the shrunken corner the normalized map is X -> (x11+x22)E11 + x22 E22."""
    rng = np.random.default_rng(2)
    _, T = anchor_transform(neq2_state(), U2)
    V, lam, delta = find_irreducible_corner(T, identity_projection(2))
    Q, T1, s = normalize_corner(T, V, lam, delta)
    assert s == 1
    for _ in range(5):
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        want = np.diag([X[0, 0] + X[1, 1], X[1, 1]])
        assert np.abs(apply(T1, X) - want).max() < 1e-12


def test_normalize_corner_postconditions():
    """Leading corner invariant, adjoint fixed point exact, spectral radius one."""
    rng = np.random.default_rng(3)
    for k, s in [(3, 1), (4, 2), (4, 3)]:
        T1, s1 = normalized_t1(k, s, rng)
        assert s1 == s
        lead = projector_onto(np.eye(k, dtype=complex)[:, :s])
        assert leaves_invariant(T1, lead)
        v1 = np.zeros((k, k), dtype=complex)
        v1[:s, :s] = np.eye(s)
        from filternorm import adjoint

        fixed = v1 @ apply(adjoint(T1), v1) @ v1
        assert np.abs(fixed - v1).max() < 1e-8
        lam, _ = spectral_radius_perron(T1, lead)
        assert abs(lam - 1.0) < 1e-8


def test_normalize_corner_unitary_for_doubly_stochastic_maps():
    """A doubly stochastic irreducible map normalizes with a unitary Q."""
    rng = np.random.default_rng(4)
    p = rng.dirichlet(np.ones(3))
    ops = []
    for i in range(3):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        ops.append(np.sqrt(p[i]) * q)
    T = CpMap(src_dim=3, dst_dim=3, kraus=tuple(ops))
    V = identity_projection(3)
    lam, _, _, delta = _corner_perron(T, V, DEFAULT_TOL)
    assert abs(lam - 1.0) < 1e-8
    Q, T1, s = normalize_corner(T, V, lam, delta)
    assert s == 3
    gram = Q.conj().T @ Q
    assert np.abs(gram - gram[0, 0] * np.eye(3)).max() < 1e-8


def test_quadratic_model_matches_trace_oracles():
    """Model evaluation equals both direct trace expressions at random points."""
    rng = np.random.default_rng(5)
    for k, s in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        T1, s1 = normalized_t1(k, s, rng)
        model = adjoint_block_quadratic(T1, s1)
        assert model.n == 2 * s1 * (k - s1)
        assert np.abs(model.gram - model.gram.T).max() < 1e-12
        kraus = list(T1.kraus)
        for _ in range(10):
            x = rng.standard_normal(model.n)
            X = _coords_to_block(x, k - s1, s1)
            got = model.evaluate(x)
            assert abs(got - oracles.objective_f_expanded(kraus, s1, X)) < 1e-8
            assert abs(got - oracles.objective_f_single_trace(kraus, s1, X)) < 1e-8


def test_quadratic_objective_is_nonnegative():
    """The single-trace form makes f >= 0 wherever the model is evaluated."""
    rng = np.random.default_rng(6)
    T1, s1 = normalized_t1(3, 1, rng)
    model = adjoint_block_quadratic(T1, s1)
    for _ in range(50):
        x = rng.standard_normal(model.n) * 3.0
        assert model.evaluate(x) > -1e-10


def test_solve_adjoint_block_pairs_each_certified_block_with_itself():
    """On the certified block-diagonal map each corner is its own unique partner."""
    rng = np.random.default_rng(7)
    for st in [diagonal_state(np.diag([0.5, 0.5])), blocky_state(3, [1, 2], rng),
               hidden_blocky(3, [2, 1], rng)]:
        verdict = decide_equivalence(st)
        assert verdict.outcome == OUTCOME_EQUIVALENT
        cert = verdict.certificate
        for V, _ in cert.blocks:
            W, lam, delta = find_irreducible_corner(cert.final_map, V)
            assert W is V
            result = solve_adjoint_block(cert.final_map, V, lam, delta)
            assert result.W is not None
            assert same_subspace(result.W, V)
            assert result.min_f <= 1e-8
            assert result.gram_min_eig is None or result.gram_min_eig > 0


def test_solve_adjoint_block_neq2_diagnostics():
    """The (1,1,0,1)/3 corner has no partner: min_f = 1, smallest Gram eig = 2."""
    _, T = anchor_transform(neq2_state(), U2)
    V, lam, delta = find_irreducible_corner(T, identity_projection(2))
    result = solve_adjoint_block(T, V, lam, delta)
    assert result.W is None
    assert abs(result.min_f - 1.0) < 1e-9
    assert abs(result.gram_min_eig - 2.0) < 1e-9


def test_decide_neq2_regression():
    """diag(1,1,0,1)/3 is not equivalent, with the pinned witness numbers."""
    verdict = decide_equivalence(neq2_state())
    assert verdict.outcome == OUTCOME_NOT_EQUIVALENT
    assert verdict.certificate is None
    w = verdict.witness
    assert w is not None and w.stage == STAGE_F_MIN_POSITIVE
    assert abs(w.min_f - 1.0) < 1e-9
    assert abs(w.gram_min_eig - 2.0) < 1e-9
    assert verdict.blocks == ()
    assert verdict.iterations == 1


def test_decide_separable_diagonal_state():
    """diag(1,0,0,1)/2 is equivalent with two rank-1 blocks of value one."""
    verdict = decide_equivalence(diagonal_state(np.diag([0.5, 0.5])))
    assert verdict.outcome == OUTCOME_EQUIVALENT
    assert sorted(V.rank for V, _ in verdict.blocks) == [1, 1]
    for _, lam in verdict.blocks:
        assert abs(lam - 1.0) < 1e-9
    assert verdict.iterations <= 2


def test_decide_identity_state_is_a_single_block():
    """The normalized identity is equivalent with one full-rank block."""
    verdict = decide_equivalence(IDENTITY_STATE)
    assert verdict.outcome == OUTCOME_EQUIVALENT
    assert [V.rank for V, _ in verdict.blocks] == [2]
    assert verdict.iterations == 1


def test_decide_one_by_one_state_is_one_block():
    """k = 1: the state [[2]] is equivalent, one block whose root is its trace."""
    verdict = decide_equivalence(BipartiteState(k=1, m=1, rho=np.array([[2.0]])))
    assert verdict.outcome == OUTCOME_EQUIVALENT
    assert [V.rank for V, _ in verdict.blocks] == [1]
    assert abs(verdict.blocks[0][1] - 2.0) < 1e-12


def test_decide_embedded_one_by_three_diagonal_state():
    """A diagonal 1 x 3 state embeds into a 3 x 3 one that decides equivalent."""
    embedded = embed_rectangular(diagonal_state(np.array([[1.0, 2.0, 3.0]])))
    assert (embedded.k, embedded.m) == (3, 3)
    verdict = decide_equivalence(embedded)
    assert verdict.outcome == OUTCOME_EQUIVALENT
    assert [V.rank for V, _ in verdict.blocks] == [3]


def test_decide_rejects_npt_and_rectangular_states():
    """Non-PPT and non-square inputs raise instead of returning a verdict."""
    with pytest.raises(ValueError):
        decide_equivalence(maximally_entangled(2))
    with pytest.raises(ValueError):
        decide_equivalence(BipartiteState(k=2, m=3, rho=np.eye(6) / 6))


def test_decide_product_state_is_inconclusive():
    """A pure product state has no full-tensor-rank range vector."""
    vec = np.kron(np.array([1.0, 0.5]), np.array([0.5, -1.0])).astype(complex)
    st = BipartiteState(k=2, m=2, rho=np.outer(vec, vec.conj()))
    st = BipartiteState(k=2, m=2, rho=st.rho / np.trace(st.rho).real)
    verdict = decide_equivalence(st)
    assert verdict.outcome == OUTCOME_INCONCLUSIVE
    assert verdict.witness.stage == STAGE_NO_FULL_RANK_VECTOR
    assert verdict.iterations == 0


def test_decide_hidden_block_structure():
    """A filtered two-block state is recognized with block ranks {1, 2}."""
    rng = np.random.default_rng(8)
    st = hidden_blocky(3, [1, 2], rng)
    verdict = decide_equivalence(st)
    assert verdict.outcome == OUTCOME_EQUIVALENT
    assert sorted(V.rank for V, _ in verdict.blocks) == [1, 2]
    assert verdict.iterations <= 3


def test_decide_repeated_blocks_hidden_by_local_unitaries():
    """Equal blocks give a degenerate Perron root; each copy is found as a block."""
    rng = np.random.default_rng(12)
    for copies, d in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        verdict = decide_equivalence(repeated_block_state(copies, d, rng))
        assert verdict.outcome == OUTCOME_EQUIVALENT
        assert [V.rank for V, _ in verdict.blocks] == [d] * copies


def test_decide_certificate_structure():
    """Certified blocks are orthogonal, complete, irreducible, and invariant."""
    rng = np.random.default_rng(9)
    for st in [diagonal_state(np.diag([0.5, 0.5])), hidden_blocky(3, [1, 2], rng),
               separable_full_rank(3, rng)]:
        verdict = decide_equivalence(st)
        assert verdict.outcome == OUTCOME_EQUIVALENT
        cert = verdict.certificate
        k = st.k
        total = np.zeros((k, k), dtype=complex)
        for i, (V, lam) in enumerate(cert.blocks):
            assert lam > 0
            assert leaves_invariant(cert.final_map, V)
            assert is_irreducible(cert.final_map, V)
            total += V.matrix
            for j, (W, _) in enumerate(cert.blocks):
                if i != j:
                    assert np.abs(V.matrix @ W.matrix).max() < 1e-10
        assert np.abs(total - np.eye(k)).max() < 1e-10
        assert rank_eps(cert.accumulated_transform) == k
        assert rank_eps(cert.prefilter) == k


def test_decide_certificate_reconstructs_the_state():
    """The realigned state equals the sum of its certified corner compressions."""
    rng = np.random.default_rng(10)
    for st in [diagonal_state(np.diag([0.5, 0.5])), blocky_state(3, [1, 2], rng),
               separable_full_rank(2, rng)]:
        verdict = decide_equivalence(st)
        cert = verdict.certificate
        Q = cert.accumulated_transform
        anchored = apply_filter(st, cert.prefilter, np.eye(st.k, dtype=complex))
        C = apply_filter(anchored, np.linalg.inv(Q).T, Q).rho
        D = np.zeros_like(C)
        for V, _ in cert.blocks:
            K = np.kron(V.matrix.T, V.matrix)
            D += K @ C @ K.conj().T
        assert np.abs(C - D).max() < 1e-8 * max(1.0, np.abs(C).max())


def test_decide_outcome_invariant_under_local_filters():
    """Congruence by Q1 (x) Q2 never changes the outcome."""
    rng = np.random.default_rng(11)
    cases = [
        neq2_state(),
        diagonal_state(np.diag([0.5, 0.5])),
        blocky_state(3, [1, 2], rng),
        separable_full_rank(2, rng),
        pattern_state(np.array([[1.0, 1.0], [1.0, 1.0]])),
    ]
    for st in cases:
        base = decide_equivalence(st).outcome
        Q1 = random_invertible(st.k, rng)
        Q2 = random_invertible(st.k, rng)
        moved = apply_filter(st, Q1, Q2)
        moved = BipartiteState(k=st.k, m=st.m, rho=moved.rho / np.trace(moved.rho).real)
        assert decide_equivalence(moved).outcome == base


def test_decide_accepts_an_explicit_anchor_vector():
    """Supplying a valid anchor vector gives the same outcome as the search."""
    st = diagonal_state(np.diag([0.5, 0.5]))
    v = np.array([2.0, 0.0, 0.0, 1.0], dtype=complex)
    verdict = decide_equivalence(st, v=v)
    assert verdict.outcome == OUTCOME_EQUIVALENT
    assert sorted(V.rank for V, _ in verdict.blocks) == [1, 1]


def test_decide_termination_bound():
    """The block loop never runs more than k iterations."""
    rng = np.random.default_rng(12)
    for k, dims in [(2, [1, 1]), (3, [1, 1, 1]), (4, [1, 1, 2])]:
        st = blocky_state(k, dims, rng)
        verdict = decide_equivalence(st)
        assert verdict.iterations <= k


def test_decide_matches_classical_total_support_on_diagonal_states():
    """Diagonal-state verdicts agree with the permutation-diagonal oracle.

    Besides random patterns, seven fixed Kronecker patterns of
    ``J = [[1, 1], [0, 1]]``, unnormalized: ``eigvals`` splits the defective
    Perron root 8 of the first two into a pair ``8 +- 1e-7 i``, and the other
    five have a degenerate defective root, decided only through
    ``_psd_in_span``.
    """
    rng = np.random.default_rng(13)
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    fixed = [np.kron(J, np.ones((2, 2))), np.kron(np.ones((2, 2)), J),
             np.kron(np.eye(2), J), np.kron(J, np.eye(2)), np.kron(J, J),
             np.kron(np.eye(3), J), np.kron(np.eye(2), np.triu(np.ones((3, 3))))]
    cases = [(w, diagonal_state(w)) for w in fixed]
    for _ in range(60):
        k = int(rng.integers(2, 4))
        w = (rng.random((k, k)) < 0.5) * rng.uniform(0.2, 2.0, size=(k, k))
        if w.any():
            cases.append((w, pattern_state(w)))
    assert len(cases) >= 57
    for w, state in cases:
        verdict = decide_equivalence(state, rng=np.random.default_rng(0))
        scalable = oracles.has_total_support(w)
        assert (verdict.outcome == OUTCOME_EQUIVALENT) == scalable


def test_decide_is_deterministic_for_a_fixed_seed():
    """Two runs with the same seed produce bitwise-identical witness numbers."""
    a = decide_equivalence(neq2_state(), rng=np.random.default_rng(42))
    b = decide_equivalence(neq2_state(), rng=np.random.default_rng(42))
    assert a.witness.min_f == b.witness.min_f
    assert a.witness.gram_min_eig == b.witness.gram_min_eig


@pytest.mark.parametrize("k, s", [(6, 2), (8, 4)])
def test_quadratic_model_matches_the_pairwise_reference_loop(k, s):
    """Gram matrix and linear term equal the n^2 loop over basis pairs."""
    T1, s1 = normalized_t1(k, s, np.random.default_rng(8 + k))
    model = adjoint_block_quadratic(T1, s1)
    linear, gram = oracles.quadratic_model_loop(list(T1.kraus), s1)
    scale = max(1.0, np.abs(gram).max())
    assert np.abs(model.linear - linear).max() < 1e-9 * scale
    assert np.abs(model.gram - gram).max() < 1e-9 * scale


def test_decide_factors_the_state_once(monkeypatch):
    """One decision runs one eigendecomposition of the k^2 x k^2 state.

    Its PSD check, the range the anchor is sampled from, the anchor's range
    check and the Kraus operators all read that ``eigh``; the anchored map is
    the Kraus stack times ``P^t``, so no filtered state is built and factored.
    The only other k^2 x k^2 factorization is the PPT check of the partial
    transpose.  (Corner representations are real, so they are not counted.)
    """
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "eig", "eigvals", "qr"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            if np.iscomplexobj(a) and np.shape(a) == (16, 16):
                calls.append((_name, np.array(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(9)
    for st in (hidden_blocky(4, [2, 2], rng), hidden_upper_triangular(4, rng)):
        calls.clear()
        decide_equivalence(st)
        assert [name for name, _ in calls] == ["eigh", "eigvalsh"]
        assert np.array_equal(calls[0][1], st.rho)
        assert np.abs(calls[1][1] - partial_transpose(st)).max() == 0.0


def test_decide_does_not_reject_a_valid_ill_filtered_state():
    """Two-block states under local filters of condition number 1e6 are valid
    PPT inputs.  Rebuilding the anchored state ``(P (x) Id) rho (P (x) Id)*``
    made them fail its Hermiticity check ("state matrix is not Hermitian");
    anchoring the Kraus operators builds no state.  The decision may still
    break down numerically here, but it neither rejects the input nor answers
    wrongly."""
    rejections = ("not Hermitian", "positive semidefinite", "not PPT")
    for seed in range(3):
        rng = np.random.default_rng(1000 + seed)
        st = ill_filtered(blocky_state(6, [3, 3], rng), 1e6, rng)
        try:
            verdict = decide_equivalence(st)
        except (RuntimeError, ValueError) as exc:
            assert not any(text in str(exc) for text in rejections), str(exc)
        else:
            assert verdict.outcome != OUTCOME_NOT_EQUIVALENT


def test_gap_cut_keeps_the_corner_search_on_invariant_corners():
    """Seed 256 of the scrambled upper-triangular k=12 draws.

    A Perron vector of the search has singular values .54, .34, .12, 6e-9,
    8e-10, 5e-10, ...: its ``rank_rel`` rank is 5, and the image cut there is
    not invariant under the map ("corner is not invariant under the map").
    The widest gap lies after the third value, and the cut there leads to the
    verdict the construction implies.
    """
    st = hidden_upper_triangular(12, np.random.default_rng(256))
    verdict = decide_equivalence(st)
    assert verdict.outcome == OUTCOME_NOT_EQUIVALENT
    assert verdict.witness.stage == STAGE_F_MIN_POSITIVE


def test_gap_cut_on_a_nearly_invariant_corner_gives_no_verdict():
    """Seed 475 of the scrambled upper-triangular k=12 draws.

    The first Perron vector has singular values (relative) 1, ..., 4e-4,
    4e-7, 5e-8, 5e-9, 7e-10, 1e-14.  Cut at its widest gap (rank 7) the
    corner's invariance defect is 2e-7 of the map's norm, inside
    ``corner_rep``'s 1e-6 guard; the ``rank_rel`` cut (rank 10) fails that
    guard.  Neither corner is invariant to the precision the quadratic
    model needs, and its cross-check is what stops a verdict.  Certified
    verdicts (ROADMAP item 1) should turn the raise into ``inconclusive``;
    a wrong verdict fails here either way.
    """
    st = hidden_upper_triangular(12, np.random.default_rng(475))
    try:
        verdict = decide_equivalence(st)
    except RuntimeError as exc:
        assert str(exc).startswith("quadratic model cross-check failed"), str(exc)
    else:
        assert verdict.outcome in (OUTCOME_NOT_EQUIVALENT, OUTCOME_INCONCLUSIVE)
        if verdict.outcome == OUTCOME_NOT_EQUIVALENT:
            assert verdict.witness.stage == STAGE_F_MIN_POSITIVE


# ``_corner_perron``'s PSD check still fails on some ill-conditioned draws
PSD_PERRON_ERRORS = (
    "no PSD Perron eigenvector in the top eigenspace",
    "compressed adjoint has no PSD eigenvector at the spectral radius",
)


def test_upper_triangular_k12_sweep(record_property):
    """40 scrambled upper-triangular k=12 draws, seeds 0-39.

    Every draw has no total support, so the answer must be not equivalent
    with a positive minimum.  A wrong or missing verdict fails, and so does
    any raise except the PSD-Perron breakdowns above, whose count is
    reported.
    """
    breakdowns = []
    for seed in range(40):
        st = hidden_upper_triangular(12, np.random.default_rng(seed))
        try:
            verdict = decide_equivalence(st)
        except RuntimeError as exc:
            assert str(exc) in PSD_PERRON_ERRORS, f"seed {seed}: {exc}"
            breakdowns.append(seed)
            continue
        assert verdict.outcome == OUTCOME_NOT_EQUIVALENT, f"seed {seed}"
        assert verdict.witness.stage == STAGE_F_MIN_POSITIVE, f"seed {seed}"
    record_property("psd_perron_breakdowns", len(breakdowns))
    print(f"PSD-Perron breakdowns: {len(breakdowns)} of 40 (seeds {breakdowns})")
