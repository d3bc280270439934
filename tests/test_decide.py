"""Decision pipeline: anchoring, corner search, quadratic solver, main loop."""

import dataclasses
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

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
    NotPositiveError,
    anchor_transform,
    apply,
    apply_filter,
    corner_rep,
    decide_equivalence,
    diagonal_state,
    embed_rectangular,
    filter_normal_form,
    find_full_rank_vector,
    find_irreducible_corner,
    is_irreducible,
    is_ppt,
    maximally_entangled,
    partial_transpose,
    solve_adjoint_block,
    state_to_map,
    states,
    transform,
    verdict_to_dict,
)
from filternorm import decide as decide_module
from filternorm import maps as maps_module
from filternorm.decide import (
    _coords_to_block,
    _verify_paired_block,
    adjoint_block_quadratic,
    alignment_transform,
    normalize_corner,
)
from filternorm.linalg import (
    DEFAULT_TOL,
    identity_projection,
    image_basis,
    kernel_basis,
    projection_from_matrix,
    projector_onto,
    psd_check,
    rank_eps,
    same_subspace,
)
from filternorm.maps import _arnoldi, _boundary_rank_drop, _corner_perron, _krylov_perron
from filternorm.stateio import dump_json
from helpers import (
    blocky_state,
    cli_env,
    hidden_blocky,
    hidden_upper_triangular,
    ill_filtered,
    neq2_state,
    pattern_state,
    pattern_weights,
    random_invertible,
    random_ppt_2x2,
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
    b = lead.basis
    Q, T1, s1 = normalize_corner(T, lead, lam, b @ delta @ b.conj().T)
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
    is the state's map with the stack ``K -> K P^t``, bit for bit the
    one-operator-at-a-time products, and no congruence.  Its images match the
    per-operator loop to 1e-13 relative, which a congruence ``P^t`` on the
    stack's superoperator misses by orders of magnitude on these draws
    (``cond P`` 5e7 to 4e8)."""
    for seed in range(1000, 1010):
        rng = np.random.default_rng(seed)
        st = ill_filtered(separable_full_rank(4, rng), 1e6, rng)
        P, T = anchor_transform(st, find_full_rank_vector(st))
        want = np.stack([K @ P.T for K in state_to_map(st).kraus])
        assert np.array_equal(T.kraus, want), seed
        assert T.left is None and T.right is None and not T.dual, seed
        X = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        images = sum(K @ X @ K.conj().T for K in oracles.kraus_operators(T))
        assert np.abs(apply(T, X) - images).max() <= 1e-13 * np.abs(images).max(), seed


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
    T = CpMap(src_dim=2, dst_dim=2, kraus=np.eye(2)[None])
    V, lam, _ = find_irreducible_corner(T, identity_projection(2))
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
    assert abs(_corner_perron(T, identity_projection(2), DEFAULT_TOL)[0] - lam) < 1e-12
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
    the normalized map, for its postcondition).  A whole space with k^2
    above the Arnoldi budget (k = 10, a mixture of eight unitaries, whose
    second eigenvalue sits well inside the disc) is certified by matvecs and
    costs neither."""
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
    for k, nops in ((2, 3), (4, 3), (6, 3), (10, 8)):
        T = unitary_mixture(k, nops, rng)
        corners.clear()
        svds.clear()
        V, lam, delta = find_irreducible_corner(T, identity_projection(k))
        dense = int(k * k <= 64)
        assert V.rank == k
        assert [(M is T, P.rank) for M, P in corners] == [(True, k)] * dense
        assert svds.count((k * k, k * k)) == dense
        solve_adjoint_block(T, V, lam, delta)
        assert not any(M is T for M, _ in corners[1:])
    _, T = anchor_transform(neq2_state(), U2)
    V, lam, delta = find_irreducible_corner(T, identity_projection(2))
    corners.clear()
    assert solve_adjoint_block(T, V, lam, delta).W is None
    assert not any(M is T for M, _ in corners)


def test_arnoldi_search_finds_the_corners_of_the_dense_search(monkeypatch):
    """The search with its Arnoldi path returns a corner of the same rank and
    root (to 1e-8) as the dense-only search of ``oracles.dense_corner_search``
    on periodic maps, a degenerate root (two equal blocks), the defective
    ``kron(J, J)`` and ``kron(I2, triu(ones(3)))`` diagonal states, ten
    scrambled upper-triangular k=12 draws and irreducible inputs: unitary
    mixtures, ``separable_full_rank(12)`` and embedded 3x4 and 4x5 patterns.
    The periodic maps fall through to the dense analysis; at least ten
    corners, some of them below the whole space, are cut by Arnoldi.  No
    whole space of the first group is certified irreducible, and the
    separable and embedded ones are (a unitary mixture's simplicity test
    may run out of budget on its clustered spectrum and fall through)."""
    cuts, certified = [], []

    def counted(T, V, tol, _search=_krylov_perron):
        found = _search(T, V, tol)
        cuts.append(found is not None and rank_eps(found[1]) < V.rank)
        certified.append(found is not None and found[2] is not None)
        return found

    monkeypatch.setattr("filternorm.maps._krylov_perron", counted)
    rng = np.random.default_rng(12)
    eye = np.eye(6, dtype=complex)
    cycle = [w * np.outer(eye[(i + 1) % 4], eye[i])
             for i, w in enumerate(rng.uniform(0.5, 2.0, 4))]
    tail = [np.zeros((6, 6), dtype=complex) for _ in range(2)]
    for K in tail:
        K[4:, 4:] = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    maps = [CpMap(src_dim=4, dst_dim=4, kraus=[K[:4, :4] for K in cycle]),
            CpMap(src_dim=6, dst_dim=6, kraus=cycle + tail)]
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    states = [repeated_block_state(2, 3, rng), diagonal_state(np.kron(J, J)),
              diagonal_state(np.kron(np.eye(2), np.triu(np.ones((3, 3)))))]
    states += [hidden_upper_triangular(12, np.random.default_rng(seed)) for seed in range(10)]
    maps += [anchor_transform(st, find_full_rank_vector(st))[1] for st in states]
    mixtures = [unitary_mixture(k, 3, rng) for k in (9, 10, 12)]
    patterns = [apply_filter(pattern_state(rng.uniform(0.2, 2.0, size=(k, m))),
                             random_invertible(k, rng), random_invertible(m, rng))
                for k, m in ((3, 4), (4, 5))]
    certifiable = [anchor_transform(st, find_full_rank_vector(st))[1] for st in
                   [separable_full_rank(12, rng)] + [embed_rectangular(p) for p in patterns]]
    for T in maps + mixtures + certifiable:
        whole = identity_projection(T.src_dim)
        certified.clear()
        V, lam, _ = find_irreducible_corner(T, whole)
        V0, lam0, _ = oracles.dense_corner_search(T, whole, DEFAULT_TOL)
        assert V.rank == V0.rank
        assert abs(lam - lam0) <= 1e-8 * max(1.0, lam0)
        if T not in mixtures:
            assert certified[:1] == [T in certifiable]
    assert sum(cuts) >= 10


def test_degenerate_roots_on_large_corners_are_never_certified(monkeypatch):
    """Corners above the Arnoldi budget whose root is not simple reach the
    simplicity test with definite Perron vectors on both sides and fail it
    (its Arnoldi run ends without a Ritz value it accepts):
    the periodic shift ``X -> U X U*`` by the cyclic permutation (s = 9, 10),
    whose root 1 has multiplicity s, and repeated-block maps (3 x 3, 2 x 5
    and 3 x 4 copies).  The search falls through to the dense analysis and
    returns the oracle's corner and root.  The rank-one Kraus shift
    ``E_ii -> E_(i+1)(i+1)`` has period s too but a simple root, and the
    shift in ``(X + T(X))/(1 + lam)`` moves its other peripheral values
    inside the disc, so it is certified irreducible."""
    runs = []

    def counted(op, start, accept, _run=_arnoldi):
        found = _run(op, start, accept)
        runs.append(found is not None)
        return found

    monkeypatch.setattr("filternorm.maps._arnoldi", counted)
    rng = np.random.default_rng(9)
    degenerate, simple = [], []
    for s in (9, 10):
        eye = np.eye(s, dtype=complex)
        degenerate.append(CpMap(src_dim=s, dst_dim=s, kraus=[np.roll(eye, 1, axis=0)]))
        simple.append(CpMap(src_dim=s, dst_dim=s,
                            kraus=[np.outer(eye[(i + 1) % s], eye[i]) for i in range(s)]))
    for copies, d in ((3, 3), (2, 5), (3, 4)):
        st = repeated_block_state(copies, d, rng)
        degenerate.append(anchor_transform(st, find_full_rank_vector(st))[1])
    for T in degenerate + simple:
        whole = identity_projection(T.src_dim)
        runs.clear()
        V, lam, _ = find_irreducible_corner(T, whole)
        V0, lam0, _ = oracles.dense_corner_search(T, whole, DEFAULT_TOL)
        # the Perron vectors of the map and of its adjoint, then the simplicity test
        assert runs[:3] == [True, True, T in simple]
        assert V.rank == V0.rank
        assert (V.rank == T.src_dim) == (T in simple)
        assert abs(lam - lam0) <= 1e-8 * max(1.0, lam0)
        assert is_irreducible(T, whole) == (T in simple)


def test_the_corner_alone_picks_the_perron_path(monkeypatch):
    """One rule, in ``maps._perron_data``, picks Arnoldi or the dense
    analysis by the corner's rank.  A corner with ``s^2`` above the 64-step
    budget gets the Arnoldi certificate even when it was just cut to a
    Perron vector's support: the whole space of a 12 x 12 map with an
    invariant leading 10 x 10 block is cut to that block and certified, with
    no ``eigvals`` or SVD of its 100 x 100 representation, and the oracle's
    corner and root.  Corners of rank 2-3, and ``is_irreducible`` on ranks
    4-8, run no Arnoldi at all."""
    maps = [CpMap(src_dim=12, dst_dim=12,
                  kraus=upper_triangular_map_kraus(12, 10, np.random.default_rng(seed)))
            for seed in range(4)]
    want = [oracles.dense_corner_search(T, identity_projection(12), DEFAULT_TOL)
            for T in maps]
    large, runs = [], []
    for name in ("eigvals", "svd"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            if np.shape(a) == (100, 100):
                large.append(_name)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    for T, (V0, lam0, _) in zip(maps, want):
        V, lam, _ = find_irreducible_corner(T, identity_projection(12))
        assert V.rank == 10 and same_subspace(V, V0)
        assert abs(lam - lam0) <= 1e-8 * max(1.0, lam0)
    assert large == []

    def counted_arnoldi(op, start, accept, _run=_arnoldi):
        runs.append(start.size)
        return _run(op, start, accept)

    monkeypatch.setattr("filternorm.maps._arnoldi", counted_arnoldi)
    rng = np.random.default_rng(6)
    small = [unitary_mixture(k, 3, rng) for k in (2, 3)]
    small.append(CpMap(src_dim=3, dst_dim=3, kraus=upper_triangular_map_kraus(3, 2, rng)))
    for T in small:
        V, _, _ = find_irreducible_corner(T, identity_projection(T.src_dim))
        assert is_irreducible(T, V)
    for k in range(4, 9):
        assert is_irreducible(unitary_mixture(k, 3, rng), identity_projection(k))
        T = CpMap(src_dim=12, dst_dim=12, kraus=upper_triangular_map_kraus(12, k, rng))
        assert is_irreducible(T, projector_onto(np.eye(12, dtype=complex)[:, :k]))
    assert runs == []


def test_corner_search_factors_no_matrix_of_the_ambient_space(monkeypatch):
    """On the invariant rank-6 lead corner of a 12 x 12 block upper-triangular
    map, the search works in corner coordinates: it runs no ``svd``, ``eigh``
    or ``eigvalsh`` of a complex 12 x 12 matrix (a lifted Perron vector, a
    lifted kernel or a lifted ``delta``), and it still returns an invariant
    irreducible corner inside the lead one, with ``delta`` supported there."""
    calls = []
    for name in ("svd", "eigh", "eigvalsh"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            if np.shape(a) == (12, 12) and np.iscomplexobj(a):
                calls.append(_name)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    T = CpMap(src_dim=12, dst_dim=12,
              kraus=upper_triangular_map_kraus(12, 6, np.random.default_rng(16)))
    lead = projector_onto(np.eye(12, dtype=complex)[:, :6])
    V, lam, delta = find_irreducible_corner(T, lead)
    assert calls == []
    assert 0 < V.rank <= 6 and lam > 0
    assert np.abs(lead.matrix @ V.matrix - V.matrix).max() < 1e-10
    assert np.abs(V.matrix @ delta @ V.matrix - delta).max() < 1e-10
    monkeypatch.undo()
    assert oracles.leaves_invariant(T.kraus, V.basis)
    assert is_irreducible(T, V)


def test_corner_search_does_not_depend_on_the_basis_of_the_corner():
    """The whole space given by a random unitary basis instead of the identity:
    its Perron data are in that basis's coordinates, so the search returns
    the same corner, root and ``delta`` as from the identity basis."""
    rng = np.random.default_rng(4)
    U = random_unitary(8, rng)
    T = CpMap(src_dim=8, dst_dim=8, kraus=[U @ K @ U.conj().T for K in
                                           upper_triangular_map_kraus(8, 5, rng)])
    V0, lam0, delta0 = find_irreducible_corner(T, identity_projection(8))
    rotated = projector_onto(random_unitary(8, rng))
    V1, lam1, delta1 = find_irreducible_corner(T, rotated)
    assert V0.rank < 8 and same_subspace(V0, V1)
    assert abs(lam0 - lam1) <= 1e-12 * lam0
    assert np.abs(delta0 - delta1).max() <= 1e-12


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
            b = V.basis
            B = b @ _boundary_rank_drop(space, gamma, DEFAULT_TOL) @ b.conj().T
            assert psd_check(B)
            assert np.linalg.norm(apply(T, B) - lam * B) <= 1e-10 * np.linalg.norm(B)
            assert 0 < rank_eps(B) < V.rank
            assert oracles.leaves_invariant(T.kraus, projection_from_matrix(B).basis)


def test_find_irreducible_corner_output_contract():
    """Returned corners are invariant, irreducible, and nested in the input."""
    rng = np.random.default_rng(1)
    for k, dims in [(3, [1, 2]), (4, [2, 2])]:
        st = blocky_state(k, dims, rng)
        v = np.eye(k, dtype=complex).reshape(k * k)
        _, T = anchor_transform(st, v)
        V, lam, _ = find_irreducible_corner(T, identity_projection(k))
        assert V.rank <= k
        assert oracles.leaves_invariant(oracles.kraus_operators(T), V.basis)
        assert is_irreducible(T, V)
        assert lam > 0


def test_decisions_do_not_depend_on_the_scale_of_the_state():
    """``c rho`` has the map ``c T``, so it gets the verdict of ``rho``: the
    same outcome, witness stage and block ranks, every root times ``c`` and
    the same ``min_f`` (the quadratic model is built on the ``1/lam``-scaled
    map), each to 1e-10 relative, for c from 1e-15 to 1e12.  An absolute
    floor on a root once made the search raise "the map vanishes on a
    candidate corner" from c = 1e-10 (1e-9 for the hidden blocks) down."""
    states = [diagonal_state(np.eye(2)), diagonal_state([[1.0, 1.0], [0.0, 1.0]]),
              hidden_blocky(6, [3, 2, 1], np.random.default_rng(5)),
              hidden_blocky(8, [4, 4], np.random.default_rng(5)),
              hidden_upper_triangular(6, np.random.default_rng(3))]
    for st in states:
        want = decide_equivalence(st)
        for c in (1e-15, 1e-12, 1e-10, 1e-9, 1e6, 1e12):
            got = decide_equivalence(BipartiteState(k=st.k, m=st.m, rho=c * st.rho))
            assert got.outcome == want.outcome, c
            assert [V.rank for V, _ in got.blocks] == [V.rank for V, _ in want.blocks]
            for (_, lam), (_, lam0) in zip(got.blocks, want.blocks):
                assert abs(lam / c - lam0) <= 1e-10 * lam0, c
            if want.witness is not None:
                assert got.witness.stage == want.witness.stage
                min_f, min_f0 = got.witness.min_f, want.witness.min_f
                assert abs(min_f - min_f0) <= 1e-10 * abs(min_f0), c
    assert {decide_equivalence(st).outcome for st in states} == {
        OUTCOME_EQUIVALENT, OUTCOME_NOT_EQUIVALENT}


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
        assert oracles.leaves_invariant(oracles.kraus_operators(T1), lead.basis)
        v1 = np.zeros((k, k), dtype=complex)
        v1[:s, :s] = np.eye(s)
        from filternorm import adjoint

        fixed = v1 @ apply(adjoint(T1), v1) @ v1
        assert np.abs(fixed - v1).max() < 1e-8
        lam, _, gamma, _ = _corner_perron(T1, lead, DEFAULT_TOL)
        assert abs(lam - 1.0) < 1e-8 and gamma is not None


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
    Q, T1, s = normalize_corner(T, V, lam, V.basis @ delta @ V.basis.conj().T)
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
        kraus = oracles.kraus_operators(T1)
        for _ in range(10):
            x = rng.standard_normal(model.n)
            X = _coords_to_block(x, k - s1, s1)
            got = model.evaluate(x)
            assert abs(got - oracles.objective_f_expanded(kraus, s1, X)) < 1e-8
            assert abs(got - oracles.objective_f_single_trace(kraus, s1, X)) < 1e-8


@pytest.mark.parametrize("k, s", [(3, 1), (4, 2)])
def test_quadratic_model_cross_check_catches_a_leaking_corner(k, s):
    """The runtime cross-check accepts a normalized map as it is, and raises
    once one Kraus operator maps the leading corner out of itself by an
    off-corner block ``K[s:, :s]`` of about 1e-3 of the stack's size."""
    rng = np.random.default_rng(9 + k)
    T1, s1 = normalized_t1(k, s, rng)
    adjoint_block_quadratic(T1, s1)
    kraus = oracles.kraus_operators(T1)
    leak = rng.standard_normal((k - s1, s1)) + 1j * rng.standard_normal((k - s1, s1))
    kraus[0, s1:, :s1] = 1e-3 * np.abs(kraus).max() * leak / np.abs(leak).max()
    with pytest.raises(RuntimeError, match="quadratic model cross-check failed"):
        adjoint_block_quadratic(CpMap(src_dim=k, dst_dim=k, kraus=kraus), s1)


def test_quadratic_objective_is_nonnegative():
    """The single-trace form makes f >= 0 wherever the model is evaluated."""
    rng = np.random.default_rng(6)
    T1, s1 = normalized_t1(3, 1, rng)
    model = adjoint_block_quadratic(T1, s1)
    for _ in range(50):
        x = rng.standard_normal(model.n) * 3.0
        assert model.evaluate(x) > -1e-10


def test_solve_adjoint_block_pairs_each_certified_block_with_itself():
    """On the certified block-diagonal map each corner is its own unique
    partner, the whole space of a one-block verdict included."""
    rng = np.random.default_rng(7)
    for st in [diagonal_state(np.diag([0.5, 0.5])), blocky_state(3, [1, 2], rng),
               hidden_blocky(3, [2, 1], rng), separable_full_rank(3, rng)]:
        verdict = decide_equivalence(st)
        assert verdict.outcome == OUTCOME_EQUIVALENT
        cert = verdict.certificate
        for V, _ in verdict.blocks:
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


def test_paired_block_guard_is_relative_to_the_map():
    """A block the adjoint does not leave invariant fails the paired-block
    guard at every scale of the map, down to ``1e-12``: the guard is a share
    of the map's Kraus norm with no absolute floor."""
    kraus = np.random.default_rng(0).standard_normal((2, 4, 4))
    lead = projector_onto(np.eye(4, dtype=complex)[:, :2])
    for c in (1.0, 1e-3, 1e-6, 1e-8, 1e-10, 1e-12):
        T = CpMap(src_dim=4, dst_dim=4, kraus=np.sqrt(c) * kraus)
        with pytest.raises(RuntimeError, match="not invariant under the adjoint"):
            _verify_paired_block(T, lead, lead, DEFAULT_TOL)


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


def test_the_zero_state_is_inconclusive_and_refuses_every_anchor():
    """The zero state, plain or embedded, is PPT with an empty range: the
    decision finds no full-tensor-rank vector, and a supplied anchor is
    refused as outside the range, or as of low tensor rank when it is zero."""
    u = np.eye(2, dtype=complex).reshape(4) / np.sqrt(2.0)
    for st in (BipartiteState(k=2, m=2, rho=np.zeros((4, 4))),
               embed_rectangular(BipartiteState(k=1, m=2, rho=np.zeros((2, 2))))):
        verdict = decide_equivalence(st)
        assert verdict.outcome == OUTCOME_INCONCLUSIVE
        assert verdict.witness.stage == STAGE_NO_FULL_RANK_VECTOR
        assert verdict.iterations == 0
        for call in (decide_equivalence, anchor_transform):
            with pytest.raises(ValueError, match="not in the range of the state"):
                call(st, u)
            with pytest.raises(ValueError, match="does not have full tensor rank"):
                call(st, np.zeros(4))


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
        for i, (V, lam) in enumerate(verdict.blocks):
            assert lam > 0
            ops = oracles.kraus_operators(cert.final_map)
            assert oracles.leaves_invariant(ops, V.basis)
            assert is_irreducible(cert.final_map, V)
            total += V.matrix
            for j, (W, _) in enumerate(verdict.blocks):
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
        for V, _ in verdict.blocks:
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
    linear, gram = oracles.quadratic_model_loop(oracles.kraus_operators(T1), s1)
    scale = max(1.0, np.abs(gram).max())
    assert np.abs(model.linear - linear).max() < 1e-9 * scale
    assert np.abs(model.gram - gram).max() < 1e-9 * scale


def test_decide_factors_the_state_once(monkeypatch):
    """One decision factors the k^2 x k^2 state once, by a pivoted Cholesky,
    and runs no ``eigh`` or ``eigvalsh`` of a k^2 x k^2 matrix.

    Its range, the anchor's range check and the Kraus operators all read that
    factor; the anchored map is the Kraus stack times ``P^t``, so no filtered
    state is built and factored.  The PPT gate proves the partial transpose
    PSD by one shifted Cholesky, which comes first, and the state keeps that
    proof: after ``is_ppt`` the decision runs no ``numpy.linalg``
    factorization of a k^2 x k^2 matrix at all, and a state that is not PPT
    is rejected after one ``eigvalsh`` of its partial transpose, before
    ``rho`` is factored.  The constructor's PSD gate is a Cholesky, so
    ``rho`` gets no ``eigvalsh``.  The corner search cuts the whole space by
    its Arnoldi search, so a two-block decision factors no real k^2 x k^2
    corner representation either (no ``eigvals``, no SVD), and it certifies
    an irreducible whole space by matvecs: ``separable_full_rank(12)`` and an
    embedded 4 x 5 pattern factor no 144 x 144 or 400 x 400 one.
    """
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "eig", "eigvals", "qr", "cholesky"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            if np.shape(a) in ((16, 16), (64, 64), (144, 144), (400, 400)):
                calls.append((_name, np.iscomplexobj(a), np.array(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    factored = []

    def pivoted_cholesky(rho, *args, _fn=states._pivoted_cholesky):
        factored.append(np.array(rho))
        return _fn(rho, *args)
    monkeypatch.setattr(states, "_pivoted_cholesky", pivoted_cholesky)

    def state_calls():
        return [(name, a) for name, cplx, a in calls if cplx and a.shape == (16, 16)]

    def eigendecompositions(n):
        return [name for name, cplx, a in calls
                if a.shape == (n, n) and name in ("eigh", "eigvalsh")]

    rng = np.random.default_rng(9)
    for st in (hidden_blocky(4, [2, 2], rng), hidden_upper_triangular(4, rng)):
        calls.clear()
        factored.clear()
        decide_equivalence(st)
        assert [name for name, _ in state_calls()] == ["cholesky"]
        assert np.abs(state_calls()[0][1] - partial_transpose(st)).max() <= 1e-8
        assert len(factored) == 1 and np.array_equal(factored[0], st.rho)
        calls.clear()
        fresh = BipartiteState(k=st.k, m=st.m, rho=st.rho)
        assert is_ppt(fresh)
        assert [name for name, _ in state_calls()] == ["cholesky", "cholesky"]
        calls.clear()
        factored.clear()
        decide_equivalence(fresh)
        assert state_calls() == [] and len(factored) == 1
    npt = maximally_entangled(4)
    calls.clear()
    factored.clear()
    with pytest.raises(NotPositiveError):
        decide_equivalence(npt)
    assert [name for name, _ in state_calls()] == ["cholesky", "eigvalsh"]
    assert factored == []
    st = hidden_blocky(8, [4, 4], rng)
    calls.clear()
    verdict = decide_equivalence(st)
    assert verdict.outcome == OUTCOME_EQUIVALENT
    assert not [name for name, cplx, a in calls
                if not cplx and a.shape == (64, 64) and name in ("eigvals", "svd")]
    assert eigendecompositions(64) == []
    w = rng.uniform(0.2, 2.0, size=(4, 5))
    pattern = apply_filter(pattern_state(w), random_invertible(4, rng), random_invertible(5, rng))
    for st in (separable_full_rank(12, rng), embed_rectangular(pattern)):
        calls.clear()
        verdict = decide_equivalence(st)
        assert [V.rank for V, _ in verdict.blocks] == [st.k]
        assert not [name for name, cplx, a in calls
                    if not cplx and a.shape[0] == st.k ** 2 and name in ("eigvals", "svd")]
        assert eigendecompositions(st.k ** 2) == []


def test_alignment_transform_does_not_depend_on_the_basis_of_w(monkeypatch):
    """``R`` fixes ``Im(Id - V') + Im(V)`` and maps ``Im(V' - W)`` onto
    ``Im(V' - V)``, and it is the same map, to 1e-12, when ``W``'s basis
    is rotated by a random unitary, and when the basis of ``Im(V' - W)``
    is: that image of a degenerate projector gets its basis from rounding,
    and the polar factor that pairs it with ``Im(V' - V)`` undoes any
    rotation of it."""
    rng = np.random.default_rng(32)
    k, rank, s = 7, 5, 2

    def span(rows, cols):
        return image_basis(rng.standard_normal((rows, cols))
                           + 1j * rng.standard_normal((rows, cols)))
    Vprime = projector_onto(span(k, rank))
    V = projector_onto(Vprime.basis @ span(rank, s))
    W = projector_onto(Vprime.basis @ span(rank, s))
    R = alignment_transform(Vprime, V, W)
    fixed = np.eye(k) - Vprime.matrix + V.matrix
    moved = R @ (Vprime.matrix - W.matrix)
    assert np.abs(R @ fixed - fixed).max() < 1e-12
    assert np.abs(moved - (Vprime.matrix - V.matrix) @ moved).max() < 1e-12
    assert rank_eps(moved) == rank - s
    for _ in range(5):
        rotated = projector_onto(W.basis @ random_unitary(s, rng))
        assert np.abs(alignment_transform(Vprime, V, rotated) - R).max() < 1e-12

    def rotated_image(mat, tol=None, _fn=image_basis):
        basis = _fn(mat, tol)
        return basis @ random_unitary(basis.shape[1], rng)
    monkeypatch.setattr(decide_module, "image_basis", rotated_image)
    assert np.abs(alignment_transform(Vprime, V, W) - R).max() < 1e-12


def test_square_decision_builds_one_superoperator(monkeypatch):
    """A square decision builds one superoperator, of its anchored
    ``(r, k, k)`` Kraus stack: the normalized and aligned maps, their
    adjoints and their corners keep that stack and read their own
    superoperators off that one through their congruences."""
    built = []

    def stack_superop(kraus, _fn=maps_module._superop):
        built.append(kraus.shape)
        return _fn(kraus)
    monkeypatch.setattr(maps_module, "_superop", stack_superop)
    st = hidden_blocky(8, [4, 4], np.random.default_rng(5))
    verdict = decide_equivalence(st)
    assert verdict.outcome == OUTCOME_EQUIVALENT
    assert sorted(V.rank for V, _ in verdict.blocks) == [4, 4]
    assert built == [(len(state_to_map(st).kraus), 8, 8)]


def test_embedded_decision_factors_only_the_factor(monkeypatch):
    """An embedded 4 x 5 state is decided from its 20 x 20 factor.

    Embedding it, its PPT test and its decision factor neither the 400 x 400
    embedded matrix nor its partial transpose: the PPT proofs and the
    pivoted Cholesky factor are the factor's, and no ``eigh`` or
    ``eigvalsh`` runs on the factor, its partial transpose or a 400 x 400
    matrix (the 20 x 20 ones left are the corner's Perron data).  The same
    matrix as a plain state, which carries no factor, does factor it.  It
    runs no ``eigh``; its entries reach 11, too large for the shifted
    Cholesky's rounding bound at n = 400, so its PSD and PPT gates fall back
    to ``eigvalsh``.

    Its map stays in the structured form: the decision and the normal form
    build the superoperator of the factor's 20 Kraus operators and no
    ``maps._superop`` of a 400-operator stack, and they assemble no
    400 x 400 superoperator; the one superoperator read, the normal form's
    25 x 16 of the factor map, is that stack's own.  The plain copy's
    decision builds both.
    """
    built = []  # the shapes of Kraus stacks given to _superop, and of superoperators read

    def stack_superop(kraus, _fn=maps_module._superop):
        built.append(("_superop", kraus.shape))
        return _fn(kraus)
    monkeypatch.setattr(maps_module, "_superop", stack_superop)

    def superop(T, _fn=vars(CpMap)["superop"].func):
        S = _fn(T)
        built.append(("superop", S.shape))
        return S
    watched = cached_property(superop)
    watched.__set_name__(CpMap, "superop")
    monkeypatch.setattr(CpMap, "superop", watched)
    rng = np.random.default_rng(45)
    w = rng.uniform(0.2, 2.0, size=(4, 5))
    st = apply_filter(pattern_state(w), random_invertible(4, rng), random_invertible(5, rng))
    calls = []
    for name in ("eigh", "eigvalsh", "cholesky"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            if _name == "cholesky" or np.shape(a) == (400, 400) or any(
                    np.array_equal(a, b) for b in (st.rho, partial_transpose(st))):
                calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def pivoted_cholesky(rho, *args, _fn=states._pivoted_cholesky):
        calls.append(("pivoted_cholesky", np.shape(rho)))
        return _fn(rho, *args)
    monkeypatch.setattr(states, "_pivoted_cholesky", pivoted_cholesky)

    calls.clear()
    emb = embed_rectangular(st)
    assert is_ppt(emb)
    verdict = decide_equivalence(emb)
    assert verdict.outcome == OUTCOME_EQUIVALENT
    assert [V.rank for V, _ in verdict.blocks] == [20]
    assert calls == [("cholesky", (20, 20)), ("pivoted_cholesky", (20, 20))]
    filter_normal_form(emb, verdict)
    assert built == [("_superop", (20, 5, 4)), ("superop", (25, 16))]
    calls.clear()
    built.clear()
    decide_equivalence(BipartiteState(k=emb.k, m=emb.m, rho=emb.rho))
    assert calls == [("eigvalsh", (400, 400)), ("eigvalsh", (400, 400)),
                     ("pivoted_cholesky", (400, 400))]
    assert ("_superop", (400, 20, 20)) in built and ("superop", (400, 400)) in built


def test_the_range_cut_keeps_the_boundary_states_outcomes():
    """``diag([[1, 1], [eps, 1]]) / (3 + eps)`` on either side of the cut.

    At eps = 2e-9 the factor keeps the eps entry (a pivot above ``rank_rel``
    times the largest diagonal entry), so the map has four Kraus operators
    and is equivalent.  At eps = 1e-9 the entry is not above the cut, as its
    eigenvalue was not above ``rank_rel * lambda_max``: the map is
    ``neq2``'s, with three operators, and is not equivalent at a positive
    minimum.
    """
    for eps, rank, outcome in [(2e-9, 4, OUTCOME_EQUIVALENT), (1e-9, 3, OUTCOME_NOT_EQUIVALENT)]:
        st = diagonal_state(np.array([[1.0, 1.0], [eps, 1.0]]) / (3.0 + eps))
        assert len(state_to_map(st).kraus) == rank, eps
        verdict = decide_equivalence(st)
        assert verdict.outcome == outcome, eps
        if outcome == OUTCOME_NOT_EQUIVALENT:
            assert verdict.witness.stage == STAGE_F_MIN_POSITIVE
            want = decide_equivalence(neq2_state()).witness.min_f
            assert abs(verdict.witness.min_f - want) <= 1e-9 * abs(want)


def _separable_mixture(k, m, count, rng):
    """Sum of ``count`` random product projectors: PPT, of rank ``count`` if below ``km``."""
    rho = np.zeros((k * m, k * m), dtype=complex)
    for _ in range(count):
        v = np.kron(rng.standard_normal(k) + 1j * rng.standard_normal(k),
                    rng.standard_normal(m) + 1j * rng.standard_normal(m))
        rho += np.outer(v, v.conj())
    return BipartiteState(k=k, m=m, rho=rho / np.trace(rho).real)


def test_embedded_decisions_match_the_dense_path():
    """Deciding an embedded state from its factor gives the dense verdict.

    The dense reference is the same matrix as a plain state, which carries no
    factor.  Each path draws its own anchor from its own range basis (the
    embedded spectrum is degenerate, so the bases differ), and the two agree
    on outcome and block ranks; given one shared anchor they also agree on
    every block's λ.  Patterns, bare or under random local filters, match the
    LP oracle (an unscalable one has no full-rank anchor, so it is
    inconclusive); the product mixtures are rank-deficient.
    """
    rng = np.random.default_rng(150)
    draws = []
    for k, m, patterns, mixtures in [(2, 3, 12, 4), (3, 4, 6, 2), (4, 5, 2, 1)]:
        for i in range(patterns):
            w = pattern_weights(k, m, rng)
            st = pattern_state(w)
            if i % 2:
                st = apply_filter(st, random_invertible(k, rng), random_invertible(m, rng))
            draws.append((st, w))
        draws += [(_separable_mixture(k, m, int(rng.integers(1, k * m)), rng), None)
                  for _ in range(mixtures)]
    outcomes = set()
    for i, (st, w) in enumerate(draws):
        emb = embed_rectangular(st)
        dense = BipartiteState(k=emb.k, m=emb.m, rho=emb.rho)
        got = decide_equivalence(emb, rng=np.random.default_rng(i))
        want = decide_equivalence(dense, rng=np.random.default_rng(i))
        assert got.outcome == want.outcome, (st.k, st.m, i)
        assert [V.rank for V, _ in got.blocks] == [V.rank for V, _ in want.blocks]
        if w is not None:
            assert (got.outcome == OUTCOME_EQUIVALENT) == oracles.exact_scalable_lp(w)
        outcomes.add(got.outcome)
        v = find_full_rank_vector(emb, rng=np.random.default_rng(i))
        if v is None:
            continue
        got, want = decide_equivalence(emb, v=v), decide_equivalence(dense, v=v)
        assert got.outcome == want.outcome, (st.k, st.m, i)
        assert [V.rank for V, _ in got.blocks] == [V.rank for V, _ in want.blocks]
        for (_, lam), (_, ref) in zip(got.blocks, want.blocks):
            assert abs(lam - ref) <= 1e-9 * max(1.0, abs(ref)), (st.k, st.m, i)
    assert OUTCOME_EQUIVALENT in outcomes and len(outcomes) > 1


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


def test_gap_cut_decides_under_one_blas_thread():
    """The seed-256 draw above, decided in a child process with one OpenBLAS
    thread, as the benchmark runs.  Its Perron root is nearly defective, so
    its Perron vector is accurate to about 1e-8 and whether one is found PSD
    depends on rounding: there the dense analysis found none with one thread
    ("no PSD Perron eigenvector in the top eigenspace"), the Arnoldi search
    finds one."""
    code = ("import numpy as np\n"
            "from filternorm import decide_equivalence\n"
            "from helpers import hidden_upper_triangular\n"
            "st = hidden_upper_triangular(12, np.random.default_rng(256))\n"
            "verdict = decide_equivalence(st)\n"
            "print(verdict.outcome, verdict.witness.stage)\n")
    env = cli_env()
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
    env["OPENBLAS_NUM_THREADS"] = "1"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=300)
    assert run.stdout.split() == [OUTCOME_NOT_EQUIVALENT, STAGE_F_MIN_POSITIVE], run.stderr


def test_gap_cut_on_a_nearly_invariant_corner_gives_no_verdict():
    """Seed 475 of the scrambled upper-triangular k=12 draws.

    Under the anchor drawn from ``rho``'s eigenvectors, the first Perron
    vector has singular values (relative) 1, ..., 4e-4, 4e-7, 5e-8, 5e-9,
    7e-10, 1e-14.  Cut at its widest gap (rank 7) the corner's invariance
    defect is 2e-7 of the map's norm, inside ``corner_rep``'s 1e-6 guard;
    the ``rank_rel`` cut (rank 10) fails that guard.  Neither corner is
    invariant to the precision the quadratic model needs, and its
    cross-check stopped a verdict there.  The anchor drawn from the pivoted
    Cholesky factor's range decides it, and a breakdown would be retried
    under a fresh anchor.  A wrong verdict fails here either way.
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


_CORNER_SEARCH, _ANCHOR_FILTER = decide_module.find_irreducible_corner, decide_module._anchor_filter


def _break_first_corner_searches(monkeypatch, count):
    """Make the first ``count`` corner searches of a decision raise; returns
    the anchors the decision tried and the breakdowns it met."""
    anchors, breakdowns = [], []

    def corner(T, V, tol):
        if len(breakdowns) < count:
            breakdowns.append(f"breakdown {len(breakdowns) + 1}")
            raise RuntimeError(breakdowns[-1])
        return _CORNER_SEARCH(T, V, tol)

    def anchor(v, *args):
        anchors.append(v)
        return _ANCHOR_FILTER(v, *args)

    monkeypatch.setattr(decide_module, "find_irreducible_corner", corner)
    monkeypatch.setattr(decide_module, "_anchor_filter", anchor)
    return anchors, breakdowns


def test_a_breakdown_under_a_sampled_anchor_is_decided_under_a_fresh_one(monkeypatch):
    """A breakdown says nothing about the state, so the decision runs again
    on a fresh sample from the range: after the maximally entangled vector
    on a full-rank state, after a sample on a rank-deficient one.  A
    supplied anchor is decided once, and its breakdown is raised.  The
    full-rank state lies below the definiteness margin, so it runs the
    corner search."""
    rng = np.random.default_rng(21)
    w = np.ones((3, 3))
    w[2, 2] = 1e-6
    cases = [(hidden_blocky(4, [2, 2], rng), [2, 2]), (diagonal_state(w), [3])]
    for st, ranks in cases:
        anchors, breakdowns = _break_first_corner_searches(monkeypatch, 1)
        verdict = decide_equivalence(st)
        assert verdict.outcome == OUTCOME_EQUIVALENT
        assert sorted(V.rank for V, _ in verdict.blocks) == ranks
        assert len(anchors) == 2 and breakdowns == ["breakdown 1"]
        assert not np.allclose(anchors[0], anchors[1])
    assert np.allclose(anchors[0], np.eye(3).reshape(9) / np.sqrt(3))
    anchors, breakdowns = _break_first_corner_searches(monkeypatch, 1)
    with pytest.raises(RuntimeError, match="^breakdown 1$"):
        decide_equivalence(st, v=np.eye(3, dtype=complex).reshape(9))
    assert len(anchors) == 1


def test_every_anchor_breaking_down_raises_the_first_breakdown(monkeypatch):
    """Three anchors in all; the first breakdown is the one raised."""
    st = hidden_blocky(4, [2, 2], np.random.default_rng(22))
    anchors, breakdowns = _break_first_corner_searches(monkeypatch, 5)
    with pytest.raises(RuntimeError, match="^breakdown 1$"):
        decide_equivalence(st)
    assert len(anchors) == 3 and len(breakdowns) == 3


def test_a_retried_anchor_gives_a_negative_verdict_only_with_a_margin(monkeypatch):
    """A retried anchor's positive minimum must exceed ``sqrt(rank_rel)``
    times the quadratic model's constant; a smaller one, the cancellation
    behind the wrong negatives of ill-filtered states, counts as a breakdown.
    The first anchor's verdict is not held to that margin."""
    st = hidden_upper_triangular(6, np.random.default_rng(23))
    _break_first_corner_searches(monkeypatch, 1)
    verdict = decide_equivalence(st)
    assert verdict.outcome == OUTCOME_NOT_EQUIVALENT
    assert verdict.witness.stage == STAGE_F_MIN_POSITIVE

    real_solve = decide_module.solve_adjoint_block

    def cancelled(*args):
        result = real_solve(*args)
        return dataclasses.replace(result, min_f=1e-6 * result.model.constant)

    monkeypatch.setattr(decide_module, "solve_adjoint_block", cancelled)
    anchors, _ = _break_first_corner_searches(monkeypatch, 1)
    with pytest.raises(RuntimeError, match="^breakdown 1$"):
        decide_equivalence(st)
    assert len(anchors) == 3
    _break_first_corner_searches(monkeypatch, 0)
    assert decide_equivalence(st).outcome == OUTCOME_NOT_EQUIVALENT


# ``_corner_perron``'s PSD check still fails on some ill-conditioned draws
PSD_PERRON_ERRORS = (
    "no PSD Perron eigenvector in the top eigenspace",
    "compressed adjoint has no PSD eigenvector at the spectral radius",
)


def test_an_anchor_outside_the_range_is_rejected_at_any_norm():
    """The anchor's range test is relative to its norm: a full-tensor-rank
    kernel vector of ``rho`` is rejected at norms 1, 1e-9 and 1e-12 (an
    absolute floor once let it through at 1e-9, and the decision answered
    one rank-4 block where the state has two of rank 2).  A range vector at
    norm 1e-12 is accepted and gets the verdict of its unit multiple."""
    st = hidden_blocky(4, [2, 2], np.random.default_rng(3))
    kernel = kernel_basis(st.rho)
    assert kernel.shape[1] == 8
    coeffs = np.random.default_rng(4).standard_normal((2, 8))
    outside = kernel @ (coeffs[0] + 1j * coeffs[1])
    outside /= np.linalg.norm(outside)
    assert rank_eps(outside.reshape(4, 4)) == 4
    for norm in (1.0, 1e-9, 1e-12):
        with pytest.raises(ValueError, match="not in the range"):
            decide_equivalence(st, v=norm * outside)
    inside = find_full_rank_vector(st)
    want = decide_equivalence(st, v=inside)
    got = decide_equivalence(st, v=1e-12 * inside)
    assert want.outcome == got.outcome == OUTCOME_EQUIVALENT
    assert [V.rank for V, _ in got.blocks] == [V.rank for V, _ in want.blocks] == [2, 2]


def _definite_cases():
    """Definite states of the definite step, each with its anchor: 20
    two-qubit PPT draws, ``separable_full_rank(k)`` for k = 2 to 8, embedded
    full-support 1x2, 2x3 and 2x4 patterns under random filters, and one
    supplied anchor."""
    states = [random_ppt_2x2(np.random.default_rng(seed)) for seed in range(20)]
    states += [separable_full_rank(k, np.random.default_rng(k)) for k in range(2, 9)]
    rng = np.random.default_rng(7)
    for k, m in ((1, 2), (2, 3), (2, 4)):
        base = apply_filter(pattern_state(np.ones((k, m))), random_invertible(k, rng),
                            random_invertible(m, rng))
        states.append(embed_rectangular(base))
    draw = rng.standard_normal((2, 9))
    anchor = (draw[0] + 1j * draw[1]) / np.linalg.norm(draw)
    return [(st, None) for st in states] + [(states[21], anchor)]


def _count_search_calls(monkeypatch):
    """Count the corner searches, Perron analyses and corner matrices made."""
    calls = {"find_irreducible_corner": 0, "_krylov_perron": 0, "_corner_perron": 0,
             "corner_rep": 0}
    for module, name in ((decide_module, "find_irreducible_corner"),
                         (maps_module, "_krylov_perron"), (maps_module, "_corner_perron"),
                         (maps_module, "corner_rep"), (decide_module, "corner_rep")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_the_definite_step_gives_the_corner_searchs_verdict_bit_for_bit(monkeypatch):
    """A state proved definite gets the verdict, root, certificate and normal
    form that the corner search gives it, to the bit."""
    cases = _definite_cases()

    def decided():
        out = []
        for st, v in cases:
            verdict = decide_equivalence(st, v=v)
            out.append((verdict, filter_normal_form(st, verdict)))
        return out

    proved = decided()
    monkeypatch.setattr(decide_module, "_cholesky_psd_abs", lambda *args, **kw: None)
    searched = decided()
    for (got, got_nf), (want, want_nf) in zip(proved, searched):
        assert got.outcome == OUTCOME_EQUIVALENT
        assert dump_json(verdict_to_dict(got)) == dump_json(verdict_to_dict(want))
        assert [np.float64(lam).tobytes() for _, lam in got.blocks] == [
            np.float64(lam).tobytes() for _, lam in want.blocks]
        got_cert, want_cert = got.certificate, want.certificate
        for a, b in ((got_cert.prefilter, want_cert.prefilter),
                     (got_cert.accumulated_transform, want_cert.accumulated_transform),
                     (got_cert.final_map.kraus, want_cert.final_map.kraus),
                     (got_nf.left, want_nf.left), (got_nf.right, want_nf.right),
                     (got_nf.state.rho, want_nf.state.rho)):
            assert np.array_equal(a, b)


def test_the_definite_step_runs_no_corner_search(monkeypatch):
    """A state proved definite calls neither the corner search nor a Perron
    analysis, and makes one corner matrix, the whole space's."""
    cases = _definite_cases()
    calls = _count_search_calls(monkeypatch)
    for st, v in cases:
        for name in calls:
            calls[name] = 0
        assert decide_equivalence(st, v=v).outcome == OUTCOME_EQUIVALENT
        assert calls == {"find_irreducible_corner": 0, "_krylov_perron": 0,
                         "_corner_perron": 0, "corner_rep": 1}


def test_states_below_the_definiteness_margin_run_the_corner_search(monkeypatch):
    """Full-rank states whose smallest eigenvalue lies below ``sqrt(rank_rel)``
    times the largest diagonal entry, and a rank-deficient state whose tiny
    shift the factor cuts, run the corner search, with its verdicts."""
    w = np.ones((3, 3))
    w[2, 2] = 1e-6
    base = hidden_blocky(4, [2, 2], np.random.default_rng(3))
    cases = [(diagonal_state([[1.0, 1.0], [eps, 1.0]]), [2]) for eps in (1e-5, 1e-7)]
    cases += [(diagonal_state(w), [3]),
              (BipartiteState(k=4, m=4, rho=base.rho + 1e-12 * np.eye(16)), [2, 2])]
    calls = _count_search_calls(monkeypatch)
    for st, ranks in cases:
        calls["find_irreducible_corner"] = 0
        verdict = decide_equivalence(st)
        assert verdict.outcome == OUTCOME_EQUIVALENT
        assert sorted(V.rank for V, _ in verdict.blocks) == ranks
        assert calls["find_irreducible_corner"] >= 1


def test_the_definite_step_does_not_depend_on_the_scale_of_the_state(monkeypatch):
    """``c rho`` takes ``rho``'s path, the definite step, for c from 1e-15 to
    1e12: the margin is relative to the largest diagonal entry."""
    calls = _count_search_calls(monkeypatch)
    for st in (random_ppt_2x2(np.random.default_rng(0)),
               separable_full_rank(3, np.random.default_rng(3))):
        for c in (1e-15, 1e-12, 1e-9, 1.0, 1e6, 1e12):
            for name in calls:
                calls[name] = 0
            decide_equivalence(BipartiteState(k=st.k, m=st.m, rho=c * st.rho))
            assert calls["find_irreducible_corner"] == 0 and calls["corner_rep"] == 1, c


def test_upper_triangular_k12_sweep(record_testsuite_property):
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
    # record_property is incompatible with the default xunit2 junit family
    record_testsuite_property("psd_perron_breakdowns", len(breakdowns))
    print(f"PSD-Perron breakdowns: {len(breakdowns)} of 40 (seeds {breakdowns})")
