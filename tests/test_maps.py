"""Completely positive maps: adjoints, conjugation, corners, Perron data."""

import numpy as np
import pytest

import oracles
from filternorm import (
    CpMap,
    adjoint,
    apply,
    conjugate,
    corner_rep,
    diagonal_state,
    is_doubly_stochastic,
    is_irreducible,
    random_state,
    restrict_to_corner,
    state_to_map,
    transform,
)
from filternorm.linalg import (
    DEFAULT_TOL,
    dagger,
    hermitian_basis,
    identity_projection,
    projector_onto,
    psd_check,
)
from filternorm.maps import _corner_perron
from filternorm.states import _pivoted_cholesky
from helpers import random_unitary, unitary_mixture, upper_triangular_map_kraus


def random_cp_map(k, m, nops, rng):
    """CP map with nops Gaussian Kraus operators."""
    ops = tuple(rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
                for _ in range(nops))
    return CpMap(src_dim=k, dst_dim=m, kraus=ops)


def lead_projection(k, s):
    """Projection onto the first s coordinates of C^k."""
    return projector_onto(np.eye(k, dtype=complex)[:, :s])


def test_cpmap_rejects_bad_kraus():
    """Empty, mis-shaped, and all-zero Kraus lists are invalid, and so are
    non-finite congruences, also in a derived map, whose stack is not
    checked again."""
    with pytest.raises(ValueError):
        CpMap(src_dim=2, dst_dim=2, kraus=())
    with pytest.raises(ValueError):
        CpMap(src_dim=2, dst_dim=2, kraus=(np.zeros((3, 2)),))
    with pytest.raises(ValueError):
        CpMap(src_dim=2, dst_dim=2, kraus=(np.zeros((2, 2)),))
    T = random_cp_map(2, 2, 2, np.random.default_rng(3))
    bad = np.array([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        CpMap(src_dim=2, dst_dim=2, kraus=T.kraus, right=bad)
    for left, right in ((bad, None), (None, np.nan * bad)):
        with pytest.raises(ValueError, match="non-finite"):
            transform(T, left, right)


def test_apply_preserves_positivity():
    """T(X) is PSD for 50 random PSD inputs."""
    rng = np.random.default_rng(0)
    T = random_cp_map(3, 4, 2, rng)
    for _ in range(50):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = apply(T, g @ g.conj().T)
        assert psd_check(out)
        assert np.abs(out - out.conj().T).max() < 1e-10


def test_adjoint_is_an_involution():
    """adjoint(adjoint(T)) acts identically to T on a matrix-unit basis."""
    rng = np.random.default_rng(1)
    T = random_cp_map(3, 2, 3, rng)
    TT = adjoint(adjoint(T))
    for i in range(3):
        for j in range(3):
            unit = np.zeros((3, 3), dtype=complex)
            unit[i, j] = 1.0
            assert np.abs(apply(T, unit) - apply(TT, unit)).max() < 1e-12


def test_adjoint_defining_pairing():
    """tr(T(X)* Y) == tr(X* T*(Y)) for random X, Y."""
    rng = np.random.default_rng(2)
    T = random_cp_map(3, 2, 2, rng)
    Ta = adjoint(T)
    for _ in range(10):
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = np.trace(apply(T, X).conj().T @ Y)
        rhs = np.trace(X.conj().T @ apply(Ta, Y))
        assert abs(lhs - rhs) < 1e-10


def test_adjoint_matches_kraus_contraction_oracle():
    """T*(Y) equals the direct sum of K* Y K."""
    rng = np.random.default_rng(3)
    T = random_cp_map(2, 3, 2, rng)
    Y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    want = oracles.adjoint_apply(list(T.kraus), Y)
    assert np.abs(apply(adjoint(T), Y) - want).max() < 1e-12


def test_transform_realizes_two_sided_congruence():
    """transform(T, L, R)(X) == L T(R X R*) L*, rectangular filters included."""
    rng = np.random.default_rng(4)
    T = random_cp_map(2, 3, 2, rng)
    L = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    R = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    got = apply(transform(T, L, R), X)
    want = L @ apply(T, R @ X @ R.conj().T) @ L.conj().T
    assert np.abs(got - want).max() < 1e-12


def test_adjoint_hands_on_a_built_superoperator():
    """The adjoint takes over the superoperator of the map's Kraus stack,
    built first if it is not yet, and the map's own superoperator, once
    built, as its conjugate transpose; either way its superoperator equals
    the one built from the daggered Kraus stack."""
    T = random_cp_map(2, 3, 2, np.random.default_rng(4))
    assert "_stack_superop" not in vars(T)
    lazy = adjoint(T)
    assert vars(lazy)["_stack_superop"] is vars(T)["_stack_superop"]
    assert "superop" not in vars(T) and "superop" not in vars(lazy)
    assert T.superop.shape == (9, 4)
    handed_on = adjoint(T)
    assert "superop" in vars(handed_on)
    fresh = CpMap(3, 2, T.kraus.conj().transpose(0, 2, 1))
    scale = np.abs(fresh.superop).max()
    for got in (lazy, handed_on):
        assert np.abs(got.superop - fresh.superop).max() <= 1e-13 * scale


def test_stacked_kraus_operations_match_the_per_operator_loop():
    """A derived map keeps its parent's Kraus stack bit for bit and composes
    congruences: the adjoint swaps none in and toggles ``dual``, a transform
    takes ``L`` and ``R``, a corner ``b*`` and ``b``.  Each one applied is
    the one-operator-at-a-time loop over its operators to 1e-13 relative.  A
    state's map stacks its factor's columns, bit for bit."""
    rng = np.random.default_rng(18)
    T = random_cp_map(4, 4, 3, rng)
    assert T.kraus.shape == (3, 4, 4) and T.kraus.dtype == complex
    L = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    R = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    b = projector_onto(np.linalg.qr(rng.standard_normal((4, 2)))[0]).basis
    cases = [
        (adjoint(T), True, None, None, [dagger(K) for K in T.kraus]),
        (transform(T, L, R), False, L, R, [L @ K @ R for K in T.kraus]),
        (restrict_to_corner(T, projector_onto(b)), False, dagger(b), b,
         [dagger(b) @ K @ b for K in T.kraus]),
    ]
    for got, dual, left, right, ops in cases:
        assert np.array_equal(got.kraus, T.kraus) and got.dual == dual
        for side, want in ((got.left, left), (got.right, right)):
            assert (side is None) if want is None else np.array_equal(side, want)
        shape = (2, got.src_dim, got.src_dim)
        X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = sum(K @ X @ dagger(K) for K in ops)
        assert np.abs(apply(got, X) - want).max() <= 1e-13 * np.abs(want).max()
    st = random_state(3, 2, rank=4, rng=rng)
    F = _pivoted_cholesky(st.rho, 1e-9)
    assert F.shape == (6, 4)
    want = np.stack([f.reshape(3, 2).T for f in F.T])
    assert np.array_equal(state_to_map(st).kraus, want)


def test_conjugate_round_trip():
    """conjugate by (Q, s) then (Q^-1, 1/s) restores the action within 1e-8."""
    rng = np.random.default_rng(5)
    T = random_cp_map(3, 3, 2, rng)
    Q = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 2 * np.eye(3)
    back = conjugate(conjugate(T, Q, 2.5), np.linalg.inv(Q), 1 / 2.5)
    for _ in range(5):
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.abs(apply(back, X) - apply(T, X)).max() < 1e-8
    with pytest.raises(ValueError):
        conjugate(T, np.zeros((3, 3), dtype=complex))
    with pytest.raises(ValueError):
        conjugate(T, Q, -1.0)


def test_identity_map_is_doubly_stochastic():
    """The identity map fixes everything and passes the doubly stochastic check."""
    T = CpMap(src_dim=3, dst_dim=3, kraus=np.eye(3)[None])
    X = np.arange(9, dtype=complex).reshape(3, 3)
    assert np.abs(apply(T, X) - X).max() == 0.0
    assert is_doubly_stochastic(T)


def test_unitary_mixtures_are_doubly_stochastic():
    """Mixtures of unitary conjugations are unital and trace preserving."""
    rng = np.random.default_rng(6)
    for k in (2, 3):
        T = unitary_mixture(k, 3, rng)
        assert is_doubly_stochastic(T)
        assert not is_doubly_stochastic(random_cp_map(k, k, 2, rng))


def test_leaves_invariant_detects_corner_structure():
    """Block-upper-triangular Kraus operators leave the leading corner invariant."""
    rng = np.random.default_rng(7)
    k, s = 4, 2
    T = CpMap(src_dim=k, dst_dim=k,
              kraus=tuple(upper_triangular_map_kraus(k, s, rng)))
    lead = lead_projection(k, s)
    assert oracles.leaves_invariant(T.kraus, lead.basis)
    assert not oracles.leaves_invariant(random_cp_map(k, k, 2, rng).kraus, lead.basis)
    assert oracles.leaves_invariant(T.kraus, np.eye(k))


def test_invariance_transfers_to_the_adjoint_complement():
    """T-invariance of a corner forces V T*(V_perp X V_perp) V == 0.

    With nested invariant corners V1 <= V the same cancellation holds for
    inputs supported on the complement of V1 inside V.
    """
    rng = np.random.default_rng(8)
    k = 4
    # two nested invariant corners: leading 1 and leading 2 coordinates
    ops = []
    for _ in range(3):
        K = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        K[1:, :1] = 0.0
        K[2:, :2] = 0.0
        ops.append(K)
    T = CpMap(src_dim=k, dst_dim=k, kraus=tuple(ops))
    Ta = adjoint(T)
    v1 = lead_projection(k, 1)
    v = lead_projection(k, 2)
    assert oracles.leaves_invariant(T.kraus, v1.basis)
    assert oracles.leaves_invariant(T.kraus, v.basis)
    for _ in range(10):
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        # complement of V inside the whole space
        perp = np.eye(k) - v.matrix
        X = perp @ g @ perp.conj().T
        resid = v.matrix @ apply(Ta, X) @ v.matrix
        assert np.abs(resid).max() < 1e-8
        # complement of V1 inside V
        mid = v.matrix - v1.matrix
        Y = mid @ g @ mid.conj().T
        resid = v1.matrix @ apply(Ta, Y) @ v1.matrix
        assert np.abs(resid).max() < 1e-8


def test_restrict_to_corner_is_faithful_on_invariant_corners():
    """The compressed map reproduces T on corner-supported inputs."""
    rng = np.random.default_rng(9)
    k, s = 4, 2
    T = CpMap(src_dim=k, dst_dim=k,
              kraus=tuple(upper_triangular_map_kraus(k, s, rng)))
    lead = lead_projection(k, s)
    small = restrict_to_corner(T, lead)
    assert small.src_dim == s
    for _ in range(5):
        x = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        big = np.zeros((k, k), dtype=complex)
        big[:s, :s] = x
        assert np.abs(apply(T, big)[:s, :s] - apply(small, x)).max() < 1e-10


def lifted_basis(V):
    """``hermitian_basis(s)`` lifted to ``C^k`` by ``b E b*``, ``b = V.basis``."""
    b = V.basis
    return b @ hermitian_basis(V.rank) @ b.conj().T


def test_corner_rep_reproduces_the_map():
    """rep columns are the coefficients of T on the lifted Hermitian basis."""
    rng = np.random.default_rng(10)
    for k, s in [(3, 3), (4, 2)]:
        T = CpMap(src_dim=k, dst_dim=k,
                  kraus=tuple(upper_triangular_map_kraus(k, s, rng)))
        V = lead_projection(k, s)
        rep = corner_rep(T, V)
        basis = lifted_basis(V)
        assert rep.shape == (s * s, s * s)
        assert np.abs(np.imag(rep)).max() < 1e-12
        for j in range(s * s):
            out = apply(T, basis[j])
            out = V.matrix @ out @ V.matrix
            lift = np.einsum("n,nij->ij", rep[:, j], basis)
            assert np.abs(lift - out).max() < 1e-10


def test_corner_rep_entries_are_trace_pairings():
    """rep[i, j] == tr(basis_i* T(basis_j)) on an invariant corner."""
    rng = np.random.default_rng(11)
    k, s = 4, 3
    T = CpMap(src_dim=k, dst_dim=k,
              kraus=tuple(upper_triangular_map_kraus(k, s, rng)))
    V = lead_projection(k, s)
    rep = corner_rep(T, V)
    basis = lifted_basis(V)
    for i in range(s * s):
        for j in range(s * s):
            want = np.trace(basis[i].conj().T @ apply(T, basis[j]))
            assert abs(rep[i, j] - np.real(want)) < 1e-10
            assert abs(np.imag(want)) < 1e-10


def test_corner_rep_is_the_restricted_map_in_the_hermitian_basis():
    """On a rotated invariant corner, ``corner_rep(T, V)`` is the matrix of
    ``restrict_to_corner(T, V)`` over ``hermitian_basis(s)``, entries
    ``Re tr(E_i R(E_j))``, and the restriction's adjoint (the compressed
    adjoint) has the transposed matrix."""
    rng = np.random.default_rng(19)
    k, s = 7, 4
    U = random_unitary(k, rng)
    T = CpMap(src_dim=k, dst_dim=k,
              kraus=tuple(upper_triangular_map_kraus(k, s, rng)))
    T = transform(T, U, U.conj().T)
    V = projector_onto(U[:, :s])
    E = hermitian_basis(s)

    def matrix(M):
        return np.real(np.einsum("iab,jba->ij", E, apply(M, E)))

    rep = corner_rep(T, V)
    R = restrict_to_corner(T, V)
    scale = np.abs(rep).max()
    assert rep.shape == (s * s, s * s) and rep.dtype == float
    assert np.abs(rep - matrix(R)).max() <= 1e-13 * scale
    assert np.abs(matrix(adjoint(R)) - rep.T).max() <= 1e-13 * scale


def test_corner_rep_of_adjoint_is_the_transpose():
    """In the same trace-orthonormal basis, the adjoint's representation is rep.T."""
    rng = np.random.default_rng(12)
    k = 3
    T = unitary_mixture(k, 2, rng)  # invariant under adjoint on the full corner
    V = identity_projection(k)
    rep = corner_rep(T, V)
    rep_adj = corner_rep(adjoint(T), V)
    assert np.abs(rep_adj - rep.T).max() < 1e-10


def test_invariance_guard_is_relative_to_the_map():
    """``corner_rep`` rejects a corner the map does not leave invariant at
    every scale of the map, down to ``1e-12``: the guard is a share of the
    map's Kraus norm with no absolute floor."""
    kraus = np.random.default_rng(0).standard_normal((2, 4, 4))
    lead = lead_projection(4, 2)
    for c in (1.0, 1e-3, 1e-6, 1e-8, 1e-10, 1e-12):
        T = CpMap(src_dim=4, dst_dim=4, kraus=np.sqrt(c) * kraus)
        with pytest.raises(ValueError, match="not invariant"):
            corner_rep(T, lead)


def test_spectral_radius_dominates_eigenvalues():
    """The Perron value is at least the modulus of every representation eigenvalue."""
    rng = np.random.default_rng(13)
    for k in (2, 3, 4):
        T = random_cp_map(k, k, 2, rng)
        V = identity_projection(k)
        lam, _, gamma, _ = _corner_perron(T, V, DEFAULT_TOL)
        eigs = np.linalg.eigvals(corner_rep(T, V))
        assert lam >= np.abs(eigs).max() - 1e-8 * max(1.0, lam)
        # the returned eigenvector is Hermitian and satisfies T-compression
        assert np.abs(gamma - gamma.conj().T).max() < 1e-8
        gamma = V.basis @ gamma @ V.basis.conj().T
        resid = V.matrix @ apply(T, gamma) @ V.matrix - lam * gamma
        assert np.abs(resid).max() < 1e-6 * max(1.0, lam)


def test_spectral_radius_of_known_maps():
    """Identity map has Perron value 1; scaling multiplies it."""
    V = identity_projection(3)
    T = CpMap(src_dim=3, dst_dim=3, kraus=np.eye(3)[None])
    lam, _, gamma, _ = _corner_perron(T, V, DEFAULT_TOL)
    assert abs(lam - 1.0) < 1e-10 and gamma is not None
    T2 = CpMap(src_dim=3, dst_dim=3, kraus=(2.0 * np.eye(3, dtype=complex),))
    lam2, _, gamma2, _ = _corner_perron(T2, V, DEFAULT_TOL)
    assert gamma2 is not None
    assert abs(lam2 - 4.0) < 1e-10


def test_is_irreducible_known_cases():
    """Generic unitary mixtures are irreducible; corner-invariant maps are not."""
    rng = np.random.default_rng(14)
    k = 3
    assert is_irreducible(unitary_mixture(k, 3, rng), identity_projection(k))
    T = CpMap(src_dim=k, dst_dim=k,
              kraus=tuple(upper_triangular_map_kraus(k, 1, rng)))
    assert not is_irreducible(T, identity_projection(k))
    # the map of a diagonal state with an irreducible pattern
    w = np.array([[1.0, 1.0], [1.0, 1.0]])
    T = state_to_map(diagonal_state(w / w.sum()))
    assert is_irreducible(T, identity_projection(2))
    # reducible pattern: block-diagonal weights
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    T = state_to_map(diagonal_state(w / w.sum()))
    assert not is_irreducible(T, identity_projection(2))


def choi_of(T):
    """The state whose map is T: rho = sum_i vec(K_i^t) vec(K_i^t)*, row-major."""
    vecs = T.kraus.swapaxes(1, 2).reshape(len(T.kraus), -1)
    return vecs.T @ vecs.conj()


def test_apply_on_a_stack_matches_single_inputs_and_the_state_oracle():
    """A stack (n, k, k) maps to the single-input images and to the direct
    contraction of the state's entries, within 1e-13 relative."""
    rng = np.random.default_rng(15)
    for k, m in [(2, 2), (3, 5), (6, 6), (7, 4)]:
        T = random_cp_map(k, m, 4, rng)
        X = rng.standard_normal((9, k, k)) + 1j * rng.standard_normal((9, k, k))
        images = apply(T, X)
        assert images.shape == (9, m, m)
        rho = choi_of(T)
        for i in range(9):
            want = oracles.apply_gmap_direct(rho, k, m, X[i])
            scale = np.abs(want).max()
            assert np.abs(images[i] - apply(T, X[i])).max() <= 1e-13 * scale
            assert np.abs(images[i] - want).max() <= 1e-13 * scale
    with pytest.raises(ValueError):
        apply(T, np.zeros((2, 3, 7, 7)))


def test_superoperator_is_the_realigned_state():
    """S[(j, l), (i, i')] = rho[(i, j), (i', l)]: the superoperator of a
    state's map is its realigned Choi matrix, the paper's G_A read as a matrix."""
    rng = np.random.default_rng(18)
    for k, m in [(2, 2), (3, 4), (5, 3)]:
        st = random_state(k, m, rng=rng)
        T = random_cp_map(k, m, 3, rng)
        for rho, mapping in [(st.rho, state_to_map(st)), (choi_of(T), T)]:
            want = rho.reshape(k, m, k, m).transpose(1, 3, 0, 2).reshape(m * m, k * k)
            assert mapping.superop.shape == (m * m, k * k)
            assert np.abs(mapping.superop - want).max() <= 1e-13 * np.abs(want).max()


def test_corner_rep_matches_the_per_element_kraus_loop():
    """The stacked corner_rep equals the one-input-at-a-time reference."""
    rng = np.random.default_rng(16)
    T = CpMap(src_dim=12, dst_dim=12,
              kraus=tuple(upper_triangular_map_kraus(12, 6, rng)))
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20)))
    full = projector_onto(q)
    cases = [(T, lead_projection(12, 6)), (random_cp_map(20, 20, 3, rng), full)]
    for T, V in cases:
        rep = corner_rep(T, V)
        assert rep.shape == (V.rank ** 2, V.rank ** 2)
        want = oracles.corner_rep_loop(list(T.kraus), lifted_basis(V))
        assert np.abs(rep - want).max() <= 1e-13 * np.abs(want).max()


def test_non_invariant_corner_is_rejected():
    """corner_rep raises and the invariance oracle says no when T leaves the corner."""
    rng = np.random.default_rng(17)
    T = random_cp_map(6, 6, 3, rng)
    lead = lead_projection(6, 3)
    assert not oracles.leaves_invariant(T.kraus, lead.basis)
    with pytest.raises(ValueError, match="not invariant"):
        corner_rep(T, lead)


@pytest.mark.parametrize("k", [3, 4, 5, 8, 17])
def test_cyclic_shift_channel_has_perron_root_one(k):
    """The classical k-cycle (Kraus E_{i+1,i}) is periodic, irreducible, unital.

    Its spectral circle holds all k-th roots of unity; the Perron root is 1
    with eigenvector Id/k.
    """
    eye = np.eye(k, dtype=complex)
    ops = tuple(np.outer(eye[(i + 1) % k], eye[i]) for i in range(k))
    T = CpMap(src_dim=k, dst_dim=k, kraus=ops)
    V = identity_projection(k)
    lam, _, gamma, _ = _corner_perron(T, V, DEFAULT_TOL)
    assert abs(lam - 1.0) < 1e-10
    assert np.abs(gamma - eye / k).max() < 1e-10
    assert is_irreducible(T, V)
