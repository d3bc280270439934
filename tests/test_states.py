"""Bipartite states: partial operations, state/map conversions, embedding."""

import numpy as np
import pytest

import oracles
from filternorm import (
    DEFAULT_TOL,
    BipartiteState,
    apply,
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
    restrict_to_corner,
    state_to_map,
    transform,
    vec_to_matrix,
)
from filternorm.linalg import (
    Tolerances,
    dagger,
    hermitian_basis,
    projector_onto,
    psd_check,
    rank_eps,
)
from filternorm.maps import adjoint, conjugate, corner_rep, kraus_norm
from filternorm.states import _factor_map, _pivoted_cholesky
from helpers import hidden_blocky, random_invertible, random_unitary, separable_full_rank


def test_state_constructor_rejects_bad_input():
    """Non-PSD, non-square, and wrong-size matrices are rejected."""
    with pytest.raises(ValueError):
        BipartiteState(k=2, m=2, rho=np.diag([1.0, -0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        BipartiteState(k=2, m=2, rho=np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        BipartiteState(k=2, m=3, rho=np.eye(4, dtype=complex))


def test_psd_gate_answers_as_the_spectrum_does(monkeypatch):
    """The constructor's shifted Cholesky only ever proves "passes", and only
    where the spectrum's test passes too.  Hermitian matrices of sizes 4, 36
    and 144 with largest eigenvalue 1 and smallest at +-0.1, +-0.5, +-0.9,
    +-1.1 and +-2 times the gate's threshold ``psd_abs (1 + 1)`` are accepted
    exactly when ``psd_check`` accepts them; those at or above -0.1 times it
    are accepted with no ``eigvalsh``.  ``is_ppt`` agrees with the two
    ``psd_check`` calls under the default and under a much tighter
    ``psd_abs``, for which the Cholesky proof does not hold."""
    eigvalsh_sizes = []

    def counted(a, *args, _fn=np.linalg.eigvalsh, **kwargs):
        eigvalsh_sizes.append(np.shape(a)[0])
        return _fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rng = np.random.default_rng(17)
    threshold = 2.0 * DEFAULT_TOL.psd_abs
    tight = Tolerances(psd_abs=1e-13)
    for k in (2, 6, 12):
        n = k * k
        for c in (0.1, 0.5, 0.9, 1.1, 2.0, -0.1, -0.5, -0.9, -1.1, -2.0):
            spectrum = np.concatenate([[c * threshold, 1.0], rng.uniform(0.0, 1.0, n - 2)])
            U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            rho = (U * spectrum) @ U.conj().T
            eigvalsh_sizes.clear()
            try:
                st = BipartiteState(k=k, m=k, rho=rho)
            except ValueError:
                st = None
            assert (n in eigvalsh_sizes) == (c < -0.1)
            assert (st is not None) == psd_check(rho) == (c >= -1.0)
            if st is not None:
                for tol in (None, tight):
                    want = psd_check(st.rho, tol) and psd_check(partial_transpose(st), tol)
                    assert is_ppt(st, tol) == want


def test_partial_transpose_involution_trace_hermiticity():
    """Partial transpose is an involution preserving trace and Hermiticity."""
    rng = np.random.default_rng(0)
    for k, m in [(2, 2), (2, 3), (3, 3)]:
        st = random_state(k, m, rng=rng)
        pt = partial_transpose(st)
        assert np.abs(pt - pt.conj().T).max() < 1e-12
        assert abs(np.trace(pt) - np.trace(st.rho)) < 1e-12
        # applying the same second-factor transpose again restores the state
        again = pt.reshape(k, m, k, m).transpose(0, 3, 2, 1).reshape(k * m, k * m)
        assert np.abs(again - st.rho).max() == 0.0


def test_partial_transpose_on_product_state():
    """On P (x) Q the partial transpose gives P (x) Q^t."""
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    P = a @ a.conj().T
    Q = b @ b.conj().T
    st = BipartiteState(k=2, m=3, rho=np.kron(P, Q) / np.trace(np.kron(P, Q)).real)
    pt = partial_transpose(st)
    want = np.kron(P, Q.T) / np.trace(np.kron(P, Q)).real
    assert np.abs(pt - want).max() < 1e-12


def test_is_ppt_known_cases():
    """Diagonal states are PPT; the maximally entangled state is not."""
    assert is_ppt(diagonal_state(np.array([[1.0, 1.0], [0.0, 1.0]]) / 3.0))
    assert not is_ppt(maximally_entangled(2))
    assert not is_ppt(maximally_entangled(3))


def test_partial_traces_share_the_trace():
    """tr(partial_trace_first) == tr(partial_trace_second) == tr(rho)."""
    rng = np.random.default_rng(2)
    for k, m in [(2, 2), (3, 2), (2, 4)]:
        st = random_state(k, m, rng=rng)
        t1 = np.trace(partial_trace_first(st))
        t2 = np.trace(partial_trace_second(st))
        assert abs(t1 - np.trace(st.rho)) < 1e-12
        assert abs(t2 - np.trace(st.rho)) < 1e-12


def test_partial_traces_on_product_state():
    """Partial traces of P (x) Q are tr(P) Q and tr(Q) P."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    P = a @ a.conj().T
    Q = b @ b.conj().T
    st = BipartiteState(k=2, m=3, rho=np.kron(P, Q))
    assert np.abs(partial_trace_first(st) - np.trace(P) * Q).max() < 1e-10
    assert np.abs(partial_trace_second(st) - np.trace(Q) * P).max() < 1e-10


def test_state_to_map_matches_direct_contraction():
    """The map agrees with the entrywise contraction oracle on a matrix-unit basis."""
    rng = np.random.default_rng(4)
    for k, m in [(2, 2), (3, 3), (2, 3), (3, 2)]:
        st = random_state(k, m, rng=rng)
        T = state_to_map(st)
        assert T.src_dim == k and T.dst_dim == m
        for i in range(k):
            for j in range(k):
                unit = np.zeros((k, k), dtype=complex)
                unit[i, j] = 1.0
                want = oracles.apply_gmap_direct(st.rho, k, m, unit)
                assert np.abs(apply(T, unit) - want).max() < 1e-10


def test_state_to_map_choi_round_trip():
    """Reassembling the Choi matrix from the map recovers the state."""
    rng = np.random.default_rng(5)
    st = random_state(2, 3, rng=rng)
    T = state_to_map(st)
    choi = np.zeros((6, 6), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            out = apply(T, unit)
            choi[i * 3:(i + 1) * 3, j * 3:(j + 1) * 3] = out
    assert np.abs(choi - st.rho).max() < 1e-10


def test_vec_to_matrix_layout():
    """Entry (i, j) of the coefficient matrix multiplies e_i (x) f_j."""
    v = np.arange(6, dtype=complex)
    m = vec_to_matrix(v, 2, 3)
    assert m.shape == (2, 3)
    assert np.abs(m - np.array([[0, 1, 2], [3, 4, 5]])).max() == 0.0
    with pytest.raises(ValueError):
        vec_to_matrix(v, 2, 2)


def test_tensor_rank_bounds_and_equality_for_entangled_vector():
    """The tensor rank (the rank of the coefficient matrix) is at most
    min(k, m), with equality for the entangled sum."""
    rng = np.random.default_rng(6)
    for k, m in [(2, 2), (2, 3), (3, 3)]:
        for _ in range(10):
            v = rng.standard_normal(k * m) + 1j * rng.standard_normal(k * m)
            assert rank_eps(vec_to_matrix(v, k, m)) <= min(k, m)
    u = np.eye(3, dtype=complex).reshape(9)
    assert rank_eps(vec_to_matrix(u, 3, 3)) == 3
    prod = np.kron(np.array([1.0, 2.0]), np.array([1.0, -1.0]))
    assert rank_eps(vec_to_matrix(prod, 2, 2)) == 1


def test_find_full_rank_vector_prefers_canonical_anchor():
    """Full-range square states return the entangled sum vector itself."""
    st = BipartiteState(k=2, m=2, rho=np.eye(4, dtype=complex) / 4)
    v = find_full_rank_vector(st)
    u = np.eye(2, dtype=complex).reshape(4)
    u = u / np.linalg.norm(u)
    assert v is not None
    assert np.abs(v - u).max() < 1e-12


def test_find_full_rank_vector_on_restricted_range():
    """Ranges with a matching pattern yield a full-rank vector; product states do not."""
    rng = np.random.default_rng(7)
    # anti-diagonal pattern: canonical vector not in range, sampling must work
    st = diagonal_state(np.array([[0.0, 1.0], [1.0, 0.0]]) / 2.0)
    v = find_full_rank_vector(st, rng=rng)
    assert v is not None and rank_eps(vec_to_matrix(v, 2, 2)) == 2
    # pure product state: no entangled vector exists in the range
    vec = np.kron(np.array([1.0, 0.5]), np.array([1.0, -0.5])).astype(complex)
    pure = BipartiteState(k=2, m=2, rho=np.outer(vec, vec.conj()))
    assert find_full_rank_vector(pure, rng=rng) is None


def test_the_zero_state_has_an_empty_range_and_no_map():
    """The zero state, plain or embedded, passes the PSD gate with an empty
    range: its factorization gives no map and a basis with no column, so the
    range search finds nothing and ``state_to_map`` raises."""
    for st in (BipartiteState(k=2, m=2, rho=np.zeros((4, 4))),
               embed_rectangular(BipartiteState(k=1, m=2, rho=np.zeros((2, 2))))):
        T, basis = _factor_map(st, DEFAULT_TOL)
        assert T is None and basis.shape == (st.order, 0)
        assert find_full_rank_vector(st) is None
        with pytest.raises(ValueError, match="the zero state has no associated map"):
            state_to_map(st)


def test_full_rank_search_matches_the_sample_loop():
    """The stacked search returns the one-sample-at-a-time loop's vector bit
    for bit, fails where it fails, and leaves the generator where it does.
    On a rank-one range, and when k or m is one, every sample scores alike,
    so this also pins how ties break.  The loop gets the range basis the
    search reads: the QR of the state's pivoted Cholesky factor (lifted from
    the factor's for an embedded state), or the standard basis where that
    factor has full rank."""
    rng = np.random.default_rng(15)
    anti = diagonal_state(np.array([[0.0, 1.0], [1.0, 0.0]]) / 2.0)
    vec = np.kron(np.array([1.0, 0.5]), np.array([1.0, -0.5, 2.0])).astype(complex)
    states = [anti, BipartiteState(k=2, m=3, rho=np.outer(vec, vec.conj()))]
    for k, m, rank in [(3, 3, 4), (4, 4, 7), (2, 3, None), (2, 3, 2), (3, 2, None),
                       (3, 2, 1), (3, 4, 5), (3, 3, 1), (1, 3, 2), (4, 1, None)]:
        states.append(random_state(k, m, rank=rank, rng=rng))
    states.append(embed_rectangular(random_state(2, 3, rank=2, rng=rng)))
    states.append(embed_rectangular(random_state(3, 2, rank=3, rng=rng)))
    misses = 0
    for st in states:
        _, basis = _factor_map(st, DEFAULT_TOL)
        basis = np.eye(st.order) if basis is None else basis
        for seed in range(5):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = find_full_rank_vector(st, rng=got_rng)
            want = oracles.full_rank_vector_loop(
                basis, st.k, st.m, want_rng, DEFAULT_TOL.rank_rel)
            assert (got is None) == (want is None), (st.k, st.m, seed)
            misses += got is None
            assert got is None or np.array_equal(got, want), (st.k, st.m, seed)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert 0 < misses < 5 * len(states)


def test_pivoted_cholesky_rebuilds_rho_and_cuts_where_eigh_does():
    """``F F*`` rebuilds ``rho`` to rounding, and the number of columns is
    the rank that the cut of ``eigh``'s eigenvalues at ``rank_rel`` times the
    largest gives, on spectra with a clear gap: hidden blocks (at k = 16 the
    rank 128 fills one block of columns exactly, and the separable k = 12
    state's 144 takes two), rank one, k = 1, and a zero diagonal entry,
    whose row of ``F`` is zero."""
    rng = np.random.default_rng(21)
    vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    padded = random_state(3, 3, rank=5, rng=rng).rho.copy()
    padded[4, :] = padded[:, 4] = 0.0
    states = [hidden_blocky(4, [2, 2], rng), hidden_blocky(8, [3, 3, 2], rng),
              hidden_blocky(16, [8, 8], rng), separable_full_rank(12, rng),
              BipartiteState(k=2, m=3, rho=np.outer(vec, vec.conj())),
              random_state(1, 4, rank=2, rng=rng), random_state(1, 1, rng=rng),
              BipartiteState(k=3, m=3, rho=padded)]
    ranks = []
    for st in states:
        F = _pivoted_cholesky(st.rho, DEFAULT_TOL.rank_rel)
        eigs = np.linalg.eigvalsh(st.rho)
        want = np.count_nonzero(eigs > DEFAULT_TOL.rank_rel * eigs.max())
        assert F.shape == (st.order, want), (st.k, st.m)
        scale = np.abs(st.rho).max()
        assert np.abs(F @ F.conj().T - st.rho).max() <= 1e-12 * scale, (st.k, st.m)
        ranks.append(want)
    assert ranks == [8, 22, 128, 144, 1, 2, 1, 5]
    assert not _pivoted_cholesky(padded, DEFAULT_TOL.rank_rel)[4].any()


def test_apply_filter_matches_kron_congruence():
    """apply_filter conjugates by R (x) S and demands invertibility."""
    rng = np.random.default_rng(8)
    for k, m in [(2, 3), (3, 2), (4, 4)]:
        st = random_state(k, m, rng=rng)
        R = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) + 2 * np.eye(k)
        S = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) + 2 * np.eye(m)
        out = apply_filter(st, R, S)
        F = np.kron(R, S)
        want = F @ st.rho @ F.conj().T
        assert np.abs(out.rho - want).max() <= 1e-12 * np.abs(want).max(), (k, m)
    st, S = random_state(2, 3, rng=rng), np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        apply_filter(st, np.zeros((2, 2), dtype=complex), S)
    with pytest.raises(ValueError):
        apply_filter(st, np.eye(3, dtype=complex), S)


def test_apply_filter_preserves_ppt():
    """Local filters cannot create or destroy the PPT property."""
    rng = np.random.default_rng(9)
    ppt = diagonal_state(np.array([[1.0, 0.3], [0.4, 1.0]]))
    npt = maximally_entangled(2)
    R = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
    S = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
    assert is_ppt(apply_filter(ppt, R, S))
    assert not is_ppt(apply_filter(npt, R, S))


def test_embed_matches_entrywise_assembly():
    """embed_rectangular equals the index-bookkeeping oracle exactly.

    Its spectrum and partial-transpose spectrum come from the factor and
    match the dense factorizations of the embedded matrix, for full-rank,
    rank-deficient and NPT factors.  Its map is the structured form over the
    factor's Kraus stack, and its range basis is the factor's, lifted: of
    ``mk`` times the factor's rank, orthonormal, and spanning the embedded
    matrix's range.
    """
    rng = np.random.default_rng(11)
    factors = [random_state(k, m, rng=rng) for k, m in [(2, 3), (3, 2), (2, 2), (4, 5)]]
    pure = np.kron([1.0, 0.0], [1.0, 0.0, 0.0]) + np.kron([0.0, 1.0], [0.0, 1.0, 0.0])
    npt = BipartiteState(k=2, m=3, rho=np.outer(pure, pure).astype(complex))
    factors += [npt, random_state(4, 5, rank=7, rng=rng)]
    for k, m in [(1, 2), (2, 1), (2, 3), (3, 2)]:
        factors += [random_state(k, m, rng=rng), random_state(k, m, rank=1, rng=rng)]
    for st in factors:
        k, m = st.k, st.m
        emb = embed_rectangular(st)
        assert emb.k == emb.m == k * m
        assert np.array_equal(emb.rho, oracles.embed_direct(st.rho, k, m)), (k, m)
        for got, dense in [(emb.spectrum, np.linalg.eigvalsh(emb.rho)),
                           (emb.pt_spectrum, np.linalg.eigvalsh(partial_transpose(emb)))]:
            assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max(), (k, m)
        assert is_ppt(emb) == is_ppt(st)
        T, basis = _factor_map(emb, DEFAULT_TOL)
        assert T.embedded and np.array_equal(T.kraus, state_to_map(st).kraus)
        rank = k * m * len(T.kraus)
        if rank == emb.order:
            assert basis is None
        else:
            assert basis.shape == (emb.order, rank)
            assert np.abs(basis.conj().T @ basis - np.eye(rank)).max() <= 1e-12
            scale = np.abs(emb.rho).max()
            assert np.abs(basis @ (basis.conj().T @ emb.rho) - emb.rho).max() <= 1e-12 * scale
    assert not is_ppt(embed_rectangular(npt))


def test_embed_of_product_state():
    """P (x) Q embeds as (Id (x) P) (x) (Q (x) Id)."""
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    P = a @ a.conj().T
    Q = b @ b.conj().T
    st = BipartiteState(k=2, m=3, rho=np.kron(P, Q))
    emb = embed_rectangular(st)
    want = np.kron(np.kron(np.eye(3), P), np.kron(Q, np.eye(2)))
    assert np.abs(emb.rho - want).max() < 1e-8


def test_embed_diagonal_state_stays_diagonal():
    """A diagonal 2x3 state embeds into a diagonal 6x6 state of trace 6 tr(B)."""
    w = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])
    st = diagonal_state(w / w.sum())
    emb = embed_rectangular(st)
    off = emb.rho - np.diag(np.diag(emb.rho))
    assert np.abs(off).max() < 1e-10
    assert abs(np.trace(emb.rho).real - 6.0 * np.trace(st.rho).real) < 1e-10
    assert is_ppt(emb)


def test_embed_map_contracts_to_the_original_map():
    """The embedded map acts as T on the first-factor partial trace, tensored with Id.

    Writing the embedded input space as C^m (x) C^k, the defining expansion
    gives T_embed(X) = T(sum_i X_ii) (x) Id_k where X_ii are the diagonal
    k x k blocks of X — checked on random inputs and on matrix units.  The
    embedded map reads the factor's Kraus stack through the embedding; it
    acts as the map of the same matrix as a plain state, which is factored
    densely.  So it does along a chain of derived maps (2 x 3 and 3 x 4
    factors): a transform by random invertible ``L`` and ``R``, an adjoint, a
    conjugation, a restriction to a random corner and an adjoint again.  At
    each step the plain map matches its own Kraus operators, formed one at a
    time by ``oracles.kraus_operators``, and the embedded one the plain one,
    to 1e-12 relative: ``apply`` on a stack, ``kraus_norm``, ``corner_rep``
    over a random basis of the whole space and the superoperator, which the
    embedded map assembles only on first read or takes from its adjoint.
    """
    rng = np.random.default_rng(13)
    for k, m in [(2, 3), (3, 2)]:
        st = random_state(k, m, rng=rng)
        emb = embed_rectangular(st)
        Temb = state_to_map(emb)
        Tdense = state_to_map(BipartiteState(k=emb.k, m=emb.m, rho=emb.rho))
        T = state_to_map(st)
        inputs = [rng.standard_normal((m * k, m * k))
                  + 1j * rng.standard_normal((m * k, m * k)) for _ in range(5)]
        unit = np.zeros((m * k, m * k), dtype=complex)
        unit[0, k] = 1.0
        inputs.append(unit)
        inputs.append(np.eye(m * k, dtype=complex))
        for X in inputs:
            diag_sum = np.einsum("ijil->jl", X.reshape(m, k, m, k))
            want = np.kron(apply(T, diag_sum), np.eye(k, dtype=complex))
            assert np.abs(apply(Temb, X) - want).max() < 1e-8
            assert np.abs(apply(Temb, X) - apply(Tdense, X)).max() < 1e-8

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for k, m in [(2, 3), (3, 4)]:
        emb = embed_rectangular(random_state(k, m, rng=rng))
        n = emb.k
        Temb = state_to_map(emb)
        Tdense = state_to_map(BipartiteState(k=n, m=n, rho=emb.rho))
        assert Temb.embedded and not Tdense.embedded
        assert len(Temb.kraus) == k * m and len(Tdense.kraus) == n * n
        L, R, Q = (random_invertible(n, rng) for _ in range(3))
        V = projector_onto(np.linalg.qr(rng.standard_normal((n, n // 2))
                                        + 1j * rng.standard_normal((n, n // 2)))[0])
        steps = [lambda T: transform(T, L, R), adjoint, lambda T: conjugate(T, Q, 0.5),
                 lambda T: restrict_to_corner(T, V), adjoint]
        a, b = Temb, Tdense
        for i, step in enumerate(steps):
            a, b = step(a), step(b)
            s = a.src_dim
            ops = oracles.kraus_operators(b)
            X = rng.standard_normal((4, s, s)) + 1j * rng.standard_normal((4, s, s))
            whole = projector_onto(random_unitary(s, rng))
            lifted = whole.basis @ hermitian_basis(s) @ dagger(whole.basis)
            images = np.einsum("rij,njk,rlk->nil", ops, X, ops.conj())
            superop = np.einsum("rji,rlk->jlik", ops, ops.conj()).reshape(s * s, s * s)
            for got, want in [(apply(b, X), images), (apply(a, X), images),
                              (kraus_norm(b), np.vdot(ops, ops).real),
                              (kraus_norm(a), np.vdot(ops, ops).real),
                              (corner_rep(b, whole), oracles.corner_rep_loop(ops, lifted)),
                              (corner_rep(a, whole), corner_rep(b, whole))]:
                assert close(got, want), (k, m, i)
            # assembled on first read (and handed to the adjoint once read)
            assert ("superop" in vars(a)) == (step is adjoint and i > 0), (k, m, i)
            assert close(b.superop, superop) and close(a.superop, b.superop), (k, m, i)


def test_maximally_entangled_and_diagonal_builders():
    """Builder sanity: traces, supports, and weight placement."""
    me = maximally_entangled(3)
    assert abs(np.trace(me.rho).real - 1.0) < 1e-12
    u = np.eye(3, dtype=complex).reshape(9)
    assert np.abs(me.rho - np.outer(u, u.conj()) / 3.0).max() == 0.0
    w = np.array([[0.5, 0.0], [0.25, 0.25]])
    ds = diagonal_state(w)
    assert np.abs(ds.rho - np.diag([0.5, 0.0, 0.25, 0.25])).max() == 0.0
    with pytest.raises(ValueError):
        diagonal_state(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        diagonal_state(np.array([[-1.0, 1.0], [1.0, 1.0]]))


def test_random_state_contracts():
    """random_state returns unit-trace PSD matrices of requested rank."""
    rng = np.random.default_rng(14)
    st = random_state(2, 3, rank=4, rng=rng)
    eigs = np.linalg.eigvalsh(st.rho)
    assert abs(np.trace(st.rho).real - 1.0) < 1e-12
    assert eigs.min() > -1e-12
    assert int(np.count_nonzero(eigs > 1e-9 * eigs.max())) == 4
