"""Independent recomputation helpers for the test suite.

Everything in this file is written from scratch against the mathematical
definitions — direct tensor contractions, brute-force enumeration over
permutations, classical scaling iterations, an exact LP feasibility test —
so that package results can be compared against a second, unrelated code
path.  Nothing here calls back into the package, except
:func:`dense_corner_search`, which keeps the corner search's dense-only
control flow as a reference for its Arnoldi path.
"""

import itertools

import numpy as np
from scipy.optimize import linprog


def apply_gmap_direct(rho: np.ndarray, k: int, m: int, X: np.ndarray) -> np.ndarray:
    """T(X) for T = G_rho((.)^t), contracted directly from the state entries.

    With rho = sum_n A_n (x) B_n one has G_rho(X^t) = sum_n tr(A_n X^t) B_n,
    and tr(A X^t) = sum_{i,i'} A[i,i'] X[i,i'], so
    T(X)[j,l] = sum_{i,i'} X[i,i'] rho[(i,j),(i',l)].
    """
    blocks = np.asarray(rho, dtype=complex).reshape(k, m, k, m)
    return np.einsum("ijkl,ik->jl", blocks, np.asarray(X, dtype=complex))


def adjoint_apply(kraus, Y: np.ndarray) -> np.ndarray:
    """T*(Y) = sum_i K_i^* Y K_i, straight from the Kraus list."""
    Y = np.asarray(Y, dtype=complex)
    out = np.zeros((kraus[0].shape[1], kraus[0].shape[1]), dtype=complex)
    for K in kraus:
        out += K.conj().T @ Y @ K
    return out


def kraus_operators(T) -> np.ndarray:
    """The Kraus operators of a ``CpMap`` without the embedding, one at a time.

    The map is ``X -> L E(R X R*) L*`` over the core stack ``K_i``, with
    ``E(X) = sum_i K_i X K_i*``, or ``sum_i K_i* X K_i`` when ``T.dual``; so
    its operators are ``L K_i R`` (``L K_i* R``), ``None`` an identity side.
    """
    assert not T.embedded, "an embedded core's operators are not formed"
    ops = []
    for K in T.kraus:
        op = K.conj().T if T.dual else K
        if T.left is not None:
            op = T.left @ op
        if T.right is not None:
            op = op @ T.right
        ops.append(op)
    return np.array(ops)


# ---------------------------------------------------------------------------
# classical scaling oracles
# ---------------------------------------------------------------------------

def has_support(pattern: np.ndarray) -> bool:
    """Square nonnegative pattern contains at least one positive diagonal."""
    M = np.asarray(pattern)
    n = M.shape[0]
    return any(
        all(M[i, sigma[i]] > 0 for i in range(n))
        for sigma in itertools.permutations(range(n))
    )


def has_total_support(pattern: np.ndarray) -> bool:
    """Every positive entry lies on some positive permutation diagonal."""
    M = np.asarray(pattern)
    n = M.shape[0]
    if not has_support(M):
        return False
    perms = [
        sigma
        for sigma in itertools.permutations(range(n))
        if all(M[i, sigma[i]] > 0 for i in range(n))
    ]
    covered = np.zeros_like(M, dtype=bool)
    for sigma in perms:
        for i in range(n):
            covered[i, sigma[i]] = True
    return bool(np.all(covered[M > 0]))


def classical_sinkhorn(M: np.ndarray, iters: int = 10000, tol: float = 1e-12):
    """Alternating row/column normalization to doubly stochastic, square case.

    Returns (scaled matrix, marginal residual after the last iteration).
    """
    A = np.array(M, dtype=float)
    n = A.shape[0]
    for _ in range(iters):
        rows = A.sum(axis=1)
        if np.any(rows <= 0):
            return A, np.inf
        A = A / rows[:, None]
        cols = A.sum(axis=0)
        if np.any(cols <= 0):
            return A, np.inf
        A = A / cols[None, :]
        resid = max(np.abs(A.sum(axis=1) - 1.0).max(), np.abs(A.sum(axis=0) - 1.0).max())
        if resid < tol:
            break
    resid = max(np.abs(A.sum(axis=1) - 1.0).max(), np.abs(A.sum(axis=0) - 1.0).max())
    return A, resid


def exact_scalable_lp(pattern: np.ndarray, row_sum: float | None = None,
                      col_sum: float | None = None) -> bool:
    """Exact diagonal scalability of a nonnegative k x m pattern, via LP.

    A pattern is exactly scalable to prescribed margins iff the transportation
    polytope over its support contains a point that is strictly positive on
    the whole support; we maximize the smallest support entry t and test
    t* > 0.  Defaults: row sums m, column sums k (consistent: both total km).
    """
    M = np.asarray(pattern, dtype=float)
    k, m = M.shape
    if row_sum is None:
        row_sum = float(m)
    if col_sum is None:
        col_sum = float(k)
    support = [(i, j) for i in range(k) for j in range(m) if M[i, j] > 0]
    if not support:
        return False
    nv = len(support)
    # variables: x_e for e in support, then t; maximize t
    c = np.zeros(nv + 1)
    c[-1] = -1.0
    A_eq = np.zeros((k + m, nv + 1))
    b_eq = np.concatenate([np.full(k, row_sum), np.full(m, col_sum)])
    for e, (i, j) in enumerate(support):
        A_eq[i, e] = 1.0
        A_eq[k + j, e] = 1.0
    # x_e - t >= 0  ->  -x_e + t <= 0
    A_ub = np.zeros((nv, nv + 1))
    for e in range(nv):
        A_ub[e, e] = -1.0
        A_ub[e, -1] = 1.0
    b_ub = np.zeros(nv)
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * nv + [(0, None)], method="highs")
    if not res.success:
        return False
    return bool(res.x[-1] > 1e-9)


def rect_sinkhorn_limit(pattern: np.ndarray, iters: int = 20000,
                        tol: float = 1e-10) -> tuple[np.ndarray | None, float]:
    """Classical rectangular scaling by alternating row/column normalization.

    Scales a nonnegative ``k x m`` matrix toward row sums ``m`` and column
    sums ``k`` until both margins are within ``tol``; returns the scaled
    matrix and its margin residual, or ``(None, inf)`` when a row or column
    is empty.  The limit of a scalable pattern is unique, so over ``km`` it
    is the diagonal of a diagonal state's rectangular normal form.
    """
    A = np.asarray(pattern, dtype=float).copy()
    k, m = A.shape
    if not (A > 0).any() or (A.sum(axis=1) == 0).any() or (A.sum(axis=0) == 0).any():
        return None, np.inf
    for _ in range(iters):
        A = A * (float(m) / A.sum(axis=1))[:, None]
        A = A * (float(k) / A.sum(axis=0))[None, :]
        resid = max(np.abs(A.sum(axis=1) - m).max(), np.abs(A.sum(axis=0) - k).max())
        if resid < tol:
            break
    return A, resid


def rect_sinkhorn_scalable(pattern: np.ndarray, iters: int = 20000,
                           tol: float = 1e-10) -> bool:
    """Exact rectangular scalability via the alternating normalization test.

    Runs :func:`rect_sinkhorn_limit` and requires both that the margins
    converge and that the scaled entries on the support stay bounded away
    from zero (the diagonal factors stay bounded) — margins alone converge
    for merely approximately-scalable patterns, whose support entries decay
    to zero instead.
    """
    A, resid = rect_sinkhorn_limit(pattern, iters, tol)
    if A is None or resid >= 1e-6:
        return False
    return bool(A[np.asarray(pattern) > 0].min() > 1e-6)


# ---------------------------------------------------------------------------
# operator Sinkhorn scaling, one Kraus operator at a time
# ---------------------------------------------------------------------------

def mirror_tril(G: np.ndarray) -> np.ndarray:
    """Lower triangle plus its conjugate transpose plus the real diagonal."""
    low = np.tril(G, -1)
    return low + low.conj().T + np.diag(np.real(np.diag(G)))


class SinkhornStop(Exception):
    """:func:`sinkhorn_loop` stopped early: ``kind`` is "singular" or "cap"."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def sinkhorn_loop(kraus, rank_rel: float = 1e-9, residual: float = 1e-8,
                  max_iters: int = 100000):
    """Alternating operator Sinkhorn scaling with every step spelled out.

    Marginals are summed from zero, one Kraus operator at a time, and checked
    against ``Id/sqrt(s)`` in both directions before every round.  Each
    half-step mirrors the marginal's lower triangle, tests collapse on its
    ``eigvalsh`` spectrum and inverts it as ``s^{-1/4} V diag(w^{-1/2}) V*``
    from ``eigh``; the filter multiplies every operator, with an identity on
    the other side.  Returns ``(left, right, scaled kraus, iterations)``.
    """
    ops = [np.asarray(K, dtype=complex) for K in kraus]
    s = ops[0].shape[0]
    eye = np.eye(s, dtype=complex)
    ident = eye / np.sqrt(s)

    def marginal(mats):
        out = np.zeros((s, s), dtype=complex)
        for A in mats:
            out += A @ ident @ A.conj().T
        return out

    def inverse_root(G):
        G = mirror_tril(G)
        eigs = np.linalg.eigvalsh(G)
        if eigs[-1] <= 0.0 or eigs[0] <= rank_rel * eigs[-1]:
            raise SinkhornStop("singular", f"marginal collapsed during scaling (eigenvalues "
                               f"in [{eigs[0]:.3e}, {eigs[-1]:.3e}])")
        w, v = np.linalg.eigh(G)
        return s ** (-0.25) * mirror_tril(v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T)

    left, right = eye.copy(), eye.copy()
    iterations = 0
    while True:
        fwd = np.abs(marginal(ops) - ident).max()
        bwd = np.abs(marginal([K.conj().T for K in ops]) - ident).max()
        if max(fwd, bwd) <= residual:
            return left, right, np.array(ops), iterations
        if iterations >= max_iters:
            raise SinkhornStop("cap", f"scaling did not converge after {iterations} iterations")
        L = inverse_root(marginal(ops))
        ops = [L @ K @ eye for K in ops]
        left = L @ left
        R = inverse_root(marginal([K.conj().T for K in ops]))
        ops = [eye @ K @ R for K in ops]
        right = right @ R
        iterations += 1


def hermitian_pairs_basis(d: int) -> list:
    """An orthonormal basis of the Hermitian ``d x d`` matrices, index pair by
    index pair: ``e_aa``, then for ``a < b`` ``(e_ab + e_ba)/sqrt(2)`` and
    ``i(e_ab - e_ba)/sqrt(2)``.  The order and signs differ from the
    package's basis on purpose; a minimum-norm Newton step does not depend
    on which orthonormal basis its coordinates use."""
    out = []
    for a in range(d):
        for b in range(a, d):
            if a == b:
                E = np.zeros((d, d), dtype=complex)
                E[a, a] = 1.0
                out.append(E)
                continue
            sym = np.zeros((d, d), dtype=complex)
            sym[a, b] = sym[b, a] = 1.0 / np.sqrt(2.0)
            anti = np.zeros((d, d), dtype=complex)
            anti[a, b], anti[b, a] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
            out += [sym, anti]
    return out


def newton_system(S, left, right, fwd, bwd):
    """The linearized marginal equations of one Newton step, entry by entry.

    ``S`` is the superoperator of ``T: M_k -> M_m`` over ``sqrt(k)``
    (``vec T(X) = sqrt(k) S vec X``, row-major), the scaled map is
    ``T'(X) = left T(right X right*) left*``, and ``fwd``, ``bwd`` are its
    marginals.  ``K -> e^{h/2} K e^{g/2}`` moves ``fwd`` by
    ``{h, fwd}/2 + T'(g)/sqrt(k)`` and ``bwd`` by ``T'*(h)/sqrt(m) + {g, bwd}/2``;
    over :func:`hermitian_pairs_basis` (``E_i`` of size m for ``h``, ``F_j`` of
    size k for ``g``) the step solves ``J (h, g) = (Re tr(E_i (Id/sqrt(m) -
    fwd)), Re tr(F_j (Id/sqrt(k) - bwd)))``.  Each entry of ``J`` is one trace,
    with ``T'*`` applied through ``S*`` rather than read off ``J``'s other block.
    Returns ``(J, rhs)``.
    """
    m, k = len(fwd), len(bwd)
    S = np.sqrt(k) * np.asarray(S)

    def T(X):
        Y = (S @ (right @ X @ right.conj().T).reshape(-1)).reshape(m, m)
        return left @ Y @ left.conj().T

    def T_adj(Y):
        X = (S.conj().T @ (left.conj().T @ Y @ left).reshape(-1)).reshape(k, k)
        return right.conj().T @ X @ right

    out_basis, in_basis = hermitian_pairs_basis(m), hermitian_pairs_basis(k)
    p = m * m
    J = np.zeros((p + k * k, p + k * k))
    rhs = np.zeros(p + k * k)
    for i, E in enumerate(out_basis):
        rhs[i] = np.trace(E @ (np.eye(m) / np.sqrt(m) - fwd)).real
        for j, E2 in enumerate(out_basis):
            J[i, j] = np.trace(E @ (E2 @ fwd + fwd @ E2)).real / 2.0
        for j, F in enumerate(in_basis):
            J[i, p + j] = np.trace(E @ T(F)).real / np.sqrt(k)
    for i, F in enumerate(in_basis):
        rhs[p + i] = np.trace(F @ (np.eye(k) / np.sqrt(k) - bwd)).real
        for j, E in enumerate(out_basis):
            J[p + i, j] = np.trace(F @ T_adj(E)).real / np.sqrt(m)
        for j, F2 in enumerate(in_basis):
            J[p + i, p + j] = np.trace(F @ (F2 @ bwd + bwd @ F2)).real / 2.0
    return J, rhs


# ---------------------------------------------------------------------------
# 2x2 Pauli bookkeeping
# ---------------------------------------------------------------------------

PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def pauli_correlation(rho: np.ndarray) -> np.ndarray:
    """4x4 real matrix t[a,b] = Re tr(rho (sigma_a x sigma_b)) / 2."""
    t = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            t[a, b] = np.real(np.trace(rho @ np.kron(PAULI[a], PAULI[b]))) / 2.0
    return t


# ---------------------------------------------------------------------------
# the quadratic objective, straight from its two defining trace expressions
# ---------------------------------------------------------------------------

def objective_f_expanded(kraus, s: int, X: np.ndarray) -> float:
    """Four-term trace expansion of the objective f at the block X.

    X is (k-s) x s; all blocks are assembled explicitly and T* is applied
    via the raw Kraus sum.
    """
    k = kraus[0].shape[0]
    X = np.asarray(X, dtype=complex)
    v1 = np.zeros((k, k), dtype=complex)
    v1[:s, :s] = np.eye(s)
    low = np.zeros((k, k), dtype=complex)
    low[s:, s:] = np.eye(k - s)

    def blockmat(tl, tr, bl, br):
        out = np.zeros((k, k), dtype=complex)
        out[:s, :s] = tl
        out[:s, s:] = tr
        out[s:, :s] = bl
        out[s:, s:] = br
        return out

    Xd = X.conj().T
    z_ss = np.zeros((s, s))
    z_sl = np.zeros((s, k - s))
    z_ls = np.zeros((k - s, s))
    z_ll = np.zeros((k - s, k - s))

    t1 = np.trace(adjoint_apply(kraus, v1) @ low)
    t2 = np.trace(adjoint_apply(kraus, v1) @ blockmat(Xd @ X, -Xd, -X, z_ll))
    t3 = np.trace(adjoint_apply(kraus, blockmat(z_ss, Xd, X, X @ Xd)) @ low)
    t4 = np.trace(adjoint_apply(kraus, blockmat(z_ss, Xd, X, z_ll))
                  @ blockmat(z_ss, -Xd, -X, z_ll))
    return float(np.real(t1 + t2 + t3 + t4))


def objective_f_single_trace(kraus, s: int, X: np.ndarray) -> float:
    """Single-trace form: f(X) = tr(T*([I;X][I;X]^*) ([-X^*;I][-X^*;I]^*))."""
    k = kraus[0].shape[0]
    X = np.asarray(X, dtype=complex)
    left = np.concatenate([np.eye(s, dtype=complex), X], axis=0)
    right = np.concatenate([-X.conj().T, np.eye(k - s, dtype=complex)], axis=0)
    return float(np.real(np.trace(
        adjoint_apply(kraus, left @ left.conj().T) @ (right @ right.conj().T)
    )))


def quadratic_model_loop(kraus, s: int):
    """Linear term and Gram matrix of f, one basis block (pair) at a time.

    The real basis of (k-s) x s blocks is E_ab then i E_ab, row-major.  The
    linear term differences f on +-b_j; the Gram matrix polarizes the
    quadratic part q(x) = f(x) - f(0) - linear . x over all n^2 basis pairs.
    """
    k = kraus[0].shape[0]
    rows = k - s
    basis = []
    for a in range(rows):
        for b in range(s):
            e = np.zeros((rows, s), dtype=complex)
            e[a, b] = 1.0
            basis += [e, 1j * e]
    n = len(basis)
    f0 = objective_f_expanded(kraus, s, np.zeros((rows, s)))
    linear = np.array([
        0.5 * (objective_f_expanded(kraus, s, bj) - objective_f_expanded(kraus, s, -bj))
        for bj in basis
    ])
    quad = [objective_f_expanded(kraus, s, b) - f0 - linear[j] for j, b in enumerate(basis)]
    gram = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            both = objective_f_expanded(kraus, s, basis[i] + basis[j])
            gram[i, j] = 0.5 * (both - f0 - linear[i] - linear[j] - quad[i] - quad[j])
    return linear, gram


# ---------------------------------------------------------------------------
# corner representation, one basis element at a time
# ---------------------------------------------------------------------------

def corner_rep_loop(kraus, basis: np.ndarray) -> np.ndarray:
    """rep[i, j] = Re tr(b_i* T(b_j)), with T(b_j) = sum_K K b_j K* per element.

    ``basis`` is the lifted Hermitian basis (n, k, k) of a corner; the Kraus
    operators are summed in list order, one input matrix at a time.
    """
    n = basis.shape[0]
    rep = np.zeros((n, n))
    for j in range(n):
        image = np.zeros_like(basis[j], dtype=complex)
        for K in kraus:
            image += K @ basis[j] @ K.conj().T
        rep[:, j] = np.real(np.einsum("nij,ij->n", basis.conj(), image))
    return rep


def leaves_invariant(kraus, basis: np.ndarray) -> bool:
    """Whether T(V M V) stays inside V M V, for V the span of ``basis``.

    ``basis`` holds orthonormal columns in C^k.  Every element b of the
    corner's trace-orthonormal Hermitian basis (E_ii, then (E_ij + E_ji)/sqrt 2
    and i(E_ji - E_ij)/sqrt 2 for i < j, lifted by ``basis``) must satisfy
    T(b) == V T(b) V, entrywise to 1e-10 times the Kraus-norm bound
    max(1, sum_K ||K||_F^2) on ||T||.  A map that is not square on C^k fails.
    """
    basis = np.asarray(basis, dtype=complex)
    k, s = basis.shape
    if any(np.shape(K) != (k, k) for K in kraus):
        return False
    P = basis @ basis.conj().T
    bound = max(1.0, sum(float(np.sum(np.abs(K) ** 2)) for K in kraus))
    defect = 0.0
    for i in range(s):
        for j in range(i, s):
            for phase in ((1.0,) if i == j else (1.0, 1j)):
                E = np.zeros((s, s), dtype=complex)
                E[j, i] = phase
                E = (E + E.conj().T) / (2.0 if i == j else np.sqrt(2.0))
                b = basis @ E @ basis.conj().T
                image = sum(K @ b @ K.conj().T for K in kraus)
                defect = max(defect, np.abs(image - P @ image @ P).max())
    return defect <= 1e-10 * bound


# ---------------------------------------------------------------------------
# rectangular embedding, assembled entrywise from the defining formula
# ---------------------------------------------------------------------------

def embed_direct(rho: np.ndarray, k: int, m: int) -> np.ndarray:
    """B~ = sum_i (Id_m (x) C_i) (x) (D_i (x) Id_k), without any SVD.

    The expansion is linear in B = sum_i C_i (x) D_i, so the embedded entries
    follow from pure index bookkeeping:
    B~[((p,q),(r,s)), ((p',q'),(r',s'))] = d_{pp'} d_{ss'} B[(q,r),(q',l')].
    """
    rho = np.asarray(rho, dtype=complex)
    n = m * k
    out = np.zeros((n * n, n * n), dtype=complex)
    for p in range(m):
        for q in range(k):
            for r in range(m):
                for s in range(k):
                    row = (p * k + q) * n + (r * k + s)
                    for qp in range(k):
                        for rp in range(m):
                            col = (p * k + qp) * n + (rp * k + s)
                            out[row, col] = rho[q * m + r, qp * m + rp]
    return out


def full_rank_vector_loop(
    basis: np.ndarray, k: int, m: int, rng: np.random.Generator, rank_rel: float
) -> np.ndarray | None:
    """The full-tensor-rank range vector search, one sample at a time.

    Tries the normalized entangled sum when square and in the span of the
    orthonormal ``basis``; otherwise draws 64 complex-Gaussian
    coefficient vectors (real, then imaginary part), normalizes each
    combination, and keeps the first one with the largest smallest singular
    value among those of full numerical rank ``min(k, m)``.
    """
    r = basis.shape[1]
    if r == 0:
        return None
    target = min(k, m)
    if k == m:
        u = np.eye(k, dtype=complex).reshape(k * k)
        u = u / np.linalg.norm(u)
        residual = u - basis @ (basis.conj().T @ u)
        if np.linalg.norm(residual) <= 1e-10:
            return u
    best_v = None
    best_sigma = 0.0
    for _ in range(64):
        coeff = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        v = basis @ coeff
        norm = np.linalg.norm(v)
        if norm < 1e-14:
            continue
        v = v / norm
        sv = np.linalg.svd(v.reshape(k, m), compute_uv=False)
        if sv[0] <= 0.0:
            continue
        if int(np.count_nonzero(sv > rank_rel * sv[0])) == target:
            if sv[-1] > best_sigma:
                best_sigma = float(sv[-1])
                best_v = v
    return best_v


# ---------------------------------------------------------------------------
# the irreducible-corner search with a dense Perron analysis of every corner
# ---------------------------------------------------------------------------

def dense_corner_search(T, V, tol):
    """The irreducible corner ``(V, lam, delta)`` found with no Arnoldi search.

    ``decide.find_irreducible_corner`` as it was before its Arnoldi path:
    every candidate corner gets the package's dense ``maps._corner_perron``
    (representation, ``eigvals`` and one SVD); a rank-deficient Perron vector
    (after the boundary step for a degenerate root) cuts the corner to its
    image, and the adjoint's Perron vector returns the corner or cuts it by
    its kernel.  Perron data are in corner coordinates: each cut is lifted by
    the corner basis ``b``, and so is the returned ``delta``.
    """
    from filternorm.linalg import gap_split, projector_onto, rank_eps
    from filternorm.maps import _boundary_rank_drop, _corner_perron, corner_rep

    current = V
    for _ in range(V.rank):
        if current.rank == 1:
            lam = float(corner_rep(T, current)[0, 0])
            if lam <= tol.rank_rel:
                raise ValueError("the map vanishes on a candidate corner")
            return current, lam, current.matrix
        lam, space, gamma, delta = _corner_perron(T, current, tol)
        if gamma is None:
            raise RuntimeError("no PSD Perron eigenvector in the top eigenspace")
        full = rank_eps(gamma, tol) == current.rank
        if full and space.shape[0] > 1:
            gamma = _boundary_rank_drop(space, gamma, tol)
            full = False
        b = current.basis
        if not full:
            current = projector_onto(b @ gap_split(gamma, tol)[0])
            continue
        if delta is None:
            raise RuntimeError(
                "compressed adjoint has no PSD eigenvector at the spectral radius"
            )
        if rank_eps(delta, tol) == current.rank:
            return current, lam, b @ delta @ b.conj().T
        current = projector_onto(b @ gap_split(delta, tol)[1])
    raise RuntimeError("irreducible corner search did not terminate")
