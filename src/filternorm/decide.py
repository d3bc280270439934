"""Deciding whether a PPT state's map is equivalent to a doubly stochastic one.

Pipeline: anchor a full-tensor-rank range vector at the maximally entangled
vector (so the associated map never shrinks images), then repeatedly locate an
irreducible invariant corner, solve a real quadratic program for the paired
invariant block of the adjoint map, and realign that block onto the orthogonal
complement.  The state admits a filter normal form exactly when every corner
found this way pairs up; the first failure is returned as a witness (either a
degenerate Gram matrix — no unique paired block — or a strictly positive
minimum of the objective — no paired block at all).  A definite state's map
is strictly positive, so the whole space is its only corner (Gurvits, 2004):
a Cholesky of ``rho - sqrt(rank_rel) max(diag rho) Id`` proving it skips the
search.  Nearer the boundary the search's cutoffs may read another rank, and
above ``k^2 = 64`` the proof and the dense root cost more than Arnoldi's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Projection,
    Tolerances,
    _cholesky_psd_abs,
    _numerical_rank,
    _tol,
    dagger,
    gap_split,
    hermitian_sqrt_pinv,
    identity_projection,
    image_basis,
    mirror_hermitian,
    orthogonal_complement,
    projection_from_matrix,
    projector_onto,
    rank_eps,
    same_subspace,
    subspace_intersection,
)
from .maps import (
    _ARNOLDI_CHECKPOINTS,
    CpMap,
    _filter_stack,
    _invariance_defect,
    _perron_data,
    _top_eigenvalue,
    adjoint,
    apply,
    conjugate,
    corner_rep,
    is_irreducible,
    kraus_norm,
)
from .states import (
    BipartiteState,
    NotPositiveError,
    _factor_map,
    _full_rank_vector,
    is_ppt,
    vec_to_matrix,
)

__all__ = [
    "OUTCOME_EQUIVALENT",
    "OUTCOME_NOT_EQUIVALENT",
    "OUTCOME_INCONCLUSIVE",
    "STAGE_NO_FULL_RANK_VECTOR",
    "STAGE_GRAM_NOT_PD",
    "STAGE_F_MIN_POSITIVE",
    "QuadraticModel",
    "BlockCertificate",
    "FailureWitness",
    "Verdict",
    "AdjointBlockResult",
    "anchor_transform",
    "find_irreducible_corner",
    "normalize_corner",
    "adjoint_block_quadratic",
    "solve_adjoint_block",
    "alignment_transform",
    "decide_equivalence",
]

OUTCOME_EQUIVALENT = "equivalent"
OUTCOME_NOT_EQUIVALENT = "not_equivalent"
OUTCOME_INCONCLUSIVE = "inconclusive"

STAGE_NO_FULL_RANK_VECTOR = "no-full-rank-vector"
STAGE_GRAM_NOT_PD = "gram-not-positive-definite"
STAGE_F_MIN_POSITIVE = "f-minimum-positive"


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """Real quadratic ``f(x) = constant + linear . x + x^T gram x``.

    ``n = 2 s (k - s)`` real coordinates parameterize a complex
    ``(k - s) x s`` block; ``gram`` is symmetric.
    """

    n: int
    gram: np.ndarray
    linear: np.ndarray
    constant: float

    def __post_init__(self) -> None:
        if self.gram.shape != (self.n, self.n) or self.linear.shape != (self.n,):
            raise ValueError("quadratic model shapes are inconsistent")
        if self.n:
            asym = np.abs(self.gram - self.gram.T).max()
            if asym > 1e-12 * max(1.0, np.abs(self.gram).max()):
                raise ValueError("gram matrix is not symmetric")

    def evaluate(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float).reshape(self.n)
        return float(self.constant + self.linear @ x + x @ self.gram @ x)


@dataclass(frozen=True, eq=False)
class BlockCertificate:
    """Witness data for an equivalent verdict.

    The certified blocks are the verdict's :attr:`Verdict.blocks`.

    Attributes
    ----------
    accumulated_transform : ndarray (k, k)
        Product ``Q`` of all alignment transforms; the final map is the
        anchored map conjugated by ``Q``, which is its left congruence.
    final_map : CpMap
        The block-diagonal map the scaling stage consumes.
    prefilter : ndarray (k, k)
        The anchoring filter ``P`` applied to the first factor of the input
        state before any alignment happened.
    """

    accumulated_transform: np.ndarray
    final_map: CpMap
    prefilter: np.ndarray


@dataclass(frozen=True, eq=False)
class FailureWitness:
    """Why the decision came out negative (or could not start)."""

    stage: str
    projection: Projection | None
    min_f: float | None
    gram_min_eig: float | None


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of the decision procedure.

    ``blocks`` lists the corners found before the procedure stopped, each with
    the corner spectral radius of the map on it; for an equivalent verdict
    they are mutually orthogonal irreducible corners summing to the identity.
    ``certificate`` is present exactly for equivalent outcomes, ``witness``
    exactly for the other two.
    """

    outcome: str
    blocks: tuple[tuple[Projection, float], ...]
    iterations: int
    certificate: BlockCertificate | None = None
    witness: FailureWitness | None = None


@dataclass(frozen=True, eq=False)
class AdjointBlockResult:
    """Outcome of the paired-block search for one corner."""

    W: Projection | None
    min_f: float | None
    gram_min_eig: float | None
    model: QuadraticModel


# ---------------------------------------------------------------------------
# anchoring
# ---------------------------------------------------------------------------


def anchor_transform(
    state: BipartiteState, v: np.ndarray, tol: Tolerances | None = None
) -> tuple[np.ndarray, CpMap]:
    """Filter the first factor so ``v`` becomes the maximally entangled vector.

    ``v`` must lie in the range of the state and have full tensor rank; the
    returned ``P`` is the inverse of its coefficient matrix.  The filter acts
    on the Kraus operators: the returned map is :func:`state_to_map`'s with
    the stack ``K -> K P^t``, the map of ``(P (x) Id) rho (P (x) Id)*``, which
    is never formed; the products cancel an ill-conditioned ``P``, which a
    congruence on the stack's superoperator would not.  An embedded state's
    map takes ``P^t`` as its right congruence.  This map satisfies
    ``Im T(X) >= Im X`` for PSD inputs, and it is the map
    :func:`decide_equivalence` decides on.
    """
    tol = _tol(tol)
    if state.k != state.m:
        raise ValueError("anchoring requires a square state")
    T, basis = _factor_map(state, tol)
    return _anchor_filter(v, T, basis, state.k, tol)


def _anchor_filter(
    v: np.ndarray, T: CpMap, basis: np.ndarray | None, k: int, tol: Tolerances
) -> tuple[np.ndarray, CpMap]:
    """``P`` and the anchored map of :func:`anchor_transform`, from the
    state's map and range basis as ``states._factor_map`` gives them."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    coeff = vec_to_matrix(v, k, k)
    if rank_eps(coeff, tol) < k:
        raise ValueError("anchor vector does not have full tensor rank")
    if basis is not None:
        resid = np.linalg.norm(basis @ (basis.conj().T @ v) - v)
        if resid > 1e-8 * np.linalg.norm(v):
            raise ValueError("anchor vector is not in the range of the state")
    P = np.linalg.inv(coeff)
    return P, _filter_stack(T, P.T)


# ---------------------------------------------------------------------------
# irreducible corner search
# ---------------------------------------------------------------------------


def find_irreducible_corner(
    T: CpMap, V: Projection, tol: Tolerances | None = None
) -> tuple[Projection, float, np.ndarray]:
    """Shrink an invariant corner until the restricted map is irreducible.

    Returns the final corner, the spectral radius of the map on it and the
    full-rank PSD trace-one Perron vector ``delta`` of the compressed adjoint
    there, which :func:`solve_adjoint_block` takes.  The rank strictly
    decreases at every shrink, so the search terminates after at most
    ``rank(V)`` rounds.

    Each round is one ``maps._perron_data`` call, which picks the Arnoldi or
    the dense analysis, and at most one cut, made in corner coordinates and
    lifted by the corner basis (as ``delta`` is on return).
    """
    tol = _tol(tol)
    if T.src_dim != T.dst_dim or T.src_dim != V.dim:
        raise ValueError("find_irreducible_corner requires a square map matching V")
    current, search = V, True
    for _ in range(V.rank):
        lam, gamma, delta = _perron_data(T, current, tol, search)
        b = current.basis
        # a rank-deficient Perron vector spans a smaller corner (cut at its widest
        # gap), on which it is definite: no Arnoldi cut search there
        if rank_eps(gamma, tol) < current.rank:
            current, search = projector_onto(b @ gap_split(gamma, tol)[0]), False
            continue
        # the compressed adjoint's Perron vector: full rank means irreducible,
        # otherwise its kernel cuts out a smaller invariant corner
        if delta is None:
            raise RuntimeError(
                "compressed adjoint has no PSD eigenvector at the spectral radius"
            )
        if rank_eps(delta, tol) == current.rank:
            return current, lam, b @ delta @ dagger(b)
        current, search = projector_onto(b @ gap_split(delta, tol)[1]), True
    raise RuntimeError("irreducible corner search did not terminate")


# ---------------------------------------------------------------------------
# corner normalization
# ---------------------------------------------------------------------------


def normalize_corner(
    T: CpMap, V: Projection, lam: float, delta: np.ndarray, tol: Tolerances | None = None
) -> tuple[np.ndarray, CpMap, int]:
    """Rotate an irreducible corner to the leading block and fix the adjoint.

    Builds ``Q = [sqrt(delta_s) b*; perp*]`` where ``delta`` is the full-rank
    Perron eigenvector of the compressed adjoint on the corner (as
    :func:`find_irreducible_corner` returns it), ``delta_s = b* delta b`` its
    compression by the corner basis ``b`` and ``perp`` a complement basis.
    The conjugated, ``1/lam``-scaled map ``T_1``
    then leaves the leading ``s x s`` block invariant, has corner spectral
    radius one there, and satisfies ``V_1 T_1*(V_1) V_1 = V_1``.

    Returns ``(Q, T_1, s)``.
    """
    tol = _tol(tol)
    if lam <= 0:
        raise ValueError("corner spectral radius must be positive")
    k = T.src_dim
    b = V.basis
    delta_s = dagger(b) @ delta @ b
    if rank_eps(delta_s, tol) != V.rank:
        raise ValueError(
            "corner is not irreducible: adjoint Perron vector is rank-deficient"
        )
    sqrt_delta, _ = hermitian_sqrt_pinv(delta_s, tol)
    Q = np.concatenate([sqrt_delta @ dagger(b), dagger(orthogonal_complement(V, tol))])
    T1 = conjugate(T, Q, 1.0 / lam, tol)
    s = V.rank

    # postconditions (loose guards; failures indicate a broken precondition)
    lead = projector_onto(np.eye(k, dtype=complex)[:, :s])
    lam1 = _top_eigenvalue(corner_rep(T1, lead), tol)
    if abs(lam1 - 1.0) > 1e-8:
        raise RuntimeError("corner normalization failed: spectral radius is not one")
    v1 = lead.matrix
    fixed = v1 @ apply(adjoint(T1), v1) @ v1
    if np.abs(fixed - v1).max() > 1e-8 * max(1.0, kraus_norm(T1)):
        raise RuntimeError("corner normalization failed: adjoint fixed point is off")
    return Q, T1, s


# ---------------------------------------------------------------------------
# quadratic model for the paired adjoint block
# ---------------------------------------------------------------------------


def _real_block_basis(rows: int, cols: int) -> np.ndarray:
    """Real basis of complex ``rows x cols`` blocks: (E_ab, i E_ab) pairs, row-major.

    Shape ``(2 * rows * cols, rows, cols)``.
    """
    units = np.eye(rows * cols).reshape(-1, rows, cols)
    return np.stack([units, 1j * units], axis=1).reshape(-1, rows, cols)


def _trace(M: np.ndarray) -> np.ndarray:
    """Trace of each matrix in a stack."""
    return np.trace(M, axis1=-2, axis2=-1)


def adjoint_block_quadratic(T1: CpMap, s: int) -> QuadraticModel:
    """Quadratic objective whose zeros locate the paired adjoint block.

    For a normalized map ``T_1`` with leading invariant ``s x s`` corner, the
    objective over complex ``(k - s) x s`` blocks ``X``

        f(X) = tr( T_1*([[Id, X*], [X, X X*]]) . [[X*X, -X*], [-X, Id]] )

    collapses to a real quadratic.  The constant comes from the expansion's
    X-free term, the linear part from the upper-right blocks of
    ``T_1(low)`` and ``T_1*(V_1)`` (no map evaluation per basis block), and
    the Gram matrix from the associated bilinear form, contracted over all
    basis pairs at once.  The original expression above, the only reference,
    is re-evaluated at 30 random points as a mandatory cross-check: the
    expansion holds only under the normalization's preconditions, so a
    mismatch (RuntimeError) means ``T_1`` violates them, most often by not
    keeping the leading corner invariant.
    """
    k = T1.src_dim
    ns = k - s
    if not 0 <= ns <= k:
        raise ValueError("invalid corner size")
    n = 2 * s * ns
    T1a = adjoint(T1)

    v1 = np.diag(np.arange(k) < s).astype(complex)
    low = np.eye(k) - v1

    A = mirror_hermitian(apply(T1a, v1))
    image_low = apply(T1, low)
    lam_low = image_low[s:, s:]
    constant = float(np.real(np.trace(A[s:, s:])))

    if n == 0:
        return QuadraticModel(
            n=0, gram=np.zeros((0, 0)), linear=np.zeros(0), constant=constant
        )

    # f and its pieces act on stacks of blocks X (N, k - s, s)
    def off(X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape[:-2] + (k, k), dtype=complex)
        out[..., :s, s:] = dagger(X)
        out[..., s:, :s] = X
        return out

    def f_original(X: np.ndarray) -> np.ndarray:
        eye = np.broadcast_to(np.eye(s), X.shape[:-2] + (s, s))
        lead = np.concatenate([eye, X], axis=-2)
        trail = np.concatenate(
            [-dagger(X), np.broadcast_to(np.eye(ns), X.shape[:-2] + (ns, ns))], axis=-2
        )
        return np.real(_trace(apply(T1a, lead @ dagger(lead)) @ (trail @ dagger(trail))))

    basis = _real_block_basis(ns, s)
    # linear term -tr(A_up X) - tr(A_low X*) + tr(T1*(off X)[low]); the adjoint pairing
    # makes the last tr(T1(low) off X), so it is 2 Re tr(M X), M = (T1(low) - A)_up
    M = (image_low - A)[:s, s:]
    linear = 2.0 * np.real(np.einsum("iab,ba->i", basis, M))

    # Gram matrix from the bilinear form of the quadratic part, entry (i, j)
    #   tr(A_lead b_i* b_j) + tr(b_i b_j* Lam_low) + tr(b_i* C_j[low]) + tr(b_i C_j[up])
    # with C_j = T1(-off(b_j)).  Every basis block has a single unit entry, so
    # each contraction picks one matrix entry and is exact in floating point;
    # the last two are -conj(E) S E^t, E_j = off(b_j) flattened: two entries each
    # (a map with an embedded core assembles S here, on first read).
    t1 = (basis.conj() @ A[:s, :s].T).reshape(n, -1) @ basis.reshape(n, -1).T
    t2 = (lam_low @ basis).reshape(n, -1) @ basis.conj().reshape(n, -1).T
    E = off(basis).reshape(n, k * k)
    pos = np.nonzero(E)[1].reshape(n, 2)
    coef = E[np.arange(n)[:, None], pos]
    entries = T1.superop[pos[:, :, None, None], pos]
    t3 = -np.einsum("ip,jq,ipjq->ij", coef.conj(), coef, entries)
    raw = np.real(t1 + t2 + t3)
    gram = 0.5 * (raw + raw.T)

    model = QuadraticModel(n=n, gram=gram, linear=linear, constant=constant)

    # mandatory cross-check against the original objective
    x = np.random.default_rng(2026).standard_normal((30, n))
    want = f_original(_coords_to_block(x, ns, s))
    got = constant + x @ linear + ((x @ gram) * x).sum(1)
    scale = np.maximum(1.0, np.maximum(np.abs(want), np.abs(got)))
    if np.any(np.abs(got - want) > 1e-8 * scale):
        raise RuntimeError(
            "quadratic model cross-check failed: the normalized map violates "
            "its invariance preconditions"
        )
    return model


def _coords_to_block(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of the real-basis flattening used by the quadratic model.

    Maps coordinates ``(..., 2 * rows * cols)`` to blocks ``(..., rows, cols)``.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape[:-1] + (rows, cols)
    return x[..., 0::2].reshape(shape) + 1j * x[..., 1::2].reshape(shape)


def solve_adjoint_block(
    T: CpMap, V: Projection, lam: float, delta: np.ndarray, tol: Tolerances | None = None
) -> AdjointBlockResult:
    """Find the unique adjoint-invariant block paired with an irreducible corner.

    ``V``, ``lam`` and ``delta`` are what :func:`find_irreducible_corner`
    returns.

    Minimizes the quadratic objective; a positive-definite Gram matrix with a
    (numerically) zero minimum yields the block ``W`` as the image of
    ``Q* [Id; S]`` for the minimizing ``S``.  A degenerate Gram matrix or a
    positive minimum means no such block exists and the result carries the
    diagnostics instead.  A corner that is the whole space is its own paired
    block: the model then has no coordinates, and its constant, the trace of
    an empty block, is exactly zero.
    """
    tol = _tol(tol)
    k = T.src_dim
    Q, T1, s = normalize_corner(T, V, lam, delta, tol)
    model = adjoint_block_quadratic(T1, s)
    if s == k:
        return AdjointBlockResult(
            W=identity_projection(k), min_f=model.constant, gram_min_eig=None, model=model
        )

    eigs = np.linalg.eigvalsh(model.gram)
    gram_min = float(eigs[0])
    gram_max = float(eigs[-1])
    if gram_max <= 0.0 or gram_min <= tol.rank_rel * gram_max:
        return AdjointBlockResult(W=None, min_f=None, gram_min_eig=gram_min, model=model)

    x_star = -0.5 * np.linalg.solve(model.gram, model.linear)
    min_f = model.evaluate(x_star)
    if min_f > tol.zero_f:
        return AdjointBlockResult(W=None, min_f=min_f, gram_min_eig=gram_min, model=model)

    S = _coords_to_block(x_star, k - s, s)
    stacked = np.concatenate([np.eye(s, dtype=complex), S], axis=0)
    W = projector_onto(image_basis(Q.conj().T @ stacked, tol))

    _verify_paired_block(T, V, W, tol)
    return AdjointBlockResult(W=W, min_f=min_f, gram_min_eig=gram_min, model=model)


def _verify_paired_block(
    T: CpMap, V: Projection, W: Projection, tol: Tolerances
) -> None:
    """Guard the four defining properties of the paired block."""
    Ta = adjoint(T)
    guard = 1e-7 * kraus_norm(Ta)
    rank_ones = np.einsum("ip,jp->pij", W.basis, W.basis.conj())
    if _invariance_defect(apply(Ta, rank_ones), W.matrix) > guard:
        raise RuntimeError("paired block is not invariant under the adjoint map")
    if W.rank != V.rank:
        raise RuntimeError("paired block has the wrong rank")
    if not is_irreducible(Ta, W, tol):
        raise RuntimeError("paired block is not irreducible for the adjoint map")
    shared = subspace_intersection(orthogonal_complement(W, tol), V.basis, tol)
    if shared.shape[1] != 0:
        raise RuntimeError("paired block's kernel meets the corner nontrivially")


# ---------------------------------------------------------------------------
# block alignment
# ---------------------------------------------------------------------------


def alignment_transform(
    Vprime: Projection, V: Projection, W: Projection, tol: Tolerances | None = None
) -> np.ndarray:
    """Invertible ``R`` fixing ``Im(Id - V') + Im(V)`` pointwise and mapping
    ``Im(V' - W)`` onto ``Im(V' - V)`` by the polar factor of ``V' - V`` on
    it, so ``R`` depends on the subspaces alone, not on their bases.

    Ties are broken toward the identity: when ``W == V`` the identity already
    satisfies both conditions and is returned.
    """
    tol = _tol(tol)
    k = Vprime.dim
    for name, small, big in (("V", V, Vprime), ("W", W, Vprime)):
        resid = np.abs(big.matrix @ small.matrix - small.matrix).max()
        if resid > 1e-8:
            raise ValueError(f"Im({name}) is not contained in Im(V')")
    if V.rank != W.rank:
        raise ValueError("V and W must have equal rank")
    if same_subspace(W, V):
        return np.eye(k, dtype=complex)

    fixed_out = orthogonal_complement(Vprime, tol)
    fixed_in = V.basis
    moving_src = image_basis(Vprime.matrix - W.matrix, tol)
    u, sv, vh = np.linalg.svd((Vprime.matrix - V.matrix) @ moving_src, full_matrices=False)
    if _numerical_rank(sv, tol) < moving_src.shape[1]:
        raise ValueError("V' - V is singular on Im(V' - W)")
    moving_dst = u @ vh

    domain = np.concatenate([fixed_out, fixed_in, moving_src], axis=1)
    if domain.shape[1] != k or rank_eps(domain, tol) < k:
        raise ValueError("alignment direct sum collapsed (numerically singular)")
    image = np.concatenate([fixed_out, fixed_in, moving_dst], axis=1)
    R = image @ np.linalg.inv(domain)

    anchor = np.eye(k, dtype=complex) - Vprime.matrix + V.matrix
    if np.abs(R @ anchor - anchor).max() > 1e-7 * max(1.0, np.abs(R).max()):
        raise RuntimeError("alignment transform failed to fix the anchored subspace")
    return R


# ---------------------------------------------------------------------------
# the decision loop
# ---------------------------------------------------------------------------


_ANCHOR_DRAWS = 3  # anchors a decision tries before it raises a breakdown


def decide_equivalence(
    state: BipartiteState,
    v: np.ndarray | None = None,
    tol: Tolerances | None = None,
    rng: np.random.Generator | None = None,
) -> Verdict:
    """Decide whether the state's map is equivalent to a doubly stochastic map.

    The state must be square (``k == m``) and PPT; a state that is not PPT
    raises :class:`NotPositiveError` before ``rho`` is factored.  When no
    anchor vector ``v`` is supplied, :func:`find_full_rank_vector`'s search
    samples one from the range with the given ``rng`` (default seed 0); if
    none of full tensor rank is found (the zero state's range is empty) the
    verdict is inconclusive rather than negative.  The map decided on is
    :func:`anchor_transform`'s, built from the decision's single factor of
    ``rho``, a pivoted Cholesky one; an embedded state's reads its factor's
    Kraus stack through the embedding.  One whose own ``rho``, at most
    ``64 x 64`` (``k^2 <= 64``), is proved definite (module docstring) skips
    the corner search: one block, the whole space, the root the search reads
    first, one iteration, as the search answers.

    A numerical breakdown (``RuntimeError`` or ``ValueError``) under a
    sampled anchor says nothing about the state, so the loop runs again on a
    fresh sample, up to three anchors in all; a retried anchor's negative
    verdict needs a minimum above ``sqrt(rank_rel)`` times the quadratic
    model's constant, as a cancellation of the constant is how a breakdown
    shows up as a wrong negative.  If every anchor breaks down, the first
    breakdown is raised.  A supplied ``v`` is decided once.

    Returns a :class:`Verdict` whose certificate (for equivalent outcomes)
    carries everything the scaling stage needs.
    """
    tol = _tol(tol)
    if state.k != state.m:
        raise ValueError(
            "decision requires a square state; embed rectangular states first"
        )
    # the PPT gate reads the proofs and spectra the state keeps; then one
    # factor of rho gives the range and the Kraus operators
    if not is_ppt(state, tol):
        raise NotPositiveError("state is not PPT")
    T, basis = _factor_map(state, tol)
    k = state.k
    definite = (basis is None and k * k <= _ARNOLDI_CHECKPOINTS[-1]
                and _cholesky_psd_abs(state.rho, tol, definite=True) is not None)
    if v is not None:
        return _decide_anchored(v, T, basis, k, tol, retried=False, definite=definite)
    rng = np.random.default_rng(0) if rng is None else rng
    first = None
    for draw in range(_ANCHOR_DRAWS):
        v = _full_rank_vector(basis, k, k, rng, tol, canonical=not draw)
        if v is None:
            break
        try:
            return _decide_anchored(v, T, basis, k, tol, retried=draw > 0, definite=definite)
        except (RuntimeError, ValueError) as exc:
            first = exc if first is None else first
    if first is not None:
        raise first
    witness = FailureWitness(
        stage=STAGE_NO_FULL_RANK_VECTOR,
        projection=None,
        min_f=None,
        gram_min_eig=None,
    )
    return Verdict(
        outcome=OUTCOME_INCONCLUSIVE,
        blocks=(),
        iterations=0,
        witness=witness,
    )


def _decide_anchored(
    v: np.ndarray, T: CpMap, basis: np.ndarray | None, k: int, tol: Tolerances,
    retried: bool, definite: bool,
) -> Verdict:
    """The decision loop of :func:`decide_equivalence` under the anchor ``v``."""
    # anchoring filters the Kraus operators, K -> K P^t; rho is never rebuilt
    prefilter, T = _anchor_filter(v, T, basis, k, tol)
    Vprime = identity_projection(k)
    blocks: list[tuple[Projection, float]] = []

    iterations = 0
    while True:
        iterations += 1
        if iterations > k:
            raise RuntimeError("decision loop exceeded the dimension bound")
        V, lam, delta = ((Vprime, _top_eigenvalue(corner_rep(T, Vprime), tol), None)
                         if definite else find_irreducible_corner(T, Vprime, tol))
        if same_subspace(V, Vprime):
            blocks.append((V, lam))
            certificate = BlockCertificate(
                accumulated_transform=(np.eye(k, dtype=complex) if T.left is None
                                       else T.left),
                final_map=T,
                prefilter=prefilter,
            )
            return Verdict(
                outcome=OUTCOME_EQUIVALENT,
                blocks=tuple(blocks),
                iterations=iterations,
                certificate=certificate,
            )

        result = solve_adjoint_block(T, V, lam, delta, tol)
        if result.W is None:
            margin = np.sqrt(tol.rank_rel) * result.model.constant
            if retried and not (result.min_f is not None and result.min_f > margin):
                raise RuntimeError("retried anchor's negative verdict has no margin")
            stage = STAGE_GRAM_NOT_PD if result.min_f is None else STAGE_F_MIN_POSITIVE
            witness = FailureWitness(
                stage=stage,
                projection=V,
                min_f=result.min_f,
                gram_min_eig=result.gram_min_eig,
            )
            return Verdict(
                outcome=OUTCOME_NOT_EQUIVALENT,
                blocks=tuple(blocks),
                iterations=iterations,
                witness=witness,
            )

        R = alignment_transform(Vprime, V, result.W, tol)
        T = conjugate(T, R, 1.0, tol)
        blocks.append((V, lam))
        Vprime = projection_from_matrix(Vprime.matrix - V.matrix, tol)
