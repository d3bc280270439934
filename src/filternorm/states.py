"""Bipartite states on C^k (x) C^m and their associated completely positive maps.

The Kronecker convention is row-major: basis vector ``e_i (x) f_j`` sits at
index ``i*m + j`` (0-based), so ``numpy.kron`` and ``reshape(k, m)`` agree with
the on-disk matrix layout.  A state's map acts as ``T(X) = G_rho(X^t)`` where
``G_rho(Y) = sum_i tr(A_i Y) B_i`` for any expansion ``rho = sum_i A_i (x) B_i``;
in Kraus form the operators are the transposed coefficient matrices of the
spectral decomposition, which makes ``rho`` the Choi matrix of ``T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    Tolerances,
    _cholesky_psd_abs,
    _psd_spectrum,
    _tol,
    mirror_hermitian,
    rank_eps,
)
from .maps import CpMap

__all__ = [
    "NotPositiveError",
    "BipartiteState",
    "maximally_entangled",
    "diagonal_state",
    "random_state",
    "partial_transpose",
    "is_ppt",
    "partial_trace_first",
    "partial_trace_second",
    "vec_to_matrix",
    "find_full_rank_vector",
    "state_to_map",
    "apply_filter",
    "embed_rectangular",
]


class NotPositiveError(ValueError):
    """The matrix is well-formed but not a positive semidefinite operator: not
    Hermitian, not PSD, or (where the decision needs it) not PPT."""


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """PSD operator on ``C^k (x) C^m``.

    Attributes
    ----------
    k, m : int
        Local dimensions of the two tensor factors.
    rho : ndarray (k*m, k*m)
        The (Hermitian, PSD) matrix; mirrored to exact conjugate symmetry at
        construction.  The trace is NOT normalized.  A matrix that is not
        Hermitian or not PSD raises :class:`NotPositiveError`.  The PSD gate
        is a shifted Cholesky where that proves it passes, and the spectrum's
        test otherwise.
    """

    k: int
    m: int
    rho: np.ndarray
    # the k x m state that embed_rectangular embedded into this one, if any
    _factor: BipartiteState | None = field(default=None, init=False, repr=False)
    # the psd_abs down to which the constructor's shifted Cholesky proved rho PSD
    _psd_proof: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.k < 1 or self.m < 1:
            raise ValueError("local dimensions must be at least 1")
        rho = np.asarray(self.rho, dtype=complex)
        n = self.k * self.m
        if rho.shape != (n, n):
            raise ValueError(f"state matrix must be {n} x {n}, got {rho.shape}")
        if not np.all(np.isfinite(rho)):
            raise ValueError("state matrix contains non-finite entries")
        herm_resid = np.abs(rho - rho.conj().T).max()
        if herm_resid > 1e-8 * max(1.0, np.abs(rho).max()):
            raise NotPositiveError("state matrix is not Hermitian")
        object.__setattr__(self, "rho", mirror_hermitian(rho))
        object.__setattr__(self, "_psd_proof", _cholesky_psd_abs(self.rho))
        if self._psd_proof is None and not _psd_spectrum(self.spectrum):
            raise NotPositiveError("state matrix is not positive semidefinite")

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of ``rho`` in ascending order, by ``eigvalsh`` on first
        use (the PSD gate needs them only where its Cholesky proves nothing);
        an embedded state repeats its factor's, which are exact."""
        if self._factor is not None:
            return np.repeat(self._factor.spectrum, self.k)
        return np.linalg.eigvalsh(self.rho)

    @cached_property
    def pt_spectrum(self) -> np.ndarray:
        """Eigenvalues of :func:`partial_transpose`, computed on first use; an
        embedded state's partial transpose embeds its factor's, so it repeats those."""
        if self._factor is not None:
            return np.repeat(self._factor.pt_spectrum, self.k)
        return np.linalg.eigvalsh(partial_transpose(self))

    @property
    def order(self) -> int:
        return self.k * self.m

    def blocks(self) -> np.ndarray:
        """View of ``rho`` as a ``(k, m, k, m)`` tensor."""
        return self.rho.reshape(self.k, self.m, self.k, self.m)


def maximally_entangled(k: int) -> BipartiteState:
    """The projection onto ``sum_i e_i (x) e_i``, normalized to unit trace."""
    u = np.eye(k, dtype=complex).reshape(k * k)
    return BipartiteState(k=k, m=k, rho=np.outer(u, u.conj()) / k)


def diagonal_state(weights: np.ndarray) -> BipartiteState:
    """Diagonal state ``sum_ij w[i, j] E_ii (x) F_jj`` from a nonnegative array."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or np.any(w < 0) or not np.any(w > 0):
        raise ValueError("weights must be a nonnegative 2-d array with some mass")
    k, m = w.shape
    return BipartiteState(k=k, m=m, rho=np.diag(w.reshape(k * m)).astype(complex))


def random_state(
    k: int, m: int, rank: int | None = None, rng: np.random.Generator | None = None
) -> BipartiteState:
    """Random unit-trace state of the given rank (Gram matrix of Gaussian vectors)."""
    rng = np.random.default_rng() if rng is None else rng
    n = k * m
    r = n if rank is None else rank
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    rho = g @ g.conj().T
    return BipartiteState(k=k, m=m, rho=rho / np.trace(rho).real)


def partial_transpose(state: BipartiteState) -> np.ndarray:
    """Transpose on the second factor; Hermitian, trace preserved, involutive."""
    return (
        state.blocks()
        .transpose(0, 3, 2, 1)
        .reshape(state.order, state.order)
        .copy()
    )


def is_ppt(state: BipartiteState, tol: Tolerances | None = None) -> bool:
    """Whether the state has a positive partial transpose.

    Reads the spectra the state keeps, so the partial transpose is factored
    at most once per state; ``rho`` itself is not factored where the
    constructor's Cholesky proof holds under ``tol``.
    """
    proof = state._psd_proof
    psd = proof is not None and proof <= _tol(tol).psd_abs
    return (psd or _psd_spectrum(state.spectrum, tol)) and _psd_spectrum(
        state.pt_spectrum, tol
    )


def partial_trace_first(state: BipartiteState) -> np.ndarray:
    """Trace out the first factor: an ``m x m`` matrix."""
    return np.einsum("ijil->jl", state.blocks())


def partial_trace_second(state: BipartiteState) -> np.ndarray:
    """Trace out the second factor: a ``k x k`` matrix."""
    return np.einsum("ijlj->il", state.blocks())


def vec_to_matrix(v: np.ndarray, k: int, m: int) -> np.ndarray:
    """Coefficient matrix of a vector: entry ``(i, j)`` multiplies ``e_i (x) f_j``."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != k * m:
        raise ValueError(f"vector length {v.size} does not match {k}*{m}")
    return v.reshape(k, m)


def find_full_rank_vector(
    state: BipartiteState,
    rng: np.random.Generator | None = None,
    tol: Tolerances | None = None,
) -> np.ndarray | None:
    """Search the range for a vector of full tensor rank ``min(k, m)``.

    Tries the canonical vector ``sum_i e_i (x) e_i`` first (when square and
    inside the range, it anchors to a scalar filter, so downstream quantities
    are reproducible run to run); otherwise draws 64 complex-Gaussian
    combinations of a range basis from ``rng`` (default seed 0) and keeps the
    one whose coefficient matrix is best conditioned (largest smallest
    singular value relative to its norm), normalized.  Returns ``None`` when
    no sample reaches full tensor rank — absence of a witness, not proof that
    none exists.
    """
    tol = _tol(tol)
    rng = np.random.default_rng(0) if rng is None else rng
    _, basis = _range(*_eigh(state), tol)
    return _full_rank_vector(basis, state.k, state.m, rng, tol)


def _eigh(state: BipartiteState) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(state.rho)``, whose eigenvalues fill the state's
    ``spectrum`` if it is still empty; an embedded state lifts its factor's
    ``rho = U diag(w) U*`` to the eigenvectors ``Id_m (x) U (x) Id_k`` and
    ``w`` repeated alike, put in ascending order by one stable sort."""
    factor = state._factor
    if factor is None:
        eigs, vecs = np.linalg.eigh(state.rho)
        vars(state).setdefault("spectrum", eigs)
        return eigs, vecs
    w, u = _eigh(factor)
    k, m = factor.k, factor.m
    eigs = np.tile(np.repeat(w, k), m)
    order = np.argsort(eigs, kind="stable")
    return eigs[order], np.kron(np.kron(np.eye(m), u), np.eye(k))[:, order]


def _range(
    eigs: np.ndarray, vecs: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues above ``rank_rel`` of the top one, and their eigenvectors.

    From the ``eigh`` of a state, this is its range and spectral expansion;
    one factorization serves :func:`find_full_rank_vector`, the anchor's
    range check and :func:`state_to_map`.
    """
    keep = eigs > tol.rank_rel * float(eigs.max(initial=0.0))
    return eigs[keep], vecs[:, keep]


def _full_rank_vector(
    basis: np.ndarray, k: int, m: int, rng: np.random.Generator, tol: Tolerances
) -> np.ndarray | None:
    """The search of :func:`find_full_rank_vector` in an orthonormal range basis.

    The 64 samples come from one draw (real, then imaginary parts) and one
    stacked SVD ranks them.  Each is normalized by its own norm, so it has the
    bits of a sample drawn alone, and ties (all samples score alike on a
    rank-one range or when ``k`` or ``m`` is one) go to the first.
    """
    r = basis.shape[1]
    if r == 0:
        return None
    if k == m:
        u = np.eye(k, dtype=complex).reshape(k * k)
        u = u / np.linalg.norm(u)
        residual = u - basis @ (basis.conj().T @ u)
        if np.linalg.norm(residual) <= 1e-10:
            return u
    draws = rng.standard_normal((64, 2, r))
    coeffs = draws[:, 0] + 1j * draws[:, 1]
    vs = (basis @ coeffs[..., None])[..., 0]
    vs = vs / np.array([np.linalg.norm(v) for v in vs])[:, None]
    sv = np.linalg.svd(vs.reshape(-1, k, m), compute_uv=False)
    full = np.count_nonzero(sv > tol.rank_rel * sv[:, :1], axis=1) == min(k, m)
    if not full.any():
        return None
    return vs[np.argmax(np.where(full, sv[:, -1], 0.0))]


def state_to_map(state: BipartiteState, tol: Tolerances | None = None) -> CpMap:
    """The CP map ``T(X) = G_rho(X^t)`` whose Choi matrix is the state.

    Kraus operators are the transposed coefficient matrices of the spectral
    vectors (eigenvalues below ``rank_rel`` of the top are dropped).
    """
    eigs, vecs = _range(*_eigh(state), _tol(tol))
    return _spectral_map(eigs, vecs, state.k, state.m)


def _spectral_map(eigs: np.ndarray, vecs: np.ndarray, k: int, m: int) -> CpMap:
    """The map of :func:`state_to_map` from the spectrum kept by :func:`_range`."""
    if eigs.size == 0:
        raise ValueError("the zero state has no associated map")
    coeffs = (np.sqrt(eigs) * vecs).T.reshape(-1, k, m)
    return CpMap(src_dim=k, dst_dim=m, kraus=np.ascontiguousarray(coeffs.swapaxes(1, 2)))


def apply_filter(
    state: BipartiteState,
    R: np.ndarray,
    S: np.ndarray,
    tol: Tolerances | None = None,
) -> BipartiteState:
    """Congruence by a local filter: ``(R (x) S) rho (R (x) S)*``.

    Both factors must be invertible (this is a filtering operation, not a
    measurement), so ranks and tensor ranks are preserved.  Each factor acts
    on its own axes of the ``(k, m, k, m)`` tensor; ``R (x) S`` is not formed.
    """
    tol = _tol(tol)
    R = np.asarray(R, dtype=complex)
    S = np.asarray(S, dtype=complex)
    if R.shape != (state.k, state.k) or S.shape != (state.m, state.m):
        raise ValueError("filter shapes must match the local dimensions")
    if rank_eps(R, tol) < state.k or rank_eps(S, tol) < state.m:
        raise ValueError("filters must be invertible")
    k, m = state.k, state.m
    rho = (S @ (R @ state.rho.reshape(k, -1)).reshape(k, m, -1)).reshape(-1, k, m)
    rho = (R.conj() @ rho).reshape(-1, m) @ S.conj().T
    return BipartiteState(k=k, m=m, rho=rho.reshape(k * m, k * m))


def embed_rectangular(state: BipartiteState) -> BipartiteState:
    """Embed a ``k (x) m`` state into a square ``mk (x) mk`` one.

    The embedded state equals ``Id_m (x) rho (x) Id_k``, read on
    ``(C^m (x) C^k) (x) (C^m (x) C^k)``; in operator Schmidt terms it is
    ``sum_n w_n (Id_m (x) C_n) (x) (D_n (x) Id_k)``.  It is PSD, inherits the
    PPT property, and its decision problem matches the rectangular original.
    The result keeps ``state``: its spectra and ``eigh`` are the factor's,
    each value repeated ``mk`` times, so no ``(mk)^2 x (mk)^2`` matrix is
    factored.  It is exactly Hermitian and passes the PSD gate with the
    factor's proof (the same eigenvalues and the same diagonal entries), so
    it is not checked again.
    """
    k, m = state.k, state.m
    emb = object.__new__(BipartiteState)
    rho = np.kron(np.kron(np.eye(m), state.rho), np.eye(k))
    for name, value in (("k", m * k), ("m", m * k), ("rho", rho), ("_factor", state),
                        ("_psd_proof", state._psd_proof)):
        object.__setattr__(emb, name, value)
    return emb
