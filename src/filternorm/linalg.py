"""Tolerance-aware linear algebra primitives shared by the whole package.

Everything operates on plain complex ``numpy.ndarray`` matrices.  Rank-type
decisions use singular values with a cutoff *relative* to the largest singular
value; positivity checks use an absolute floor scaled by the spectral range.
The single :class:`Tolerances` bundle threads every numeric knob through the
package so a caller can tighten or relax the whole pipeline coherently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "Projection",
    "dagger",
    "mirror_hermitian",
    "hermitian_basis",
    "rank_eps",
    "image_basis",
    "kernel_basis",
    "gap_split",
    "subspace_intersection",
    "projector_onto",
    "projection_from_matrix",
    "identity_projection",
    "orthogonal_complement",
    "same_subspace",
    "psd_check",
    "hermitian_sqrt_pinv",
]


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds used across the package.

    Attributes
    ----------
    rank_rel : float
        Relative singular-value cutoff for rank decisions.  Also serves as the
        relative positive-definiteness threshold for the quadratic model's Gram
        matrix (both default to 1e-9; they are deliberately the same knob).
        Its square root is the relative cutoff for principal angles in
        :func:`subspace_intersection` and for the second-smallest singular
        value of the Newton system in the scaling loop, below which Newton
        steps are refused for the rest of the run.
    psd_abs : float
        Absolute eigenvalue floor (scaled by the spectral magnitude) below
        which a Hermitian matrix still counts as positive semidefinite.
    zero_f : float
        Threshold under which the minimized objective of the adjoint-block
        quadratic counts as an exact zero.
    sinkhorn_residual : float
        Doubly-stochastic residual target for the operator scaling loop.
    sinkhorn_max_iters : int
        Iteration cap for the operator scaling loop; Sinkhorn rounds and
        Newton steps each count as one iteration.
    """

    rank_rel: float = 1e-9
    psd_abs: float = 1e-9
    zero_f: float = 1e-8
    sinkhorn_residual: float = 1e-8
    sinkhorn_max_iters: int = 100000

    def __post_init__(self) -> None:
        for name in ("rank_rel", "psd_abs", "zero_f", "sinkhorn_residual"):
            if not getattr(self, name) > 0:
                raise ValueError(f"tolerance {name!r} must be positive")
        if not self.sinkhorn_max_iters > 0:
            raise ValueError("iteration cap 'sinkhorn_max_iters' must be positive")


DEFAULT_TOL = Tolerances()


def _tol(tol: Tolerances | None) -> Tolerances:
    return DEFAULT_TOL if tol is None else tol


def _as_matrix(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(mat)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr.astype(complex, copy=False)


def dagger(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack ``(n, rows, cols)``)."""
    return np.asarray(mat).conj().swapaxes(-1, -2)


@lru_cache(maxsize=64)
def _strict_lower(n: int) -> np.ndarray:
    """Read-only mask of the entries below the diagonal of an ``n x n`` matrix."""
    mask = np.tri(n, n, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def mirror_hermitian(mat: np.ndarray) -> np.ndarray:
    """Return the matrix with its lower triangle mirrored onto the upper one.

    The result is exactly conjugate-symmetric by construction (the diagonal is
    replaced by its real part), which keeps downstream eigensolvers honest.
    Adding ``0.0`` turns every negative zero positive, so the bits are those
    of ``tril(A, -1) + tril(A, -1)* + diag(Re diag A)``.
    """
    arr = _as_matrix(mat, "hermitian matrix")
    n = arr.shape[0]
    if arr.shape[1] != n:
        raise ValueError("hermitian matrix must be square")
    out = np.where(_strict_lower(n), arr, arr.conj().T) + 0.0
    out.imag.flat[:: n + 1] = 0.0
    return out


def hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal real basis of the Hermitian ``dim x dim`` matrices.

    Ordered as: ``dim`` diagonal units, then the ``dim(dim-1)/2`` real
    symmetric pairs, then the ``dim(dim-1)/2`` imaginary antisymmetric pairs.
    Orthonormal in the trace inner product.

    Returns
    -------
    ndarray of shape (dim*dim, dim, dim)
    """
    mats = np.zeros((dim * dim, dim, dim), dtype=complex)
    idx = 0
    for i in range(dim):
        mats[idx, i, i] = 1.0
        idx += 1
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            mats[idx, i, j] = inv_sqrt2
            mats[idx, j, i] = inv_sqrt2
            idx += 1
    for i in range(dim):
        for j in range(i + 1, dim):
            mats[idx, i, j] = -1j * inv_sqrt2
            mats[idx, j, i] = 1j * inv_sqrt2
            idx += 1
    return mats


def _numerical_rank(sv: np.ndarray, tol: Tolerances) -> int:
    """How many of the descending singular values ``sv`` exceed ``rank_rel``
    times the largest; zero when there are none or the largest is zero."""
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.count_nonzero(sv > tol.rank_rel * sv[0]))


def rank_eps(mat: np.ndarray, tol: Tolerances | None = None) -> int:
    """Numerical rank: singular values above ``rank_rel`` times the largest."""
    arr = _as_matrix(mat)
    if arr.size == 0:
        return 0
    return _numerical_rank(np.linalg.svd(arr, compute_uv=False), _tol(tol))


def image_basis(mat: np.ndarray, tol: Tolerances | None = None) -> np.ndarray:
    """Orthonormal basis of the column space, as columns of an ``(n, r)`` array."""
    tol = _tol(tol)
    arr = _as_matrix(mat)
    u, sv, _ = np.linalg.svd(arr, full_matrices=False)
    return u[:, : _numerical_rank(sv, tol)]


def kernel_basis(mat: np.ndarray, tol: Tolerances | None = None) -> np.ndarray:
    """Orthonormal basis of the null space, as columns of a ``(cols, n - r)`` array."""
    tol = _tol(tol)
    arr = _as_matrix(mat)
    n = arr.shape[1]
    u, sv, vh = np.linalg.svd(arr, full_matrices=True)
    r = _numerical_rank(sv, tol)
    return vh[r:].conj().T.reshape(n, n - r)


def gap_split(
    mat: np.ndarray, tol: Tolerances | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases ``(image, kernel)`` of a matrix cut at its widest gap.

    The cut rank ``r`` is at most the numerical rank of :func:`rank_eps`.  A
    matrix of full numerical rank is not cut; otherwise ``r`` maximizes the
    gap ``sv[r-1] / sv[r]`` among the cuts whose tail ``sv[r]`` is at most
    ``sqrt(rank_rel)`` times ``sv[0]``, the angle cutoff of
    :func:`subspace_intersection`.  Singular values 1, .7, .03, 3e-9, 3e-9,
    1e-13 thus cut at rank 3, where the ``rank_rel`` rank is 5.
    """
    tol = _tol(tol)
    arr = _as_matrix(mat)
    u, sv, vh = np.linalg.svd(arr, full_matrices=True)
    r = _numerical_rank(sv, tol)
    if 0 < r < sv.size:
        cuts = np.arange(1, r + 1)
        tails = np.abs(sv[cuts])  # LAPACK may return -0.0
        allowed = (tails <= np.sqrt(tol.rank_rel) * sv[0]) | (cuts == r)
        with np.errstate(divide="ignore"):
            gaps = np.where(allowed, sv[cuts - 1] / tails, 0.0)
        r = int(cuts[np.argmax(gaps)])
    return u[:, :r], vh[r:].conj().T


def subspace_intersection(
    basis_a: np.ndarray, basis_b: np.ndarray, tol: Tolerances | None = None
) -> np.ndarray:
    """Orthonormal basis of the intersection of two column spans.

    A direction counts as shared when its principal angle is below
    ``sqrt(rank_rel)``; for genuinely common vectors the angle is at machine
    level, so membership residuals in either span stay tiny.
    """
    tol = _tol(tol)
    a = _as_matrix(basis_a, "basis_a")
    b = _as_matrix(basis_b, "basis_b")
    if a.shape[0] != b.shape[0]:
        raise ValueError("bases must live in the same ambient space")
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, cosines, _ = np.linalg.svd(a.conj().T @ b)
    angle_tol = np.sqrt(tol.rank_rel)
    keep = np.arccos(np.clip(cosines, -1.0, 1.0)) < angle_tol
    cols = a @ u[:, : int(np.count_nonzero(keep))]
    if cols.shape[1] == 0:
        return cols
    # re-orthonormalize to clean up rounding
    q, _ = np.linalg.qr(cols)
    return q


@dataclass(frozen=True, eq=False)
class Projection:
    """Orthogonal projection, stored with an explicit orthonormal image basis.

    Attributes
    ----------
    dim : int
        Ambient dimension.
    matrix : ndarray (dim, dim)
        The projector ``basis @ basis*``; Hermitian and idempotent.
    basis : ndarray (dim, rank)
        Orthonormal columns spanning the image.
    rank : int
    """

    dim: int
    matrix: np.ndarray
    basis: np.ndarray
    rank: int


def projector_onto(basis: np.ndarray) -> Projection:
    """Projection onto the span of orthonormal columns.

    ``basis`` must already be orthonormal (Gram residual below
    ``max(1e-10, 1e3 eps n)``); use :func:`image_basis` first for a raw
    spanning set.
    """
    b = _as_matrix(basis, "basis")
    n, r = b.shape
    if r:
        gram_resid = np.abs(b.conj().T @ b - np.eye(r)).max()
        if gram_resid > max(1e-10, 1e3 * np.finfo(float).eps * n):
            raise ValueError(
                f"basis columns are not orthonormal (Gram residual {gram_resid:.2e})"
            )
    mat = mirror_hermitian(b @ b.conj().T) if r else np.zeros((n, n), dtype=complex)
    return Projection(dim=n, matrix=mat, basis=b, rank=r)


def projection_from_matrix(mat: np.ndarray, tol: Tolerances | None = None) -> Projection:
    """Projection onto the image of an (approximately idempotent Hermitian) matrix."""
    return projector_onto(image_basis(mat, tol))


def identity_projection(dim: int) -> Projection:
    """The full-space projection of the given dimension."""
    return Projection(
        dim=dim,
        matrix=np.eye(dim, dtype=complex),
        basis=np.eye(dim, dtype=complex),
        rank=dim,
    )


def orthogonal_complement(proj: Projection, tol: Tolerances | None = None) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of a projection's image."""
    if proj.rank == 0:
        return np.eye(proj.dim, dtype=complex)
    if proj.rank == proj.dim:
        return np.zeros((proj.dim, 0), dtype=complex)
    return kernel_basis(proj.basis.conj().T, tol)


def same_subspace(p: Projection, q: Projection, atol: float = 1e-8) -> bool:
    """Whether two projections describe the same subspace, entrywise on projectors."""
    if p.dim != q.dim:
        return False
    return p.rank == q.rank and np.abs(p.matrix - q.matrix).max() <= atol


def psd_check(mat: np.ndarray, tol: Tolerances | None = None) -> bool:
    """Positive semidefiniteness up to an absolute floor.

    The minimum eigenvalue may dip to ``-psd_abs * (1 + |spectrum|_max)``
    before the verdict flips, which absorbs round-off from congruences.
    """
    arr = mirror_hermitian(mat)
    if arr.shape[0] == 0:
        return True
    return _psd_spectrum(np.linalg.eigvalsh(arr), tol)


def _cholesky_psd_abs(mat: np.ndarray, tol: Tolerances | None = None) -> float | None:
    """The ``psd_abs`` down to which a shifted Cholesky proves the Hermitian
    ``mat`` passes :func:`psd_check`, or ``None`` where it proves nothing.

    ``tau`` is half the gate's threshold ``psd_abs (1 + d)``, with ``d`` the
    largest |diagonal entry|, a lower bound on the largest |eigenvalue|.  A
    Cholesky of ``mat + tau Id`` that succeeds factors it up to a backward
    error of 2-norm at most ``n gamma_(n+1) (d + tau)`` (Higham, *Accuracy
    and Stability of Numerical Algorithms*, Thm 10.3), bounded here by four
    times that, so ``lambda_min(mat) >= -(tau + rounding)``.  The test runs
    only where that rounding term is below ``tau / 8``, and a failed
    Cholesky proves nothing: the caller falls back to ``eigvalsh``.
    """
    tol = _tol(tol)
    n = mat.shape[0]
    d = float(np.abs(np.diagonal(mat)).max(initial=0.0))
    tau = 0.5 * tol.psd_abs * (1.0 + d)
    rounding = 2.0 * n * (n + 1) * np.finfo(float).eps * (d + tau)
    if rounding > tau / 8.0:
        return None
    try:
        np.linalg.cholesky(mat + tau * np.eye(n))
    except np.linalg.LinAlgError:
        return None
    return (tau + rounding) / (1.0 + d)


def _psd_spectrum(eigs: np.ndarray, tol: Tolerances | None = None) -> bool:
    """The test of :func:`psd_check` on the eigenvalues of a Hermitian matrix."""
    tol = _tol(tol)
    scale = 1.0 + float(np.abs(eigs).max(initial=0.0))
    return bool(eigs.min() >= -tol.psd_abs * scale)


def hermitian_sqrt_pinv(
    mat: np.ndarray, tol: Tolerances | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Square root and pseudo-inverse square root of a PSD matrix.

    Eigenvalues below ``rank_rel`` times the largest are treated as exact
    zeros in both factors.

    Returns
    -------
    (sqrt, pinv_sqrt) : pair of ndarray
        ``sqrt @ sqrt`` recovers the input on its support and
        ``sqrt @ pinv_sqrt`` is the orthogonal projection onto it.
    """
    tol = _tol(tol)
    eigs, vecs = np.linalg.eigh(mirror_hermitian(mat))
    if not _psd_spectrum(eigs, tol):
        raise ValueError("hermitian_sqrt_pinv requires a PSD input")
    top = float(eigs.max(initial=0.0))
    cut = tol.rank_rel * top
    kept = eigs > cut
    root = np.zeros_like(eigs)
    inv_root = np.zeros_like(eigs)
    root[kept] = np.sqrt(eigs[kept])
    inv_root[kept] = 1.0 / np.sqrt(eigs[kept])
    sqrt = mirror_hermitian(vecs @ np.diag(root) @ vecs.conj().T)
    pinv_sqrt = mirror_hermitian(vecs @ np.diag(inv_root) @ vecs.conj().T)
    return sqrt, pinv_sqrt
