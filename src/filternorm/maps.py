"""Completely positive maps in Kraus form and their corner representations.

A map acts from ``k x k`` to ``m x m`` matrices as ``X -> L E(R X R*) L*``,
a core ``E(X) = sum_i K_i X K_i*`` (or its adjoint) between two congruences.
Derived maps compose the congruences in ``O(k^3)`` and keep the Kraus stack,
whose superoperator ``S = sum_i K_i (x) conj(K_i)`` is built once; a map's
own, ``(L (x) conj L) S (R (x) conj R)``, maps a stack of inputs ``(n, k, k)``
to its images by one matrix product.  A decision's anchor, which may be
ill-conditioned, enters the stack instead, one product per operator.  An
embedded rectangular state's core reads the stack through the embedding,
``O(n^3)`` per ``n x n`` input.
Most of the decision machinery lives on *corners*: for a projection ``V`` of
rank ``s`` with orthonormal basis ``b``, the compression ``V M V = b M_s b*`` is
an invariant subalgebra when ``T(V X V)`` stays inside it, and ``T`` restricted
there is encoded as a real ``s^2 x s^2`` matrix over ``hermitian_basis(s)``.
Spectral-radius (Perron) data drive the irreducibility tests, and
``_perron_data`` alone makes them: Arnoldi finds them by matvecs, and
certifies a corner too large for a cheap dense analysis irreducible; what it
does not settle gets the dense analysis.  They stay ``s x s``, in corner
coordinates, lifted by ``b X b*`` only where needed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .linalg import (
    Projection,
    Tolerances,
    _tol,
    dagger,
    hermitian_basis,
    hermitian_sqrt_pinv,
    mirror_hermitian,
    psd_check,
    rank_eps,
)

__all__ = [
    "CpMap",
    "apply",
    "adjoint",
    "transform",
    "conjugate",
    "kraus_norm",
    "restrict_to_corner",
    "corner_rep",
    "is_doubly_stochastic",
    "is_irreducible",
]


@dataclass(frozen=True, eq=False)
class CpMap:
    """Completely positive map ``X -> left E(right X right*) left*`` around a
    core ``E`` given by a Kraus stack.

    Attributes
    ----------
    src_dim : int
        Dimension ``k`` of the input matrices.
    dst_dim : int
        Dimension ``m`` of the output matrices.
    kraus : ndarray (r, b, a), complex
        The core's Kraus operators as one stack, ``E(X) = sum_i K_i X K_i*``;
        at least one must be nonzero.  Any sequence of ``(b, a)`` operators is
        accepted and stacked.  Derived maps share it.
    embedded : bool
        The core reads the stack's map ``t`` through the embedding, on
        ``C^b (x) C^a``: ``E(X) = t(sum_i X_ii) (x) Id_a`` over the diagonal
        ``a x a`` blocks ``X_ii`` of ``X``, which is the map of
        :func:`~filternorm.states.embed_rectangular`'s state.  Its ``r a b``
        Kraus operators are never formed.
    dual : bool
        ``E`` is replaced by its adjoint, ``Y -> sum_i K_i* Y K_i`` or
        ``Y -> Id_b (x) t*(tr_a Y)``, ``tr_a`` tracing out ``C^a``.
    left, right : ndarray or None
        The congruences, ``dst_dim`` rows and ``src_dim`` columns; ``None``
        is the identity.
    """

    src_dim: int
    dst_dim: int
    kraus: np.ndarray
    embedded: bool = False
    dual: bool = False
    left: np.ndarray | None = None
    right: np.ndarray | None = None

    def __post_init__(self) -> None:
        ops = np.asarray(self.kraus, dtype=complex)  # ValueError for mixed shapes
        if ops.ndim != 3 or not ops.any():
            raise ValueError("CpMap needs a stack of Kraus operators, not all zero")
        object.__setattr__(self, "kraus", ops)
        _check_congruences(self, ops)

    @cached_property
    def superop(self) -> np.ndarray:
        """``vec(T(X)) = superop @ vec(X)``, row-major: the stack's under the
        congruences; with an embedded core, assembled from the images of the
        matrix units, ``O(k^5)``, for a reader of its entries."""
        if self.embedded:
            k = self.src_dim
            units = np.eye(k * k, dtype=complex).reshape(k * k, k, k)
            return apply(self, units).reshape(k * k, -1).T
        S = self._stack_superop.conj().T if self.dual else self._stack_superop
        return _kron_congruence(S, self.left, self.right)

    @cached_property
    def _stack_superop(self) -> np.ndarray:
        """``sum_i K_i (x) conj(K_i)`` of the stack, ``b^2 x a^2``; derived
        maps take it over (:func:`_derive`), so it is built once per stack."""
        return _superop(self.kraus)


def _check_congruences(T: CpMap, *arrays: np.ndarray) -> None:
    """The congruences fit the stack and ``T``'s dimensions; they and
    ``arrays`` are finite."""
    _, b, a = T.kraus.shape
    core = (a * b, a * b) if T.embedded else (b, a)  # E's output and input sides
    out, inp = core[::-1] if T.dual else core
    left = (out, out) if T.left is None else np.shape(T.left)
    right = (inp, inp) if T.right is None else np.shape(T.right)
    if left != (T.dst_dim, out) or right != (inp, T.src_dim):
        raise ValueError(f"Kraus operators {b} x {a} and congruences do not make "
                         f"a map from {T.src_dim} to {T.dst_dim} dimensions")
    if not all(np.isfinite(x).all() for x in (*arrays, T.left, T.right) if x is not None):
        raise ValueError("Kraus operators or congruences contain non-finite entries")


def _superop(kraus: np.ndarray) -> np.ndarray:
    """``sum_i K_i (x) conj(K_i)`` of an ``(r, m, k)`` Kraus stack, ``m^2 x k^2``:
    one GEMM of the flattened stack, the realigned Choi matrix, re-indexed."""
    r, m, k = kraus.shape
    flat = kraus.reshape(r, m * k)
    realigned = (flat.T @ flat.conj()).reshape(m, k, m, k)
    return realigned.transpose(0, 2, 1, 3).reshape(m * m, k * k)


def _kron_congruence(
    S: np.ndarray, left: np.ndarray | None, right: np.ndarray | None
) -> np.ndarray:
    """``(L (x) conj L) S (R (x) conj R)``, ``None`` an identity side, by three
    matrix products: ``L`` and ``conj L`` on the two output indices, then
    ``R^T Y conj(R)`` on each row ``Y`` read as a square matrix."""
    if left is not None:
        d, m = left.shape
        S = left @ S.reshape(m, -1)
        S = (left.conj() @ S.reshape(d, m, -1)).reshape(d * d, -1)
    if right is not None:
        a, k = right.shape
        S = (right.T @ S.reshape(-1, a, a) @ right.conj()).reshape(-1, k * k)
    return S


def apply(T: CpMap, X: np.ndarray) -> np.ndarray:
    """Evaluate ``T`` on one input or a stack ``(n, k, k)``.

    One GEMM of the flattened inputs with the superoperator.  A stacked image
    agrees with the single-input one to rounding, not bit for bit: BLAS
    blocks the two products differently.  An embedded core applies the right
    congruence, the block trace, the stack's superoperator, the identity
    factor and the left congruence in turn.
    """
    X = np.asarray(X, dtype=complex)
    k, m = T.src_dim, T.dst_dim
    if X.ndim not in (2, 3) or X.shape[-2:] != (k, k):
        raise ValueError(f"input must be {k} x {k}, got {X.shape}")
    if T.embedded:
        return _apply_embedded(T, X)
    images = X.reshape(-1, k * k) @ T.superop.T
    return images.reshape(X.shape[:-2] + (m, m))


def _apply_embedded(T: CpMap, X: np.ndarray) -> np.ndarray:
    """:func:`apply` through an embedded core (see :class:`CpMap`)."""
    _, b, a = T.kraus.shape
    lead = X.shape[:-2]
    if T.right is not None:
        X = T.right @ X @ dagger(T.right)
    X = X.reshape(lead + (b, a, b, a))
    if T.dual:  # Id_b (x) t*(tr_a X)
        Z = np.trace(X, axis1=-3, axis2=-1).reshape(-1, b * b) @ T._stack_superop.conj()
        Y = np.eye(b)[:, None, :, None] * Z.reshape(lead + (1, a, 1, a))
    else:  # t(sum_i X_ii) (x) Id_a
        Z = np.trace(X, axis1=-4, axis2=-2).reshape(-1, a * a) @ T._stack_superop.T
        Y = Z.reshape(lead + (b, 1, b, 1)) * np.eye(a)[:, None, :]
    Y = Y.reshape(lead + (a * b, a * b))
    return Y if T.left is None else T.left @ Y @ dagger(T.left)


def _derive(T: CpMap, **changes) -> CpMap:
    """``T`` with fields changed, sharing its stack and the stack's
    superoperator; the stack, checked when it was built, is not checked again."""
    new = object.__new__(CpMap)
    vars(new).update({f.name: getattr(T, f.name) for f in fields(CpMap)},
                     _stack_superop=T._stack_superop, **changes)
    _check_congruences(new)
    return new


def _compose(outer: np.ndarray | None, inner: np.ndarray | None) -> np.ndarray | None:
    """``outer @ inner``, where ``None`` is the identity."""
    return outer if inner is None else inner if outer is None else outer @ inner


def adjoint(T: CpMap) -> CpMap:
    """Adjoint in the trace inner product, ``Y -> right* E*(left* Y left) right``:
    the congruences swapped and daggered, ``dual`` toggled.  A superoperator
    ``T`` has built is handed on as its conjugate transpose."""
    Ta = _derive(T, src_dim=T.dst_dim, dst_dim=T.src_dim, dual=not T.dual,
                 left=None if T.right is None else dagger(T.right),
                 right=None if T.left is None else dagger(T.left))
    if "superop" in vars(T):
        vars(Ta)["superop"] = T.superop.conj().T
    return Ta


def transform(T: CpMap, left: np.ndarray | None, right: np.ndarray | None) -> CpMap:
    """Two-sided Kraus transform ``K -> left @ K @ right``, ``None`` an
    identity side: ``X -> left T(right X right*) left*``, composed with the
    map's congruences in ``O(k^3)``."""
    left = None if left is None else np.asarray(left, dtype=complex)
    right = None if right is None else np.asarray(right, dtype=complex)
    src_dim = T.src_dim if right is None else right.shape[1]
    dst_dim = T.dst_dim if left is None else left.shape[0]
    return _derive(T, src_dim=src_dim, dst_dim=dst_dim,
                   left=_compose(left, T.left), right=_compose(T.right, right))


def _filter_stack(T: CpMap, right: np.ndarray) -> CpMap:
    """``X -> T(right X right*)`` for a state's map, as the stack ``K -> K right``:
    the products cancel an ill-conditioned ``right``, where a congruence acting
    after the sum over operators would round at ``||right||^2`` times the
    stack's norm.  An embedded core, whose operators are not formed, takes
    ``right`` as its congruence."""
    if T.embedded:
        return transform(T, None, right)
    return CpMap(src_dim=right.shape[1], dst_dim=T.dst_dim, kraus=T.kraus @ right)


def conjugate(
    T: CpMap, Q: np.ndarray, scale: float = 1.0, tol: Tolerances | None = None
) -> CpMap:
    """Congruence ``X -> scale * Q T(Q^{-1} X Q^{-*}) Q*`` for square maps."""
    tol = _tol(tol)
    if T.src_dim != T.dst_dim:
        raise ValueError("conjugate requires a square map")
    Q = np.asarray(Q, dtype=complex)
    if Q.shape != (T.src_dim, T.src_dim):
        raise ValueError("Q has the wrong shape")
    if rank_eps(Q, tol) < T.src_dim:
        raise ValueError("Q must be invertible")
    if scale <= 0:
        raise ValueError("scale must be positive")
    Qi = np.linalg.inv(Q)
    return transform(T, np.sqrt(scale) * Q, Qi)


def kraus_norm(T: CpMap) -> float:
    """``tr T(Id)``: the Kraus operators' squared Frobenius norms summed, ``>= ||T||``."""
    return float(np.trace(apply(T, np.eye(T.src_dim))).real)


def restrict_to_corner(T: CpMap, V: Projection) -> CpMap:
    """Compress a square map to the corner of ``V``: Kraus ``K -> B* K B``.

    Faithful as the corner restriction when ``T`` leaves ``V M V`` invariant.
    The whole space in the standard basis returns ``T``, superoperator and all.
    """
    if T.src_dim != T.dst_dim or T.src_dim != V.dim:
        raise ValueError("corner restriction requires a square map matching V")
    b = V.basis
    if np.array_equal(b, np.eye(V.dim)):
        return T
    return transform(T, dagger(b), b)


def _invariance_defect(images: np.ndarray, P: np.ndarray) -> float:
    """Largest entry of ``Y - P Y P`` over a stack of images ``Y``."""
    return float(np.abs(images - P @ images @ P).max())


def corner_rep(T: CpMap, V: Projection) -> np.ndarray:
    """Real ``s^2 x s^2`` matrix of ``T`` on the corner of ``V``.

    Entry ``(i, j)`` is ``Re tr(E_i T(E_j))`` for ``E = hermitian_basis(s)``
    lifted by ``b E b*``, ``b = V.basis``: the matrix of
    :func:`restrict_to_corner` in that basis.  The compressed adjoint
    ``X -> V T*(X) V`` is represented by its transpose.  Raises ``ValueError``
    on a proper corner (``V.rank < V.dim``; the whole space is invariant)
    when an image of a lifted basis element leaves ``V M V`` by more than a
    loose ``1e-6`` of the map's Kraus-norm bound.
    """
    if T.src_dim != T.dst_dim or T.src_dim != V.dim:
        raise ValueError("corner_rep requires a square map matching V")
    b = V.basis
    basis = b @ hermitian_basis(V.rank) @ dagger(b)
    images = apply(T, basis)
    if V.rank < V.dim and _invariance_defect(images, V.matrix) > 1e-6 * kraus_norm(T):
        raise ValueError("corner is not invariant under the map")
    n = len(basis)
    # Re tr(b* Y) is the real dot product of the (re, im) pairs of b and Y
    return basis.reshape(n, -1).view(float) @ images.reshape(n, -1).view(float).T


def _top_eigenvalue(mat: np.ndarray, tol: Tolerances) -> float:
    """Perron root: the real positive eigenvalue of maximal modulus.

    A periodic map has several eigenvalues on its spectral circle (the roots
    of unity times the radius); of those within ``1e-8`` of the radius the one
    with the largest real part is the root.  ``eigvals`` may split a defective
    root into a conjugate pair of equal moduli, so the root is the real part
    of that one (the mean of the pair), asserted nearly real: its imaginary
    part stays within ``sqrt(rank_rel)`` of the radius.
    """
    eigs = np.linalg.eigvals(mat)
    modulus = np.abs(eigs)
    radius = modulus.max()
    if radius == 0.0:
        return 0.0
    peripheral = eigs[modulus >= radius * (1.0 - 1e-8)]
    top = peripheral[np.argmax(peripheral.real)]
    if abs(top.imag) > np.sqrt(tol.rank_rel) * radius:
        raise ValueError(
            f"spectral radius eigenvalue is not real ({top:.3e}); "
            "the map does not look positivity-preserving"
        )
    return float(top.real)


def _psd_in_span(mats: np.ndarray, tol: Tolerances) -> np.ndarray | None:
    """A PSD, trace-one element in the real span of trace-orthonormal Hermitians.

    Deterministic alternating projections between the span and the PSD cone,
    started from the span-projection of the identity and falling back to each
    signed basis element.  Returns ``None`` if nothing converges.
    """
    d, k, _ = mats.shape
    if d == 0:
        return None

    def project_span(X: np.ndarray) -> np.ndarray:
        c = np.real(np.einsum("nij,ij->n", mats.conj(), X))
        return np.einsum("n,nij->ij", c, mats)

    def clip_psd(X: np.ndarray) -> np.ndarray:
        eigs, vecs = np.linalg.eigh(mirror_hermitian(X))
        eigs = np.clip(eigs, 0.0, None)
        return vecs @ np.diag(eigs) @ vecs.conj().T

    starts = [project_span(np.eye(k, dtype=complex))]
    for i in range(d):
        starts.append(mats[i])
        starts.append(-mats[i])

    for start in starts:
        X = np.array(start, dtype=complex)
        norm = np.linalg.norm(X)
        if norm < 1e-14:
            continue
        X /= norm
        ok = False
        for _ in range(500):
            Xp = clip_psd(X)
            if np.linalg.norm(Xp) < 1e-14:
                break
            Xs = project_span(Xp)
            norm = np.linalg.norm(Xs)
            if norm < 1e-14:
                break
            Xs /= norm
            if np.linalg.norm(Xs - X) < 1e-14:
                X = Xs
                ok = True
                break
            X = Xs
        found = _psd_normalized(X, tol) if ok else None
        if found is not None:
            return found
    return None


def _psd_normalized(X: np.ndarray, tol: Tolerances) -> np.ndarray | None:
    """``X`` or ``-X`` made Hermitian and trace one, if that is PSD, else ``None``."""
    X = mirror_hermitian(X)
    trace = float(np.real(np.trace(X)))
    if trace < 0:
        X, trace = -X, -trace
    if trace <= 1e-12 or not psd_check(X / trace, tol):
        return None
    return X / trace


# A Ritz pair counts once its Arnoldi residual is below this share of its value,
# about 4,500 units of roundoff; at ``rank_rel`` (1e-9) inexact vectors cut
# corners on which some decisions broke down later, in the block alignment.
_RITZ_RESIDUAL = 1e-12
_ARNOLDI_CHECKPOINTS = (8, 12, 16, 24, 32, 48, 64)


def _arnoldi(op, start: np.ndarray, accept) -> tuple[complex, np.ndarray] | None:
    """Top Ritz pair of a Hermitian-preserving ``op`` on vectorized ``s x s``
    matrices by at most ``min(s^2, 64)`` Arnoldi steps from a unit Hermitian
    ``start``.  The iterates are orthonormal in ``Re tr(A* B)``, so ``H`` is real.
    At checkpoints (and on a nearly invariant space) ``accept`` sees the top Ritz
    value and its residual ``|beta y_last|``; the first pair it takes is returned,
    with the vector's real part, else ``None``."""
    n = start.size
    steps = min(n, _ARNOLDI_CHECKPOINTS[-1])
    Q = np.zeros((steps + 1, n), dtype=complex)
    H = np.zeros((steps + 1, steps))
    Q[0] = start
    for j in range(steps):
        w = op(Q[j])
        for _ in range(2):  # classical Gram-Schmidt, repeated once for stability
            h = (Q[: j + 1].conj() @ w).real
            w = w - h @ Q[: j + 1]
            H[: j + 1, j] += h
        H[j + 1, j] = beta = np.linalg.norm(w)
        invariant = beta <= _RITZ_RESIDUAL * np.abs(H).max()
        if invariant or j + 1 in _ARNOLDI_CHECKPOINTS or j + 1 == steps:
            thetas, ys = np.linalg.eig(H[: j + 1, : j + 1])
            top = np.argmax(np.abs(thetas))
            theta, y = thetas[top], ys[:, top]
            if accept(theta, abs(beta * y[-1])):
                return theta, y.real @ Q[: j + 1]
        if beta == 0.0:
            return None
        Q[j + 1] = w / beta
    return None


def _matvec(T: CpMap, dual: bool = False):
    """``vec(X) -> vec(T(X))`` on row-major vectors of a square map, or the
    adjoint's with ``dual``: :func:`apply` of ``T`` or of its adjoint."""
    s, M = T.src_dim, adjoint(T) if dual else T
    return lambda x: apply(M, x.reshape(s, s)).reshape(-1)


def _perron_by_arnoldi(op, s: int, tol: Tolerances) -> tuple[float, np.ndarray] | None:
    """Root and PSD trace-one ``s x s`` vector of the map whose matvec is ``op``,
    from the identity; the pair counts at ``|beta y_last| <= _RITZ_RESIDUAL |theta|``.
    ``None`` when the value is not real and positive or the vector not PSD."""
    found = _arnoldi(op, np.eye(s).reshape(-1) / np.sqrt(s),
                     lambda theta, res: res <= _RITZ_RESIDUAL * abs(theta))
    if found is None or found[0].imag != 0.0 or found[0].real <= 0.0:
        return None
    X = found[1].reshape(s, s)
    gamma = _psd_normalized(0.5 * (X + dagger(X)), tol)
    return None if gamma is None else (float(found[0].real), gamma)


def _krylov_perron(
    T: CpMap, V: Projection, tol: Tolerances
) -> tuple[float, np.ndarray, np.ndarray | None] | None:
    """``(lam, gamma, delta)`` of ``T`` on the corner of ``V`` by matvecs alone,
    ``s x s`` in corner coordinates, where they settle the corner, else
    ``None``; invariance is not checked.  Only :func:`_perron_data` calls it.

    A rank-deficient Perron vector ``gamma`` settles it (``delta`` is
    ``None``).  A definite one does where ``s^2`` exceeds the Arnoldi budget
    (there the test costs less than the dense analysis it replaces) and three
    facts prove the corner irreducible; ``delta`` is the compressed adjoint's
    PSD trace-one Perron vector.  The facts: ``T(gamma) = lam gamma`` and
    ``T*(delta) = lam delta`` (Arnoldi on ``S*``), both definite, and a simple
    root.  An invariant proper corner would carry a PSD eigenvector ``X`` of
    its own; ``lam tr(delta X) = tr(delta T(X))`` and ``tr(delta X) > 0`` give
    it the value ``lam``, a second eigenvector beside the definite ``gamma``.
    Simplicity: ``A(X) = (X + T(X))/(1 + lam) - gamma tr(delta X)/tr(delta gamma)``
    kills ``gamma`` and sends any other eigenvector of ``T``, of value ``mu``
    and so with ``tr(delta X) = 0``, to ``(1 + mu)/(1 + lam) X``, of modulus
    below one unless ``mu = lam``: the shift moves the other peripheral values
    of a periodic map inside the disc (Evans and Hoegh-Krohn, 1978).  Arnoldi
    on ``A`` from a seeded random Hermitian start shows a top Ritz value below
    ``1 - sqrt(rank_rel)``, with a residual under 1% of the distance to it.
    """
    s = V.rank
    corner = restrict_to_corner(T, V)
    op = _matvec(corner)
    found = _perron_by_arnoldi(op, s, tol)
    if found is None or rank_eps(found[1], tol) < s:
        return None if found is None else (*found, None)
    if s * s <= _ARNOLDI_CHECKPOINTS[-1]:
        return None
    lam, gamma = found
    delta = (_perron_by_arnoldi(_matvec(corner, dual=True), s, tol) or (0.0, None))[1]
    if delta is None or rank_eps(delta, tol) < s:
        return None
    g = gamma.reshape(-1) / np.vdot(delta, gamma).real
    draw = np.random.default_rng(2026).standard_normal((2, s, s))
    start = (draw[0] + 1j * draw[1]) + (draw[0] + 1j * draw[1]).conj().T
    bound = 1.0 - np.sqrt(tol.rank_rel)  # the residual is sized to the gap below
    simple = _arnoldi(lambda x: (x + op(x)) / (1.0 + lam) - np.vdot(delta, x) * g,
                      start.reshape(-1) / np.linalg.norm(start),
                      lambda mu, res: res < 0.01 * (bound - abs(mu)))
    return None if simple is None else (lam, gamma, delta)


def _corner_perron(
    T: CpMap, V: Projection, tol: Tolerances
) -> tuple[float, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Perron analysis of ``T`` on the corner of ``V``.

    Returns ``(lam, space, gamma, delta)``: the Perron root, its eigenspace
    (its length is the root's geometric multiplicity), a PSD trace-one
    Perron vector in it, and, for a simple root, the PSD trace-one Perron
    vector of the compressed adjoint ``X -> V T*(X) V``.  The matrices are
    ``s x s``, in corner coordinates.  A vector that is not found is
    ``None``, and so is ``delta`` for a degenerate root.  Raises
    ``ValueError`` when the corner is not invariant, the map vanishes on it,
    or the root is not positive.

    One SVD of ``rep - lam`` serves both maps: the adjoint is represented by
    ``rep.T``, so the right null vectors span the map's eigenspace and the
    left ones the adjoint's, as coefficients over ``hermitian_basis(s)``.
    The kernel cutoff is scaled by ``max(sigma_max(rep - lam), lam)``, so a
    root off by roundoff still finds the eigenspace when the shifted matrix
    is numerically zero.
    """
    rep = corner_rep(T, V)
    if np.abs(rep).max() == 0.0:
        raise ValueError("the map vanishes on this corner")
    lam = _top_eigenvalue(rep, tol)
    if lam <= 0.0:
        raise ValueError("corner spectral radius is not positive")
    n = rep.shape[0]
    u, sv, vh = np.linalg.svd(rep - lam * np.eye(n))
    r = int(np.count_nonzero(sv > tol.rank_rel * max(float(sv[0]), lam)))
    basis = hermitian_basis(V.rank)
    space = np.einsum("dn,nij->dij", vh[r:], basis)
    if n - r != 1:
        return lam, space, _psd_in_span(space, tol), None
    delta = np.einsum("n,nij->ij", u[:, r], basis)
    return lam, space, _psd_normalized(space[0], tol), _psd_normalized(delta, tol)


def _boundary_rank_drop(
    space: np.ndarray, gamma: np.ndarray, tol: Tolerances
) -> np.ndarray:
    """Step from a full-rank Perron vector to the PSD boundary of its eigenspace.

    ``space`` and ``gamma`` are ``_corner_perron``'s, ``s x s`` in corner
    coordinates, and ``gamma`` is positive definite.  For an
    eigenspace direction ``h`` trace-orthogonal to it, ``r = gamma^(1/2)``
    and ``m = r^-1 h r^-1`` give ``gamma - t h = r (Id - t m) r``; since
    ``tr(gamma h) = 0``, ``m`` has eigenvalues of both signs and the ray
    leaves the cone at ``t = 1/mu`` for the largest one.  Returns that
    boundary point, PSD of rank below ``s``, in the same coordinates.
    """
    d = space.shape[0]
    # coefficients of gamma in the (trace-orthonormal) eigenspace basis
    g = np.real(np.einsum("nij,ij->n", space.conj(), gamma))
    g_norm = np.linalg.norm(g)
    if g_norm < 1e-14:
        raise RuntimeError("Perron vector fell outside its own eigenspace")
    # a direction perpendicular to gamma inside the eigenspace
    q, _ = np.linalg.qr(np.concatenate([g[:, None] / g_norm, np.eye(d)], axis=1))
    h = np.einsum("n,nij->ij", q[:, 1], space)
    r, r_inv = hermitian_sqrt_pinv(gamma, tol)
    mu, u = np.linalg.eigh(r_inv @ h @ r_inv)
    if mu[-1] <= 0.0:
        raise RuntimeError("eigenspace direction never leaves the PSD cone")
    weights = 1.0 - mu / mu[-1]  # the last one is exactly zero
    root = r @ u
    return (root * weights) @ dagger(root)


def _perron_data(
    T: CpMap, V: Projection, tol: Tolerances, search: bool = True
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """``(lam, gamma, delta)`` of ``T`` on the corner of ``V``, ``s x s`` in
    corner coordinates; ``delta`` is ``None`` unless the root is simple, and a
    rank-deficient ``gamma`` spans a smaller invariant corner.

    The one place that picks the path: Arnoldi (:func:`_krylov_perron`) where
    ``s^2`` exceeds its budget (the certificate) or, with ``search``, ``s > 3``
    (the cut search; ranks 2-3 are no cheaper).  What it leaves gets the dense
    :func:`_corner_perron`, and a degenerate root steps ``gamma`` to the PSD
    boundary of its eigenspace.  ``corner_rep``'s invariance guard runs once
    on every proper corner.  Raises ``ValueError`` as ``_corner_perron`` does,
    ``RuntimeError`` on no PSD ``gamma`` or a failed boundary step.
    """
    s = V.rank
    if s * s > _ARNOLDI_CHECKPOINTS[-1] or (search and s > 3):
        found = _krylov_perron(T, V, tol)
        if found is not None:
            if s < V.dim:
                corner_rep(T, V)  # for its invariance guard
            return found
    lam, space, gamma, delta = _corner_perron(T, V, tol)
    if gamma is None:
        raise RuntimeError("no PSD Perron eigenvector in the top eigenspace")
    if len(space) > 1 and rank_eps(gamma, tol) == s:
        gamma = _boundary_rank_drop(space, gamma, tol)
    return lam, gamma, delta


def is_doubly_stochastic(T: CpMap, tol: Tolerances | None = None) -> bool:
    """Whether ``T(Id/sqrt(k)) = Id/sqrt(m)`` and ``T*(Id/sqrt(m)) = Id/sqrt(k)``.

    Absolute residual threshold ``sinkhorn_residual`` on the normalized
    identities.
    """
    tol = _tol(tol)
    k, m = T.src_dim, T.dst_dim
    fwd = apply(T, np.eye(k) / np.sqrt(k)) - np.eye(m) / np.sqrt(m)
    bwd = apply(adjoint(T), np.eye(m) / np.sqrt(m)) - np.eye(k) / np.sqrt(k)
    res = max(np.abs(fwd).max(), np.abs(bwd).max())
    return bool(res <= tol.sinkhorn_residual)


def is_irreducible(T: CpMap, V: Projection, tol: Tolerances | None = None) -> bool:
    """Irreducibility of ``T`` on the corner of ``V``.

    Holds exactly when the Perron eigenvectors of the corner restriction and of
    the compressed adjoint both have image equal to ``Im(V)`` and the top
    eigenvalue has geometric multiplicity one, read off :func:`_perron_data`
    without the cut search; a corner whose analysis fails is not irreducible.
    """
    tol = _tol(tol)
    try:
        _, gamma, delta = _perron_data(T, V, tol, search=False)
    except (ValueError, RuntimeError):
        return False
    return all(x is not None and rank_eps(x, tol) == V.rank for x in (gamma, delta))
