"""Operator Sinkhorn scaling and filter normal forms.

A square CP map is scaled to a doubly stochastic one by alternately fixing
the two marginals ``T(Id/sqrt(s))`` and ``T*(Id/sqrt(s))``, each one GEMM of
the Kraus operators laid side by side; on each irreducible block certified
by the decision stage this converges, and the block scalings assemble into
local filters that bring the state to its normal form (unit trace, both
partial traces proportional to the identity), built once.  For two qubits a
final pair of local unitaries also kills every cross term of the Pauli form.

Near the boundary of the scalable maps Sinkhorn needs about ``eps^(-1/2)``
rounds for a block ``eps`` away from losing total support.  Once a round
fails to halve the residual, the loop takes Newton steps on both filters
instead, which need about ten steps there; a well-conditioned Newton system
is their precondition, so maps without a normal form still fail as plain
Sinkhorn fails on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decide import OUTCOME_EQUIVALENT, Verdict
from .linalg import (
    Tolerances,
    _tol,
    dagger,
    hermitian_basis,
    identity_projection,
    mirror_hermitian,
)
from .maps import CpMap, _superop, restrict_to_corner
from .states import (
    BipartiteState,
    NotPositiveError,
    apply_filter,
    partial_trace_first,
    partial_trace_second,
    state_to_map,
)

__all__ = [
    "SingularMarginalError",
    "ScalingConvergenceError",
    "ScalingResult",
    "NormalFormResult",
    "scale_to_doubly_stochastic",
    "filter_normal_form",
    "pauli_coefficients",
    "check_2x2_inequality",
]


class SingularMarginalError(RuntimeError):
    """A marginal collapsed (became singular) during Sinkhorn scaling."""


class ScalingConvergenceError(RuntimeError):
    """Sinkhorn scaling hit the iteration cap without converging."""


@dataclass(frozen=True, eq=False)
class ScalingResult:
    """Scaling certificate: ``scaled(X) = left T(right X right*) left*``."""

    left: np.ndarray
    right: np.ndarray
    scaled: CpMap
    iterations: int


def _forward(F: np.ndarray) -> np.ndarray:
    """``T(Id/sqrt(s)) = F F*/sqrt(s)``, ``F[a, i s + b] = K_i[a, b]`` (``s x rs``)."""
    return F @ dagger(F) / np.sqrt(len(F))


def _backward(F: np.ndarray) -> np.ndarray:
    """``T*(Id/sqrt(s)) = G* G/sqrt(s)``, ``G = F.reshape(rs, s)`` the stacked ``K_i``."""
    G = F.reshape(-1, len(F))
    return dagger(G) @ G / np.sqrt(len(F))


def _inverse_sqrt_marginal(G: np.ndarray, s: int, tol: Tolerances) -> np.ndarray:
    """``s^{-1/4} G^{-1/2}``, raising when the marginal is numerically singular.

    One ``eigh`` serves both: once the collapse check passes the marginal is
    positive definite, so every eigenvalue enters the inverse root.
    """
    eigs, vecs = np.linalg.eigh(mirror_hermitian(G))
    if eigs[-1] <= 0.0 or eigs[0] <= tol.rank_rel * eigs[-1]:
        raise SingularMarginalError(
            f"marginal collapsed during scaling (eigenvalues in "
            f"[{eigs[0]:.3e}, {eigs[-1]:.3e}])"
        )
    return s ** (-0.25) * mirror_hermitian((vecs * (1.0 / np.sqrt(eigs))) @ dagger(vecs))


def _hermitian_exp(H: np.ndarray) -> np.ndarray:
    """``exp(H)`` of a Hermitian matrix, from one ``eigh``."""
    eigs, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(eigs)) @ vecs.conj().T


def _newton_filters(
    kraus: np.ndarray, fwd: np.ndarray, bwd: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray] | None:
    """Filters ``(e^{h/2}, e^{g/2})`` of one Newton step on both marginals.

    ``K -> e^{h/2} K e^{g/2}`` moves ``T(Id)`` by ``{h, T(Id)}/2 + T(g)`` and
    ``T*(Id)`` by ``T*(h) + {g, T*(Id)}/2`` to first order.  In the
    coordinates of :func:`hermitian_basis` this is a real symmetric
    ``2s^2 x 2s^2`` system ``J``; its ``T`` block comes from the
    superoperator ``sum K (x) conj(K)``, one GEMM of the flattened stack, and
    the ``T*`` block is its transpose.  ``(Id, -Id)`` spans the null space
    (it rescales both sides against each other), so ``lstsq`` returns the
    minimum-norm step.  ``fwd`` and ``bwd`` are the marginals of
    ``Id/sqrt(s)``.

    Returns ``None`` when the second-smallest singular value of ``J`` is
    below ``sqrt(rank_rel)`` times the largest: the step is then ill-posed,
    as on maps without total support, whose filters diverge.
    """
    s = kraus.shape[1]
    n = s * s
    stack = hermitian_basis(s)
    basis = stack.reshape(n, n)
    superop = _superop(kraus)

    def coords(images: np.ndarray) -> np.ndarray:
        """Real matrix of a map on Hermitian matrices from its basis images."""
        return np.real(basis.conj() @ images.reshape(n, n).T)

    fwd_id, bwd_id = np.sqrt(s) * fwd, np.sqrt(s) * bwd
    jac = np.empty((2 * n, 2 * n))
    jac[:n, :n] = coords(stack @ fwd_id + fwd_id @ stack) / 2.0
    jac[:n, n:] = coords(basis @ superop.T)
    jac[n:, :n] = jac[:n, n:].T
    jac[n:, n:] = coords(stack @ bwd_id + bwd_id @ stack) / 2.0
    eye = np.eye(s)
    gaps = np.stack([eye - fwd_id, eye - bwd_id]).reshape(2, n)
    rhs = np.real(gaps @ basis.conj().T).reshape(2 * n)
    step, _, _, sv = np.linalg.lstsq(jac, rhs)
    if sv[-2] < np.sqrt(tol.rank_rel) * sv[0]:
        return None
    h, g = (step.reshape(2, n) @ basis).reshape(2, s, s)
    return _hermitian_exp(h / 2.0), _hermitian_exp(g / 2.0)


def _residual(F: np.ndarray, ident: np.ndarray) -> float:
    """Larger deviation of the two marginals of ``Id/sqrt(s)`` from it."""
    return max(np.abs(_forward(F) - ident).max(), np.abs(_backward(F) - ident).max())


def scale_to_doubly_stochastic(
    T: CpMap, tol: Tolerances | None = None
) -> ScalingResult:
    """Sinkhorn-scale a square CP map to a doubly stochastic one.

    Each round conjugates the output side by ``s^{-1/4} T(Id/sqrt(s))^{-1/2}``
    (which makes the forward marginal exact) and then the input side by the
    matching adjoint-marginal factor.  Stops when both marginal residuals are
    at most ``sinkhorn_residual``; a map already doubly stochastic returns
    after zero iterations.  Raises :class:`SingularMarginalError` when a
    marginal degenerates and :class:`ScalingConvergenceError` at the
    ``sinkhorn_max_iters`` cap.

    The loop keeps the operators side by side in one ``s x rs`` matrix ``F``,
    so each marginal is one GEMM (:func:`_forward`, :func:`_backward`), and so
    is each filter update: ``L F``, and ``G R`` on the stacked operators.  A
    round computes each marginal once: the forward marginal of the stopping
    check is the one the output filter inverts, and the adjoint marginal is
    needed for the check only once the forward one passes.

    Near the boundary of the scalable maps a round shrinks the residual by a
    factor close to one.  When a round fails to halve the forward residual
    (a stall), the loop switches to Newton steps on both filters
    (:func:`_newton_filters`) and keeps taking them while each one lowers the
    larger of the two residuals; a step that does not is dropped for a
    Sinkhorn round, and a later stall tries Newton again.  Newton is refused
    once the second-smallest singular value of its system falls below
    ``sqrt(rank_rel)`` times the largest, as it does while the filters
    diverge on a map without total support; the rest of that run is plain
    Sinkhorn.  ``iterations`` counts both kinds of step.
    """
    tol = _tol(tol)
    if T.src_dim != T.dst_dim:
        raise ValueError("scaling requires a square map")
    s = T.src_dim
    ident = np.eye(s, dtype=complex) / np.sqrt(s)
    left = np.eye(s, dtype=complex)
    right = np.eye(s, dtype=complex)
    F = T.kraus.transpose(1, 0, 2).reshape(s, -1)
    iterations = 0
    last = np.inf  # forward residual before the latest Sinkhorn round
    newton = False  # the latest step was an accepted Newton step
    refused = False  # the Newton guard refused once
    while True:
        fwd = _forward(F)
        res = np.abs(fwd - ident).max()
        bwd = None
        if res <= tol.sinkhorn_residual:
            bwd = _backward(F)
            if max(res, np.abs(bwd - ident).max()) <= tol.sinkhorn_residual:
                break
        if iterations >= tol.sinkhorn_max_iters:
            raise ScalingConvergenceError(
                f"scaling did not converge after {iterations} iterations"
            )
        iterations += 1
        if not refused and (newton or res > 0.5 * last):
            if bwd is None:
                bwd = _backward(F)
            filters = _newton_filters(F.reshape(s, -1, s).transpose(1, 0, 2), fwd, bwd, tol)
            refused = filters is None
            if not refused:
                L, R = filters
                trial = ((L @ F).reshape(-1, s) @ R).reshape(s, -1)
                if _residual(trial, ident) < max(res, np.abs(bwd - ident).max()):
                    F, left, right = trial, L @ left, right @ R
                    newton = True
                    continue
            newton = False
        last = res
        L = _inverse_sqrt_marginal(fwd, s, tol)
        F = L @ F
        left = L @ left
        R = _inverse_sqrt_marginal(_backward(F), s, tol)
        F = (F.reshape(-1, s) @ R).reshape(s, -1)
        right = right @ R
    scaled = CpMap(src_dim=s, dst_dim=s, kraus=F.reshape(s, -1, s).transpose(1, 0, 2))
    return ScalingResult(left=left, right=right, scaled=scaled, iterations=iterations)


# ---------------------------------------------------------------------------
# normal form of a state
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NormalFormResult:
    """Filters and the filtered state ``(left (x) right) rho (left (x) right)*``.

    The state has unit trace and both partial traces within ``residual`` of
    ``Id/k``; ``iterations`` is the largest scaling iteration count (Sinkhorn
    rounds plus Newton steps) over the scaled blocks.
    """

    left: np.ndarray
    right: np.ndarray
    state: BipartiteState
    residual: float
    iterations: int


def filter_normal_form(
    state: BipartiteState,
    verdict: Verdict | None = None,
    tol: Tolerances | None = None,
) -> NormalFormResult:
    """Compute local filters bringing a square state to its normal form.

    With an equivalent :class:`~filternorm.decide.Verdict`, the certified
    block structure is scaled block by block (this is the guaranteed path for
    PPT states).  Without a verdict the whole map is scaled as a single block,
    which works for generic states — including entangled NPT ones — but may
    raise :class:`SingularMarginalError` or :class:`ScalingConvergenceError`
    when no normal form exists.  A filtered state that fails the PSD gate,
    though the input passed it, is a numerical failure: ``RuntimeError``,
    chained from the :class:`NotPositiveError`.
    """
    tol = _tol(tol)
    if state.k != state.m:
        raise ValueError("normal form requires a square state; embed first")
    k = state.k

    if verdict is not None:
        if verdict.outcome != OUTCOME_EQUIVALENT or verdict.certificate is None:
            raise ValueError("normal form needs an equivalent verdict")
        cert = verdict.certificate
        prefilter = cert.prefilter
        accumulated = cert.accumulated_transform
        T = cert.final_map
        block_projs = [V for V, _ in verdict.blocks]
    else:
        prefilter = np.eye(k, dtype=complex)
        accumulated = np.eye(k, dtype=complex)
        T = state_to_map(state, tol)
        block_projs = [identity_projection(k)]

    left_glob = np.zeros((k, k), dtype=complex)
    right_glob = np.zeros((k, k), dtype=complex)
    iterations = 0
    for V in block_projs:
        corner = restrict_to_corner(T, V)
        sr = scale_to_doubly_stochastic(corner, tol)
        left_glob += V.basis @ sr.left @ dagger(V.basis)
        right_glob += V.basis @ sr.right @ dagger(V.basis)
        iterations = max(iterations, sr.iterations)

    # undo the map-side history: input transforms act transposed on the first
    # factor of the state, output transforms act directly on the second; the
    # filtered state's trace is tr(rho (L*L (x) R*R)): it is built once, normalized
    left_filter = right_glob.T @ np.linalg.inv(accumulated).T @ prefilter
    right_filter = left_glob @ accumulated
    grams = [dagger(F) @ F for F in (left_filter, right_filter)]
    total = float(np.vdot(state.rho, np.kron(*grams)).real)
    if total <= 0.0:
        raise RuntimeError("scaled state has nonpositive trace")
    left_filter = left_filter / np.sqrt(total)
    if k == 2:
        u1, u2 = _pauli_rotations(state, left_filter, right_filter)
        left_filter = u1 @ left_filter
        right_filter = u2 @ right_filter
    try:
        normal = apply_filter(state, left_filter, right_filter, tol)
    except NotPositiveError as exc:  # the input passed the gate: a numerical failure
        raise RuntimeError("normal form state failed its positivity check") from exc

    target = np.eye(k) / k
    residual = float(max(np.abs(partial_trace_first(normal) - target).max(),
                         np.abs(partial_trace_second(normal) - target).max()))
    if residual > 10.0 * tol.sinkhorn_residual:
        raise RuntimeError(f"normal form residual {residual:.2e} is too large")
    return NormalFormResult(
        left=left_filter,
        right=right_filter,
        state=normal,
        residual=residual,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# two-qubit Pauli form
# ---------------------------------------------------------------------------

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
# Built once: the products ``gamma_a (x) gamma_b`` (``gamma = sigma / sqrt(2)``)
# the two-qubit expansion takes traces against, and the non-identity Paulis.
_GAMMA = [p / np.sqrt(2.0) for p in _PAULI]
_GAMMA_PAIRS = np.array([[np.kron(ga, gb) for gb in _GAMMA] for ga in _GAMMA])
_SIGMA = np.array(_PAULI[1:])


def pauli_coefficients(state: BipartiteState) -> tuple[np.ndarray, float]:
    """Diagonal Pauli coefficients of a two-qubit state and its cross-term norm.

    Expands the state over ``gamma_a (x) gamma_b`` with
    ``gamma = (Id, sigma_x, sigma_y, sigma_z)/sqrt(2)``; returns the four
    diagonal coefficients ``lambda_a = tr(rho (gamma_a (x) gamma_a))`` and the
    Frobenius norm of all off-diagonal coefficients.  A state in normal form
    has cross-term norm (numerically) zero.
    """
    if state.k != 2 or state.m != 2:
        raise ValueError("Pauli coefficients are defined for two-qubit states")
    coeff = np.real(np.einsum("xy,abyx->ab", state.rho, _GAMMA_PAIRS))
    lams = np.diag(coeff).copy()
    cross = coeff - np.diag(np.diag(coeff))
    return lams, float(np.linalg.norm(cross))


def check_2x2_inequality(lams: np.ndarray, atol: float = 1e-9) -> bool:
    """Separability test for a two-qubit state in normal form.

    Such a state is separable iff
    ``lambda_1 >= |lambda_2| + |lambda_3| + |lambda_4|``; returns the
    inequality's truth up to ``atol``.
    """
    lams = np.asarray(lams, dtype=float).reshape(4)
    return bool(lams[0] + atol >= np.abs(lams[1:]).sum())


def _su2_from_rotation(O: np.ndarray) -> np.ndarray:
    """The SU(2) element ``u`` with ``u sigma_a u* = sum_b O[b, a] sigma_b``.

    ``u = w Id - i (x sigma_x + y sigma_y + z sigma_z)`` for the unit quaternion
    ``(w, x, y, z)`` of the rotation ``O``, read off by Shepperd's method: the
    largest of ``x^2, y^2, z^2, w^2`` comes from the diagonal, the other three
    from sums and differences of mirrored entries.
    """
    trace = O[0, 0] + O[1, 1] + O[2, 2]
    i = int(np.argmax([O[0, 0], O[1, 1], O[2, 2], trace]))
    q = np.empty(4)  # (x, y, z, w) times a positive factor
    if i == 3:
        q[:] = O[2, 1] - O[1, 2], O[0, 2] - O[2, 0], O[1, 0] - O[0, 1], 1.0 + trace
    else:
        j, k = (i + 1) % 3, (i + 2) % 3
        q[i] = 1.0 - trace + 2.0 * O[i, i]
        q[j] = O[j, i] + O[i, j]
        q[k] = O[k, i] + O[i, k]
        q[3] = O[k, j] - O[j, k]
    x, y, z, w = q / np.linalg.norm(q)
    return w * _PAULI[0] - 1j * (x * _PAULI[1] + y * _PAULI[2] + z * _PAULI[3])


def _pauli_rotations(
    state: BipartiteState, L: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Local unitaries diagonalizing the sigma-sigma correlation matrix
    ``tr(rho (L* sigma_a L (x) R* sigma_b R)) / 2`` of ``(L (x) R) rho (L (x) R)*``."""
    t = np.real(np.einsum("ijkl,aki,blj->ab", state.blocks(), dagger(L) @ _SIGMA @ L,
                          dagger(R) @ _SIGMA @ R)) / 2.0
    U, _, Vh = np.linalg.svd(t)
    V = Vh.T
    O1 = U @ np.diag([1.0, 1.0, float(np.linalg.det(U))])
    O2 = V @ np.diag([1.0, 1.0, float(np.linalg.det(V))])
    return dagger(_su2_from_rotation(O1)), dagger(_su2_from_rotation(O2))
