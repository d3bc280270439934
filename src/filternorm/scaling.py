"""Operator Sinkhorn scaling and filter normal forms.

:func:`scale_to_doubly_stochastic` scales a CP map from ``k x k`` to
``m x m`` matrices, square or not, to a doubly stochastic one,
``T(Id/sqrt(k)) = Id/sqrt(m)`` and ``T*(Id/sqrt(m)) = Id/sqrt(k)``, by
alternately fixing the two marginals, each one product of the map's
superoperator with a vector and one ``eigh`` of the marginal for its inverse
square root.  On each irreducible block certified by the decision stage
this converges, and the block scalings assemble into local filters that
bring the state to its normal form (unit trace, both partial traces
proportional to the identity).  A state from
:func:`~filternorm.states.embed_rectangular` is scaled, by the same
function, on its ``k x m`` factor's map instead, whose filters ``A`` and
``B`` give the embedding's as ``Id_m (x) A`` and ``B (x) Id_k``.  One flow
follows either scaling: the filters are assembled and normalized, the
filtered state is built and gated once, and the residual is read off the
returned state.  For two qubits a final pair of local unitaries also kills
every cross term of the Pauli form.

Near the boundary of the scalable maps Sinkhorn needs about ``eps^(-1/2)``
rounds for a block ``eps`` away from losing total support.  Once a round
fails to halve the residual, or the rounds' contraction settles at a rate
that predicts more rounds than the Newton system has unknowns, the loop
takes Newton steps on both filters instead: about ten near the boundary, a
few on a random two-qubit map.  A well-conditioned Newton system is their
precondition, so maps without a normal form still fail as plain Sinkhorn
fails on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .decide import OUTCOME_EQUIVALENT, Verdict
from .linalg import (
    Tolerances,
    _tol,
    dagger,
    hermitian_basis,
)
from .maps import CpMap, _derive, restrict_to_corner, transform
from .states import (
    BipartiteState,
    NotPositiveError,
    apply_filter,
    embed_rectangular,
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
    """Scaling certificate: ``scaled(X) = left T(right X right*) left*``,
    built from ``T`` and the filters on first read."""

    left: np.ndarray
    right: np.ndarray
    iterations: int
    _map: CpMap = field(repr=False)

    @cached_property
    def scaled(self) -> CpMap:
        """The doubly stochastic map, Kraus ``K -> left K right``."""
        return transform(self._map, self.left, self.right)


def _inverse_sqrt_marginal(G: np.ndarray, s: int, tol: Tolerances) -> np.ndarray:
    """``s^{-1/4} G^{-1/2}``, raising when the marginal is numerically singular.

    One ``eigh`` serves both, and it reads only the lower triangle of ``G``,
    so ``G`` is not mirrored first: once the collapse check passes the
    marginal is positive definite, so every eigenvalue enters the inverse
    root.  Non-finite entries are a ``ValueError``, tested before ``eigh``,
    which may answer a NaN with finite eigenvalues or fail to converge; NaN
    eigenvalues count as a collapse.
    """
    if not np.isfinite(G).all():
        raise ValueError("hermitian matrix contains non-finite entries")
    eigs, vecs = np.linalg.eigh(G)
    if not (eigs[-1] > 0.0 and eigs[0] > tol.rank_rel * eigs[-1]):
        raise SingularMarginalError(
            f"marginal collapsed during scaling (eigenvalues in "
            f"[{eigs[0]:.3e}, {eigs[-1]:.3e}])"
        )
    return (vecs * (s ** (-0.25) / np.sqrt(eigs))) @ dagger(vecs)


@lru_cache(maxsize=16)
def _newton_basis(s: int) -> tuple[np.ndarray, ...]:
    """Read-only tables of ``hermitian_basis(s)``, built on first use per size:
    the basis as ``s^2 x s^2`` rows ``flat``, ``rows`` with
    ``g @ rows = Re tr(E_i G)`` for ``g`` the real view of ``vec G``, and the
    coordinates ``target`` of ``Id/sqrt(s)``."""
    n = s * s
    flat = hermitian_basis(s).reshape(n, n)
    rows = flat.view(float).T.copy()
    target = np.eye(s).reshape(n) @ rows[::2] / np.sqrt(s)
    for view in (flat, rows, target):
        view.flags.writeable = False
    return flat, rows, target


def _newton_filters(
    S: np.ndarray, left: np.ndarray, right: np.ndarray, fwd: np.ndarray, bwd: np.ndarray,
    tol: Tolerances,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Filters ``(e^{h/2}, e^{g/2})`` of one Newton step on both marginals.

    The scaled map ``T'(X) = left T(right X right*) left*`` takes ``k x k`` to
    ``m x m`` matrices, and ``fwd = T'(Id/sqrt(k))``, ``bwd = T'*(Id/sqrt(m))``
    are its marginals.  ``K -> e^{h/2} K e^{g/2}`` moves ``fwd`` by
    ``{h, fwd}/2 + T'(g)/sqrt(k)`` and ``bwd`` by ``T'*(h)/sqrt(m) + {g, bwd}/2``
    to first order.  In the coordinates of :func:`hermitian_basis` this is a
    real system ``J`` of size ``m^2 + k^2``; its ``T'`` block
    ``Re tr(left* E_i left T(right F_j right*)) / sqrt(k)`` is
    ``Re conj(outer) S inner^T``, ``S`` the superoperator of ``T`` over
    ``sqrt(k)``, over the flattened stacks ``left* E_i left`` and ``right F_j
    right*``, the ``T'*`` block its transpose times ``sqrt(k/m)``, so ``J`` is
    symmetric for a square map.  Its diagonal blocks ``Re tr(E_i {E_j, G}) / 2``,
    ``G`` the marginal, are ``Re tr(E_i G E_j)``, as ``tr(E_i E_j G)`` is the
    conjugate of ``tr(E_i G E_j)`` for Hermitian ``E_i``, ``E_j``, ``G``: one
    product of the images ``G E_j`` with the rows of :func:`_newton_basis`.
    ``(Id_m, -Id_k)`` spans the null space (it rescales both sides against
    each other), so ``lstsq``, cutting singular values below ``rank_rel`` of
    the largest, returns the minimum-norm step: computed from the filters,
    ``J`` annuls it only to rounding times their condition numbers.  Where one
    exponential overflows, the filters are not finite.

    Returns ``None`` when the second-smallest singular value of ``J`` is
    below ``sqrt(rank_rel)`` times the largest: the step is then ill-posed,
    as on maps without total support, whose filters diverge.
    """
    m, k = len(fwd), len(bwd)
    p, q = m * m, k * k
    # a square map's two sides have one size, and each product and
    # eigendecomposition below takes them both in one stacked call; each
    # group is (size, marginals, first coordinate)
    groups = [(m, (fwd, bwd), 0)] if m == k else [(m, (fwd,), 0), (k, (bwd,), p)]
    jac, rhs = np.empty((p + q, p + q)), np.empty(p + q)
    for d, marginals, start in groups:
        n = d * d
        flat, rows, target = _newton_basis(d)
        G = np.array(marginals, dtype=complex)
        images = (G[:, None] @ flat.reshape(n, d, d)).reshape(len(G), n, n).view(float)
        for i, block in enumerate(images @ rows):
            first = start + i * n
            jac[first:first + n, first:first + n] = block
        rhs[start:start + len(G) * n] = (target - G.reshape(-1, n).view(float) @ rows).ravel()
    outer = (dagger(left) @ _newton_basis(m)[0].reshape(p, m, m) @ left).reshape(p, p)
    inner = (right @ _newton_basis(k)[0].reshape(q, k, k) @ dagger(right)).reshape(q, q)
    jac[:p, p:] = np.real(outer.conj() @ S @ inner.T)
    jac[p:, :p] = jac[:p, p:].T
    if m != k:
        jac[p:, :p] *= np.sqrt(k / m)
    step, _, _, sv = np.linalg.lstsq(jac, rhs, rcond=tol.rank_rel)
    if sv[-2] < np.sqrt(tol.rank_rel) * sv[0]:
        return None
    filters = ()
    for d, marginals, start in groups:
        coords = step[start:start + len(marginals) * d * d].reshape(len(marginals), -1)
        eigs, vecs = np.linalg.eigh((coords @ _newton_basis(d)[0]).reshape(-1, d, d) / 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            filters += tuple((vecs * np.exp(eigs)[:, None, :]) @ dagger(vecs))
    return filters


def scale_to_doubly_stochastic(
    T: CpMap, tol: Tolerances | None = None
) -> ScalingResult:
    """Sinkhorn-scale a CP map ``T`` from ``k x k`` to ``m x m`` matrices to
    the targets of :func:`~filternorm.maps.is_doubly_stochastic`,
    ``T(Id/sqrt(k)) = Id/sqrt(m)`` and ``T*(Id/sqrt(m)) = Id/sqrt(k)``.

    Each round conjugates the output side by ``m^{-1/4} T(Id/sqrt(k))^{-1/2}``
    (which makes the forward marginal exact) and then the input side by the
    matching ``k^{-1/4} T*(Id/sqrt(m))^{-1/2}``, so the filters are ``m x m``
    and ``k x k``.  Stops when both marginal residuals are at most
    ``sinkhorn_residual``; a map already doubly stochastic returns after zero
    iterations.  Raises :class:`SingularMarginalError` when a marginal
    degenerates and :class:`ScalingConvergenceError` at the
    ``sinkhorn_max_iters`` cap.

    ``T`` stays unscaled and the loop accumulates the two filters, so each
    marginal is one matvec of ``T``: ``left T(right right*) left*`` over
    ``sqrt(k)`` and ``right* T*(left* left) right`` over ``sqrt(m)``, one
    product of its superoperator ``S`` with a vector, ``k^2 m^2``
    multiplications for any number of Kraus operators; the decision's final
    map has built ``S`` already.  A round computes each marginal once: the
    forward one of the stopping check is the one the output filter inverts,
    and the adjoint one is needed for the check only once the forward one
    passes.  Each half-step is one ``eigh`` of the marginal's lower
    triangle, which serves the collapse check and the inverse square root
    (``s^{-1/4}`` on its eigenvalue weights); a non-finite marginal raises
    ``ValueError``.

    Near the boundary of the scalable maps a round shrinks the residual by a
    factor close to one.  When a round fails to halve the forward residual
    (a stall), or when its contraction ``q`` is within 25 % of the round
    before's and predicts more rounds to ``sinkhorn_residual`` than the
    ``m^2 + k^2`` unknowns of the Newton system (``res q^(m^2 + k^2)`` is
    still above it), the loop switches to Newton steps on both filters
    (:func:`_newton_filters`) and keeps taking them while each one lowers the
    larger of the two residuals, handing that test's two marginals to the
    next iteration.  A trial that does not, or whose filters or marginals
    overflow, is rejected silently for a Sinkhorn round, and Newton then
    waits out twice as many Sinkhorn rounds as after the previous rejection
    (2, 4, 8, ...) before a stall tries it again.  Newton is refused for the
    rest of the run once the second-smallest singular value of its system
    falls below ``sqrt(rank_rel)`` times the largest, as it does while the
    filters diverge on a map without total support.  ``iterations`` counts
    both kinds of step.
    """
    tol = _tol(tol)
    k, m = T.src_dim, T.dst_dim
    S = T.superop / np.sqrt(k)
    Sa = S if k == m else T.superop / np.sqrt(m)

    def forward(L, R):  # L T(R R*) L* / sqrt(k)
        return L @ (S @ (R @ R.conj().T).ravel()).reshape(m, m) @ L.conj().T

    def backward(L, R):  # R* T*(L* L) R / sqrt(m), T*(Y) = conj(conj(vec Y) S)
        return R.conj().T @ ((L.T @ L.conj()).ravel() @ Sa).conj().reshape(k, k) @ R

    left, right = np.eye(m, dtype=complex), np.eye(k, dtype=complex)
    ident_out, ident_in = left / np.sqrt(m), right / np.sqrt(k)
    iterations = 0
    last = np.inf  # forward residual before the latest Sinkhorn round
    q_last = 0.0  # the contraction res / last of the Sinkhorn round before it
    newton = False  # the latest step was an accepted Newton step
    refused = False  # the Newton guard refused once
    wait, backoff = 0, 1  # Sinkhorn rounds before Newton may run again, and the next wait
    fwd, bwd = forward(left, right), None  # the scaled marginals; bwd only once needed
    while True:
        res = np.abs(fwd - ident_out).max()
        if res <= tol.sinkhorn_residual:
            if bwd is None:
                bwd = backward(left, right)
            if max(res, np.abs(bwd - ident_in).max()) <= tol.sinkhorn_residual:
                break
        if iterations >= tol.sinkhorn_max_iters:
            raise ScalingConvergenceError(
                f"scaling did not converge after {iterations} iterations"
            )
        iterations += 1
        # a contraction within 25 % of the round before's predicts the rounds
        # left; a Newton step costs fewer rounds than its m^2 + k^2 unknowns
        # (about 1.5 at k = m = 2, 300 at 16), so it runs where more are left
        q = res / last
        if not refused and not wait and (newton or res > 0.5 * last or (
                abs(q - q_last) < 0.25 * q_last
                and res * q ** (m * m + k * k) > tol.sinkhorn_residual)):
            if bwd is None:
                bwd = backward(left, right)
            filters = _newton_filters(S, left, right, fwd, bwd, tol)
            refused = filters is None
            if not refused:
                with np.errstate(over="ignore", invalid="ignore"):
                    trial = filters[0] @ left, right @ filters[1]
                    trial_fwd, trial_bwd = forward(*trial), backward(*trial)
                    trial_res = max(np.abs(trial_fwd - ident_out).max(),
                                    np.abs(trial_bwd - ident_in).max())
                if trial_res < max(res, np.abs(bwd - ident_in).max()):
                    (left, right), fwd, bwd = trial, trial_fwd, trial_bwd
                    newton = True
                    continue
                wait = backoff = 2 * backoff
            newton = False
        last, q_last = res, q
        if wait:
            wait -= 1
        # where the filters diverge the marginals overflow, as in a Newton
        # trial, and the next inverse square root raises on them
        with np.errstate(over="ignore", invalid="ignore"):
            left = _inverse_sqrt_marginal(fwd, m, tol) @ left
            right = right @ _inverse_sqrt_marginal(backward(left, right), k, tol)
            fwd, bwd = forward(left, right), None
    return ScalingResult(left, right, iterations, _map=T)


# ---------------------------------------------------------------------------
# normal form of a state
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NormalFormResult:
    """Filters and the filtered state ``(left (x) right) rho (left (x) right)*``.

    The state has unit trace, and ``residual`` is the larger deviation of
    its two partial traces from ``Id/k``, read off this state itself;
    ``iterations`` is the largest scaling iteration count (Sinkhorn rounds
    plus Newton steps) over the scaled blocks.  For a state from
    :func:`~filternorm.states.embed_rectangular` the filters are
    ``Id_m (x) A`` and ``B (x) Id_k`` and the state is the embedding of the
    ``k x m`` state ``(A (x) B) rho (A (x) B)*``, which it keeps as its
    factor: ``mk`` times that factor is the ``k x m`` normal form, with
    partial traces ``Id_k/k`` and ``Id_m/m``.
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

    A state from :func:`~filternorm.states.embed_rectangular`,
    ``Id_m (x) rho (x) Id_k`` for a ``k x m`` state ``rho``, is scaled on
    ``rho``'s map ``T: M_k -> M_m`` (the verdict's final map holds its Kraus
    stack and superoperator) to ``T(Id/sqrt(k)) = Id/sqrt(m)`` and
    ``T*(Id/sqrt(m)) = Id/sqrt(k)``, whole.  The embedding commutes with
    ``U (x) Id_k`` on its first factor and ``Id_m (x) V`` on its second for
    unitaries ``U``, ``V``, so normal-form filters can take the shapes
    ``Id_m (x) A`` and ``B (x) Id_k``, under which the embedded normal form
    is the embedding of a ``k x m`` one.  Scaling the whole map reaches it:
    Sinkhorn on the embedded map keeps its filters in those shapes (its
    marginals are ``T(.) (x) Id_k`` and ``Id_m (x) T*(.)``, up to constants),
    so :func:`scale_to_doubly_stochastic` runs on ``T``; an ``equivalent``
    verdict says the embedded map has a normal form, so it converges
    (Gurvits, 2004).  The ``k x m`` state is built and passes the PSD gate,
    and the result embeds it, so nothing of size ``(mk)^2`` is multiplied or
    factored.  A ``1 x 2`` or ``2 x 1`` state embeds into two qubits, where
    its normal form is ``Id/4``, whose Pauli form has no cross terms: it
    takes no Pauli rotation.

    One flow follows the scaling in every case: the scaled parts' filters are
    assembled, composed with the decision's transforms, normalized to unit
    trace and gated once, and the residual is read off the returned state's
    partial traces, for an embedded state off the diagonal blocks of the
    output embedding, ``O((mk)^3)``.
    """
    tol = _tol(tol)
    if state.k != state.m:
        raise ValueError("normal form requires a square state; embed first")
    if verdict is not None and (
        verdict.outcome != OUTCOME_EQUIVALENT or verdict.certificate is None
    ):
        raise ValueError("normal form needs an equivalent verdict")

    # the state the filters act on; the maps to scale, each with the basis of
    # the block it fills (None: the whole space); and the map-side history
    # the filters compose with, identities unless a square verdict has one
    target = state if state._factor is None else state._factor
    k, m = target.k, target.m
    history = np.eye(k, dtype=complex), np.eye(k, dtype=complex), np.eye(m, dtype=complex)
    if verdict is None:
        parts = [(state_to_map(target, tol), None)]
    elif target is not state:
        # the final map's plain core: the factor's stack and the decision's superoperator
        parts = [(_derive(verdict.certificate.final_map, src_dim=k, dst_dim=m,
                          embedded=False, dual=False, left=None, right=None), None)]
    else:
        cert = verdict.certificate
        parts = [(restrict_to_corner(cert.final_map, V), V.basis) for V, _ in verdict.blocks]
        accumulated = cert.accumulated_transform
        history = np.linalg.inv(accumulated).T, cert.prefilter, accumulated

    scaled = [(scale_to_doubly_stochastic(T, tol), b) for T, b in parts]
    outer = sum(sr.left if b is None else b @ sr.left @ dagger(b) for sr, b in scaled)
    inner = sum(sr.right if b is None else b @ sr.right @ dagger(b) for sr, b in scaled)
    # undo the map-side history: input transforms act transposed on the first
    # factor of the state, output transforms act directly on the second; the
    # filtered state is built once, normalized by a trace read off the filters
    left = inner.T @ history[0] @ history[1]
    right = outer @ history[2]
    n = state.order // target.order  # an embedding's trace is mk times its factor's
    left = left / np.sqrt(n * _filtered_trace(target, left, right))
    if state.k == 2 and target is state:
        u1, u2 = _pauli_rotations(state, left, right)
        left, right = u1 @ left, u2 @ right
    try:
        normal = apply_filter(target, left, right, tol)
    except NotPositiveError as exc:
        raise RuntimeError("normal form state failed its positivity check") from exc
    if target is not state:
        normal = embed_rectangular(normal)
        left, right = np.kron(np.eye(m), left), np.kron(right, np.eye(k))

    ident = np.eye(state.k) / state.k
    residual = float(max(np.abs(partial_trace_first(normal) - ident).max(),
                         np.abs(partial_trace_second(normal) - ident).max()))
    if residual > 10.0 * tol.sinkhorn_residual:
        raise RuntimeError(f"normal form residual {residual:.2e} is too large")
    return NormalFormResult(
        left=left,
        right=right,
        state=normal,
        residual=residual,
        iterations=max(sr.iterations for sr, _ in scaled),
    )


def _filtered_trace(state: BipartiteState, left: np.ndarray, right: np.ndarray) -> float:
    """``tr(rho (L*L (x) R*R))`` off the blocks of ``rho``, one Gram at a time;
    a trace that is not positive is a numerical failure: ``RuntimeError``."""
    partial = np.einsum("ijkl,ki->jl", state.blocks(), dagger(left) @ left)
    total = float(np.vdot(dagger(right) @ right, partial).real)  # conj(R*R) = (R*R)^T
    if total <= 0.0:
        raise RuntimeError("scaled state has nonpositive trace")
    return total


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
    O = O.tolist()  # Python floats: a 3 x 3 read-off is cheaper off a list
    trace = O[0][0] + O[1][1] + O[2][2]
    i = max(range(4), key=[O[0][0], O[1][1], O[2][2], trace].__getitem__)
    q = [0.0] * 4  # (x, y, z, w) times a positive factor
    if i == 3:
        q = [O[2][1] - O[1][2], O[0][2] - O[2][0], O[1][0] - O[0][1], 1.0 + trace]
    else:
        j, k = (i + 1) % 3, (i + 2) % 3
        q[i] = 1.0 - trace + 2.0 * O[i][i]
        q[j] = O[j][i] + O[i][j]
        q[k] = O[k][i] + O[i][k]
        q[3] = O[k][j] - O[j][k]
    norm = sum(v * v for v in q) ** 0.5
    x, y, z, w = (v / norm for v in q)
    return np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]])


def _pauli_rotations(
    state: BipartiteState, L: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Local unitaries diagonalizing the sigma-sigma correlation matrix
    ``tr(rho (L* sigma_a L (x) R* sigma_b R)) / 2`` of ``(L (x) R) rho (L (x) R)*``,
    ``Re(A rho' B^T) / 2`` for ``A``, ``B`` the stacks ``L* sigma L``, ``R* sigma R``
    flattened to ``3 x 4`` and ``rho'`` the blocks of ``rho`` as ``(ki) x (lj)``."""
    A, B = ((dagger(X) @ _SIGMA @ X).reshape(3, 4) for X in (L, R))
    t = np.real(A @ state.blocks().transpose(2, 0, 3, 1).reshape(4, 4) @ B.T) / 2.0
    U, _, Vh = np.linalg.svd(t)
    U[:, 2] *= np.linalg.det(U)
    Vh[2] *= np.linalg.det(Vh)
    return dagger(_su2_from_rotation(U)), dagger(_su2_from_rotation(Vh.T))
