"""Operator Sinkhorn scaling, filter normal forms, and the two-qubit test."""

import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from filternorm import (
    BipartiteState,
    CpMap,
    NotPositiveError,
    ScalingConvergenceError,
    SingularMarginalError,
    Tolerances,
    adjoint,
    apply,
    apply_filter,
    check_2x2_inequality,
    conjugate,
    decide_equivalence,
    diagonal_state,
    filter_normal_form,
    is_doubly_stochastic,
    maximally_entangled,
    partial_trace_first,
    partial_trace_second,
    pauli_coefficients,
    restrict_to_corner,
    scale_to_doubly_stochastic,
    state_to_map,
)
from filternorm import scaling
from filternorm.linalg import DEFAULT_TOL, dagger
from filternorm.scaling import _PAULI, _su2_from_rotation
from helpers import (
    cli_env,
    hidden_blocky,
    neq2_state,
    random_invertible,
    random_unitary,
    separable_full_rank,
    unitary_mixture,
)


def marginal_residual(T):
    """Largest deviation of the two marginals from Id/sqrt(dim)."""
    s = T.src_dim
    ident = np.eye(s, dtype=complex) / np.sqrt(s)
    return max(
        np.abs(apply(T, ident) - ident).max(),
        np.abs(apply(adjoint(T), ident) - ident).max(),
    )


def test_scaling_requires_a_square_map():
    """Rectangular maps are rejected up front."""
    T = CpMap(src_dim=2, dst_dim=3, kraus=(np.ones((3, 2)),))
    with pytest.raises(ValueError):
        scale_to_doubly_stochastic(T)


def test_scaling_is_a_no_op_on_doubly_stochastic_maps():
    """An already doubly stochastic map returns unchanged in zero iterations."""
    rng = np.random.default_rng(0)
    T = unitary_mixture(3, 4, rng)
    result = scale_to_doubly_stochastic(T)
    assert result.iterations == 0
    assert np.abs(result.left - np.eye(3)).max() == 0.0
    assert np.abs(result.right - np.eye(3)).max() == 0.0
    assert is_doubly_stochastic(result.scaled)


def test_scaling_recovers_conjugated_doubly_stochastic_maps():
    """Hidden doubly stochastic structure is recovered by Sinkhorn iteration."""
    rng = np.random.default_rng(1)
    for k in (2, 3, 4):
        T = conjugate(unitary_mixture(k, 3, rng), random_invertible(k, rng))
        result = scale_to_doubly_stochastic(T)
        assert is_doubly_stochastic(result.scaled)
        assert marginal_residual(result.scaled) < 1e-7


def test_scaling_result_is_consistent():
    """The scaled map equals the original transformed by the returned filters."""
    rng = np.random.default_rng(2)
    T = conjugate(unitary_mixture(3, 3, rng), random_invertible(3, rng))
    result = scale_to_doubly_stochastic(T)
    for _ in range(5):
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        X = X @ X.conj().T
        want = result.left @ apply(
            T, result.right @ X @ result.right.conj().T
        ) @ result.left.conj().T
        assert np.abs(apply(result.scaled, X) - want).max() < 1e-10


def test_scaling_matches_the_classical_iteration_on_diagonal_maps():
    """A diagonal map scales to the classical doubly stochastic limit."""
    w = np.array([[2.0, 1.0], [1.0, 2.0]])
    T = state_to_map(diagonal_state(w / w.sum()))
    result = scale_to_doubly_stochastic(T)
    got = np.array(
        [[apply(result.scaled, np.diag([1.0, 0.0]))[j, j].real for j in range(2)],
         [apply(result.scaled, np.diag([0.0, 1.0]))[j, j].real for j in range(2)]]
    ).T
    expect, resid = oracles.classical_sinkhorn(w.T)
    assert resid < 1e-10
    assert np.abs(expect - np.array([[2, 1], [1, 2]]) / 3.0).max() < 1e-10
    assert np.abs(got - expect).max() < 1e-6


def test_scaling_raises_on_a_singular_marginal():
    """A map whose marginal is singular cannot be scaled."""
    K = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    T = CpMap(src_dim=2, dst_dim=2, kraus=(K,))
    with pytest.raises(SingularMarginalError):
        scale_to_doubly_stochastic(T)


def _random_map(k, nops, rng):
    """Square map with ``nops`` complex Gaussian Kraus operators."""
    kraus = rng.standard_normal((nops, k, k)) + 1j * rng.standard_normal((nops, k, k))
    return CpMap(src_dim=k, dst_dim=k, kraus=kraus)


def _oracle_maps():
    """Maps for the comparison with the one-operator-at-a-time loop."""
    rng = np.random.default_rng(12)
    maps = {"s=1": _random_map(1, 12, rng)}
    boundary = diagonal_state(np.array([[1.0, 1.0], [1e-4, 1.0]]) / (3.0 + 1e-4))
    turned = apply_filter(boundary, random_unitary(2, rng), random_unitary(2, rng))
    maps["boundary eps=1e-4"] = state_to_map(turned)
    for k in (2, 3, 5):
        maps[f"random k={k}"] = _random_map(k, k * k, rng)
    # more operators than s^2 (the wide matrix is wider than tall), and a
    # rank-deficient Choi matrix
    maps["20 operators on k=3"] = _random_map(3, 20, rng)
    maps["2 operators on k=3"] = _random_map(3, 2, rng)
    # the adjoint's Kraus stack is a transposed view, not a contiguous array
    maps["adjoint of random k=3"] = adjoint(maps["random k=3"])
    verdict = decide_equivalence(hidden_blocky(6, [3, 3], rng))
    for i, (V, _) in enumerate(verdict.blocks):
        maps[f"hidden-block corner {i}"] = restrict_to_corner(verdict.certificate.final_map, V)
    maps["singular marginal"] = CpMap(
        src_dim=2, dst_dim=2, kraus=(np.diag([1.0, 0.0]).astype(complex),))
    return maps


def _run_both(T, tol):
    """The package's result and the oracle's, or each one's exception."""
    try:
        got = scale_to_doubly_stochastic(T, tol)
    except (SingularMarginalError, ScalingConvergenceError) as exc:
        got = exc
    try:
        want = oracles.sinkhorn_loop(T.kraus, tol.rank_rel, tol.sinkhorn_residual,
                                     tol.sinkhorn_max_iters)
    except oracles.SinkhornStop as exc:
        want = exc
    return got, want


def _trace_normalized(gram):
    return gram / np.trace(gram).real


def _assert_agrees(got, want, name):
    """Same iteration count, and filters and operators within 1e-12 relative.

    The wide-matrix GEMMs sum the operators in another order than the oracle,
    so the two loops agree to rounding, not bit for bit.
    """
    left, right, kraus, its = want
    assert got.iterations == its, name
    for g, w in ((got.left, left), (got.right, right), (got.scaled.kraus, kraus)):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name


def _assert_stops_alike(got, want, name):
    """The oracle's stop: the same exception kind and message."""
    kinds = {"singular": SingularMarginalError, "cap": ScalingConvergenceError}
    assert type(got) is kinds[want.kind], name
    assert str(got) == str(want), name


def test_scaling_agrees_with_the_per_operator_loop(monkeypatch):
    """Maps that never stall take no Newton step and agree with the oracle.

    The stalled maps, the boundary map and the rank-deficient one, switch to
    Newton steps: each reaches the residual in a few steps and its result is
    consistent with its filters.  On the irreducible boundary map the filter
    Grams are unique up to scale, and they are the oracle's.  The
    rank-deficient map's doubly stochastic limit has the singular value 1
    three times, so its filters are not unique; the test of the cap compares
    its stop with the oracle's.
    """
    stalled = {"boundary eps=1e-4", "2 operators on k=3"}
    tol = Tolerances()
    newton_calls = []
    newton_filters = scaling._newton_filters

    def counted(*args):
        newton_calls.append(1)
        return newton_filters(*args)

    monkeypatch.setattr(scaling, "_newton_filters", counted)
    iterations = {}
    for name, T in _oracle_maps().items():
        newton_calls.clear()
        got, want = _run_both(T, tol)
        if isinstance(want, oracles.SinkhornStop):
            assert want.kind == "singular", name
            _assert_stops_alike(got, want, name)
            continue
        iterations[name] = got.iterations
        assert bool(newton_calls) == (name in stalled), name
        if name in stalled:
            assert marginal_residual(got.scaled) <= tol.sinkhorn_residual
            rebuilt = got.left @ T.kraus @ got.right
            assert np.abs(got.scaled.kraus - rebuilt).max() < 1e-12 * np.abs(rebuilt).max()
            if name == "boundary eps=1e-4":
                left, right = want[:2]
                for g, w in ((dagger(got.left) @ got.left, dagger(left) @ left),
                             (got.right @ dagger(got.right), right @ dagger(right))):
                    assert np.abs(_trace_normalized(g) - _trace_normalized(w)).max() < 1e-6
            continue
        _assert_agrees(got, want, name)
    assert len(iterations) == 10
    assert iterations["s=1"] == 1
    assert max(iterations[name] for name in stalled) <= 20
    assert min(iterations.values()) >= 1


def test_scaling_fails_like_the_per_operator_loop():
    """At a cap of three rounds both loops stop with the same error and message."""
    tol = Tolerances(sinkhorn_max_iters=3)
    stops = set()
    for name, T in _oracle_maps().items():
        got, want = _run_both(T, tol)
        if isinstance(want, oracles.SinkhornStop):
            _assert_stops_alike(got, want, name)
            stops.add(want.kind)
        else:
            _assert_agrees(got, want, name)
    assert stops == {"singular", "cap"}


BOUNDARY_EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


def _boundary_map(eps, rng=None):
    """Map of ``diag([[1, 1], [eps, 1]])``, turned by local unitaries if ``rng``."""
    state = diagonal_state(np.array([[1.0, 1.0], [eps, 1.0]]) / (3.0 + eps))
    if rng is not None:
        state = apply_filter(state, random_unitary(2, rng), random_unitary(2, rng))
    return state_to_map(state)


def _doubly_stochastic_limit(eps):
    """``t = sqrt(eps) / (1 + sqrt(eps))``: the limit is ``[[1-t, t], [t, 1-t]]``."""
    return np.sqrt(eps) / (1.0 + np.sqrt(eps))


def test_boundary_maps_scale_to_the_closed_form_limit_in_few_steps():
    """Near the boundary the scaled transfer matrix is the classical limit.

    Sinkhorn alone needs about ``eps^(-1/2)`` rounds here (25,625 at 1e-8).
    """
    for eps in BOUNDARY_EPS:
        result = scale_to_doubly_stochastic(_boundary_map(eps))
        t = _doubly_stochastic_limit(eps)
        got = np.array([[apply(result.scaled, np.diag(e).astype(complex))[j, j].real
                         for e in ([1.0, 0.0], [0.0, 1.0])] for j in range(2)])
        assert np.abs(got - np.array([[1 - t, t], [t, 1 - t]])).max() < 1e-8, eps
        assert result.iterations <= 20, eps


def test_boundary_maps_scale_alike_under_local_unitaries():
    """Local unitaries change the bases of the limit, not its transfer matrix.

    The limit measures in one orthonormal basis and prepares in another, so
    its superoperator ``sum K (x) conj(K)`` has the transfer matrix's singular
    values, ``1`` and ``1 - 2t``, and two zeros.
    """
    rng = np.random.default_rng(13)
    for eps in BOUNDARY_EPS:
        result = scale_to_doubly_stochastic(_boundary_map(eps, rng))
        K = result.scaled.kraus
        superop = np.einsum("nac,nbd->abcd", K, K.conj()).reshape(4, 4)
        t = _doubly_stochastic_limit(eps)
        sv = np.linalg.svd(superop, compute_uv=False)
        assert np.abs(sv - [1.0, 1.0 - 2.0 * t, 0.0, 0.0]).max() < 1e-8, eps
        assert result.iterations <= 20, eps


def test_boundary_map_at_eps_1e8_scales_within_half_a_second():
    """Sinkhorn alone took 25,625 rounds and several seconds on this map."""
    T = _boundary_map(1e-8)
    start = time.perf_counter()
    result = scale_to_doubly_stochastic(T)
    assert time.perf_counter() - start < 0.5
    assert marginal_residual(result.scaled) <= Tolerances().sinkhorn_residual


def test_newton_guard_leaves_unscalable_maps_to_fail():
    """Ill-posed Newton systems are refused, so no normal form appears.

    ``neq2`` has no total support, and at ``eps = 1e-12`` the two filters'
    condition numbers multiply to about ``eps^(-1/2) = 1e6``: the Newton
    system's second-smallest singular value falls as the filters grow, the
    guard refuses it, and plain Sinkhorn runs into the cap.  Without the
    guard Newton returns a "normal form" of ``neq2`` whose filters'
    condition numbers multiply to about ``7e7``.
    """
    tol = Tolerances(sinkhorn_max_iters=2000)
    with pytest.raises(ScalingConvergenceError):
        scale_to_doubly_stochastic(_boundary_map(1e-12), tol)
    with pytest.raises(ScalingConvergenceError):
        filter_normal_form(neq2_state(), None, tol)


def test_normal_form_of_a_one_by_one_state():
    """k = 1: with or without a verdict, [[2]] normalizes to [[1]]."""
    st = BipartiteState(k=1, m=1, rho=np.array([[2.0]]))
    for verdict in (decide_equivalence(st), None):
        nf = filter_normal_form(st, verdict)
        assert abs(nf.state.rho[0, 0] - 1.0) < 1e-15
        assert nf.residual < 1e-15
        assert nf.iterations == 1
        assert abs(abs(nf.left[0, 0] * nf.right[0, 0]) ** 2 * 2.0 - 1.0) < 1e-15


def test_normal_form_builds_one_filtered_state(monkeypatch):
    """A normal form factors one k^2 x k^2 matrix: the returned state's
    validation, a Cholesky of it shifted by a multiple of the identity below
    ``psd_abs``.  The trace (and for two qubits the Pauli rotation) is read
    off the filters, so no unnormalized state is built first; the state
    keeps trace 1 all the same.
    """
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "eig", "eigvals", "qr", "cholesky"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            if np.iscomplexobj(a):
                calls.append((_name, np.array(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(14)
    for st in (separable_full_rank(2, rng), separable_full_rank(3, rng),
               hidden_blocky(4, [2, 2], rng), hidden_blocky(6, [3, 3], rng)):
        verdict = decide_equivalence(st)
        calls.clear()
        nf = filter_normal_form(st, verdict)
        big = [(name, a) for name, a in calls if a.shape == (st.k ** 2, st.k ** 2)]
        assert [name for name, _ in big] == ["cholesky"]
        shift = big[0][1] - nf.state.rho
        assert 0.0 < shift[0, 0].real < DEFAULT_TOL.psd_abs
        assert np.abs(shift - shift[0, 0] * np.eye(st.k ** 2)).max() < 1e-15
        assert abs(np.trace(nf.state.rho).real - 1.0) < 1e-12


def test_normal_form_reports_a_failed_output_check_as_numerical(monkeypatch):
    """A filtered state that fails the PSD gate, for an input that passed it,
    is a numerical failure of the normal form and not bad input: a
    ``RuntimeError`` chained from the ``NotPositiveError``."""
    def negated(state, left, right, tol=None):
        return BipartiteState(k=state.k, m=state.m, rho=-state.rho)

    st = separable_full_rank(2, np.random.default_rng(6))
    verdict = decide_equivalence(st)
    monkeypatch.setattr(scaling, "apply_filter", negated)
    with pytest.raises(RuntimeError, match="positivity") as info:
        filter_normal_form(st, verdict)
    assert isinstance(info.value.__cause__, NotPositiveError)
    assert not isinstance(info.value, ValueError)


def test_normal_form_requires_a_square_state():
    """Rectangular states must be embedded before asking for a normal form."""
    with pytest.raises(ValueError):
        filter_normal_form(BipartiteState(k=2, m=3, rho=np.eye(6) / 6))


def test_normal_form_rejects_non_equivalent_verdicts():
    """Passing a failed verdict is an error, not a silent fallback."""
    verdict = decide_equivalence(neq2_state())
    with pytest.raises(ValueError):
        filter_normal_form(neq2_state(), verdict)


def test_normal_form_of_random_full_rank_states():
    """Certified block scaling drives both partial traces to Id/k."""
    rng = np.random.default_rng(3)
    for k in (2, 3):
        st = separable_full_rank(k, rng)
        verdict = decide_equivalence(st)
        nf = filter_normal_form(st, verdict)
        eye = np.eye(k) / k
        assert abs(np.trace(nf.state.rho).real - 1.0) < 1e-12
        direct = max(
            np.abs(partial_trace_first(nf.state) - eye).max(),
            np.abs(partial_trace_second(nf.state) - eye).max(),
        )
        assert direct < 1e-7
        assert abs(direct - nf.residual) < 1e-12
        rebuilt = apply_filter(st, nf.left, nf.right)
        assert np.abs(rebuilt.rho - nf.state.rho).max() < 1e-12


def test_normal_form_is_idempotent():
    """Normalizing a normal form only moves it by (scaled) unitaries."""
    rng = np.random.default_rng(4)
    for k in (2, 3):
        st = separable_full_rank(k, rng)
        nf = filter_normal_form(st, decide_equivalence(st))
        again = filter_normal_form(nf.state)
        for F in (again.left, again.right):
            gram = F.conj().T @ F
            scale = np.trace(gram).real / k
            assert np.abs(gram - scale * np.eye(k)).max() < 1e-6


def test_normal_form_without_a_verdict_handles_entangled_states():
    """The single-block path normalizes the maximally entangled state."""
    st = maximally_entangled(2)
    nf = filter_normal_form(st)
    assert nf.residual < 1e-8
    lams, cross = pauli_coefficients(nf.state)
    assert cross < 1e-8
    assert np.abs(lams - np.array([0.5, 0.5, 0.5, -0.5])).max() < 1e-8


def test_normal_form_canonicalizes_two_qubit_pauli_terms():
    """For two qubits the residual rotation sorts and cleans the Pauli form."""
    rng = np.random.default_rng(5)
    st = diagonal_state(np.diag([0.5, 0.5]))
    nf = filter_normal_form(st, decide_equivalence(st))
    lams, cross = pauli_coefficients(nf.state)
    assert cross < 1e-10
    assert np.abs(lams - np.array([0.5, 0.5, 0.0, 0.0])).max() < 1e-10
    assert check_2x2_inequality(lams)
    st2 = separable_full_rank(2, rng)
    nf2 = filter_normal_form(st2, decide_equivalence(st2))
    lams2, cross2 = pauli_coefficients(nf2.state)
    assert cross2 < 1e-7
    assert lams2[1] >= lams2[2] >= abs(lams2[3]) - 1e-9


def test_normal_form_fails_honestly_when_none_exists():
    """Scaling the non-equivalent example degenerates or hits the cap."""
    tol = Tolerances(sinkhorn_max_iters=2000)
    with pytest.raises((SingularMarginalError, ScalingConvergenceError)):
        filter_normal_form(neq2_state(), None, tol)


def test_pauli_coefficients_match_the_correlation_oracle():
    """Diagonal coefficients and cross norm agree with the direct expansion."""
    rng = np.random.default_rng(6)
    for st in [diagonal_state(np.diag([0.5, 0.5])), separable_full_rank(2, rng)]:
        lams, cross = pauli_coefficients(st)
        t = oracles.pauli_correlation(st.rho)
        assert np.abs(lams - np.diag(t)).max() < 1e-12
        off = t - np.diag(np.diag(t))
        assert abs(cross - np.linalg.norm(off)) < 1e-12
    with pytest.raises(ValueError):
        pauli_coefficients(BipartiteState(k=3, m=3, rho=np.eye(9) / 9))


def test_2x2_inequality_truth_table():
    """Known separable and entangled coefficient patterns classify correctly."""
    assert check_2x2_inequality(np.array([0.5, 0.5, 0.0, 0.0]))
    assert not check_2x2_inequality(np.array([0.5, 0.5, 0.5, -0.5]))
    assert check_2x2_inequality(np.array([0.5, 0.5, 5e-10, 0.0]))
    assert not check_2x2_inequality(np.array([0.5, 0.5, 1e-6, 0.0]))


def test_su2_from_rotation_covers_so3():
    """``u sigma_a u* = sum_b O[b, a] sigma_b`` with ``det u = 1``.

    The identity and the three half turns take each of the four branches of
    the quaternion read-off; random rotations cover the rest.
    """
    rng = np.random.default_rng(11)
    rotations = [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
                 np.diag([-1.0, -1.0, 1.0])]
    for _ in range(200):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotations.append(q * np.linalg.det(q))
    for O in rotations:
        u = _su2_from_rotation(O)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
        for a in range(3):
            image = u @ _PAULI[a + 1] @ u.conj().T
            want = sum(O[b, a] * _PAULI[b + 1] for b in range(3))
            assert np.abs(image - want).max() < 1e-12


def test_import_does_not_load_scipy():
    """scipy is a test dependency only: importing the package leaves it out."""
    code = "import sys, filternorm; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=cli_env())
    assert out.stdout.strip() == "False"
