"""Operator Sinkhorn scaling, filter normal forms, and the two-qubit test."""

import subprocess
import sys
import time
import tracemalloc

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
    embed_rectangular,
    filter_normal_form,
    is_doubly_stochastic,
    maximally_entangled,
    partial_trace_first,
    partial_trace_second,
    pauli_coefficients,
    random_state,
    restrict_to_corner,
    scale_to_doubly_stochastic,
    state_to_map,
    transform,
)
from filternorm import scaling
from filternorm.linalg import DEFAULT_TOL, dagger
from filternorm.scaling import _PAULI, _su2_from_rotation
from helpers import (
    cli_env,
    hidden_blocky,
    ill_filtered,
    neq2_state,
    pattern_state,
    pattern_weights,
    random_invertible,
    random_npt_2x2,
    random_ppt_2x2,
    random_unitary,
    rect_blocky_state,
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


def partial_trace_deviation(state):
    """Largest deviation of a square state's two partial traces from Id/k,
    computed as ``filter_normal_form`` reports its residual."""
    ident = np.eye(state.k) / state.k
    return float(max(np.abs(partial_trace_first(state) - ident).max(),
                     np.abs(partial_trace_second(state) - ident).max()))


def test_rectangular_maps_scale_through_the_public_function():
    """Maps from 2 x 2 to 3 x 3 matrices and back scale to the targets of
    ``is_doubly_stochastic``, with an output filter of the output's size
    and an input filter of the input's."""
    rng = np.random.default_rng(26)
    for k, m in ((2, 3), (3, 2)):
        kraus = rng.standard_normal((4, m, k)) + 1j * rng.standard_normal((4, m, k))
        result = scale_to_doubly_stochastic(CpMap(src_dim=k, dst_dim=m, kraus=kraus))
        assert result.left.shape == (m, m) and result.right.shape == (k, k)
        assert (result.scaled.src_dim, result.scaled.dst_dim) == (k, m)
        assert apply(result.scaled, np.eye(k)).shape == (m, m)
        assert is_doubly_stochastic(result.scaled)


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
    # full Choi rank (r = s^2) behind ill-conditioned filters: the marginals
    # come from the superoperator and the filters, never from scaled operators
    rng = np.random.default_rng(15)
    maps["full Choi rank k=5, filtered"] = transform(
        _random_map(5, 25, rng), random_invertible(5, rng), random_invertible(5, rng))
    return maps


def _run_both(T, tol):
    """The package's result and the oracle's, or each one's exception."""
    try:
        got = scale_to_doubly_stochastic(T, tol)
    except (SingularMarginalError, ScalingConvergenceError) as exc:
        got = exc
    try:
        want = oracles.sinkhorn_loop(oracles.kraus_operators(T), tol.rank_rel,
                                     tol.sinkhorn_residual, tol.sinkhorn_max_iters)
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
    for g, w in ((got.left, left), (got.right, right),
                 (oracles.kraus_operators(got.scaled), kraus)):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name


def _assert_stops_alike(got, want, name):
    """The oracle's stop: the same exception kind and message."""
    kinds = {"singular": SingularMarginalError, "cap": ScalingConvergenceError}
    assert type(got) is kinds[want.kind], name
    assert str(got) == str(want), name


def _assert_grams_agree(got, T, name):
    """The filter Grams, unique up to scale on an irreducible map, are those
    of the oracle run to residual 1e-13, within 1e-7."""
    left, right = oracles.sinkhorn_loop(oracles.kraus_operators(T), residual=1e-13)[:2]
    for g, w in ((dagger(got.left) @ got.left, dagger(left) @ left),
                 (got.right @ dagger(got.right), right @ dagger(right))):
        assert np.abs(_trace_normalized(g) - _trace_normalized(w)).max() < 1e-7, name


def test_scaling_agrees_with_the_per_operator_loop(monkeypatch):
    """Maps that take no Newton step agree with the oracle.

    Three maps switch to Newton steps: the two that stall (the boundary map
    and the rank-deficient one) and "random k=2", whose Sinkhorn contraction
    settles at a rate that predicts more rounds than the Newton system has
    unknowns.  Each reaches the residual in a few steps and its result is
    consistent with its filters.  On the irreducible maps the filter Grams
    are unique up to scale, and they are those of the oracle run to 1e-13.
    The rank-deficient map's doubly stochastic limit has the singular value
    1 three times, so its filters are not unique; the test of the cap
    compares its stop with the oracle's.
    """
    newton = {"boundary eps=1e-4", "2 operators on k=3", "random k=2"}
    unique = {"boundary eps=1e-4", "random k=2"}
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
        assert bool(newton_calls) == (name in newton), name
        if name in newton:
            assert marginal_residual(got.scaled) <= tol.sinkhorn_residual
            rebuilt = got.left @ oracles.kraus_operators(T) @ got.right
            scaled = oracles.kraus_operators(got.scaled)
            assert np.abs(scaled - rebuilt).max() < 1e-12 * np.abs(rebuilt).max()
            if name in unique:
                _assert_grams_agree(got, T, name)
            continue
        _assert_agrees(got, want, name)
    assert len(iterations) == 11
    assert iterations["s=1"] == 1
    assert max(iterations[name] for name in newton) <= 20
    assert min(iterations.values()) >= 1


def test_two_qubit_normal_forms_finish_with_newton_steps():
    """Random two-qubit maps shrink the Sinkhorn residual by only about 0.3 a
    round, so plain Sinkhorn took 10.96 iterations on average and 24 at most
    on these 200 normal forms (PPT states with their verdict, NPT ones
    without).  Once that contraction settles it predicts more rounds than
    the 8 unknowns of the Newton system, and Newton steps finish the run.
    The filters are those of Sinkhorn: their Grams, unique up to scale, are
    the oracle's at residual 1e-13."""
    iterations = []
    for seed in range(100):
        for draw in (random_ppt_2x2, random_npt_2x2):
            state = draw(np.random.default_rng(seed))
            verdict = decide_equivalence(state) if draw is random_ppt_2x2 else None
            iterations.append(filter_normal_form(state, verdict).iterations)
            if seed >= 30:
                continue
            T = state_to_map(state)
            _assert_grams_agree(scale_to_doubly_stochastic(T), T, seed)
    assert np.mean(iterations) <= 7.0 and max(iterations) <= 14


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


def test_a_sinkhorn_round_runs_two_eigh_and_no_mirror():
    """Each round factors each marginal once, straight from its lower
    triangle: ``2 x iterations`` calls of ``eigh``, all on ``s x s``
    marginals, and no ``mirror_hermitian`` anywhere inside the loop."""
    T = _random_map(3, 9, np.random.default_rng(3))
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("eigh", "mirror_hermitian"):
            arr = frame.f_locals.get("a", frame.f_locals.get("mat"))
            calls.append((frame.f_code.co_name, np.shape(arr)))

    sys.setprofile(profile)
    try:
        result = scale_to_doubly_stochastic(T)
    finally:
        sys.setprofile(None)
    assert result.iterations >= 3
    assert calls == [("eigh", (3, 3))] * (2 * result.iterations)


class _WatchedStack(np.ndarray):
    """A Kraus stack that records every ufunc it enters, ``@`` among them."""

    entered = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _WatchedStack.entered.append(ufunc.__name__)
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _WatchedStack) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_normal_form_reuses_the_superoperator_of_the_decision():
    """A one-block verdict's normal form scales the certificate's map itself:
    it builds no superoperator (the decision built it), and its Sinkhorn loop
    evaluates the map through it, with no product with the ``(r, s, s)``
    Kraus stack.  Separable full-rank states, below and above the Arnoldi
    budget (k = 3 and 9), are such verdicts.  So is an embedded 2 x 3 state,
    whose structured map has no superoperator to reuse: neither its decision
    nor its normal form builds one, and the loop scales the 2 x 3 map
    through the small superoperator the decision built."""
    rng = np.random.default_rng(16)
    w = rng.uniform(0.2, 2.0, size=(2, 3))
    embedded = embed_rectangular(apply_filter(
        pattern_state(w), random_invertible(2, rng), random_invertible(3, rng)))
    for st in (embedded, separable_full_rank(3, rng), separable_full_rank(9, rng)):
        verdict = decide_equivalence(st)
        assert [V.rank for V, _ in verdict.blocks] == [st.k]
        T = verdict.certificate.final_map
        assert ("superop" in vars(T)) != (st is embedded)
        object.__setattr__(T, "kraus", T.kraus.view(_WatchedStack))
        _WatchedStack.entered.clear()
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "_superop":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            nf = filter_normal_form(st, verdict)
        finally:
            sys.setprofile(None)
        assert calls == [] and _WatchedStack.entered == []
        assert ("superop" in vars(T)) != (st is embedded)
        assert nf.residual <= 10.0 * Tolerances().sinkhorn_residual


def test_filtered_trace_matches_the_kronecker_form():
    """The normal form's trace ``tr(rho (L*L (x) R*R))``, read off the blocks
    of ``rho``, is ``vdot(rho, kron(L*L, R*R))`` to 1e-13 relative."""
    rng = np.random.default_rng(17)
    for k in (2, 4, 20):
        st = random_state(k, k, rng=rng)
        L, R = random_invertible(k, rng), random_invertible(k, rng)
        want = np.vdot(st.rho, np.kron(dagger(L) @ L, dagger(R) @ R)).real
        got = scaling._filtered_trace(st, L, R)
        assert abs(got - want) <= 1e-13 * abs(want), k


def test_an_overflowing_marginal_is_a_value_error():
    """A marginal with infinite entries stops the loop with ``ValueError``
    at once, instead of scaling on with NaN filters or running to the cap."""
    T = _random_map(3, 4, np.random.default_rng(4))
    huge = CpMap(src_dim=3, dst_dim=3, kraus=1e160 * T.kraus)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            scale_to_doubly_stochastic(huge)


def test_diverging_filters_raise_the_documented_value_error():
    """Without a verdict, an embedded pattern with no normal form is scaled
    until its filters overflow.  A round's marginals are formed under the
    error state of a Newton trial, so the overflow surfaces as the
    documented ``ValueError`` for a non-finite marginal, not as a
    ``RuntimeWarning`` from the product (an error under this suite)."""
    state = embed_rectangular(pattern_state(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])))
    with pytest.raises(ValueError, match="non-finite"):
        filter_normal_form(state, None, Tolerances(sinkhorn_max_iters=2000))


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
        K = oracles.kraus_operators(result.scaled)
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


def test_rejected_newton_trials_back_off(monkeypatch):
    """A rejected Newton trial makes Newton wait out a growing number of
    Sinkhorn rounds before it tries again.

    ``ill_filtered(separable_full_rank(4), 1e3)`` at seed 1000 stalls in
    nearly every round: trying Newton again after each rejected trial took
    1,862 Newton solves in the 2,000 iterations of this cap.  Backing off
    takes a few dozen, and the cap raises the same error.
    """
    rng = np.random.default_rng(1000)
    st = ill_filtered(separable_full_rank(4, rng), 1e3, rng)
    verdict = decide_equivalence(st)
    calls = []
    newton_filters = scaling._newton_filters

    def counted(*args):
        calls.append(1)
        return newton_filters(*args)

    monkeypatch.setattr(scaling, "_newton_filters", counted)
    with pytest.raises(ScalingConvergenceError, match="after 2000 iterations"):
        filter_normal_form(st, verdict, Tolerances(sinkhorn_max_iters=2000))
    assert 0 < len(calls) <= 40


def test_an_overflowing_newton_trial_is_rejected_silently(monkeypatch):
    """A Newton step whose exponentials overflow returns filters that are not
    finite, with no warning, and a trial whose filters or marginals overflow
    is rejected like any other: the boundary map's first trial is replaced
    by filters of norm 1e300, and it still scales, with no warning (warnings
    are errors here) and with one more iteration than on its own."""
    eye = np.eye(2, dtype=complex)
    filters = scaling._newton_filters(
        np.zeros((4, 4)), eye, eye, 1e-300 * eye, 1e-300 * eye, Tolerances())
    assert not np.isfinite(filters).all()
    T = _boundary_map(1e-4, np.random.default_rng(3))
    want = scale_to_doubly_stochastic(T)
    newton_filters = scaling._newton_filters
    calls = []

    def overflowing_first(*args):
        calls.append(1)
        return (1e300 * eye, 1e300 * eye) if len(calls) == 1 else newton_filters(*args)

    monkeypatch.setattr(scaling, "_newton_filters", overflowing_first)
    got = scale_to_doubly_stochastic(T)
    assert marginal_residual(got.scaled) <= Tolerances().sinkhorn_residual
    assert got.iterations == want.iterations + 1


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
    """Certified block scaling, and scaling without a verdict, drive both
    partial traces to Id/k; the residual is the returned state's deviation,
    bit for bit."""
    rng = np.random.default_rng(3)
    for k in (2, 3):
        st = separable_full_rank(k, rng)
        for verdict in (decide_equivalence(st), None):
            nf = filter_normal_form(st, verdict)
            assert abs(np.trace(nf.state.rho).real - 1.0) < 1e-12
            assert nf.residual == partial_trace_deviation(nf.state) < 1e-7
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
    assert nf.residual == partial_trace_deviation(nf.state) < 1e-8
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


# ---------------------------------------------------------------------------
# normal forms of embedded k x m states
# ---------------------------------------------------------------------------

GATE = 10.0 * DEFAULT_TOL.sinkhorn_residual


def _rect_normal_form(nf, emb, k, m):
    """Check an embedded state's normal form and return its ``k x m`` one.

    The filters are ``Id_m (x) A`` and ``B (x) Id_k``, the state is the
    embedding of its factor, and ``mk`` times the factor has unit trace and
    partial traces ``Id_m/m`` and ``Id_k/k``, each ``k`` or ``m`` times the
    embedded residual, which is the embedding's own deviation, bit for bit.
    Small embeddings are filtered densely as well.
    """
    A, B = nf.left[:k, :k], nf.right[::k, ::k]
    assert np.array_equal(nf.left, np.kron(np.eye(m), A))
    assert np.array_equal(nf.right, np.kron(B, np.eye(k)))
    factor = nf.state._factor
    assert np.array_equal(nf.state.rho, embed_rectangular(factor).rho)
    assert nf.residual == partial_trace_deviation(nf.state) <= GATE
    small = BipartiteState(k=k, m=m, rho=k * m * factor.rho)
    assert abs(np.trace(small.rho).real - 1.0) < 1e-12
    assert np.abs(partial_trace_first(small) - np.eye(m) / m).max() <= k * nf.residual + 1e-15
    assert np.abs(partial_trace_second(small) - np.eye(k) / k).max() <= m * nf.residual + 1e-15
    if k * m <= 12:
        F = np.kron(nf.left, nf.right)
        dense = F @ emb.rho @ dagger(F)
        assert np.abs(dense - nf.state.rho).max() <= 1e-10 * np.abs(dense).max()
    return small


def test_embedded_normal_forms_of_2x3_patterns_match_classical_scaling():
    """Criterion 8's 50 patterns: each ``equivalent`` one has a normal form
    under the residual gate whose ``2 x 3`` diagonal is the classical
    rectangular scaling over ``km`` to 1e-8 (and nothing off the diagonal);
    any other verdict gets none.  A ``2 x 3`` pattern that cannot be scaled
    has no full-tensor-rank vector in its embedding's range (Hall's
    condition fails), so those are ``inconclusive``; the ``2 x 4`` pattern
    ``[[1, 1, 1, 0], [0, 0, 1, 1]]``, scalable only approximately, is
    ``not_equivalent``."""
    rng = np.random.default_rng(80)
    outcomes = []
    for i in range(50):
        w = pattern_weights(2, 3, rng)
        emb = embed_rectangular(pattern_state(w))
        verdict = decide_equivalence(emb, rng=np.random.default_rng(i))
        outcomes.append(verdict.outcome)
        if verdict.outcome != "equivalent":
            with pytest.raises(ValueError, match="equivalent verdict"):
                filter_normal_form(emb, verdict)
            continue
        small = _rect_normal_form(filter_normal_form(emb, verdict), emb, 2, 3)
        limit, resid = oracles.rect_sinkhorn_limit(w, tol=1e-12)
        assert resid < 1e-12
        diagonal = small.rho.diagonal().real.reshape(2, 3)
        assert np.abs(diagonal - limit / 6.0).max() < 1e-8, i
        assert np.abs(small.rho - np.diag(small.rho.diagonal())).max() < 1e-15
    assert set(outcomes) == {"equivalent", "inconclusive"}
    emb = embed_rectangular(pattern_state(np.array([[1.0, 1, 1, 0], [0, 0, 1, 1]])))
    verdict = decide_equivalence(emb)
    assert verdict.outcome == "not_equivalent"
    with pytest.raises(ValueError, match="equivalent verdict"):
        filter_normal_form(emb, verdict)


def test_embedded_normal_forms_of_filtered_full_support_states():
    """Full-support diagonal states under random invertible filters, from
    2 x 3 to 5 x 6 and the other way round, scale under the gate."""
    rng = np.random.default_rng(21)
    for k, m in ((2, 3), (3, 2), (3, 4), (4, 5), (5, 6)):
        st = apply_filter(pattern_state(rng.uniform(0.2, 2.0, size=(k, m))),
                          random_invertible(k, rng), random_invertible(m, rng))
        emb = embed_rectangular(st)
        verdict = decide_equivalence(emb)
        assert verdict.outcome == "equivalent", (k, m)
        _rect_normal_form(filter_normal_form(emb, verdict), emb, k, m)


def test_embedded_normal_forms_of_hidden_two_block_states():
    """Two hidden blocks of one shape, so ``gcd(k, m) > 1``: 2 x 4 with two
    1 x 2 blocks and 4 x 6 with two 2 x 3 blocks.  The decision certifies
    two blocks of the embedding; the normal form scales the whole ``k x m``
    map, and reaches the gate in a few rounds."""
    rng = np.random.default_rng(22)
    for dims in ([(1, 2), (1, 2)], [(2, 3), (2, 3)]):
        k, m = sum(a for a, _ in dims), sum(b for _, b in dims)
        st = apply_filter(rect_blocky_state(dims, rng), random_invertible(k, rng),
                          random_invertible(m, rng))
        emb = embed_rectangular(st)
        verdict = decide_equivalence(emb)
        assert [V.rank for V, _ in verdict.blocks] == [k * m // 2] * 2, dims
        nf = filter_normal_form(emb, verdict)
        _rect_normal_form(nf, emb, k, m)
        assert nf.iterations <= 20, dims


def test_one_by_two_and_two_by_one_embeddings_are_two_qubit_normal_forms():
    """A 1 x 2 or 2 x 1 state embeds into two qubits, where the square path
    would turn the Pauli form: the embedded normal form is ``Id/4``, with
    Pauli coefficients ``(1/2, 0, 0, 0)`` and no cross terms, without it."""
    rng = np.random.default_rng(23)
    for k, m in ((1, 2), (2, 1)):
        emb = embed_rectangular(random_state(k, m, rng=rng))
        nf = filter_normal_form(emb, decide_equivalence(emb))
        _rect_normal_form(nf, emb, k, m)
        assert np.abs(nf.state.rho - np.eye(4) / 4.0).max() < 1e-12
        lams, cross = pauli_coefficients(nf.state)
        assert np.abs(lams - [0.5, 0.0, 0.0, 0.0]).max() < 1e-12 and cross < 1e-12
        assert check_2x2_inequality(lams)


class _WatchedMatrix(np.ndarray):
    """A matrix that records every ufunc and numpy function it enters."""

    entered = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _WatchedMatrix.entered.append(ufunc.__name__)
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _WatchedMatrix) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        _WatchedMatrix.entered.append(func.__name__)
        return super().__array_function__(func, types, args, kwargs)


def test_embedded_normal_form_works_on_the_factor_alone(monkeypatch):
    """An embedded 4 x 5 state's normal form reads nothing of its 400 x 400
    matrix and runs no Cholesky, ``eigh`` or other factorization on a
    matrix of that size: it builds one, the output embedding, and its
    allocations peak below one and a half of those."""
    rng = np.random.default_rng(24)
    st = apply_filter(pattern_state(rng.uniform(0.2, 2.0, size=(4, 5))),
                      random_invertible(4, rng), random_invertible(5, rng))
    emb = embed_rectangular(st)
    verdict = decide_equivalence(emb)
    shapes = []
    for name in ("eigh", "eigvalsh", "svd", "eig", "eigvals", "qr", "cholesky", "lstsq"):
        def counted(a, *args, _fn=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    object.__setattr__(emb, "rho", emb.rho.view(_WatchedMatrix))
    _WatchedMatrix.entered.clear()
    tracemalloc.start()
    try:
        nf = filter_normal_form(emb, verdict)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _WatchedMatrix.entered == []
    assert shapes and max(max(shape) for shape in shapes) < 400
    assert nf.state.rho.nbytes <= peak < 1.5 * nf.state.rho.nbytes
    assert nf.residual == partial_trace_deviation(nf.state) <= GATE


def test_an_embedded_normal_form_scales_through_the_public_function(monkeypatch):
    """An embedded 2 x 3 state's normal form, with a verdict or without,
    makes one ``scale_to_doubly_stochastic`` call, on its factor's map from
    2 x 2 to 3 x 3 matrices, and reports that call's iteration count and the
    returned embedding's partial-trace deviation as its residual."""
    rng = np.random.default_rng(27)
    emb = embed_rectangular(apply_filter(pattern_state(rng.uniform(0.2, 2.0, size=(2, 3))),
                                         random_invertible(2, rng), random_invertible(3, rng)))
    calls = []
    scale = scaling.scale_to_doubly_stochastic

    def recorded(T, tol=None):
        calls.append(((T.src_dim, T.dst_dim), scale(T, tol)))
        return calls[-1][1]
    monkeypatch.setattr(scaling, "scale_to_doubly_stochastic", recorded)
    for verdict in (decide_equivalence(emb), None):
        calls.clear()
        nf = filter_normal_form(emb, verdict)
        assert [dims for dims, _ in calls] == [(2, 3)]
        assert calls[0][1].iterations == nf.iterations > 0
        assert nf.residual == partial_trace_deviation(nf.state)


def test_rectangular_scaling_takes_newton_steps_near_the_boundary():
    """``[[1, 1, 1, e], [e, e, 1, 1]]`` is scalable to rows of sum 4 and
    columns of sum 2 for ``e > 0``, but its limit loses an entry as ``e``
    goes to zero, and plain Sinkhorn took 33,795 rounds at ``e = 1e-8``.
    Newton steps with blocks of sizes 16 and 4 reach the targets of
    ``is_doubly_stochastic`` in a dozen steps, at the classical limit."""
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        w = np.array([[1.0, 1.0, 1.0, eps], [eps, eps, 1.0, 1.0]])
        T = state_to_map(pattern_state(w))
        result = scale_to_doubly_stochastic(T)
        scaled = result.scaled
        assert result.iterations <= 15, eps
        assert is_doubly_stochastic(scaled)
        got = np.array([[apply(scaled, np.diag(e).astype(complex))[j, j].real
                         for j in range(4)] for e in np.eye(2)])
        limit, resid = oracles.rect_sinkhorn_limit(w, iters=200_000, tol=1e-12)
        assert resid < 1e-12
        assert np.abs(got - limit / np.sqrt(8.0)).max() < 1e-9, eps



def test_a_rectangular_newton_step_squares_a_small_residual():
    """Near a doubly stochastic map from ``k x k`` to ``m x m`` matrices, one
    Newton step takes a marginal residual of about 1e-4 to about its
    square: the system's blocks of sizes ``m^2`` and ``k^2`` sit where the
    step reads them, whether or not ``m^2`` is a multiple of ``k^2``."""
    rng = np.random.default_rng(25)
    for k, m in ((2, 3), (3, 2), (2, 5), (3, 3)):
        kraus = rng.standard_normal((k * m, m, k)) + 1j * rng.standard_normal((k * m, m, k))
        T = CpMap(src_dim=k, dst_dim=m, kraus=kraus)
        D = scale_to_doubly_stochastic(T).scaled
        S = D.superop / np.sqrt(k)

        def residual(L, R):
            T = transform(D, L, R)
            fwd = apply(T, np.eye(k) / np.sqrt(k))
            bwd = apply(adjoint(T), np.eye(m) / np.sqrt(m))
            return fwd, bwd, max(np.abs(fwd - np.eye(m) / np.sqrt(m)).max(),
                                 np.abs(bwd - np.eye(k) / np.sqrt(k)).max())

        L = np.eye(m) + 1e-4 * random_invertible(m, rng)
        R = np.eye(k) + 1e-4 * random_invertible(k, rng)
        fwd, bwd, before = residual(L, R)
        left, right = scaling._newton_filters(S, L, R, fwd, bwd, DEFAULT_TOL)
        after = residual(left @ L, R @ right)[2]
        assert 1e-5 < before < 1e-3 and after < 1e-3 * before, (k, m)


def _oracle_filters(S, left, right, fwd, bwd, rank_rel):
    """Filters of the oracle system's minimum-norm step, or ``None`` where its
    second-smallest singular value is below ``sqrt(rank_rel)`` of the largest."""
    m, k = len(fwd), len(bwd)
    J, rhs = oracles.newton_system(S, left, right, fwd, bwd)
    step, _, _, sv = np.linalg.lstsq(J, rhs, rcond=rank_rel)
    if sv[-2] < np.sqrt(rank_rel) * sv[0]:
        return None
    filters = []
    for coords, d in ((step[:m * m], m), (step[m * m:], k)):
        h = sum(c * E for c, E in zip(coords, oracles.hermitian_pairs_basis(d)))
        eigs, vecs = np.linalg.eigh(h / 2.0)
        filters.append(vecs @ np.diag(np.exp(eigs)) @ vecs.conj().T)
    return filters


def test_newton_filters_match_the_entrywise_system(monkeypatch):
    """``_newton_filters`` agrees with the system built one trace at a time.

    Near doubly stochastic maps ``M_k -> M_m``, square and not, the filters
    agree with those of ``oracles.newton_system`` to 1e-12.  On the maps
    without a normal form of ``test_newton_guard_leaves_unscalable_maps_to_fail``
    the guard refuses at the same call of the run as on the oracle system,
    and at no other.
    """
    rng = np.random.default_rng(33)
    for k, m in ((2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (2, 5), (1, 1), (1, 3), (5, 5),
                 (6, 6), (3, 6), (8, 8)):
        kraus = rng.standard_normal((k * m, m, k)) + 1j * rng.standard_normal((k * m, m, k))
        D = scale_to_doubly_stochastic(CpMap(src_dim=k, dst_dim=m, kraus=kraus)).scaled
        L = np.eye(m) + 0.1 * random_invertible(m, rng)
        R = np.eye(k) + 0.1 * random_invertible(k, rng)
        T = transform(D, L, R)
        fwd = apply(T, np.eye(k) / np.sqrt(k))
        bwd = apply(adjoint(T), np.eye(m) / np.sqrt(m))
        args = D.superop / np.sqrt(k), L, R, fwd, bwd
        got = scaling._newton_filters(*args, DEFAULT_TOL)
        want = _oracle_filters(*args, DEFAULT_TOL.rank_rel)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() < 1e-12, (k, m)

    refusals = []
    newton_filters = scaling._newton_filters

    def compared(S, left, right, fwd, bwd, tol):
        got = newton_filters(S, left, right, fwd, bwd, tol)
        want = _oracle_filters(S, left, right, fwd, bwd, tol.rank_rel)
        refusals.append((got is None, want is None))
        return got

    monkeypatch.setattr(scaling, "_newton_filters", compared)
    tol = Tolerances(sinkhorn_max_iters=2000)
    for run in (lambda: scale_to_doubly_stochastic(_boundary_map(1e-12), tol),
                lambda: filter_normal_form(neq2_state(), None, tol)):
        refusals.clear()
        with pytest.raises(ScalingConvergenceError):
            run()
        assert refusals == [(False, False)] * (len(refusals) - 1) + [(True, True)]


def test_a_cold_newton_step_at_size_16_stays_within_16_mb():
    """One ``_newton_filters`` call on a random map ``M_16 -> M_16``, its
    tables built cold, peaks at 16 MB or less (tracemalloc): each marginal
    block is one product through the ``s^2 x s^2`` images ``G E_j``, where a
    dense ``s^2 x s^4`` table of the anticommutators would take 268 MB."""
    rng = np.random.default_rng(16)
    s = 16
    kraus = rng.standard_normal((s * s, s, s)) + 1j * rng.standard_normal((s * s, s, s))
    T = CpMap(src_dim=s, dst_dim=s, kraus=kraus)
    S = T.superop / np.sqrt(s)
    fwd = apply(T, np.eye(s) / np.sqrt(s))
    bwd = apply(adjoint(T), np.eye(s) / np.sqrt(s))
    eye = np.eye(s, dtype=complex)
    scaling._newton_basis.cache_clear()
    tracemalloc.start()
    try:
        filters = scaling._newton_filters(S, eye, eye, fwd, bwd, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert filters is not None
    assert peak <= 16 * 2**20, peak / 2**20


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
