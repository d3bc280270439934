"""End-to-end acceptance criteria.

Each test prints one ``criterion N: PASS/FAIL`` line (visible with ``-s`` or
on failure) and then asserts, so a red run pinpoints the criterion that broke.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import oracles
from filternorm import (
    OUTCOME_EQUIVALENT,
    OUTCOME_NOT_EQUIVALENT,
    CpMap,
    SingularMarginalError,
    ScalingConvergenceError,
    apply_filter,
    BipartiteState,
    check_2x2_inequality,
    decide_equivalence,
    embed_rectangular,
    filter_normal_form,
    partial_trace_first,
    partial_trace_second,
    pauli_coefficients,
    save_state,
)
from filternorm.decide import _coords_to_block, adjoint_block_quadratic, normalize_corner
from filternorm.linalg import DEFAULT_TOL, projector_onto
from filternorm.maps import _corner_perron
from helpers import (
    blocky_state,
    cli_env,
    neq2_state,
    pattern_state,
    pattern_weights,
    random_invertible,
    random_npt_2x2,
    random_ppt_2x2,
    separable_full_rank,
    upper_triangular_map_kraus,
)


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def reconstruction_error(state, verdict):
    """Max-norm defect of the certified block decomposition of the state."""
    cert = verdict.certificate
    Q = cert.accumulated_transform
    anchored = apply_filter(state, cert.prefilter, np.eye(state.k, dtype=complex))
    C = apply_filter(anchored, np.linalg.inv(Q).T, Q).rho
    D = np.zeros_like(C)
    for V, _ in verdict.blocks:
        K = np.kron(V.matrix.T, V.matrix)
        D += K @ C @ K.conj().T
    return float(np.abs(C - D).max())


@pytest.fixture(scope="module")
def suite2_results():
    """200 random diagonal states: {0,1} patterns with random positive weights."""
    rng = np.random.default_rng(20)
    results = []
    for i in range(200):
        k = (2, 3, 4)[i % 3]
        w = pattern_weights(k, k, rng)
        verdict = decide_equivalence(
            pattern_state(w), rng=np.random.default_rng(i)
        )
        results.append((pattern_state(w), w, verdict))
    return results


@pytest.fixture(scope="module")
def suite3_results():
    """50 random full-rank separable states with their normal forms."""
    rng = np.random.default_rng(30)
    results = []
    for i in range(50):
        k = (2, 3)[i % 2]
        st = separable_full_rank(k, rng)
        verdict = decide_equivalence(st, rng=np.random.default_rng(i))
        nf = None
        if verdict.outcome == OUTCOME_EQUIVALENT:
            nf = filter_normal_form(st, verdict)
        results.append((st, verdict, nf))
    return results


def test_criterion_1_known_non_equivalent_example():
    """The diagonal state with weights (1,1,0,1)/3 is decided not equivalent."""
    verdict = decide_equivalence(neq2_state())
    ok = (
        verdict.outcome == OUTCOME_NOT_EQUIVALENT
        and verdict.witness is not None
        and abs(verdict.witness.min_f - 1.0) <= 1e-9
        and abs(verdict.witness.gram_min_eig - 2.0) <= 1e-9
    )
    detail = (
        f"outcome {verdict.outcome}, min_f {verdict.witness.min_f!r}, "
        f"gram min eig {verdict.witness.gram_min_eig!r}"
    )
    report(1, ok, detail)


def test_criterion_2_diagonal_states_match_total_support(suite2_results):
    """Verdicts on 200 random diagonal states match the classical criterion."""
    agree = 0
    for _, w, verdict in suite2_results:
        scalable = oracles.has_total_support(w)
        agree += (verdict.outcome == OUTCOME_EQUIVALENT) == scalable
    report(2, agree == 200, f"{agree}/200 verdicts match total support")


def test_criterion_3_full_rank_states_reach_normal_form(suite3_results):
    """50 random full-rank states are equivalent and scale below 1e-7."""
    n_eq = sum(v.outcome == OUTCOME_EQUIVALENT for _, v, _ in suite3_results)
    worst_residual = max(nf.residual for _, _, nf in suite3_results if nf)
    worst_iters = max(nf.iterations for _, _, nf in suite3_results if nf)
    ok = n_eq == 50 and worst_residual < 1e-7 and worst_iters <= 10**4
    report(
        3,
        ok,
        f"{n_eq}/50 equivalent, worst residual {worst_residual:.2e}, "
        f"worst iterations {worst_iters}",
    )


def test_criterion_4_certificates_reconstruct_states(suite2_results, suite3_results):
    """Certified blocks reassemble the realigned state on every equivalence."""
    worst = 0.0
    count = 0
    for st, _, verdict in suite2_results:
        if verdict.outcome == OUTCOME_EQUIVALENT:
            worst = max(worst, reconstruction_error(st, verdict))
            count += 1
    for st, verdict, _ in suite3_results:
        if verdict.outcome == OUTCOME_EQUIVALENT:
            worst = max(worst, reconstruction_error(st, verdict))
            count += 1
    ok = count > 0 and worst < 1e-8
    report(4, ok, f"worst defect {worst:.2e} over {count} equivalent verdicts")


def test_criterion_5_quadratic_model_matches_trace_formula():
    """The assembled quadratic agrees with the direct trace expression."""
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(30):
        k = int(rng.integers(2, 5))
        s = int(rng.integers(1, k))
        T = CpMap(
            src_dim=k, dst_dim=k,
            kraus=tuple(upper_triangular_map_kraus(k, s, rng)),
        )
        lead = projector_onto(np.eye(k, dtype=complex)[:, :s])
        lam, _, _, delta = _corner_perron(T, lead, DEFAULT_TOL)
        b = lead.basis
        _, T1, s1 = normalize_corner(T, lead, lam, b @ delta @ b.conj().T)
        model = adjoint_block_quadratic(T1, s1)
        kraus = oracles.kraus_operators(T1)
        for _ in range(30):
            x = rng.standard_normal(model.n)
            X = _coords_to_block(x, k - s1, s1)
            got = model.evaluate(x)
            worst = max(worst, abs(got - oracles.objective_f_expanded(kraus, s1, X)))
            worst = max(worst, abs(got - oracles.objective_f_single_trace(kraus, s1, X)))
    report(5, worst < 1e-8, f"worst deviation {worst:.2e} over 30x30 evaluations")


def test_criterion_6_verdicts_are_filter_invariant():
    """Local filtering by invertible matrices never changes the outcome."""
    rng = np.random.default_rng(60)
    agree = 0
    for i in range(30):
        kind = i % 3
        if kind == 0:
            k = int(rng.integers(2, 5))
            st = pattern_state(pattern_weights(k, k, rng))
        elif kind == 1:
            k = int(rng.integers(2, 4))
            st = separable_full_rank(k, rng)
        else:
            st = blocky_state(3, [1, 2] if i % 2 else [1, 1, 1], rng)
        Q1 = random_invertible(st.k, rng)
        Q2 = random_invertible(st.m, rng)
        moved = apply_filter(st, Q1, Q2)
        moved = BipartiteState(
            k=st.k, m=st.m, rho=moved.rho / np.trace(moved.rho).real
        )
        a = decide_equivalence(st, rng=np.random.default_rng(1000 + i))
        b = decide_equivalence(moved, rng=np.random.default_rng(2000 + i))
        agree += a.outcome == b.outcome
    report(6, agree == 30, f"{agree}/30 filtered pairs agree")


def test_criterion_7_two_qubit_separability_inequality():
    """In normal form the leading Pauli coefficient separates PPT from NPT."""
    rng = np.random.default_rng(70)
    ppt_pass = 0
    ppt_total = 0
    while ppt_total < 100:
        st = random_ppt_2x2(rng)
        verdict = decide_equivalence(st, rng=np.random.default_rng(ppt_total))
        if verdict.outcome != OUTCOME_EQUIVALENT:
            continue
        nf = filter_normal_form(st, verdict)
        lams, _ = pauli_coefficients(nf.state)
        ppt_total += 1
        ppt_pass += check_2x2_inequality(lams)
    npt_fail = 0
    npt_total = 0
    while npt_total < 20:
        st = random_npt_2x2(rng)
        try:
            nf = filter_normal_form(st)
        except (SingularMarginalError, ScalingConvergenceError):
            continue
        lams, _ = pauli_coefficients(nf.state)
        npt_total += 1
        npt_fail += not check_2x2_inequality(lams)
    ok = ppt_pass == 100 and npt_fail >= 19
    report(
        7,
        ok,
        f"inequality holds on {ppt_pass}/100 PPT and fails on "
        f"{npt_fail}/20 NPT normal forms",
    )


def test_criterion_8_embedded_decisions_match_rectangular_scaling():
    """decide(embed(state)) reproduces classical rectangular scalability."""
    rng = np.random.default_rng(80)
    agree = 0
    lp_agree = 0
    for i in range(50):
        w = pattern_weights(2, 3, rng)
        verdict = decide_equivalence(
            embed_rectangular(pattern_state(w)), rng=np.random.default_rng(i)
        )
        scalable = oracles.rect_sinkhorn_scalable(w)
        agree += (verdict.outcome == OUTCOME_EQUIVALENT) == scalable
        lp_agree += scalable == oracles.exact_scalable_lp(w)
    ok = agree == 50 and lp_agree == 50
    report(
        8,
        ok,
        f"{agree}/50 embedded verdicts match the scaling oracle "
        f"(oracle itself matches the LP on {lp_agree}/50)",
    )


def test_criterion_9_fixed_seed_runs_are_byte_identical(tmp_path):
    """Repeated CLI decides with one seed emit byte-identical JSON verdicts."""
    rng = np.random.default_rng(90)
    outputs = []
    for name, st in [
        ("full.json", separable_full_rank(3, rng)),
        ("neq.json", neq2_state()),
    ]:
        path = tmp_path / name
        save_state(st, path)
        cmd = [
            sys.executable, "-m", "filternorm.cli",
            "decide", str(path), "--seed", "11", "--json",
        ]
        runs = [
            subprocess.run(cmd, capture_output=True, env=cli_env()).stdout
            for _ in range(3)
        ]
        outputs.append(runs[0] == runs[1] == runs[2] and len(runs[0]) > 0)
        json.loads(runs[0])
    report(9, all(outputs), f"byte-identical JSON on {sum(outputs)}/2 states")
