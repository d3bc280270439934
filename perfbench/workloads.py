"""Seeded inputs for the three benchmark workloads.

Everything here is plain numpy: the inputs, and the answers expected from how
each input was built, do not depend on the package under test or on its test
helpers, so a change to either cannot change a workload.

A workload is one list of operations drawn from the seed; a run times every
operation of the list once per round, over several rounds.  A library
operation carries a density matrix and what its construction implies
(PPT or not, the verdict, the block ranks or the failure stage).  A CLI
operation carries an argv and the exit code the construction implies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
STAGE_F_MIN_POSITIVE = "f-minimum-positive"

# CLI exit codes documented by the program
EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_INCONCLUSIVE = 4


@dataclass
class Expect:
    """What the construction of an input implies about its outputs."""

    ppt: bool
    outcome: str | None = None  # verdict of the decision, when PPT
    ranks: tuple[int, ...] | None = None  # sorted block ranks when equivalent
    stage: str | None = None  # witness stage when not equivalent


@dataclass
class LibraryOp:
    """One state taken through the pipeline in-process."""

    label: str
    k: int
    m: int
    rho: np.ndarray
    expect: Expect
    embed: bool = False  # square a rectangular state before deciding


@dataclass
class CliOp:
    """One cold invocation of the command-line program."""

    label: str
    command: str  # analyze | decide | normal-form | embed
    argv: list[str]
    expect_exit: int
    state: str  # name of the input state file (key of CliInputs.states)
    output: str | None = None  # name of the output file, if the command writes one
    embed: bool = False


@dataclass
class CliInputs:
    """State files for the CLI workload and what each one's construction implies."""

    states: dict[str, tuple[int, int, np.ndarray, Expect]]
    ops: list[CliOp]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    """Haar-random unitary (QR of a complex Gaussian matrix, phases fixed)."""
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _filter(rng: np.random.Generator, k: int, cond: float = 4.0) -> np.ndarray:
    """Invertible local filter with singular values spread over ``[1, cond]``."""
    return _unitary(rng, k) @ np.diag(np.geomspace(1.0, cond, k)) @ _unitary(rng, k)


def _congruence(rho: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``(L (x) R) rho (L (x) R)*`` normalized to unit trace."""
    f = np.kron(left, right)
    out = f @ rho @ f.conj().T
    out = 0.5 * (out + out.conj().T)
    return out / np.trace(out).real


def _products(rng: np.random.Generator, k: int, sel: slice, d: int, count: int) -> np.ndarray:
    """Sum of ``count`` random product projectors supported on ``sel (x) sel``."""
    a = np.zeros((count, k), dtype=complex)
    b = np.zeros((count, k), dtype=complex)
    a[:, sel] = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    b[:, sel] = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    vecs = (a[:, :, None] * b[:, None, :]).reshape(count, k * k)
    return vecs.T @ vecs.conj()


def hidden_blocks(rng: np.random.Generator, k: int, dims: list[int]) -> np.ndarray:
    """Separable state with ``len(dims)`` blocks, hidden by random local filters.

    Each block mixes ``4 d^2`` random products on consecutive indices, so its
    map is irreducible there; the filters keep the block count and PPT.
    """
    rho = np.zeros((k * k, k * k), dtype=complex)
    off = 0
    for d in dims:
        rho += _products(rng, k, slice(off, off + d), d, 4 * d * d)
        off += d
    return _congruence(rho, _filter(rng, k), _filter(rng, k))


def separable_full_rank(rng: np.random.Generator, k: int) -> np.ndarray:
    """Full-rank separable state: ``3 k^2`` random products plus an identity floor."""
    rho = _products(rng, k, slice(0, k), k, 3 * k * k)
    rho += 0.05 * np.trace(rho).real / (k * k) * np.eye(k * k)
    return rho / np.trace(rho).real


def diagonal(weights: np.ndarray) -> np.ndarray:
    """Diagonal state ``sum w[i, j] E_ii (x) F_jj`` with unit trace."""
    w = np.asarray(weights, dtype=float)
    return np.diag((w / w.sum()).reshape(-1)).astype(complex)


def upper_triangular(rng: np.random.Generator, k: int) -> np.ndarray:
    """Upper-triangular weight pattern with a positive diagonal, scrambled.

    Only the identity permutation avoids the zeros, so the off-diagonal
    weights lie on no positive diagonal: no total support, no normal form.
    """
    w = np.triu(rng.uniform(0.2, 2.0, size=(k, k)))
    return _congruence(diagonal(w), _filter(rng, k), _filter(rng, k))


def full_support_rect(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """Diagonal ``k x m`` state with all weights positive (full support)."""
    return diagonal(rng.uniform(0.2, 2.0, size=(k, m)))


def boundary_qubits(rng: np.random.Generator, eps: float) -> np.ndarray:
    """``diag([[1, 1], [eps, 1]])`` turned by seeded local unitaries.

    The weight matrix has total support, but only by ``eps``: Sinkhorn needs
    about ``eps^(-1/2)`` iterations.  Unitaries leave that count in place.
    """
    w = np.array([[1.0, 1.0], [eps, 1.0]])
    return _congruence(diagonal(w), _unitary(rng, 2), _unitary(rng, 2))


def partial_transpose(rho: np.ndarray, k: int, m: int) -> np.ndarray:
    """Transpose on the second factor, by reshaping."""
    return rho.reshape(k, m, k, m).transpose(0, 3, 2, 1).reshape(k * m, k * m)


def is_ppt(rho: np.ndarray, k: int, m: int) -> bool:
    """PPT by the sign of the smallest eigenvalue of the partial transpose."""
    return bool(np.linalg.eigvalsh(partial_transpose(rho, k, m)).min() >= 0.0)


def two_qubit_survey(rng: np.random.Generator, per_kind: int) -> list[tuple[np.ndarray, bool]]:
    """Random full-rank two-qubit states, PPT and NPT alternating, ``per_kind`` each.

    Ginibre samples are drawn until both kinds are filled; the PPT label comes
    from the sign of the partial transpose's smallest eigenvalue.
    """
    kinds: dict[bool, list[np.ndarray]] = {True: [], False: []}
    while min(len(v) for v in kinds.values()) < per_kind:
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        label = is_ppt(rho, 2, 2)
        if len(kinds[label]) < per_kind:
            kinds[label].append(rho)
    out = []
    for ppt, npt in zip(kinds[True], kinds[False]):
        out += [(ppt, True), (npt, False)]
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def square_blocks(seed: int, smoke: bool = False) -> list[LibraryOp]:
    """Decision-heavy: hidden blocks, upper-triangular patterns, one big corner."""
    rng = np.random.default_rng([seed, 1])
    if smoke:
        hidden = [(4, [2, 2])]
        upper = [3]
        separable = [3]
        rect = (2, 3)
    else:
        # The medians are the seventh of thirteen costs.  Five operations
        # cost less than the two draws of k=10 [5, 5] and four more; the
        # upper-triangular k=12 state (whose cost varies by half from draw to
        # draw) and the separable one cost about as much as k=10 and fall on
        # either side, so the seventh is a k=10 draw or one of those two.
        hidden = [(8, [4, 4]), (8, [3, 3, 2]), (10, [5, 5]), (10, [5, 5]), (12, [6, 6]),
                  (12, [4, 4, 4]), (16, [8, 8])]
        upper = [4, 6, 8, 12]
        separable = [12]
        rect = (4, 5)
    ops = []
    for k, dims in hidden:
        ops.append(LibraryOp(
            f"hidden-k{k}-{'-'.join(map(str, dims))}", k, k, hidden_blocks(rng, k, dims),
            Expect(ppt=True, outcome=EQUIVALENT, ranks=tuple(sorted(dims))),
        ))
    for k in upper:
        ops.append(LibraryOp(
            f"upper-k{k}", k, k, upper_triangular(rng, k),
            Expect(ppt=True, outcome=NOT_EQUIVALENT, stage=STAGE_F_MIN_POSITIVE),
        ))
    for k in separable:
        ops.append(LibraryOp(
            f"separable-k{k}", k, k, separable_full_rank(rng, k),
            Expect(ppt=True, outcome=EQUIVALENT, ranks=(k,)),
        ))
    k, m = rect
    ops.append(LibraryOp(
        f"embedded-{k}x{m}", k, m, full_support_rect(rng, k, m),
        Expect(ppt=True, outcome=EQUIVALENT, ranks=(k * m,)), embed=True,
    ))
    return ops


def qubit_boundary(seed: int, smoke: bool = False) -> list[LibraryOp]:
    """Scaling-heavy: near-boundary states among a two-qubit survey.

    The long runs are spread through the survey so that every stretch of a
    round holds both kinds of scaling run.  Five draws of eps = 1e-4 (about
    370 iterations each) rank fourth to eighth by cost, where ``op_s.tail``
    falls, so the tail is a run of fixed length and not whichever survey
    state happened to be slowest.
    """
    rng = np.random.default_rng([seed, 2])
    epsilons = [1e-3] if smoke else [1e-4] * 5 + [1e-5, 1e-6, 1e-7]
    survey = two_qubit_survey(rng, 1 if smoke else 96)
    boundary = [
        LibraryOp(f"boundary-eps{eps:.0e}", 2, 2, boundary_qubits(rng, eps),
                  Expect(ppt=True, outcome=EQUIVALENT, ranks=(2,)))
        for eps in epsilons
    ]
    ops = []
    stride = max(1, len(survey) // len(boundary))
    for i, (rho, ppt) in enumerate(survey):
        if i % stride == 0 and boundary:
            ops.append(boundary.pop(0))
        expect = Expect(ppt=True, outcome=EQUIVALENT, ranks=(2,)) if ppt else Expect(ppt=False)
        ops.append(LibraryOp(f"survey-{'ppt' if ppt else 'npt'}", 2, 2, rho, expect))
    return ops + boundary


def state_document(k: int, m: int, rho: np.ndarray) -> str:
    """The program's state-file format, written independently of the program."""
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    return json.dumps({"k": k, "m": m, "matrix": rows})


def cli_cold(seed: int) -> CliInputs:
    """Cold start: every subcommand on small state files (already minimal)."""
    rng = np.random.default_rng([seed, 3])
    ppt2, npt2 = [rho for rho, _ in two_qubit_survey(rng, 1)]
    states = {
        "separable3": (3, 3, separable_full_rank(rng, 3), Expect(True, EQUIVALENT, (3,))),
        "hidden4": (4, 4, hidden_blocks(rng, 4, [2, 2]), Expect(True, EQUIVALENT, (2, 2))),
        "upper3": (3, 3, upper_triangular(rng, 3),
                   Expect(True, NOT_EQUIVALENT, stage=STAGE_F_MIN_POSITIVE)),
        "ppt2": (2, 2, ppt2, Expect(True, EQUIVALENT, (2,))),
        "npt2": (2, 2, npt2, Expect(False)),
        "rect2x3": (2, 3, full_support_rect(rng, 2, 3), Expect(True, EQUIVALENT, (6,))),
    }

    def op(label, command, state, extra=(), expect_exit=EXIT_OK, output=None, embed=False):
        argv = [command, f"{state}.json", *extra]
        if output is not None:
            argv += ["--output", output]
        return CliOp(label, command, argv, expect_exit, state, output, embed)

    return CliInputs(states, [
        op("analyze-separable3", "analyze", "separable3", ["--json"]),
        op("decide-hidden4", "decide", "hidden4", ["--json"]),
        op("decide-upper3", "decide", "upper3", ["--json"], EXIT_NOT_EQUIVALENT),
        op("normal-form-ppt2", "normal-form", "ppt2", ["--json"], output="nf-ppt2.json"),
        op("normal-form-npt2", "normal-form", "npt2", ["--json"], output="nf-npt2.json"),
        op("normal-form-hidden4", "normal-form", "hidden4", ["--json"], output="nf-hidden4.json"),
        op("embed-rect2x3", "embed", "rect2x3", output="embedded-rect2x3.json"),
        op("decide-embed-rect2x3", "decide", "rect2x3", ["--embed", "--json"], embed=True),
        op("normal-form-separable3", "normal-form", "separable3", ["--json"],
           output="nf-separable3.json"),
        op("decide-separable3", "decide", "separable3", ["--json"]),
    ])


def write_cli_states(inputs: CliInputs, directory: Path) -> None:
    for name, (k, m, rho, _) in inputs.states.items():
        (directory / f"{name}.json").write_text(state_document(k, m, rho))
