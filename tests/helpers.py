"""Shared state generators for the test suite."""

import os
from pathlib import Path

import numpy as np

import filternorm
from filternorm import (
    BipartiteState,
    CpMap,
    apply_filter,
    diagonal_state,
    is_ppt,
    random_state,
)


def cli_env() -> dict:
    """Environment in which ``python -m filternorm.cli`` imports this package."""
    src = str(Path(filternorm.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}


def separable_full_rank(k: int, rng: np.random.Generator) -> BipartiteState:
    """Full-rank PPT state: mixture of 3k^2 random products plus an identity floor."""
    n = k * k
    rho = np.zeros((n, n), dtype=complex)
    for _ in range(3 * n):
        a = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        b = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        v = np.kron(a, b)
        rho += np.outer(v, v.conj())
    rho += 0.05 * np.trace(rho).real / n * np.eye(n)
    return BipartiteState(k=k, m=k, rho=rho / np.trace(rho).real)


def blocky_state(k: int, dims: list[int], rng: np.random.Generator) -> BipartiteState:
    """PPT state mixing products supported on consecutive index blocks of sizes dims."""
    assert sum(dims) == k
    rho = np.zeros((k * k, k * k), dtype=complex)
    off = 0
    for d in dims:
        sel = np.arange(off, off + d)
        for _ in range(4 * d * d):
            a = np.zeros(k, dtype=complex)
            b = np.zeros(k, dtype=complex)
            a[sel] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            b[sel] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v = np.kron(a, b)
            rho += np.outer(v, v.conj())
        off += d
    return BipartiteState(k=k, m=k, rho=rho / np.trace(rho).real)


def random_invertible(k: int, rng: np.random.Generator) -> np.ndarray:
    """Well-conditioned random invertible matrix."""
    return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) + 2.5 * np.eye(k)


def hidden_blocky(k: int, dims: list[int], rng: np.random.Generator) -> BipartiteState:
    """Blocky state with its block structure scrambled by an invertible local filter."""
    base = blocky_state(k, dims, rng)
    out = apply_filter(base, random_invertible(k, rng), random_invertible(k, rng))
    return BipartiteState(k=k, m=k, rho=out.rho / np.trace(out.rho).real)


def pattern_weights(k: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Random {0,1} pattern scaled by random positive weights, at least one entry."""
    while True:
        pattern = rng.random((k, m)) < 0.5
        if pattern.any():
            return pattern * rng.uniform(0.2, 2.0, size=(k, m))


def pattern_state(w: np.ndarray) -> BipartiteState:
    """Unit-trace diagonal state with the given nonnegative weight array."""
    return diagonal_state(w / w.sum())


def hidden_upper_triangular(k: int, rng: np.random.Generator) -> BipartiteState:
    """Upper-triangular weight pattern with a positive diagonal, under random filters.

    Only the identity permutation avoids the zeros, so the pattern has no
    total support: the decision must answer not equivalent, with a positive
    minimum of the quadratic objective.
    """
    w = np.triu(rng.uniform(0.2, 2.0, size=(k, k)))
    out = apply_filter(pattern_state(w), random_invertible(k, rng), random_invertible(k, rng))
    return BipartiteState(k=k, m=k, rho=out.rho / np.trace(out.rho).real)


def random_ppt_2x2(rng: np.random.Generator) -> BipartiteState:
    """Rejection-sample a full-rank PPT 2x2 state."""
    while True:
        st = random_state(2, 2, rng=rng)
        if is_ppt(st):
            return st


def random_npt_2x2(rng: np.random.Generator) -> BipartiteState:
    """Rejection-sample a full-rank NPT 2x2 state."""
    while True:
        st = random_state(2, 2, rng=rng)
        if not is_ppt(st):
            return st


def neq2_state() -> BipartiteState:
    """The 2x2 diagonal state with weights (1,1,0,1)/3."""
    return diagonal_state(np.array([[1.0, 1.0], [0.0, 1.0]]) / 3.0)


def upper_triangular_map_kraus(k: int, s: int, rng: np.random.Generator, nops: int = 3):
    """Kraus list leaving the leading s x s corner invariant (block upper triangular)."""
    ops = []
    for _ in range(nops):
        K = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        K[s:, :s] = 0.0
        ops.append(K)
    return ops


def unitary_mixture(k: int, nops: int, rng: np.random.Generator) -> CpMap:
    """Convex mixture of unitary conjugations: doubly stochastic by design."""
    p = rng.dirichlet(np.ones(nops))
    ops = []
    for i in range(nops):
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        q, _ = np.linalg.qr(g)
        ops.append(np.sqrt(p[i]) * q)
    return CpMap(src_dim=k, dst_dim=k, kraus=tuple(ops))


def random_unitary(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary (QR of a complex Gaussian matrix, phases fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def ill_filtered(base: BipartiteState, c: float, rng: np.random.Generator) -> BipartiteState:
    """``base`` congruenced by ``A (x) B``, hermitized and renormalized.

    Each factor is ``U diag(logspace(0, log10 c, k)) W`` with Haar-random
    ``U`` and ``W``, so it has condition number ``c``.
    """
    k = base.k
    A, B = (random_unitary(k, rng) @ np.diag(np.logspace(0, np.log10(c), k))
            @ random_unitary(k, rng) for _ in range(2))
    F = np.kron(A, B)
    rho = F @ base.rho @ F.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return BipartiteState(k=k, m=k, rho=rho / np.trace(rho).real)


def repeated_block_state(copies: int, d: int, rng: np.random.Generator) -> BipartiteState:
    """``copies`` equal separable d x d blocks on the diagonal, hidden by ``U (x) conj(U)``.

    The map is a direct sum of identical irreducible blocks, so its Perron
    root on the whole space has multiplicity ``copies``; the hiding unitary
    keeps the maximally entangled vector, so anchoring keeps the degeneracy.
    """
    block = blocky_state(d, [d], rng).rho.reshape(d, d, d, d)
    k = copies * d
    rho = np.zeros((k, k, k, k), dtype=complex)
    for j in range(copies):
        sel = slice(j * d, (j + 1) * d)
        rho[sel, sel, sel, sel] = block
    U = random_unitary(k, rng)
    F = np.kron(U, U.conj())
    rho = F @ rho.reshape(k * k, k * k) @ F.conj().T
    return BipartiteState(k=k, m=k, rho=rho / np.trace(rho).real)
