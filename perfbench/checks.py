"""Output checks that do not trust the package under test.

Partial traces are recomputed by reshaping, filters are re-applied with
``numpy.kron``, state files are parsed here, and verdicts are compared with
what each input's construction implies.  Every function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import EQUIVALENT, NOT_EQUIVALENT, Expect

# The program promises partial traces within 10 x its default Sinkhorn
# residual (1e-8) of Id/k.
PARTIAL_TRACE_LIMIT = 1e-7
# Re-applying the returned filters must reproduce the returned state up to
# round-off, relative to the size of the filtered product.
REAPPLY_LIMIT = 1e-8


def partial_traces(rho: np.ndarray, k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(trace over the first factor, trace over the second factor)."""
    t = rho.reshape(k, m, k, m)
    return np.einsum("ijil->jl", t), np.einsum("ijlj->il", t)


def normal_form_residual(rho: np.ndarray, k: int) -> float:
    """Largest deviation of either partial trace from ``Id/k``."""
    first, second = partial_traces(rho, k, k)
    eye = np.eye(k) / k
    return float(max(np.abs(first - eye).max(), np.abs(second - eye).max()))


def check_normal_form(
    rho_in: np.ndarray, k: int, left: np.ndarray, right: np.ndarray, rho_nf: np.ndarray
) -> tuple[float, list[str]]:
    """Residual of a normal form and the problems found with it."""
    problems = []
    residual = normal_form_residual(rho_nf, k)
    if not residual <= PARTIAL_TRACE_LIMIT:
        problems.append(f"partial traces off Id/k by {residual:.3e}")
    trace = float(np.trace(rho_nf).real)
    if not abs(trace - 1.0) <= 1e-9:
        problems.append(f"normal form has trace {trace!r}")
    f = np.kron(left, right)
    again = f @ rho_in @ f.conj().T
    scale = max(1.0, float(np.abs(again).max()))
    err = float(np.abs(again - rho_nf).max()) / scale
    if not err <= REAPPLY_LIMIT:
        problems.append(f"re-applied filters miss the normal form by {err:.3e}")
    return residual, problems


def check_verdict(
    expect: Expect, outcome: str, stage: str | None, ranks: list[int]
) -> list[str]:
    """Compare a verdict with the one the input's construction implies."""
    if outcome != expect.outcome:
        return [f"verdict {outcome!r}, construction implies {expect.outcome!r}"]
    if outcome == EQUIVALENT and expect.ranks is not None:
        if tuple(sorted(ranks)) != expect.ranks:
            return [f"block ranks {sorted(ranks)}, construction implies {list(expect.ranks)}"]
    if outcome == NOT_EQUIVALENT and expect.stage is not None and stage != expect.stage:
        return [f"witness stage {stage!r}, construction implies {expect.stage!r}"]
    return []


def read_matrix(doc: object) -> np.ndarray:
    """A matrix from the program's nested ``[re, im]`` JSON lists."""
    arr = np.asarray(doc, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def read_state(path: Path) -> tuple[int, int, np.ndarray]:
    doc = json.loads(path.read_text())
    return int(doc["k"]), int(doc["m"]), read_matrix(doc["matrix"])


def close(a: float | None, b: float | None, rel: float = 1e-9) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def same_verdict_document(cli: dict, lib: dict) -> list[str]:
    """The CLI's ``decide --json`` document against the library's verdict."""
    problems = []
    for key in ("outcome", "iterations"):
        if cli.get(key) != lib[key]:
            problems.append(f"CLI {key} {cli.get(key)!r}, library {lib[key]!r}")
    cli_blocks = cli.get("blocks") or []
    if [b["rank"] for b in cli_blocks] != [b["rank"] for b in lib["blocks"]]:
        problems.append("CLI block ranks differ from the library's")
    elif not all(close(c["lambda"], l["lambda"]) for c, l in zip(cli_blocks, lib["blocks"])):
        problems.append("CLI block spectral radii differ from the library's")
    for key in ("min_f", "gram_min_eig"):
        if not close(cli.get(key), lib[key]):
            problems.append(f"CLI {key} {cli.get(key)!r}, library {lib[key]!r}")
    return problems
