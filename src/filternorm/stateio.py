"""JSON file formats for states, verdicts, and filters.

A state file is a JSON object ``{"k": int, "m": int, "matrix": [...]}`` where
``matrix`` is the dense ``km x km`` density matrix as nested lists of
``[re, im]`` pairs, rows ordered by the product index ``(i - 1) m + j`` of the
two tensor factors.  Structural problems, non-finite entries included, raise
:class:`StateFormatError`; matrices that parse fine but are not positive
semidefinite (or not Hermitian) raise :class:`NotPositiveError` — the CLI maps
those to different exit codes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .decide import Verdict
from .states import BipartiteState

__all__ = [
    "StateFormatError",
    "NotPositiveError",
    "load_state",
    "save_state",
    "state_to_dict",
    "verdict_to_dict",
    "save_filters",
    "dump_json",
]


class StateFormatError(ValueError):
    """The file is not a structurally valid state file."""


class NotPositiveError(ValueError):
    """The matrix parsed fine but is not a positive semidefinite operator."""


def _matrix_to_json(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M)]


def _matrix_from_json(rows: object) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise StateFormatError("matrix must be a non-empty list of rows")
    n = len(rows)
    out = np.zeros((n, len(rows[0]) if isinstance(rows[0], list) else 0), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != out.shape[1]:
            raise StateFormatError("matrix rows are ragged")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(part, (int, float)) for part in entry)
            ):
                raise StateFormatError(
                    f"matrix entry ({i}, {j}) is not an [re, im] pair"
                )
            out[i, j] = complex(entry[0], entry[1])
    if not np.all(np.isfinite(out)):
        raise StateFormatError("matrix has non-finite entries")
    return out


def state_to_dict(state: BipartiteState) -> dict:
    return {"k": state.k, "m": state.m, "matrix": _matrix_to_json(state.rho)}


def save_state(state: BipartiteState, path: str | Path) -> None:
    Path(path).write_text(dump_json(state_to_dict(state)))


def load_state(path: str | Path) -> BipartiteState:
    """Parse a state file, separating format errors from positivity errors."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StateFormatError(f"cannot parse state file: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFormatError("state file must hold a JSON object")
    for key in ("k", "m", "matrix"):
        if key not in doc:
            raise StateFormatError(f"state file is missing the '{key}' key")
    k, m = doc["k"], doc["m"]
    if not isinstance(k, int) or not isinstance(m, int) or k < 1 or m < 1:
        raise StateFormatError("'k' and 'm' must be positive integers")
    M = _matrix_from_json(doc["matrix"])
    if M.shape != (k * m, k * m):
        raise StateFormatError(
            f"matrix shape {M.shape} does not match k*m = {k * m}"
        )
    try:
        return BipartiteState(k=k, m=m, rho=M)
    except ValueError as exc:
        raise NotPositiveError(str(exc)) from exc


def verdict_to_dict(verdict: Verdict) -> dict:
    """Canonical JSON document for a verdict (fixed key order)."""
    witness = verdict.witness
    return {
        "outcome": verdict.outcome,
        "blocks": [
            {"rank": proj.rank, "lambda": float(lam)} for proj, lam in verdict.blocks
        ],
        "min_f": None if witness is None else witness.min_f,
        "gram_min_eig": None if witness is None else witness.gram_min_eig,
        "iterations": verdict.iterations,
    }


def save_filters(path: str | Path, left: np.ndarray, right: np.ndarray) -> None:
    doc = {"left": _matrix_to_json(left), "right": _matrix_to_json(right)}
    Path(path).write_text(dump_json(doc))


def dump_json(doc: object) -> str:
    """Deterministic JSON serialization (stable bytes for identical input)."""
    return json.dumps(doc, indent=2) + "\n"
