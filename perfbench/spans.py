"""Outside-in tracing of the package's public functions.

A :class:`Tracer` wraps each listed function and rebinds the wrapper in every
``filternorm`` module that holds the same function object, so calls between
modules (and within one) go through it.  Each call records a span (name,
start, end, parent) in flat in-memory arrays; self time is computed from the
spans afterwards.  Hooks add work counts that the spans cannot show, such as
Kraus operators per ``apply`` or Sinkhorn iterations per scaling run.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

# Layer -> public functions that get a span.  The names are the package's
# modules; ``cli.main`` is traced only when the benchmark calls it in-process.
TRACED = {
    "linalg": ["rank_eps", "image_basis", "kernel_basis", "psd_check",
               "hermitian_sqrt_pinv", "subspace_intersection", "projector_onto"],
    "states": ["find_full_rank_vector", "state_to_map", "apply_filter",
               "embed_rectangular", "is_ppt"],
    "maps": ["apply", "corner_rep", "adjoint", "transform", "conjugate",
             "restrict_to_corner", "is_doubly_stochastic", "is_irreducible"],
    "decide": ["anchor_transform", "find_irreducible_corner", "normalize_corner",
               "adjoint_block_quadratic", "solve_adjoint_block",
               "alignment_transform", "decide_equivalence"],
    "scaling": ["scale_to_doubly_stochastic", "filter_normal_form", "pauli_coefficients"],
    "stateio": ["load_state", "save_state", "save_filters", "verdict_to_dict", "dump_json"],
    "cli": ["main"],
}

COUNTS = [
    "maps.apply.kraus_ops",
    "decide.loop_iterations",
    "decide.blocks",
    "decide.quadratic_n.sum",
    "scaling.sinkhorn_iterations",
    "stateio.bytes_read",
    "stateio.bytes_written",
    "stateio.json_bytes",
]


def _file_size(path: object) -> int:
    return Path(path).stat().st_size


def _hooks() -> dict[str, Callable[[tuple, dict, object], dict[str, int]]]:
    """Work counts taken from a call's arguments or result."""
    return {
        "maps.apply": lambda a, kw, r: {"maps.apply.kraus_ops": len(a[0].kraus)},
        "decide.decide_equivalence": lambda a, kw, r: {
            "decide.loop_iterations": r.iterations, "decide.blocks": len(r.blocks)},
        "decide.adjoint_block_quadratic": lambda a, kw, r: {"decide.quadratic_n.sum": r.n},
        "scaling.scale_to_doubly_stochastic": lambda a, kw, r: {
            "scaling.sinkhorn_iterations": r.iterations},
        "stateio.load_state": lambda a, kw, r: {"stateio.bytes_read": _file_size(a[0])},
        "stateio.save_state": lambda a, kw, r: {"stateio.bytes_written": _file_size(a[1])},
        "stateio.save_filters": lambda a, kw, r: {"stateio.bytes_written": _file_size(a[0])},
        "stateio.dump_json": lambda a, kw, r: {"stateio.json_bytes": len(r)},
    }


class Tracer:
    """Records spans for the functions in :data:`TRACED` while installed."""

    def __init__(self) -> None:
        self.names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_ids[name]
        hook = _hooks().get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, counts = self.span_start, self.span_end, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                counts.update(hook(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a ``filternorm`` module holds it."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "filternorm" or n.startswith("filternorm.")) and m is not None]
        for mod_name, fns in TRACED.items():
            home = sys.modules.get(f"filternorm.{mod_name}")
            if home is None:  # the CLI module is only loaded for the CLI workload
                continue
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, float]:
        """Calls and self time per function, layer self times and work counts."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        calls = np.bincount(a["name"], minlength=n_names)
        self_by_name = np.bincount(a["name"], weights=self_time, minlength=n_names)
        incl_by_name = np.bincount(a["name"], weights=dur, minlength=n_names)

        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_by_name[i])
        layer_of = np.array([self.names[i].split(".")[0] for i in range(n_names)])
        for layer in TRACED:
            ids = np.flatnonzero(layer_of == layer)
            out[f"layer.{layer}.self_s"] = float(self_by_name[ids].sum())
        for layer in ("maps", "linalg"):
            out[f"{layer}.under_scaling.self_s"] = self._self_under(a, self_time, layer, "scaling")
        for key in COUNTS:
            out[key] = int(self.counts.get(key, 0))
        iters = self.counts.get("scaling.sinkhorn_iterations", 0)
        scale_incl = float(incl_by_name[self.name_ids["scaling.scale_to_doubly_stochastic"]])
        out["scaling.s_per_iteration"] = scale_incl / iters if iters else 0.0
        out["trace.spans"] = int(len(dur))
        return out

    def _self_under(self, a: dict, self_time: np.ndarray, layer: str, ancestor: str) -> float:
        """Self time of ``layer`` spans that have an ``ancestor``-layer span above them."""
        prefix = np.array([n.split(".")[0] for n in self.names])[a["name"]]
        is_anc = prefix == ancestor
        parent = a["parent"]
        has_parent = parent >= 0
        safe_parent = np.where(has_parent, parent, 0)
        under = np.zeros(len(parent), dtype=bool)
        # one step down the call tree per round; rounds are bounded by the depth
        while True:
            step = has_parent & (is_anc[safe_parent] | under[safe_parent])
            if np.array_equal(step, under):
                break
            under = step
        mask = under & (prefix == layer)
        return float(self_time[mask].sum())

    def write(self, path: Path) -> None:
        """Write the spans and the function-name table as a compressed ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
