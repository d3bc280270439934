"""The public names the package exports, and the parameters of its entry points."""

import ast
import dataclasses
import importlib
import inspect
import types
from pathlib import Path

import pytest

import filternorm

PUBLIC = {
    # decision
    "OUTCOME_EQUIVALENT", "OUTCOME_INCONCLUSIVE", "OUTCOME_NOT_EQUIVALENT",
    "STAGE_F_MIN_POSITIVE", "STAGE_GRAM_NOT_PD", "STAGE_NO_FULL_RANK_VECTOR",
    "BlockCertificate", "FailureWitness", "Verdict",
    "anchor_transform", "decide_equivalence", "find_irreducible_corner",
    "solve_adjoint_block",
    # numerics
    "DEFAULT_TOL", "Projection", "Tolerances",
    # maps
    "CpMap", "adjoint", "apply", "conjugate", "corner_rep",
    "is_doubly_stochastic", "is_irreducible", "restrict_to_corner", "transform",
    # scaling
    "NormalFormResult", "ScalingConvergenceError", "ScalingResult",
    "SingularMarginalError", "check_2x2_inequality", "filter_normal_form",
    "pauli_coefficients", "scale_to_doubly_stochastic",
    # file formats
    "NotPositiveError", "StateFormatError", "load_state", "save_filters",
    "save_state", "verdict_to_dict",
    # states
    "BipartiteState", "apply_filter", "diagonal_state",
    "embed_rectangular", "find_full_rank_vector", "is_ppt", "maximally_entangled",
    "partial_trace_first", "partial_trace_second",
    "partial_transpose", "random_state", "state_to_map", "vec_to_matrix",
}


def test_package_exports_exactly_the_public_names():
    """Stage internals (``normalize_corner``, the quadratic model, the
    alignment transform) stay in ``filternorm.decide``; submodules and
    ``__version__`` are not counted."""
    exported = {
        name for name, value in vars(filternorm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


# a new parameter on an entry point is an API change: it shows up here
SIGNATURES = {
    "decide_equivalence": ["state", "v", "tol", "rng"],
    "find_full_rank_vector": ["state", "rng", "tol"],
    "anchor_transform": ["state", "v", "tol"],
    "embed_rectangular": ["state"],
    "filter_normal_form": ["state", "verdict", "tol"],
    "scale_to_doubly_stochastic": ["T", "tol"],
}


def test_entry_points_take_exactly_the_pinned_parameters():
    """The anchor search has no sample-count knob and the embedding no
    tolerance; every other parameter is listed in order."""
    for name, params in SIGNATURES.items():
        got = list(inspect.signature(getattr(filternorm, name)).parameters)
        assert got == params, name


def test_tolerances_have_exactly_the_pinned_fields():
    """Each field is an independently settable knob of the whole pipeline."""
    got = [field.name for field in dataclasses.fields(filternorm.Tolerances)]
    assert got == [
        "rank_rel", "psd_abs", "zero_f", "sinkhorn_residual", "sinkhorn_max_iters"
    ]


# names a module lists in ``__all__`` without defining them
REEXPORTS = {"stateio": {"NotPositiveError"}}


@pytest.mark.parametrize(
    "module", ["linalg", "maps", "states", "decide", "scaling", "stateio", "cli"]
)
def test_module_all_lists_exactly_its_public_definitions(module):
    """A deleted or added top-level name cannot leave ``__all__`` stale."""
    mod = importlib.import_module(f"filternorm.{module}")
    defined = set()
    for node in ast.parse(Path(mod.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in defined if not name.startswith("_")}
    assert sorted(mod.__all__) == sorted(public | REEXPORTS.get(module, set()))


SOURCES = sorted(p.stem for p in Path(filternorm.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", [m for m in SOURCES if m != "__init__"])
def test_module_uses_every_name_it_imports(module):
    """A top-level import that the module neither uses nor re-exports in
    ``__all__`` is dead: a helper moved elsewhere must take its imports along."""
    mod = importlib.import_module(f"filternorm.{module}")
    tree = ast.parse(Path(mod.__file__).read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(mod.__all__)) == []
