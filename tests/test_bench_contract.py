"""The benchmark's span tracer against the package it traces.

``perfbench/spans.py`` rebinds the functions it lists by name and reads
fields of their arguments and results in its hooks.  A rename or a new map
representation would break every traced operation of the benchmark; these
tests notice it in the ordinary suite.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import filternorm
from filternorm import stateio
from helpers import hidden_blocky

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    """Each listed function exists, callable, in its ``filternorm`` module."""
    for mod_name, fn_names in spans.TRACED.items():
        module = importlib.import_module(f"filternorm.{mod_name}")
        for fn_name in fn_names:
            assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    traced = {f"{mod}.{fn}" for mod, fns in spans.TRACED.items() for fn in fns}
    assert set(spans._hooks()) <= traced


def test_every_hook_counts_work_on_real_results(spans, tmp_path):
    """One decision, normal form and file round trip fire every hook with a count."""
    state = hidden_blocky(4, [2, 2], np.random.default_rng(3))
    with spans.Tracer() as tracer:
        verdict = filternorm.decide_equivalence(state)
        nf = filternorm.filter_normal_form(state, verdict)
        filternorm.save_state(nf.state, tmp_path / "nf.json")
        filternorm.load_state(tmp_path / "nf.json")
        filternorm.save_filters(tmp_path / "filters.json", nf.left, nf.right)
        stateio.dump_json(filternorm.verdict_to_dict(verdict))
    assert verdict.outcome == filternorm.OUTCOME_EQUIVALENT
    summary = tracer.summary()
    for key in spans.COUNTS:
        assert summary[key] > 0, key
    for name in spans._hooks():
        assert summary[f"{name}.calls"] > 0, name
    # one scaling run per block; the normal form reports the longest one
    assert summary["scaling.sinkhorn_iterations"] >= nf.iterations
    # the tracer put every function back
    assert filternorm.scaling.scale_to_doubly_stochastic.__module__ == "filternorm.scaling"
    assert not hasattr(filternorm.maps.apply, "__wrapped__")
