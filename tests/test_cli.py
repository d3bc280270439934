"""Command-line interface: file formats, exit codes, and output documents."""

import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from filternorm import (
    BipartiteState,
    apply_filter,
    diagonal_state,
    embed_rectangular,
    load_state,
    maximally_entangled,
    partial_trace_first,
    partial_trace_second,
    random_state,
    save_state,
)
from filternorm.cli import main
from filternorm.linalg import rank_eps
from filternorm.states import state_to_map
from filternorm.stateio import NotPositiveError, StateFormatError
from helpers import (
    cli_env,
    hidden_blocky,
    neq2_state,
    random_invertible,
    separable_full_rank,
)


def write_state(tmp_path, state, name="state.json"):
    path = tmp_path / name
    save_state(state, path)
    return str(path)


def write_doc(tmp_path, doc, name="bad.json"):
    path = tmp_path / name
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
    return str(path)


# files that Python's json cannot turn into a matrix: bytes that are not
# UTF-8, nesting past the recursion limit, an integer beyond float range
UNPARSABLE_DOCS = [
    b'{"k": 1, "m": 1, "matrix": [[[1.0, 0.0]]], "note": "\xff\xfe"}',
    "[" * 100_000 + "]" * 100_000,
    '{"k": 1, "m": 2, "matrix": [[[%d, 0], [0, 0]], [[0, 0], [1, 0]]]}' % 10**400,
]


def product_state():
    vec = np.kron(np.array([1.0, 0.5]), np.array([0.5, -1.0])).astype(complex)
    rho = np.outer(vec, vec.conj())
    return BipartiteState(k=2, m=2, rho=rho / np.trace(rho).real)


def test_state_file_round_trip(tmp_path):
    """Saving and loading a state file preserves every matrix entry exactly."""
    rng = np.random.default_rng(0)
    st = separable_full_rank(3, rng)
    path = write_state(tmp_path, st)
    back = load_state(path)
    assert (back.k, back.m) == (st.k, st.m)
    assert np.abs(back.rho - st.rho).max() == 0.0


def test_load_state_error_classes(tmp_path):
    """Structural problems and positivity problems raise different errors."""
    for i, doc in enumerate(["{not json", *UNPARSABLE_DOCS]):
        with pytest.raises(StateFormatError):
            load_state(write_doc(tmp_path, doc, name=f"bad{i}.json"))
    herm = np.array([[0.5, 0.5], [0.5, -0.5]])
    doc = {"k": 1, "m": 2, "matrix": [[[v, 0.0] for v in row] for row in herm]}
    with pytest.raises(NotPositiveError):
        load_state(write_doc(tmp_path, doc))


def test_exit_codes_for_malformed_files(tmp_path):
    """Every structural defect in a state file exits with code 2."""
    good = np.eye(2) / 2
    rows = [[[v, 0.0] for v in row] for row in good]
    bad_docs = [
        "{not json",
        [1, 2, 3],
        {"k": 1, "matrix": rows},
        {"k": 1, "m": 2},
        {"k": 2, "m": 2, "matrix": rows},
        {"k": "1", "m": 2, "matrix": rows},
        {"k": 0, "m": 2, "matrix": rows},
        {"k": 1, "m": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]},
        {"k": 1, "m": 2, "matrix": [[[1.0, 0.0], [0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        {"k": 1, "m": 2, "matrix": []},
    ]
    # non-finite entries: Python's json reads NaN, Infinity and 1e400 as floats
    bad_docs += [
        '{"k": 1, "m": 2, "matrix": [[[%s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}'
        % entry for entry in ("NaN", "Infinity", "1e400")
    ]
    # JSON booleans are not numbers, though Python's bool is an int
    flags = [[[True, False], [0.0, 0.0]], [[0.0, 0.0], [True, False]]]
    bad_docs += [
        {"k": True, "m": 2, "matrix": rows},
        {"k": 2, "m": True, "matrix": rows},
        {"k": 1, "m": 2, "matrix": flags},
    ]
    bad_docs += UNPARSABLE_DOCS
    # a k*m too long for Python to print (4,300 digits at most)
    bad_docs.append('{"k": %d, "m": %d, "matrix": [[[1, 0]]]}' % (10**3000, 10**3000))
    for i, doc in enumerate(bad_docs):
        path = write_doc(tmp_path, doc, name=f"bad{i}.json")
        for command in ("analyze", "decide"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, path]) == 2, (command, doc)


def test_a_malformed_file_never_exits_1(tmp_path):
    """From the shell too, a file that is not UTF-8 exits 2 with one line and
    no traceback, not 1, which means only "decided: not equivalent"."""
    path = write_doc(tmp_path, UNPARSABLE_DOCS[0])
    done = subprocess.run([sys.executable, "-m", "filternorm.cli", "decide", path],
                          capture_output=True, env=cli_env())
    assert done.returncode == 2
    assert done.stderr.startswith(b"filternorm: cannot parse state file: ")
    assert done.stderr.count(b"\n") == 1 and b"Traceback" not in done.stderr


def test_unwritable_outputs_exit_2(tmp_path, capsys):
    """An --output or --filters path in a missing directory exits 2 with a
    one-line message, for normal-form and for embed, and leaves no output
    behind: an unwritable --filters path takes back the written state."""
    square = write_state(tmp_path, diagonal_state(np.diag([0.5, 0.5])), "square.json")
    rect = write_state(tmp_path, diagonal_state(np.ones((2, 3)) / 6.0), "rect.json")
    missing = str(tmp_path / "missing" / "out.json")
    for argv in (
        ["normal-form", square, "--output", missing],
        ["normal-form", square, "--output", str(tmp_path / "nf.json"), "--filters", missing],
        ["embed", rect, "--output", missing],
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("filternorm: ") and err.count("\n") == 1, err
        assert missing in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rect.json", "square.json"]


def test_every_documented_exit_code_is_reached(tmp_path, capsys):
    """README's exit-code table and the cli docstring list the same codes, and
    each is what some input gets; for 2 that is a state file that is missing."""
    from filternorm import cli

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    documented = {int(code) for code in re.findall(r"^\| (\d) ", table, re.M)}
    assert documented == {int(code) for code in re.findall(r"^(\d)  ", cli.__doc__, re.M)}
    reach = {
        0: write_state(tmp_path, diagonal_state(np.diag([0.5, 0.5])), "eq.json"),
        1: write_state(tmp_path, neq2_state(), "neq.json"),
        2: str(tmp_path / "missing.json"),
        3: write_state(tmp_path, maximally_entangled(2), "npt.json"),
        4: write_state(tmp_path, product_state(), "prod.json"),
    }
    assert documented == set(reach)
    for code, path in reach.items():
        assert main(["decide", path]) == code, path
    capsys.readouterr()


def test_exit_code_for_non_positive_matrices(tmp_path):
    """Well-formed files holding non-PSD or non-Hermitian matrices exit 3."""
    herm = [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]
    assert main(["analyze", write_doc(tmp_path, {"k": 1, "m": 2, "matrix": herm})]) == 3
    neg = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [-0.5, 0.0]]]
    assert main(["decide", write_doc(tmp_path, {"k": 1, "m": 2, "matrix": neg},
                                     name="neg.json")]) == 3


def test_decide_exit_codes(tmp_path, capsys):
    """decide exits 0 / 1 / 3 / 4 for the four verdict situations."""
    eq = write_state(tmp_path, diagonal_state(np.diag([0.5, 0.5])), "eq.json")
    assert main(["decide", eq]) == 0
    neq = write_state(tmp_path, neq2_state(), "neq.json")
    assert main(["decide", neq]) == 1
    npt = write_state(tmp_path, maximally_entangled(2), "npt.json")
    assert main(["decide", npt]) == 3
    rect = write_state(
        tmp_path, BipartiteState(k=2, m=3, rho=np.eye(6) / 6), "rect.json"
    )
    assert main(["decide", rect]) == 3
    prod = write_state(tmp_path, product_state(), "prod.json")
    assert main(["decide", prod]) == 4
    capsys.readouterr()


def test_a_tiny_state_is_decided_like_its_unit_trace_one(tmp_path, capsys):
    """``1e-10 diag(1, 0, 0, 1)/2`` has the verdict and normal form of
    ``diag(1, 0, 0, 1)/2``: decide and normal-form exit 0, not 4."""
    tiny = write_state(tmp_path, diagonal_state(1e-10 * np.diag([0.5, 0.5])))
    assert main(["decide", tiny]) == 0
    out = str(tmp_path / "out.json")
    assert main(["normal-form", tiny, "--output", out]) == 0


BAD_ARGUMENTS = [["--seed", "-1"], ["--tol-rank", "0"], ["--tol-residual", "-1"],
                 ["--tol-zero-f", "nan"], ["--tol-rank", "inf"]]


@pytest.mark.parametrize("command", ["analyze", "decide", "normal-form"])
def test_invalid_arguments_are_usage_errors(tmp_path, capsys, command):
    """A negative seed or a tolerance that is not positive and finite exits 2
    with a usage message naming the flag, before the state is read; the
    same flags with valid values still run.  ``analyze`` takes only
    ``--seed``."""
    path = write_state(tmp_path, diagonal_state(np.diag([0.5, 0.5])))
    extra = ["--output", str(tmp_path / "out.json")] if command == "normal-form" else []
    bad = BAD_ARGUMENTS[:1] if command == "analyze" else BAD_ARGUMENTS
    for flag, value in bad:
        with pytest.raises(SystemExit) as exc:
            main([command, path, *extra, flag, value])
        assert exc.value.code == 2, (flag, value)
        assert f"argument {flag}:" in capsys.readouterr().err, (flag, value)
    good = ["--seed", "3"]
    if command != "analyze":
        good += ["--tol-rank", "1e-9", "--tol-residual", "1e-8", "--tol-zero-f", "1e-8"]
    assert main([command, path, *extra, *good]) == 0
    capsys.readouterr()


def test_decide_human_output(tmp_path, capsys):
    """The human-readable verdict lists outcome, blocks, and iterations."""
    eq = write_state(tmp_path, diagonal_state(np.diag([0.5, 0.5])), "eq.json")
    assert main(["decide", eq]) == 0
    out = capsys.readouterr().out
    assert "outcome: equivalent" in out
    assert "block 1: rank 1" in out
    assert "block 2: rank 1" in out
    assert "iterations:" in out
    neq = write_state(tmp_path, neq2_state(), "neq.json")
    assert main(["decide", neq]) == 1
    out = capsys.readouterr().out
    assert "outcome: not_equivalent" in out
    assert "failure stage: f-minimum-positive" in out
    assert "quadratic minimum: 1" in out
    assert "smallest Gram eigenvalue: 2" in out


def test_decide_json_document(tmp_path, capsys):
    """The JSON verdict has the canonical keys and values."""
    eq = write_state(tmp_path, diagonal_state(np.diag([0.5, 0.5])), "eq.json")
    assert main(["decide", eq, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["outcome", "blocks", "min_f", "gram_min_eig", "iterations"]
    assert doc["outcome"] == "equivalent"
    assert sorted(b["rank"] for b in doc["blocks"]) == [1, 1]
    for b in doc["blocks"]:
        assert abs(b["lambda"] - 1.0) < 1e-9
    neq = write_state(tmp_path, neq2_state(), "neq.json")
    assert main(["decide", neq, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "not_equivalent"
    assert doc["blocks"] == []
    assert abs(doc["min_f"] - 1.0) < 1e-9
    assert abs(doc["gram_min_eig"] - 2.0) < 1e-9


def test_decide_borderline_warning(tmp_path, capsys):
    """A quadratic minimum within 100x of the zero threshold warns on stderr."""
    neq = write_state(tmp_path, neq2_state(), "neq.json")
    assert main(["decide", neq, "--tol-zero-f", "0.02"]) == 1
    err = capsys.readouterr().err
    assert "warning: quadratic minimum" in err
    assert main(["decide", neq]) == 1
    assert "warning" not in capsys.readouterr().err


def test_decide_embeds_rectangular_states_on_request(tmp_path, capsys):
    """--embed squares a rectangular state before deciding."""
    w = np.ones((2, 3))
    rect = write_state(tmp_path, diagonal_state(w / w.sum()), "rect.json")
    assert main(["decide", rect]) == 3
    assert "rectangular" in capsys.readouterr().err
    assert main(["decide", rect, "--embed"]) == 0
    out = capsys.readouterr().out
    assert "outcome: equivalent" in out


def test_embed_writes_a_loadable_square_state(tmp_path, capsys):
    """embed produces a square state file the other commands accept."""
    rect = write_state(
        tmp_path, diagonal_state(np.ones((2, 3)) / 6.0), "rect.json"
    )
    out_path = str(tmp_path / "embedded.json")
    assert main(["embed", rect, "--output", out_path]) == 0
    msg = capsys.readouterr().out
    assert "embedded 2 (x) 3 state into 6 (x) 6" in msg
    emb = load_state(out_path)
    assert emb.k == emb.m == 6
    assert main(["analyze", out_path]) == 0
    capsys.readouterr()


def test_normal_form_outputs(tmp_path, capsys):
    """normal-form writes the state and filter files and reports the residual."""
    rng = np.random.default_rng(1)
    st = separable_full_rank(2, rng)
    path = write_state(tmp_path, st)
    out_path = str(tmp_path / "nf.json")
    assert main(["normal-form", path, "--output", out_path]) == 0
    text = capsys.readouterr().out
    assert f"normal form written to {out_path}" in text
    assert "partial-trace residual" in text
    assert "Pauli coefficients" in text

    nf = load_state(out_path)
    eye = np.eye(2) / 2
    assert np.abs(partial_trace_first(nf) - eye).max() < 1e-7
    assert np.abs(partial_trace_second(nf) - eye).max() < 1e-7

    filters_path = tmp_path / "nf.filters.json"
    assert filters_path.exists()
    doc = json.loads(filters_path.read_text())
    left = np.array([[complex(*e) for e in row] for row in doc["left"]])
    right = np.array([[complex(*e) for e in row] for row in doc["right"]])
    F = np.kron(left, right)
    assert np.abs(F @ st.rho @ F.conj().T - nf.rho).max() < 1e-10


def test_normal_form_honors_the_filters_flag(tmp_path, capsys):
    """--filters overrides the derived filter-file path."""
    path = write_state(tmp_path, diagonal_state(np.diag([0.5, 0.5])))
    out_path = str(tmp_path / "out.json")
    custom = str(tmp_path / "my_filters.json")
    assert main(["normal-form", path, "--output", out_path, "--filters", custom]) == 0
    capsys.readouterr()
    assert (tmp_path / "my_filters.json").exists()
    assert not (tmp_path / "out.filters.json").exists()


def test_normal_form_refuses_filters_on_the_output_file(tmp_path, capsys, monkeypatch):
    """A filters path, given or derived, that resolves to the --output file
    exits 2 before the decision and writes nothing: the filter pair would
    overwrite the normal form."""
    from filternorm import cli

    monkeypatch.setattr(cli, "_decide", lambda *args: pytest.fail("decided"))
    path = write_state(tmp_path, diagonal_state(np.diag([0.5, 0.5])), "sq.json")
    out = str(tmp_path / "out.json")
    (tmp_path / "link.json").symlink_to(tmp_path / "link.filters.json")
    for argv in (
        ["--output", out, "--filters", out],
        ["--output", out, "--filters", f"{tmp_path}/./out.json"],
        ["--output", str(tmp_path / "link.json")],
    ):
        assert main(["normal-form", path, *argv]) == 2, argv
        assert capsys.readouterr().err == (
            "filternorm: --filters and --output name the same file\n"
        )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "sq.json"]


def test_normal_form_json_document(tmp_path, capsys):
    """The JSON summary carries the two-qubit separability diagnosis."""
    path = write_state(tmp_path, diagonal_state(np.diag([0.5, 0.5])))
    out_path = str(tmp_path / "nf.json")
    assert main(["normal-form", path, "--output", out_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "residual", "iterations", "output", "filters",
        "pauli", "cross_terms_norm", "separable",
    }
    assert doc["separable"] is True
    assert doc["filters"].endswith("nf.filters.json")
    assert np.abs(np.array(doc["pauli"]) - [0.5, 0.5, 0.0, 0.0]).max() < 1e-9


def test_normal_form_exit_codes(tmp_path, capsys):
    """normal-form exits 1 without equivalence and 3 on rectangular input."""
    neq = write_state(tmp_path, neq2_state(), "neq.json")
    assert main(["normal-form", neq, "--output", str(tmp_path / "x.json")]) == 1
    assert "no normal form" in capsys.readouterr().err
    rect = write_state(
        tmp_path, BipartiteState(k=2, m=3, rho=np.eye(6) / 6), "rect.json"
    )
    assert main(["normal-form", rect, "--output", str(tmp_path / "y.json")]) == 3
    assert "embed" in capsys.readouterr().err
    prod = write_state(tmp_path, product_state(), "prod.json")
    assert main(["normal-form", prod, "--output", str(tmp_path / "z.json")]) == 4
    capsys.readouterr()



def test_normal_form_embeds_rectangular_states_on_request(tmp_path, capsys):
    """--embed squares a rectangular state first, as for decide: the output
    is the embedding's normal form, of unit trace, and the filters written
    beside it take the embedded matrix there."""
    rng = np.random.default_rng(9)
    st = apply_filter(diagonal_state(rng.uniform(0.2, 2.0, size=(2, 3))),
                      random_invertible(2, rng), random_invertible(3, rng))
    rect = write_state(tmp_path, st, "rect.json")
    out_path = str(tmp_path / "nf.json")
    assert main(["normal-form", rect, "--embed", "--output", out_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residual"] <= 1e-7 and "pauli" not in doc

    nf = load_state(out_path)
    assert (nf.k, nf.m) == (6, 6)
    assert abs(np.trace(nf.rho).real - 1.0) < 1e-12
    eye = np.eye(6) / 6
    assert np.abs(partial_trace_first(nf) - eye).max() <= doc["residual"] + 1e-15
    assert np.abs(partial_trace_second(nf) - eye).max() <= doc["residual"] + 1e-15
    filters = json.loads(Path(doc["filters"]).read_text())
    left, right = (np.array([[complex(*e) for e in row] for row in filters[side]])
                   for side in ("left", "right"))
    F = np.kron(left, right)
    embedded = embed_rectangular(st).rho
    assert np.abs(F @ embedded @ F.conj().T - nf.rho).max() < 1e-10


def test_normal_form_of_an_embedding_exits_like_its_verdict(tmp_path, capsys):
    """With --embed, a rectangular pattern that scales only approximately is
    decided not equivalent (exit 1), one whose embedding has no
    full-tensor-rank range vector is inconclusive (exit 4), and neither
    writes a file."""
    for w, code in (([[1.0, 1, 1, 0], [0, 0, 1, 1]], 1), ([[1.0, 0, 0], [0, 1, 1]], 4)):
        w = np.array(w)
        rect = write_state(tmp_path, diagonal_state(w / w.sum()), "rect.json")
        out_path = tmp_path / "nf.json"
        assert main(["normal-form", rect, "--embed", "--output", str(out_path)]) == code
        assert "normal form" in capsys.readouterr().err
        assert not out_path.exists() and not (tmp_path / "nf.filters.json").exists()

def test_normal_form_handles_entangled_states(tmp_path, capsys):
    """A non-PPT state skips certification but still scales when possible."""
    path = write_state(tmp_path, maximally_entangled(2), "npt.json")
    out_path = str(tmp_path / "nf.json")
    assert main(["normal-form", path, "--output", out_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["separable"] is False
    assert np.abs(np.array(doc["pauli"]) - [0.5, 0.5, 0.5, -0.5]).max() < 1e-8


def test_analyze_outputs(tmp_path, capsys):
    """analyze reports shape, rank, PPT status, and a range vector when found."""
    path = write_state(tmp_path, neq2_state(), "neq.json")
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "state on C^2 (x) C^2" in out
    assert "rank 3" in out
    assert "PPT: yes" in out
    assert "full-tensor-rank range vector" in out
    assert main(["analyze", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == doc["m"] == 2
    assert doc["ppt"] is True
    assert doc["rank"] == 3
    assert abs(doc["trace"] - 1.0) < 1e-12
    assert doc["full_rank_vector"] is not None
    prod = write_state(tmp_path, product_state(), "prod.json")
    assert main(["analyze", prod]) == 0
    assert "no full-tensor-rank vector found" in capsys.readouterr().out


def test_the_zero_state_is_inconclusive_not_a_breakdown(tmp_path, capsys):
    """A zero state file is PSD and PPT with an empty range: decide prints the
    inconclusive verdict at no-full-rank-vector and normal-form finds no
    anchor, both exit 4 without calling it a breakdown, and analyze reports
    rank 0 and no vector."""
    path = write_state(tmp_path, BipartiteState(k=2, m=2, rho=np.zeros((4, 4))), "zero.json")
    assert main(["decide", path]) == 4
    out, err = capsys.readouterr()
    assert "outcome: inconclusive" in out and "failure stage: no-full-rank-vector" in out
    assert err == ""
    out_path = tmp_path / "nf.json"
    assert main(["normal-form", path, "--output", str(out_path)]) == 4
    assert capsys.readouterr().err == (
        "filternorm: no full-tensor-rank vector found; cannot certify a normal form\n")
    assert not out_path.exists()
    assert main(["analyze", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 0 and doc["full_rank_vector"] is None


def test_analyze_reports_the_rank_the_decision_uses(tmp_path, capsys):
    """analyze counts the eigenvalues that the decision's range cut keeps: a
    tiny negative one that passes the PSD gate is not counted."""
    state = BipartiteState(k=2, m=2, rho=np.diag([1.0, 1.0, 1.0, -1.5e-9]).astype(complex))
    assert len(state_to_map(state).kraus) == 3
    assert main(["analyze", write_state(tmp_path, state), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 3


def test_analyze_reports_the_operator_schmidt_rank(tmp_path, capsys):
    """The operator Schmidt rank is one for a product state and min(k^2, m^2)
    for a generic full-rank one."""
    P = np.diag([0.7, 0.3]).astype(complex)
    Q = np.diag([0.5, 0.25, 0.25]).astype(complex)
    product = BipartiteState(k=2, m=3, rho=np.kron(P, Q))
    generic = random_state(2, 3, rng=np.random.default_rng(4))
    for state, want in ((product, 1), (generic, 4)):
        path = write_state(tmp_path, state, f"schmidt{want}.json")
        assert main(["analyze", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["schmidt_rank"] == want
        assert main(["analyze", path]) == 0
        assert f"operator Schmidt rank: {want}" in capsys.readouterr().out


def test_decide_checks_ppt_once(tmp_path, capsys, monkeypatch):
    """decide leaves the PPT test to the decision: the 16 x 16 state is
    factored by the loader's PSD check and the decision's PPT check of its
    partial transpose (two Choleskys) and by the decision's pivoted Cholesky,
    which is numpy code, and by no ``eigh`` or ``eigvalsh``; a non-PPT state
    still exits 3 with the decision's message."""
    path = write_state(tmp_path, hidden_blocky(4, [2, 2], np.random.default_rng(3)))
    npt = write_state(tmp_path, maximally_entangled(2), "npt.json")
    calls = []
    for name in ("eigh", "eigvalsh", "cholesky"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            if np.shape(a) == (16, 16):
                calls.append(_name)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert main(["decide", path]) == 0
    assert calls == ["cholesky", "cholesky"]
    capsys.readouterr()
    assert main(["decide", npt]) == 3
    assert capsys.readouterr().err == "filternorm: state is not PPT\n"


def test_analyze_factors_the_state_once(tmp_path, capsys, monkeypatch):
    """analyze reads rank and PPT status off one factor and the proofs the
    state keeps: the 16 x 16 state is factored by the loader's PSD check (a
    Cholesky), the range search's pivoted Cholesky (numpy code, whose column
    count is the rank), the PPT check of its partial transpose (a Cholesky)
    and the SVD of its realignment, and by no ``eigh`` or ``eigvalsh``."""
    state = hidden_blocky(4, [2, 2], np.random.default_rng(3))
    path = write_state(tmp_path, state)
    want_rank = rank_eps(state.rho)
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "eig", "eigvals", "qr", "cholesky"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            if np.shape(a) == (16, 16):
                calls.append(_name)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert main(["analyze", path, "--json"]) == 0
    assert calls == ["cholesky", "cholesky", "svd"]
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == want_rank == 8
    assert doc["ppt"] is True


def test_importing_the_cli_loads_no_third_party_module_but_numpy():
    """numpy is the only runtime dependency: beyond what the interpreter had
    loaded at start, importing ``filternorm.cli`` loads the package, numpy
    and standard-library modules only."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import filternorm.cli\n"
            "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "print(' '.join(sorted(added - set(sys.stdlib_module_names))))\n")
    out = subprocess.run([sys.executable, "-c", code], env=cli_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["filternorm", "numpy"]


def test_verdict_json_is_reproducible_for_a_fixed_seed(tmp_path):
    """Module invocations with the same seed emit byte-identical verdicts."""
    rng = np.random.default_rng(2)
    path = write_state(tmp_path, separable_full_rank(3, rng))
    cmd = [sys.executable, "-m", "filternorm.cli", "decide", path,
           "--seed", "7", "--json"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=cli_env())
    second = subprocess.run(cmd, capture_output=True, check=True, env=cli_env())
    assert first.stdout == second.stdout
    assert first.returncode == 0


def test_numerical_breakdown_exits_inconclusive(tmp_path, capsys, monkeypatch):
    """A decision error on a PPT state exits 4 with a message, not 1 or 3."""
    path = write_state(tmp_path, diagonal_state(np.diag([0.5, 0.5])))
    out = str(tmp_path / "nf.json")
    for error in (
        RuntimeError("no PSD Perron eigenvector in the top eigenspace"),
        ValueError("corner is not invariant under the map"),
    ):
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr("filternorm.cli.decide_equivalence", broken)
        capsys.readouterr()
        assert main(["decide", path]) == 4
        assert capsys.readouterr().err.startswith("filternorm: decision broke down: ")
        assert main(["normal-form", path, "--output", out]) == 4
        assert capsys.readouterr().err.startswith("filternorm: decision broke down: ")


def test_failed_normal_form_output_check_exits_inconclusive(tmp_path, capsys, monkeypatch):
    """normal-form exits 4 when its own filtered state fails the PSD gate:
    the library reports that as a numerical error, not as bad input."""
    from filternorm import scaling
    from filternorm.states import BipartiteState

    def negated(state, left, right, tol=None):
        return BipartiteState(k=state.k, m=state.m, rho=-state.rho)

    path = write_state(tmp_path, separable_full_rank(2, np.random.default_rng(6)))
    monkeypatch.setattr(scaling, "apply_filter", negated)
    assert main(["normal-form", path, "--output", str(tmp_path / "nf.json")]) == 4
    assert capsys.readouterr().err == (
        "filternorm: scaling broke down: normal form state failed its positivity check\n"
    )


def test_scaling_breakdown_exits_inconclusive(tmp_path, capsys, monkeypatch):
    """Any numerical error out of the normal form exits 4, never 1 (not equivalent)."""
    from filternorm.scaling import ScalingConvergenceError, SingularMarginalError

    path = write_state(tmp_path, diagonal_state(np.diag([0.5, 0.5])))
    out = str(tmp_path / "nf.json")
    for error in (
        SingularMarginalError("marginal collapsed during scaling"),
        ScalingConvergenceError("scaling did not converge after 3 iterations"),
        RuntimeError("normal form residual 1.00e-03 is too large"),
        RuntimeError("scaled state has nonpositive trace"),
        ValueError("state matrix is not Hermitian"),
    ):
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr("filternorm.cli.filter_normal_form", broken)
        capsys.readouterr()
        assert main(["normal-form", path, "--output", out]) == 4
        assert capsys.readouterr().err == f"filternorm: scaling broke down: {error}\n"
