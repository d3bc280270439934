#!/usr/bin/env python3
"""Benchmark for filternorm: time to verdict, normal-form scaling, CLI cold start.

    python3 perfbench/run.py --workload square-blocks --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

One process sends one operation at a time (a closed loop with one client).
A run repeats whole rounds over the workload's operation list, at least
``MIN_ROUNDS`` of them, until ``--seconds`` have passed, and checks every
output.  An operation's cost is its time in units of a calibration kernel
timed around and during it (``calibration.py``), the median of its rounds.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
operation to warm up, untraced and traced, and prints the per-layer
metrics.  The last line
of standard output is the result object; the line before it holds the
environment and the details behind the metrics.  See ``perfbench/README.md``.
"""

import os

# Pin BLAS before numpy loads (here and in every child process).  One thread:
# the loop is a single client, the matrices are at most 400 x 400, and idle
# BLAS threads would compete with the CLI child processes for the cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))
# The modules that import numpy (filternorm, and the benchmark's own checks,
# spans and workloads) are imported inside functions, so that ``setup`` sees
# a cold import.

WORKLOADS = ("square-blocks", "qubit-boundary", "cli-cold")
MIN_ROUNDS = 3
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
CLI_PROBES = 5
CLI_TIMEOUT_S = 120.0
CALIBRATION_INTERVAL_S = 0.01  # kernel samples while a library operation runs


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, smoke: bool, workdir: Path):
    """Cold ``import filternorm`` plus input generation; returns (inputs, seconds).

    Library inputs are a list of ``(op, state)``; CLI inputs are
    ``CliInputs`` with the state files written to ``workdir``.  Nothing in
    this process may have imported numpy before the first call, so that the
    import is cold.
    """
    t0 = perf_counter()
    import filternorm as fz
    import workloads as wl

    if workload == "cli-cold":
        inputs = wl.cli_cold(seed)
        wl.write_cli_states(inputs, workdir)
    else:
        build = wl.square_blocks if workload == "square-blocks" else wl.qubit_boundary
        inputs = [(op, fz.BipartiteState(k=op.k, m=op.m, rho=op.rho))
                  for op in build(seed, smoke)]
    return inputs, perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_samples(workload: str, seed: int, smoke: bool, workdir: Path) -> list[float]:
    """Set-up times of fresh interpreters (each one imports cold)."""
    times = []
    for i in range(SETUP_SAMPLES - 1):
        probe_dir = workdir / f"probe-{i}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed), "--workdir", str(probe_dir)]
        if smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def byte_compile() -> None:
    """The build step: byte-compile the package so no timed import compiles it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "filternorm"),
                    str(Path(__file__).resolve().parent)],
                   check=True, timeout=CLI_TIMEOUT_S, stdout=subprocess.DEVNULL)


# ---------------------------------------------------------------------------
# one library operation
# ---------------------------------------------------------------------------


def new_record(label: str) -> dict:
    return {"label": label, "spans": {}, "op_s": 0.0, "decide_s": None, "nf_s": None,
            "residual": None, "failed": False, "wrong": False, "bad_output": False,
            "inconclusive": False, "problems": []}


# Kinds of failure: the program raised or exited without an answer ("error"),
# an answer failed a check ("output"), or the answer is a wrong verdict
# ("verdict").  Every kind counts as a failed operation; the run's outputs
# are correct when no answer it returned failed a check.
def fail(rec: dict, problem: str, kind: str = "output") -> None:
    rec["failed"] = True
    rec["wrong"] = rec["wrong"] or kind == "verdict"
    rec["bad_output"] = rec["bad_output"] or kind != "error"
    rec["problems"].append(f"{rec['label']}: {problem}")


def fail_exit_code(rec: dict, op, code: int, message: str) -> None:
    """An unexpected exit code; 0 or 1 from a deciding command is a wrong verdict."""
    import workloads as wl

    decided = code in (wl.EXIT_OK, wl.EXIT_NOT_EQUIVALENT)
    kind = "verdict" if decided and op.command in ("decide", "normal-form") else "error"
    fail(rec, f"exit code {code}, expected {op.expect_exit}{message}", kind)
    rec["inconclusive"] = code == wl.EXIT_INCONCLUSIVE


def span_seconds(rec: dict) -> dict:
    """Set ``<span>_s`` from each timed span of the record."""
    for span, (a, b) in rec["spans"].items():
        rec[f"{span}_s"] = b - a
    return rec


def run_library_op(fz, op, state) -> dict:
    """Embed (if rectangular), PPT test, decide, normal form, Pauli test; then check."""
    import checks
    import workloads as wl

    rec = new_record(op.label)
    verdict = nf = lams = None
    t0 = perf_counter()
    try:
        if op.embed:
            state = fz.embed_rectangular(state)
        ppt = fz.is_ppt(state)
        if ppt:
            t = perf_counter()
            verdict = fz.decide_equivalence(state)
            rec["spans"]["decide"] = (t, perf_counter())
        if not ppt or verdict.outcome == wl.EQUIVALENT:
            t = perf_counter()
            nf = fz.filter_normal_form(state, verdict)
            rec["spans"]["nf"] = (t, perf_counter())
            if state.k == 2:
                lams, _ = fz.pauli_coefficients(nf.state)
                separable = fz.check_2x2_inequality(lams)
    except Exception as exc:  # counted as a failed op; the run goes on
        rec["spans"]["op"] = (t0, perf_counter())
        fail(rec, traceback.format_exception_only(exc)[-1].strip(), "error")
        return span_seconds(rec)
    rec["spans"]["op"] = (t0, perf_counter())
    span_seconds(rec)

    if ppt != op.expect.ppt:
        fail(rec, f"is_ppt says {ppt}, construction implies {op.expect.ppt}", "verdict")
    if verdict is not None:
        if verdict.outcome == "inconclusive":
            rec["inconclusive"] = True
            fail(rec, "inconclusive verdict", "error")
        else:
            stage = verdict.witness.stage if verdict.witness is not None else None
            ranks = [proj.rank for proj, _ in verdict.blocks]
            for problem in checks.check_verdict(op.expect, verdict.outcome, stage, ranks):
                fail(rec, problem, "verdict")
    if nf is not None:
        rec["residual"], problems = checks.check_normal_form(
            state.rho, state.k, nf.left, nf.right, nf.state.rho)
        for problem in problems:
            fail(rec, problem)
        if lams is not None and separable != op.expect.ppt:
            fail(rec, f"Pauli test says separable={separable}, PPT={op.expect.ppt}",
                 "verdict")
    return rec


# ---------------------------------------------------------------------------
# one CLI invocation
# ---------------------------------------------------------------------------


def cli_reference(fz, inputs, workdir: Path) -> dict:
    """The library's answers for each CLI operation (untimed)."""
    import numpy as np

    ref = {}
    for op in inputs.ops:
        state = fz.load_state(workdir / f"{op.state}.json")
        if op.command == "analyze":
            ref[op.label] = {"ppt": bool(fz.is_ppt(state))}
        elif op.command == "decide":
            if op.embed:
                state = fz.embed_rectangular(state)
            verdict = fz.decide_equivalence(state, rng=np.random.default_rng(0))
            ref[op.label] = fz.verdict_to_dict(verdict)
        elif op.command == "embed":
            ref[op.label] = fz.embed_rectangular(state).rho
    return ref


def run_cli_op(op, inputs, ref: dict, workdir: Path) -> dict:
    """One cold ``python -m filternorm.cli`` invocation; then check its output."""
    import numpy as np

    import checks
    import workloads as wl

    rec = new_record(op.label)
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    cmd = [sys.executable, "-m", "filternorm.cli", *op.argv]
    t0 = perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    span = (t0, perf_counter())
    code = proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    rec["rss_mib"] = usage.ru_maxrss / 1024.0
    rec["spans"]["op"] = span
    if op.command == "decide":
        rec["spans"]["decide"] = span
    elif op.command == "normal-form":
        rec["spans"]["nf"] = span
    span_seconds(rec)

    if code != op.expect_exit:
        tail = err_path.read_text().strip().splitlines()[-1:] or [""]
        fail_exit_code(rec, op, code, f" ({tail[0][:200]})")
        return rec

    k, m, rho_in, expect = inputs.states[op.state]
    try:
        doc = json.loads(out_path.read_text()) if "--json" in op.argv else None
        if op.command == "analyze":
            if (doc["k"], doc["m"]) != (k, m):
                fail(rec, f"analyze reports {doc['k']} x {doc['m']}, input is {k} x {m}")
            if doc["ppt"] != expect.ppt or doc["ppt"] != ref[op.label]["ppt"]:
                fail(rec, f"analyze says ppt={doc['ppt']}, construction implies "
                          f"{expect.ppt}", "verdict")
        elif op.command == "decide":
            ranks = [b["rank"] for b in doc["blocks"]]
            # the document has no stage; a positive-minimum witness carries min_f
            stage = wl.STAGE_F_MIN_POSITIVE if doc["min_f"] is not None else None
            problems = checks.check_verdict(expect, doc["outcome"], stage, ranks)
            for problem in problems:
                fail(rec, problem, "verdict")
            for problem in checks.same_verdict_document(doc, ref[op.label]):
                fail(rec, problem)
        elif op.command == "normal-form":
            _, _, rho_nf = checks.read_state(workdir / op.output)
            filters = json.loads((workdir / doc["filters"]).read_text())
            left = checks.read_matrix(filters["left"])
            right = checks.read_matrix(filters["right"])
            rec["residual"], problems = checks.check_normal_form(rho_in, k, left, right, rho_nf)
            for problem in problems:
                fail(rec, problem)
            if k == 2 and doc["separable"] != expect.ppt:
                fail(rec, f"Pauli test says separable={doc['separable']}, "
                          f"PPT={expect.ppt}", "verdict")
        elif op.command == "embed":
            ek, em, rho_e = checks.read_state(workdir / op.output)
            want = ref[op.label]
            if (ek, em) != (k * m, k * m) or rho_e.shape != want.shape:
                fail(rec, f"embedded state is {ek} x {em}, expected {k * m} x {k * m}")
            elif np.abs(rho_e - want).max() > 1e-12 * max(1.0, np.abs(want).max()):
                fail(rec, "embedded state differs from the library's embedding")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        fail(rec, f"unreadable output: {exc}")
    return rec


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def run_rounds(run_one, items: list, seconds: float, min_rounds: int,
               cal) -> list[list[dict]]:
    """Whole rounds over ``items`` until ``seconds`` have passed and ``min_rounds`` ran.

    A calibration sample precedes every operation and follows the last; each
    record then gets the seconds and cal of its timed spans (``op``,
    ``decide``, ``nf``) as ``<span>_s`` and ``<span>_cal``.
    """
    rounds = []
    t0 = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - t0 < seconds:
        rnd = []
        for item in items:
            cal.sample()
            rnd.append(run_one(item))
        rounds.append(rnd)
    cal.sample()
    for rec in (r for rnd in rounds for r in rnd):
        for span, (a, b) in rec["spans"].items():
            rec[f"{span}_s"], rec[f"{span}_cal"] = cal.cost(a, b)
    return rounds


def per_operation(rounds: list[list[dict]], key: str) -> list[float]:
    """Per operation, the median of its rounds' values under ``key``, where it has any."""
    out = []
    for timings in zip(*rounds):
        values = [r[key] for r in timings if r.get(key) is not None]
        if values:
            out.append(statistics.median(values))
    return out


def tail_percentile(min_samples: int) -> float:
    """Highest percentile with ``TAIL_BEYOND`` timings beyond it in the shortest run.

    The shortest run holds ``MIN_ROUNDS`` timings of each operation; the
    percentile is taken of the operations' median costs, each standing for
    its timings, and stays put as runs lengthen.  With too few timings for
    any, the maximum.
    """
    if min_samples <= TAIL_BEYOND:
        return 100.0
    return 100.0 * (min_samples - 1 - TAIL_BEYOND) / (min_samples - 1)


def end_to_end(rounds: list[list[dict]], min_rounds: int, setup_times: list[float],
               rss_mib: float, cal) -> tuple[dict, dict]:
    """The end-to-end metrics, and the details printed beside them.

    Costs are each operation's median over its rounds, in cal; counts and
    ratios are over every timing.  The details give the same figures in
    seconds, which move with the machine's speed.
    """
    import numpy as np

    records = [r for rnd in rounds for r in rnd]
    n = len(records)
    tail_pct = tail_percentile(min_rounds * len(rounds[0]))

    def summary(unit: str) -> dict:
        op = per_operation(rounds, f"op_{unit}")
        decide = per_operation(rounds, f"decide_{unit}")
        nf = per_operation(rounds, f"nf_{unit}")
        nan = float("nan")
        return {
            "ops_per": len(op) / sum(op),
            "op.p50": statistics.median(op),
            "op.tail": float(np.percentile(op, tail_pct)),
            "decide.p50": statistics.median(decide) if decide else nan,
            "normal_form.p50": statistics.median(nf) if nf else nan,
        }

    cost, seconds = summary("cal"), summary("s")
    residuals = [r["residual"] for r in records if r["residual"] is not None]
    failed = sum(r["failed"] for r in records)
    wrong = sum(r["wrong"] for r in records)
    inconclusive = sum(r["inconclusive"] for r in records)
    worst = max(residuals) if residuals else float("nan")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_kcal": (1000.0 * cost["ops_per"], "1/kcal"),
        "op_cal.p50": (cost["op.p50"], "cal"),
        "op_cal.tail": (cost["op.tail"], "cal"),
        "decide_cal.p50": (cost["decide.p50"], "cal"),
        "normal_form_cal.p50": (cost["normal_form.p50"], "cal"),
        "nf_digits.min": (-math.log10(worst) if worst > 0 else float("nan"), "digits"),
        "ok_ratio": (1.0 - failed / n, "ratio"),
        "decided_ratio": (1.0 - inconclusive / n, "ratio"),
        "right_verdict_ratio": (1.0 - wrong / n, "ratio"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    by_label: dict[str, list[float]] = {}
    for r, c in zip(rounds[0], per_operation(rounds, "op_cal")):
        by_label.setdefault(r["label"], []).append(c)
    details = {
        "samples": n,
        "operations": len(rounds[0]),
        "rounds": len(rounds),
        "op_cal.p50_by_label": {k: statistics.median(v) for k, v in by_label.items()},
        "op.tail_percentile": round(tail_pct, 3),
        "calibration": {"samples": len(cal.values), "kernel_s.p50": cal.median_s()},
        "seconds": {
            "ops_per_s": seconds["ops_per"],
            "op_s.p50": seconds["op.p50"],
            "op_s.tail": seconds["op.tail"],
            "decide_s.p50": seconds["decide.p50"],
            "normal_form_s.p50": seconds["normal_form.p50"],
        },
        "setup_s.samples": setup_times,
        "nf_residual.max": worst,
        "fail_ratio": failed / n,
        "inconclusive_ratio": inconclusive / n,
        "wrong_verdicts": wrong,
    }
    return metrics, details


def measure_cli_probes() -> tuple[float, float]:
    """Medians of a bare interpreter start and of ``import filternorm.cli`` in a child."""
    bare, imports = [], []
    code = ("import time; t = time.perf_counter(); import filternorm.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(CLI_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True,
                       timeout=CLI_TIMEOUT_S)
        bare.append(perf_counter() - t0)
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        imports.append(float(done.stdout.strip()))
    return statistics.median(bare), statistics.median(imports)


def warm_cli_op(fz, op, workdir: Path) -> dict:
    """In-process ``cli.main(argv)`` for one operation, exit code checked."""
    rec = new_record(f"warm-{op.label}")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = perf_counter()
            code = fz.cli.main(list(op.argv))
            rec["op_s"] = perf_counter() - t0
    finally:
        os.chdir(cwd)
    if code != op.expect_exit:
        fail_exit_code(rec, op, code, " (in-process)")
    return rec


def traced_and_untraced(run_one, items: list, tracer) -> tuple[list, list, list]:
    """Each item three times in a row: to warm up, untraced, traced.

    A repeat of an operation runs faster than its first run, and machine speed
    drifts over seconds, so the two compared runs are adjacent repeats.
    Returns the (untraced, traced, warm-up) records.
    """
    warmup, untraced, traced = [], [], []
    for item in items:
        warmup.append(run_one(item))
        untraced.append(run_one(item))
        with tracer:
            traced.append(run_one(item))
    return untraced, traced, warmup


def per_layer_library(fz, inputs: list, workload: str) -> tuple[dict, list[dict], dict]:
    """Each operation of ``inputs`` warmed up, untraced and traced; layer metrics from the last."""
    from spans import Tracer

    tracer = Tracer()
    untraced, traced, warmup = traced_and_untraced(lambda pair: run_library_op(fz, *pair),
                                                   inputs, tracer)
    tracer.write(OUT / f"spans-{workload}.npz")
    layer = tracer.summary()
    wall_untraced = sum(r["op_s"] for r in untraced)
    wall_traced = sum(r["op_s"] for r in traced)
    layer["trace.overhead_s"] = wall_traced - wall_untraced
    layer.update({"cli.interpreter_s": 0.0, "cli.import_s": 0.0, "cli.main_s": 0.0})
    details = {"wall_untraced_s": wall_untraced, "wall_traced_s": wall_traced,
               "layer_shares": shares(layer, wall_traced)}
    return layer, warmup + untraced + traced, details


def per_layer_cli(fz, inputs, ref, workdir: Path) -> tuple[dict, list[dict], dict]:
    """One cold round, interpreter and import probes, warm in-process runs."""
    import filternorm.cli  # noqa: F401  (binds fz.cli for the warm runs)
    from spans import Tracer

    cold = [run_cli_op(op, inputs, ref, workdir) for op in inputs.ops]
    interpreter_s, import_s = measure_cli_probes()
    tracer = Tracer()
    warm, warm_traced, warmup = traced_and_untraced(lambda op: warm_cli_op(fz, op, workdir),
                                                    inputs.ops, tracer)
    tracer.write(OUT / "spans-cli-cold.npz")
    layer = tracer.summary()
    wall_untraced = sum(r["op_s"] for r in warm)
    wall_traced = sum(r["op_s"] for r in warm_traced)
    layer["trace.overhead_s"] = wall_traced - wall_untraced
    layer.update({"cli.interpreter_s": interpreter_s, "cli.import_s": import_s,
                  "cli.main_s": statistics.median(r["op_s"] for r in warm)})
    cold_p50 = statistics.median(r["op_s"] for r in cold)
    details = {
        "cold_op_s.p50": cold_p50,
        "cold_op_shares": {
            "cli.interpreter_s": interpreter_s / cold_p50,
            "cli.import_s": import_s / cold_p50,
            "cli.main_s": layer["cli.main_s"] / cold_p50,
        },
        "layer_shares": shares(layer, wall_traced),
    }
    return layer, cold + warmup + warm + warm_traced, details


def shares(layer: dict, wall: float) -> dict:
    """Each layer's self time as a share of the traced wall time."""
    keys = [k for k in layer if k.startswith("layer.") or ".under_scaling." in k]
    return {k: round(layer[k] / wall, 4) for k in keys if wall > 0}


def layer_unit(name: str) -> str:
    if "bytes" in name:
        return "B"
    if name.endswith(("_s", ".s_per_iteration")):
        return "s"
    return "count"


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads() -> int | str:
    """Threads OpenBLAS reports through numpy's bundled library, if reachable."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return f"unknown (requested {BLAS_THREADS})"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "filternorm").glob("*.py")):
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "commit": commit(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        mutate=None) -> tuple[dict, dict]:
    """One run: returns the result object and the details line."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        byte_compile()
        inputs, parent_setup = setup(workload, seed, smoke, workdir)
        import filternorm as fz

        if mutate is not None:
            mutate(inputs)
        from calibration import Calibration

        min_rounds = 1 if smoke else MIN_ROUNDS
        t0 = perf_counter()
        if workload == "cli-cold":
            ref = cli_reference(fz, inputs, workdir)
            if trace:
                layer, records, details = per_layer_cli(fz, inputs, ref, workdir)
            else:
                # no timer: while a child runs, this process only waits for it
                cal = Calibration()
                rounds = run_rounds(lambda op: run_cli_op(op, inputs, ref, workdir),
                                    inputs.ops, seconds, min_rounds, cal)
        elif trace:
            layer, records, details = per_layer_library(fz, inputs, workload)
        else:
            with Calibration(CALIBRATION_INTERVAL_S) as cal:
                rounds = run_rounds(lambda pair: run_library_op(fz, *pair),
                                    inputs, seconds, min_rounds, cal)
        wall = perf_counter() - t0

        if trace:
            metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
        else:
            records = [r for rnd in rounds for r in rnd]
            setup_times = [parent_setup] + setup_samples(workload, seed, smoke, workdir)
            if workload == "cli-cold":
                rss = max(r["rss_mib"] for r in records if "rss_mib" in r)
            else:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, details = end_to_end(rounds, min_rounds, setup_times, rss, cal)
        details.update({"workload": workload, "trace": int(trace), "wall_s": wall,
                        "env": environment(seed),
                        "problems": [p for r in records for p in r["problems"]][:20]})
        failed = sum(r["failed"] for r in records)
        result = {
            "correct": not any(r["bad_output"] for r in records),
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        return result, details
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke() -> int:
    """Every workload at minimal size, both modes; the checker must catch a planted error."""
    import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = run(workload, 0, 0.0, bool(trace), smoke=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong_unit = sorted(n for n in set(got) & set(want[trace])
                                    if got[n] != want[trace][n])
                problems.append(f"{workload} trace={trace}: missing {missing}, "
                                f"unexpected {extra}, wrong units {wrong_unit}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: outputs failed their checks")
            print(f"smoke {workload} trace={trace}: {len(got)} metrics, "
                  f"correct={result['correct']}")

    def plant_library(inputs):
        op = next(op for op, _ in inputs if op.expect.outcome == wl.NOT_EQUIVALENT)
        op.expect.outcome = wl.EQUIVALENT

    def plant_cli(inputs):
        op = next(op for op in inputs.ops if op.expect_exit == wl.EXIT_NOT_EQUIVALENT)
        op.expect_exit = wl.EXIT_OK

    for workload, plant in (("square-blocks", plant_library), ("cli-cold", plant_cli)):
        result, details = run(workload, 0, 0.0, False, smoke=True, mutate=plant)
        caught = not result["correct"] and details["wrong_verdicts"] >= 1
        print(f"smoke {workload}: planted wrong expected verdict caught={caught}")
        if not caught:
            problems.append(f"{workload}: the checker missed a planted wrong verdict")
    for problem in problems:
        print(f"smoke FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes; with no --workload, the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "filternorm" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'filternorm'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        _, seconds = setup(args.workload, args.seed, args.smoke, Path(args.workdir))
        print(repr(seconds))
        return 0
    if args.workload is None:
        if args.smoke:
            return smoke()
        parser.error("--workload is required")
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace),
                          smoke=args.smoke)
    print(json.dumps(details, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
