"""Command-line interface.

Subcommands
-----------
analyze      print dimensions, rank, trace, and PPT status of a state file
decide       decide doubly-stochastic equivalence for a square PPT state
normal-form  compute filters and write the normal-form state
             (``--embed``: of a rectangular state's embedding)
embed        embed a rectangular state into a square one

Exit codes
----------
0  success (for ``decide``: the state's map is equivalent)
1  decided: not equivalent (for ``normal-form``: no normal form), and nothing
   else
2  invalid arguments, an unreadable or unparsable state file, or an
   unwritable output
3  input rejected (not PSD, not PPT where required, or wrong shape)
4  inconclusive (no full-tensor-rank vector found, the decision broke down
   numerically, or scaling failed)
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .decide import (
    OUTCOME_EQUIVALENT,
    OUTCOME_NOT_EQUIVALENT,
    STAGE_F_MIN_POSITIVE,
    decide_equivalence,
)
from .linalg import DEFAULT_TOL, Tolerances, rank_eps
from .scaling import check_2x2_inequality, filter_normal_form, pauli_coefficients
from .states import (
    _factor_map,
    _full_rank_vector,
    embed_rectangular,
    is_ppt,
    partial_trace_first,
    partial_trace_second,
)
from .stateio import (
    NotPositiveError,
    StateFormatError,
    _matrix_to_json as matrix_to_json,
    dump_json,
    load_state,
    save_filters,
    save_state,
    verdict_to_dict,
)

__all__ = [
    "main",
    "entry",
    "make_parser",
    "EXIT_OK",
    "EXIT_NOT_EQUIVALENT",
    "EXIT_BAD_FORMAT",
    "EXIT_BAD_STATE",
    "EXIT_INCONCLUSIVE",
]

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_BAD_FORMAT = 2
EXIT_BAD_STATE = 3
EXIT_INCONCLUSIVE = 4


def _err(message: str) -> None:
    print(f"filternorm: {message}", file=sys.stderr)


class _Rejected(Exception):
    """Input that the command does not take: exit 3."""


class _Breakdown(Exception):
    """A numerical failure on input that passed every check: exit 4."""


def _tolerances(args: argparse.Namespace) -> Tolerances:
    return Tolerances(
        rank_rel=args.tol_rank, zero_f=args.tol_zero_f, sinkhorn_residual=args.tol_residual
    )


def _positive_float(text: str) -> float:
    """A tolerance flag's value: a positive finite number, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol-rank", type=_positive_float, default=DEFAULT_TOL.rank_rel, metavar="EPS",
        help="relative singular-value cutoff for numerical ranks",
    )
    parser.add_argument(
        "--tol-zero-f", type=_positive_float, default=DEFAULT_TOL.zero_f, metavar="EPS",
        help="threshold below which the quadratic minimum counts as zero",
    )
    parser.add_argument(
        "--tol-residual", type=_positive_float, default=DEFAULT_TOL.sinkhorn_residual,
        metavar="EPS",
        help="marginal residual at which Sinkhorn scaling stops",
    )


def _add_embed_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--embed", action="store_true",
        help="embed a rectangular state into a square one first",
    )


def _squared(state, args: argparse.Namespace):
    """The state, or with ``--embed`` a rectangular one's embedding."""
    if state.k == state.m:
        return state
    if not args.embed:
        raise _Rejected("state is rectangular; pass --embed to square it first")
    return embed_rectangular(state)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filternorm",
        description="Filter normal forms of bipartite states via "
        "doubly-stochastic equivalence of their associated maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="inspect a state file")
    p.add_argument("state", help="path to a state JSON file")
    p.add_argument(
        "--seed", type=_seed, default=0,
        help="seed for the range-vector search (default 0)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser(
        "decide", help="decide doubly-stochastic equivalence for a PPT state"
    )
    p.add_argument("state", help="path to a state JSON file (square unless --embed)")
    p.add_argument(
        "--seed", type=_seed, default=0,
        help="seed for the range-vector search (default 0)",
    )
    _add_embed_flag(p)
    p.add_argument("--json", action="store_true", help="print the verdict as JSON")
    _add_tolerance_flags(p)

    p = sub.add_parser(
        "normal-form", help="compute filters and the normal-form state"
    )
    p.add_argument("state", help="path to a state JSON file (square unless --embed)")
    p.add_argument("--output", required=True, help="where to write the filtered state")
    p.add_argument(
        "--filters", default=None,
        help="path for the filter pair (default: derived from --output)",
    )
    p.add_argument("--seed", type=_seed, default=0, help="seed for the decision stage")
    _add_embed_flag(p)
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    _add_tolerance_flags(p)

    p = sub.add_parser("embed", help="embed a rectangular state into a square one")
    p.add_argument("state", help="path to a state JSON file")
    p.add_argument("--output", required=True, help="where to write the embedded state")
    return parser


def _decide(state, tol: Tolerances, seed: int):
    """``decide_equivalence`` with its numerical breakdowns wrapped for
    :func:`main`; a not-PPT state's ``NotPositiveError`` passes through."""
    try:
        return decide_equivalence(state, tol=tol, rng=np.random.default_rng(seed))
    except NotPositiveError:
        raise
    except (ValueError, RuntimeError) as exc:
        raise _Breakdown(f"decision broke down: {exc}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    state = load_state(args.state)
    k, m = state.k, state.m
    # one factor gives the range search and the rank, cut as the decision cuts
    T, basis = _factor_map(state, DEFAULT_TOL)
    vector = _full_rank_vector(basis, k, m, np.random.default_rng(args.seed), DEFAULT_TOL)
    # the operator Schmidt rank is the rank of the realigned state
    realigned = state.blocks().transpose(0, 2, 1, 3).reshape(k * k, m * m)
    doc = {
        "k": state.k,
        "m": state.m,
        "trace": float(np.real(np.trace(state.rho))),
        "rank": 0 if T is None else len(T.kraus),
        "ppt": bool(is_ppt(state)),
        "partial_trace_first": matrix_to_json(partial_trace_first(state)),
        "partial_trace_second": matrix_to_json(partial_trace_second(state)),
        "schmidt_rank": rank_eps(realigned),
        "full_rank_vector": None
        if vector is None
        else [[float(z.real), float(z.imag)] for z in vector],
    }
    if args.json:
        sys.stdout.write(dump_json(doc))
    else:
        print(f"state on C^{state.k} (x) C^{state.m}")
        print(f"trace {doc['trace']:.6g}, rank {doc['rank']}")
        print("PPT: " + ("yes" if doc["ppt"] else "no"))
        print(f"operator Schmidt rank: {doc['schmidt_rank']}")
        with np.printoptions(precision=4, suppress=True):
            print(f"partial trace over the first factor:\n{partial_trace_first(state)}")
            print(f"partial trace over the second factor:\n{partial_trace_second(state)}")
        if vector is None:
            print("no full-tensor-rank vector found in the range")
        else:
            with np.printoptions(precision=4, suppress=True):
                print(f"full-tensor-rank range vector: {vector}")
    return EXIT_OK


def _cmd_decide(args: argparse.Namespace) -> int:
    state = _squared(load_state(args.state), args)
    tol = _tolerances(args)
    verdict = _decide(state, tol, args.seed)

    witness = verdict.witness
    if (
        witness is not None
        and witness.stage == STAGE_F_MIN_POSITIVE
        and witness.min_f is not None
        and tol.zero_f < witness.min_f <= 100.0 * tol.zero_f
    ):
        _err(
            f"warning: quadratic minimum {witness.min_f:.3e} is close to the "
            f"zero threshold {tol.zero_f:.1e}; the verdict may be sensitive "
            "to --tol-zero-f"
        )

    doc = verdict_to_dict(verdict)
    if args.json:
        sys.stdout.write(dump_json(doc))
    else:
        print(f"outcome: {doc['outcome']}")
        for i, block in enumerate(doc["blocks"], start=1):
            print(
                f"block {i}: rank {block['rank']}, "
                f"spectral radius {block['lambda']:.6g}"
            )
        if witness is not None:
            print(f"failure stage: {witness.stage}")
            if witness.min_f is not None:
                print(f"quadratic minimum: {witness.min_f:.6g}")
            if witness.gram_min_eig is not None:
                print(f"smallest Gram eigenvalue: {witness.gram_min_eig:.6g}")
        print(f"iterations: {doc['iterations']}")

    if verdict.outcome == OUTCOME_EQUIVALENT:
        return EXIT_OK
    if verdict.outcome == OUTCOME_NOT_EQUIVALENT:
        return EXIT_NOT_EQUIVALENT
    return EXIT_INCONCLUSIVE


def _cmd_normal_form(args: argparse.Namespace) -> int:
    filters_path = args.filters
    if filters_path is None:
        root = args.output[:-5] if args.output.endswith(".json") else args.output
        filters_path = root + ".filters.json"
    if os.path.realpath(filters_path) == os.path.realpath(args.output):
        raise argparse.ArgumentError(None, "--filters and --output name the same file")
    state = _squared(load_state(args.state), args)
    tol = _tolerances(args)

    try:
        verdict = _decide(state, tol, args.seed)
    except NotPositiveError:
        verdict = None  # not PPT: there is no decision, the whole map is scaled
    if verdict is not None:
        if verdict.outcome == OUTCOME_NOT_EQUIVALENT:
            _err("state has no normal form (map is not equivalent)")
            return EXIT_NOT_EQUIVALENT
        if verdict.outcome != OUTCOME_EQUIVALENT:
            _err("no full-tensor-rank vector found; cannot certify a normal form")
            return EXIT_INCONCLUSIVE

    try:
        result = filter_normal_form(state, verdict, tol)
    except (ValueError, RuntimeError) as exc:
        # the input passed every check above, so this is a numerical breakdown
        raise _Breakdown(f"scaling broke down: {exc}") from exc

    save_state(result.state, args.output)
    try:
        save_filters(filters_path, result.left, result.right)
    except OSError:
        os.remove(args.output)  # an exit 2 leaves no half-written result
        raise

    doc = {
        "residual": result.residual,
        "iterations": result.iterations,
        "output": args.output,
        "filters": filters_path,
    }
    if state.k == 2:
        lams, cross = pauli_coefficients(result.state)
        doc["pauli"] = [float(v) for v in lams]
        doc["cross_terms_norm"] = cross
        doc["separable"] = bool(check_2x2_inequality(lams))
    if args.json:
        sys.stdout.write(dump_json(doc))
    else:
        print(f"normal form written to {args.output}")
        print(f"filters written to {filters_path}")
        print(
            f"partial-trace residual {result.residual:.3e} "
            f"after {result.iterations} scaling iterations"
        )
        if "pauli" in doc:
            lams = ", ".join(f"{v:.6g}" for v in doc["pauli"])
            print(f"Pauli coefficients: [{lams}]")
            print(f"cross-term norm: {doc['cross_terms_norm']:.3e}")
            print(
                "separability test: "
                + ("satisfied (separable)" if doc["separable"] else "violated (entangled)")
            )
    return EXIT_OK


def _cmd_embed(args: argparse.Namespace) -> int:
    state = load_state(args.state)
    embedded = embed_rectangular(state)
    save_state(embedded, args.output)
    print(
        f"embedded {state.k} (x) {state.m} state into "
        f"{embedded.k} (x) {embedded.m}; written to {args.output}"
    )
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "decide": _cmd_decide,
    "normal-form": _cmd_normal_form,
    "embed": _cmd_embed,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command; every error it raises gets its one exit code here."""
    args = make_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (StateFormatError, OSError, argparse.ArgumentError) as exc:
        _err(str(exc))
        return EXIT_BAD_FORMAT
    except (NotPositiveError, _Rejected) as exc:
        _err(str(exc))
        return EXIT_BAD_STATE
    except _Breakdown as exc:
        _err(str(exc))
        return EXIT_INCONCLUSIVE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
