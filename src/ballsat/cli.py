"""Command line: DIMACS in, solver conventions out.

Prints "s SATISFIABLE" with a "v" model line (exit 10), "s
UNSATISFIABLE" with a one-sided failure-probability comment (exit 20),
or "s UNKNOWN" when the configuration is unusable or an interrupt
(SIGINT) arrives before the answer (exit 0).  Input or flag errors,
input that is not UTF-8 among them, and failed output writes exit 1.
The failure probability is a union bound over the quantum groups
whose every retry missed, capped at 1.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import warnings
from pathlib import Path

from .formula import Assignment, Formula, ParseError, evaluate, parse_dimacs
from .oracle import brute_sat
from .orchestrator import ConfigError, SolveConfig, solve, solve_resource

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 0
EXIT_ERROR = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballsat",
        description="K-SAT via covering-code ball search with a simulated "
        "fixed-point quantum subroutine.",
    )
    parser.add_argument("--input", default="-", help="DIMACS CNF path ('-' for stdin)")
    parser.add_argument("--k", type=int, default=0, help="decomposition width")
    parser.add_argument("--epsilon", type=float, default=0.1, help="per-call tolerance")
    cap = parser.add_mutually_exclusive_group()
    cap.add_argument("--c", type=float, default=0.3, help="qubit fraction (default %(default)s)")
    cap.add_argument("--r-max", type=int, default=None, help="explicit quantum radius cap")
    parser.add_argument("--A", type=float, default=1.0, help="resource-curve constant")
    parser.add_argument("--B", type=float, default=1.0, help="resource-curve constant")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="accepted for compatibility; must be >= 1, dispatch runs inline",
    )
    parser.add_argument("--retries", type=int, default=3, help="quantum retries per call")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument(
        "--mode", choices=("hybrid", "classical", "brute"), default="hybrid"
    )
    parser.add_argument("--stats", default=None, help="write JSONL quantum-call stats here")
    parser.add_argument("--cover-cache", default=None, help="directory for cover files")
    return parser


def _model_line(model: Assignment) -> str:
    lits = [i + 1 if bit else -(i + 1) for i, bit in enumerate(model)]
    return " ".join(["v", *map(str, lits), "0"])


def _read_input(path: str) -> str:
    """The input decoded as UTF-8, whatever the locale; raises UnicodeDecodeError."""
    raw = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    return raw.decode("utf-8")


def _write_stats(fh, path: str, records) -> bool:
    """Write the records and close the file; on failure, False after a diagnostic."""
    try:
        with fh:  # closing flushes, and the flush may be what fails
            for record in records:
                fh.write(json.dumps(dataclasses.asdict(record)) + "\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_UNKNOWN if exc.code in (0, None) else EXIT_ERROR
    try:
        lines, code = _answer(args)
    except KeyboardInterrupt:
        # no "s" line is out yet, and an interrupted solve has written no record
        print("c interrupted", file=sys.stderr)
        lines, code = ["s UNKNOWN"], EXIT_UNKNOWN
    for line in lines:
        print(line)
    return code


def _answer(args: argparse.Namespace) -> tuple[list[str], int]:
    """The stdout lines and exit code of a run; diagnostics go to stderr as they arise."""
    try:
        text = _read_input(args.input)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return [], EXIT_ERROR
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            formula = parse_dimacs(text)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return [], EXIT_ERROR
    for warning in caught:
        print(f"c warning: {warning.message}", file=sys.stderr)

    # opened before solving so an unwritable path fails before the work
    try:
        stats_file = open(args.stats, "w") if args.stats else contextlib.nullcontext()
    except OSError as exc:
        print(f"error: cannot write {args.stats}: {exc}", file=sys.stderr)
        return [], EXIT_ERROR
    with stats_file as fh:
        if args.mode == "brute":   # no quantum call: --stats stays empty
            try:
                model = brute_sat(formula)
            except ValueError as exc:
                print(f"c {exc}", file=sys.stderr)
                return ["s UNKNOWN"], EXIT_UNKNOWN
            if model is not None:
                return ["s SATISFIABLE", _model_line(model)], EXIT_SAT
            return ["s UNSATISFIABLE"], EXIT_UNSAT
        cfg = SolveConfig(
            k=args.k,
            epsilon=args.epsilon,
            workers=args.workers,
            retries=args.retries,
            seed=args.seed,
            r_max=args.r_max,
            mode=args.mode,
            cover_cache=args.cover_cache,
        )
        try:
            rm = None
            # classical mode never reads the model, so its constants cannot fail it
            if args.mode == "hybrid" and args.r_max is None:
                rm = solve_resource(args.A, args.B, args.c)
            result = solve(formula, cfg, rm)
        except ConfigError as exc:
            print(f"c {exc}", file=sys.stderr)
            return ["s UNKNOWN"], EXIT_UNKNOWN
        if fh is not None and not _write_stats(fh, args.stats, result.stats.records):
            return [], EXIT_ERROR

    if result.status == "SAT":
        if not evaluate(formula, result.model):
            print("c model failed final verification", file=sys.stderr)
            return ["s UNKNOWN"], EXIT_UNKNOWN
        return ["s SATISFIABLE", _model_line(result.model)], EXIT_SAT
    return [
        f"c one-sided: failure-prob <= {result.stats.failure_bound:.6g}",
        "s UNSATISFIABLE",
    ], EXIT_UNSAT


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        # what is still buffered would fail again in the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_ERROR
    raise SystemExit(code)
