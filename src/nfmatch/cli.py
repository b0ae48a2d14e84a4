"""Command-line entry point.

Subcommands: run FILE, eval EXPR, repl, bench {comb2, seq-triple},
examples {sat, twin-primes, triplets}. Exit codes: 0 success, 1 error,
2 usage, 130 interrupted. Every command reports a bad file, a full output
or closed pipe, a malformed CNF or a bad bench setting as one `error:` line
and exit 1, and an interrupt (Ctrl-C) as one `interrupted` line and exit
130.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bench as bench_mod
from . import examples as examples_mod
from .lang import Evaluator, cli_form, repl, run_text


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def non_negative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


# the longest cell timeout: a cell's child is waited for with it, and the
# host's wait call takes no more than about 24 days
MAX_TIMEOUT = 10**6


def timeout_seconds(text: str) -> float:
    t = float(text)
    if not 0 < t <= MAX_TIMEOUT:  # nan fails every comparison
        raise argparse.ArgumentTypeError(
            f"must be more than 0 and at most {MAX_TIMEOUT}, got {text}"
        )
    return t


def int_list(text: str) -> tuple:
    return tuple(int(s) for s in text.split(",") if s)


def _engine_flags(default: bool) -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    default_value = None if default else argparse.SUPPRESS
    flags.add_argument(
        "--engine",
        choices=("strict", "stream"),
        default="strict" if default else argparse.SUPPRESS,
        help="strict enumerates results eagerly; stream interleaves fairly",
    )
    flags.add_argument(
        "--naive-multiset",
        action="store_true",
        default=False if default else argparse.SUPPRESS,
        help="bind Multiset to the layered (join/cons) definition",
    )
    flags.add_argument(
        "--max-results",
        type=positive_int,
        metavar="N",
        default=default_value,
        help="truncate each match-all to at most N results",
    )
    return flags


def build_parser() -> argparse.ArgumentParser:
    # the engine flags live on the main parser (defaults) and on each
    # language subcommand (SUPPRESS), so both flag positions work
    outer = _engine_flags(default=True)
    inner = _engine_flags(default=False)
    parser = argparse.ArgumentParser(
        prog="nfmatch",
        parents=[outer],
        description="Pattern matching with backtracking for non-free data types.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[inner], help="evaluate a program file")
    p_run.add_argument("file")
    p_eval = sub.add_parser("eval", parents=[inner], help="evaluate one expression")
    p_eval.add_argument("expr")
    sub.add_parser("repl", parents=[inner], help="interactive session")

    p_bench = sub.add_parser("bench", help="timing harness")
    bench_sub = p_bench.add_subparsers(dest="bench", required=True)
    for name, sizes, variants in (
        ("comb2", "50,100", ",".join(bench_mod.COMB2_VARIANTS)),
        ("seq-triple", "100,200", ",".join(bench_mod.SEQ_TRIPLE_VARIANTS)),
    ):
        bp = bench_sub.add_parser(name)
        bp.add_argument("--sizes", type=int_list, default=sizes, help="comma-separated n values")
        bp.add_argument("--variants", default=variants, help="comma-separated variants")
        bp.add_argument("--reps", type=int, default=5, help="repetitions per cell")
        bp.add_argument("--timeout", type=timeout_seconds, default=60.0,
                        help="seconds per cell, its child's start included")
        bp.add_argument("--csv", default=None, metavar="PATH", help="write rows as CSV")

    p_ex = sub.add_parser("examples", help="example applications")
    ex_sub = p_ex.add_subparsers(dest="example", required=True)
    p_sat = ex_sub.add_parser("sat", help="Davis-Putnam on a DIMACS-lite file")
    p_sat.add_argument("file")
    p_twin = ex_sub.add_parser("twin-primes", help="first K twin prime pairs")
    p_twin.add_argument("k", type=non_negative_int)
    p_trip = ex_sub.add_parser("triplets", help="first K prime triplets")
    p_trip.add_argument("k", type=non_negative_int)
    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = _run_command(args)
        # output that cannot be written fails here, not at exit
        print(end="", flush=True)
        return code
    except (OSError, ValueError, bench_mod.BenchError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def _run_command(args) -> int:
    if "file" in args:  # run and examples sat
        with open(args.file) as fh:
            text = fh.read()
    if args.command in ("run", "eval", "repl"):
        evaluator = Evaluator(
            engine_mode=args.engine,
            naive_multiset=args.naive_multiset,
            max_results=args.max_results,
        )
        if args.command == "repl":
            return repl(evaluator)
        if args.command == "eval":
            return run_text(args.expr, evaluator, "<eval>")
        return run_text(text, evaluator, args.file)

    if args.command == "bench":
        variants = tuple(v for v in args.variants.split(",") if v)
        cfg = bench_mod.BenchConfig(
            sizes=args.sizes,
            variants=variants,
            repetitions=args.reps,
            timeout=args.timeout,
            bench=args.bench,
        )
        bench_mod.run_benchmarks(cfg, csv_path=args.csv)
    elif args.example == "sat":
        vars_, cnf = examples_mod.read_dimacs(text)
        verdict = examples_mod.sat(vars_, cnf)
        print("SATISFIABLE" if verdict else "UNSATISFIABLE")
    elif args.example == "twin-primes":
        print(cli_form(examples_mod.twin_primes(args.k)))
    else:
        print(cli_form(examples_mod.prime_triplets(args.k)))
    return 0


def main():
    code = run_cli(sys.argv[1:])
    try:
        print(end="", flush=True)
    except OSError:
        # run_cli has reported it; drop what is buffered, or exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
