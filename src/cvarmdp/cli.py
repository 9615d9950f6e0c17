"""Command-line front end.

Subcommands: check, evaluate, simulate, mec, generate, gadget-sat.
Exit codes: 0 SAT, 1 UNSAT, 2 UNKNOWN, 64 usage error, 65 invalid input,
69 numpy missing (simulate only), 70 internal error (including a SAT witness
that fails re-verification), 73 an output file cannot be written.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence

from . import serialize
from .graphs import mec_decomposition
from .model import ModelError, Rational, UnsupportedQueryError, strategy_problems
from .risk import cvar, expectation, var
from .solver import decide
from .synthesis import check_strategy, evaluate

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_INVALID = 65
EXIT_UNAVAILABLE = 69
EXIT_INTERNAL = 70
EXIT_CANTCREAT = 73


class _CannotWrite(Exception):
    """An output file could not be written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 64 on usage errors
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {value}")
    return value


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ModelError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    """Write one output file; every command writes through here."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CannotWrite(f"cannot write {path}: {exc.strerror or exc}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="cvarmdp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a query; write witness + certificate")
    p.add_argument("model")
    p.add_argument("query")
    p.add_argument("--grid", type=_positive_int, default=16, help="guess-grid refinement")
    p.add_argument("--out", help="prefix for witness/certificate JSON (default: query path stem)")

    # the arguments evaluate and simulate share
    measured = argparse.ArgumentParser(add_help=False)
    measured.add_argument("model")
    measured.add_argument("strategy")
    measured.add_argument("--objective", choices=["reach", "mean"], default="reach")
    measured.add_argument("--p", type=_rational, default=Fraction(1, 20))
    measured.add_argument("--q", type=_rational, default=Fraction(1, 20))

    sub.add_parser("evaluate", parents=[measured], help="exact E/VaR/CVaR of a strategy")

    p = sub.add_parser("simulate", parents=[measured], help="exact values plus Monte Carlo estimates")
    p.add_argument("--runs", type=int, default=10_000)
    p.add_argument("--horizon", type=int, default=10_000)
    p.add_argument("--burn-in", type=int, default=1_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write dimension 0's per-run samples to this CSV file")

    p = sub.add_parser("mec", help="print the maximal end component decomposition")
    p.add_argument("model")

    p = sub.add_parser("generate", help="write a benchmark or random instance")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", help="named instance, e.g. choice, loop, slow(1/8), negative")
    group.add_argument("--random", action="store_true")
    p.add_argument("--states", type=int, default=10)
    p.add_argument("--actions", type=int, default=2)
    p.add_argument("--density", type=_rational, default=Fraction(1, 3))
    p.add_argument("--reward-lo", type=int, default=0)
    p.add_argument("--reward-hi", type=int, default=10)
    p.add_argument("--dims", type=int, default=1)
    p.add_argument("--targets", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("model_out")
    p.add_argument("query_out", nargs="?", help="query file (with --example only)")

    p = sub.add_parser("gadget-sat", help="encode a DIMACS CNF as a model + query")
    p.add_argument("cnf")
    p.add_argument("model_out")
    p.add_argument("query_out")
    return parser


def _print_table(rows: List[List[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _fmt(x) -> str:
    if x == float("inf"):
        return "inf"
    f = Fraction(x)
    return f"{f} ({float(f):.6g})" if f.denominator != 1 else str(f.numerator)


def _cmd_check(args) -> int:
    mdp = serialize.model_from_json(_read(args.model))
    query = serialize.query_from_json(_read(args.query))
    verdict = decide(mdp, query, args.grid)
    if verdict.sat:
        # independent re-verification before reporting SAT
        ok, law, details = check_strategy(mdp, verdict.witness, query)
        if not ok:
            print(f"internal error: witness failed re-verification: {details}", file=sys.stderr)
            return EXIT_INTERNAL
    prefix = args.out or str(Path(args.query).with_suffix(""))
    _write(prefix + ".certificate.json", serialize.verdict_to_json(verdict))
    if verdict.witness is not None:
        _write(prefix + ".witness.json", serialize.strategy_to_json(verdict.witness))
    print(verdict.status)
    if verdict.witness is not None:
        print(f"witness: {prefix}.witness.json")
    print(f"certificate: {prefix}.certificate.json")
    return {"SAT": EXIT_SAT, "UNSAT": EXIT_UNSAT}.get(verdict.status, EXIT_UNKNOWN)


def _measure_rows(law, p: Rational, q: Rational) -> List[List[str]]:
    rows = [["dim", "E", f"VaR@{q}", f"CVaR@{p}"]]
    for j in range(law.dim):
        dist = law[j]
        rows.append(
            [str(j), _fmt(expectation(dist)), _fmt(var(dist, q)), _fmt(cvar(dist, p))]
        )
    return rows


def _read_strategy(path: str, mdp):
    strategy = serialize.strategy_from_json(_read(path))
    problems = strategy_problems(mdp, strategy)
    if problems:
        raise ModelError("; ".join(problems))
    return strategy


def _cmd_evaluate(args) -> int:
    mdp = serialize.model_from_json(_read(args.model))
    strategy = _read_strategy(args.strategy, mdp)
    law = evaluate(mdp, strategy, args.objective)
    _print_table(_measure_rows(law, args.p, args.q))
    return EXIT_SAT


def _cmd_simulate(args) -> int:
    try:
        from .simulate import SimConfig, empirical_measures, sample_payoffs, samples_csv
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print("cvarmdp simulate needs numpy, which is not installed", file=sys.stderr)
        return EXIT_UNAVAILABLE

    mdp = serialize.model_from_json(_read(args.model))
    strategy = _read_strategy(args.strategy, mdp)
    law = evaluate(mdp, strategy, args.objective)
    cfg = SimConfig(runs=args.runs, horizon=args.horizon, seed=args.seed, burn_in=args.burn_in)
    rows = _measure_rows(law, args.p, args.q)
    rows[0] += ["E~", "VaR~", "CVaR~"]
    for j in range(law.dim):
        samples = sample_payoffs(mdp, strategy, args.objective, cfg, dim_index=j)
        e, v, c = empirical_measures(samples, args.p, args.q)
        rows[j + 1] += [f"{float(x):.6g}" for x in (e, v, c)]  # an infinite VaR prints "inf"
        if args.csv and j == 0:
            _write(args.csv, samples_csv(samples))
    _print_table(rows)
    return EXIT_SAT


def _cmd_mec(args) -> int:
    mdp = serialize.model_from_json(_read(args.model))
    dec = mec_decomposition(mdp)
    print(f"{len(dec.mecs)} maximal end component(s)")
    for i, (states, actions) in enumerate(dec.mecs):
        names = ", ".join(sorted(map(str, states)))
        print(f"  MEC {i}: states [{names}] actions {len(actions)}")
    return EXIT_SAT


def _cmd_generate(args) -> int:
    from . import gadgets

    if args.query_out and not args.example:
        print("error: a query file needs --example; --random writes only a model", file=sys.stderr)
        return EXIT_USAGE
    if args.example:
        mdp, query = gadgets.example(args.example)
        _write(args.model_out, serialize.model_to_json(mdp))
        print(f"model: {args.model_out}")
        if args.query_out:
            _write(args.query_out, serialize.query_to_json(query))
            print(f"query: {args.query_out}")
    else:
        mdp = gadgets.random_mdp(
            args.states,
            args.actions,
            args.density,
            (args.reward_lo, args.reward_hi),
            args.dims,
            args.seed,
            targets=args.targets,
        )
        _write(args.model_out, serialize.model_to_json(mdp))
        print(f"model: {args.model_out}")
    return EXIT_SAT


def _cmd_gadget_sat(args) -> int:
    from .gadgets import Cnf3, sat_reduction

    num_vars, clauses = serialize.parse_dimacs(_read(args.cnf))
    mdp, _, query = sat_reduction(Cnf3(num_vars, clauses))
    _write(args.model_out, serialize.model_to_json(mdp))
    _write(args.query_out, serialize.query_to_json(query))
    print(f"model: {args.model_out}")
    print(f"query: {args.query_out}")
    return EXIT_SAT


_COMMANDS = {
    "check": _cmd_check,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "mec": _cmd_mec,
    "generate": _cmd_generate,
    "gadget-sat": _cmd_gadget_sat,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ModelError, UnsupportedQueryError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except _CannotWrite as exc:
        print(exc, file=sys.stderr)
        return EXIT_CANTCREAT
    except Exception as exc:  # any other failure is a defect, not bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
