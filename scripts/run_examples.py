#!/usr/bin/env python3
"""Decide every named benchmark instance and print laws, measures, witnesses.

Every named example is satisfiable: the script exits 1 if one is not
answered SAT, or if its witness fails the exact check on the model.
"""
import argparse
import sys
import time
from fractions import Fraction

from cvarmdp.gadgets import example
from cvarmdp.risk import FiniteDistribution, cvar, expectation, var
from cvarmdp.solver import decide
from cvarmdp.synthesis import check_strategy


def fmt(x):
    if x == float("inf"):
        return "inf"
    f = Fraction(x)
    return f"{f} ({float(f):.4g})" if f.denominator != 1 else str(f.numerator)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "names",
        nargs="*",
        default=["choice", "loop", "slow(1/8)", "slow(1/64)", "negative"],
    )
    args = parser.parse_args()

    failures = []
    for name in args.names:
        mdp, query = example(name)
        start = time.monotonic()
        verdict = decide(mdp, query)
        elapsed = time.monotonic() - start
        print(f"== {name}: {verdict.status} in {elapsed:.3f}s")
        for c in query.constraints:
            parts = []
            if c.expectation is not None:
                parts.append(f"E >= {c.expectation}")
            if c.cvar is not None:
                parts.append(f"CVaR@{c.cvar[0]} >= {c.cvar[1]}")
            if c.var is not None:
                parts.append(f"VaR@{c.var[0]} >= {c.var[1]}")
            print(f"   query[{c.dim}]: " + ", ".join(parts))
        if not verdict.sat:
            failures.append(f"{name}: {verdict.status}, not SAT")
        else:
            ok, law, _ = check_strategy(mdp, verdict.witness, query)
            if not ok:
                failures.append(f"{name}: the witness fails the exact check")
            dist = law[0]
            atoms = ", ".join(f"{fmt(v)}: {p}" for v, p in sorted(dist.atoms.items()))
            print(f"   law: {{{atoms}}}")
            (c,) = query.constraints
            p = c.cvar[0] if c.cvar else Fraction(1, 20)
            q = c.var[0] if c.var else p
            print(
                f"   E = {fmt(expectation(dist))}, VaR = {fmt(var(dist, q))}, "
                f"CVaR = {fmt(cvar(dist, p))}"
            )
            print(f"   witness memory: {len(verdict.witness.memory)} element(s)")
        print()
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
