#!/usr/bin/env python3
"""Print one identity line per decision: its id and a SHA-256 digest.

The digest covers the verdict's status, ``verdict_to_json``, the witness's
``strategy_to_json`` and the ``lp.dump`` of every LP the decision solved, in
the order it solved them.  The decisions are the named examples and the
benchmark corpora ``ring``, ``lp-mix`` and ``reach-lp`` at seeds 0 and 1.
Two checkouts (or two hash seeds) that print the same lines decide the same
way, down to the byte:

    python3 scripts/identity_digest.py > a.txt
    PYTHONHASHSEED=1 python3 scripts/identity_digest.py > b.txt
    cmp a.txt b.txt

The script imports ``cvarmdp`` from ``src/`` and the corpora from
``perfbench/`` of its own checkout.
"""
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cvarmdp.lp as lpmod  # noqa: E402
from cvarmdp import solver  # noqa: E402
from cvarmdp.gadgets import example  # noqa: E402
from cvarmdp.serialize import strategy_to_json, verdict_to_json  # noqa: E402
from workloads import build_corpus  # noqa: E402

EXAMPLES = ("choice", "loop", "slow(1/8)", "slow(1/64)", "negative")
CORPORA = ("ring", "lp-mix", "reach-lp")
SEEDS = (0, 1)

# every lookup through which ``decide`` hands an LP to the simplex
LP_LOOKUPS = ((solver, "solve_feasibility"), (solver, "solve_optimize"), (lpmod, "solve_feasibility"))


def decisions():
    for name in EXAMPLES:
        yield (f"example:{name}",) + example(name)
    for workload in CORPORA:
        for seed in SEEDS:
            for inst in build_corpus(workload, seed):
                yield f"{workload}:{seed}:{inst.id}", inst.mdp, inst.query


def main() -> int:
    dumps = []
    for module, name in LP_LOOKUPS:
        solve = getattr(module, name)
        setattr(module, name, lambda prog, *args, _solve=solve: dumps.append(lpmod.dump(prog)) or _solve(prog, *args))
    for ident, mdp, query in decisions():
        dumps.clear()
        verdict = solver.decide(mdp, query)
        parts = [verdict.status, verdict_to_json(verdict)]
        parts.append(strategy_to_json(verdict.witness) if verdict.witness else "")
        parts += dumps
        print(ident, hashlib.sha256("\n".join(parts).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
