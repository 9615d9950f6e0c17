"""Structural lemmas of the paper, kept as test oracles.

None of these decides a query: they state proof steps (splitting CVaR across
a mixture, stochastic dominance, mixing strategies, rounding a
single-constraint strategy to a deterministic one, weighted reachability as
mean payoff) that the tests check against the library's exact evaluation.
"""
from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from cvarmdp.model import (
    Constraint,
    Mdp,
    ModelError,
    Query,
    State,
    StrategySpec,
    UnsupportedQueryError,
    memoryless,
    normalized,
    rat,
)
from cvarmdp.risk import FiniteDistribution, cvar, expectation, mixture, var
from cvarmdp.synthesis import _least_action, evaluate

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# distributions


def cdf(d: FiniteDistribution, r) -> Fraction:
    r = rat(r)
    return sum((p for v, p in d.atoms.items() if v <= r), ZERO)


def dominates(d1: FiniteDistribution, d2: FiniteDistribution) -> bool:
    """True iff d1 stochastically dominates d2 (CDF of d1 pointwise <= d2's)."""
    grid = set(d1.atoms) | set(d2.atoms)
    return all(cdf(d1, r) <= cdf(d2, r) for r in grid)


def partition_decompose(
    parts: Sequence[Tuple[Fraction, FiniteDistribution]], p
) -> Tuple[List[int], List[Fraction]]:
    """Split a CVaR computation across a partition of the sample space.

    Given parts ``(w_i, d_i)`` with positive weights summing to 1 and a risk
    level p, returns the indices of the parts that carry worst-case mass and a
    per-part risk level ``p_i``, chosen so that

        cvar(mixture, p) == (1/p) * sum_i w_i * p_i * cvar(d_i, p_i)

    holds exactly (the jump mass of the mixture at its VaR is apportioned
    greedily among the parts that have an atom there).  For p = 0 a single
    worst-case witness part is returned; for p = 1 every part appears with
    level 1 and the identity degenerates to mixing expectations.
    """
    p = rat(p)
    weights = [rat(w) for w, _ in parts]
    if any(w <= 0 for w in weights):
        raise ModelError("part weights must be positive")
    if sum(weights, ZERO) != 1:
        raise ModelError("part weights must sum to 1")
    if p == 1:
        return list(range(len(parts))), [ONE] * len(parts)
    mixed = mixture(parts)
    if p == 0:
        v = mixed.min_value
        for i, (_, d) in enumerate(parts):
            if d.min_value == v:
                return [i], [ZERO]
        raise AssertionError("some part must attain the minimum")
    v = var(mixed, p)
    remaining = p - sum((q for x, q in mixed.atoms.items() if x < v), ZERO)
    selected: List[int] = []
    levels: List[Fraction] = []
    for i, (w, d) in enumerate(parts):
        at_v = d.atoms.get(v, ZERO)
        share = min(at_v, remaining / weights[i])
        remaining -= weights[i] * share
        level = sum((q for x, q in d.atoms.items() if x < v), ZERO) + share
        if level > 0:
            selected.append(i)
            levels.append(level)
    if remaining != 0:
        raise AssertionError("jump mass at the quantile not fully apportioned")
    return selected, levels


def partition_recombine(
    parts: Sequence[Tuple[Fraction, FiniteDistribution]],
    selected: Sequence[int],
    levels: Sequence[Fraction],
    p,
) -> Fraction:
    """Evaluate the decomposed CVaR expression produced by partition_decompose."""
    p = rat(p)
    if p == 0:
        (i,) = selected
        return cvar(parts[i][1], ZERO)
    total = ZERO
    for i, level in zip(selected, levels):
        w = rat(parts[i][0])
        total += w * level * cvar(parts[i][1], level)
    return total / p


# ---------------------------------------------------------------------------
# strategies


def is_deterministic(strategy: StrategySpec) -> bool:
    """True iff the initial memory, every move and every memory update is a
    Dirac distribution."""
    dists: List = [strategy.initial_memory]
    dists.extend(strategy.next_move.values())
    dists.extend(strategy.memory_update.values())
    return all(len(normalized(d)) == 1 for d in dists)


def mix_strategies(s1: StrategySpec, s2: StrategySpec, lam: Fraction) -> StrategySpec:
    """Convex combination: play s1 with probability lam, else s2.

    Memory sets are tagged to stay disjoint; the induced run measure is the
    lam-mixture of the component measures.
    """
    lam = rat(lam)
    if not ZERO <= lam <= ONE:
        raise ModelError(f"mixture weight {lam} outside [0,1]")

    def tag(which, m):
        return (which, m)

    memory = tuple(tag(0, m) for m in s1.memory) + tuple(tag(1, m) for m in s2.memory)
    initial: Dict = {}
    for m, p in s1.initial_memory.items():
        if lam * p != 0:
            initial[tag(0, m)] = lam * p
    for m, p in s2.initial_memory.items():
        if (1 - lam) * p != 0:
            initial[tag(1, m)] = (1 - lam) * p
    if not initial:  # degenerate lam with a Dirac component; keep a valid distribution
        initial = {memory[0]: ONE}
    next_move: Dict = {}
    update: Dict = {}
    for which, strat in ((0, s1), (1, s2)):
        for (s, m), dist in strat.next_move.items():
            next_move[(s, tag(which, m))] = dict(dist)
        for (a, s, m), dist in strat.memory_update.items():
            update[(a, s, tag(which, m))] = {tag(which, m2): p for m2, p in dist.items()}
    return StrategySpec(memory=memory, initial_memory=initial, next_move=next_move, memory_update=update)


def measure_value(dist: FiniteDistribution, constraint: Constraint):
    """The one measure ``constraint`` bounds, evaluated on ``dist``."""
    if constraint.expectation is not None:
        return expectation(dist)
    if constraint.cvar is not None:
        return cvar(dist, constraint.cvar[0])
    if constraint.var is not None:
        return var(dist, constraint.var[0])
    raise UnsupportedQueryError("constraint carries no measure")


def determinize_single_constraint(
    mdp: Mdp,
    strategy: StrategySpec,
    constraint: Constraint,
    objective: str = "reach",
    limit: int = 1 << 14,
) -> StrategySpec:
    """Round a memoryless randomizing strategy to the best deterministic one
    over its support; with a single constraint the value cannot decrease,
    because the randomized law is a convex mixture of the deterministic laws."""
    if len(strategy.memory) != 1:
        raise UnsupportedQueryError("determinization requires a memoryless strategy")
    measures = sum(
        x is not None for x in (constraint.expectation, constraint.cvar, constraint.var)
    )
    if measures != 1:
        raise UnsupportedQueryError("exactly one constraint measure expected")
    m0 = strategy.memory[0]
    supports: List[Tuple[State, List[str]]] = []
    for s in mdp.states:
        dist = strategy.next_move.get((s, m0))
        acts = sorted(normalized(dist)) if dist else [_least_action(mdp, s)]
        supports.append((s, acts))
    count = 1
    for _, acts in supports:
        count *= len(acts)
        if count > limit:
            raise UnsupportedQueryError("deterministic support enumeration too large")
    best = None
    for combo in itertools.product(*(acts for _, acts in supports)):
        candidate = memoryless(
            {s: {a: ONE} for (s, _), a in zip(supports, combo)}
        )
        law = evaluate(mdp, candidate, objective)
        value = measure_value(law[constraint.dim], constraint)
        if best is None or value > best[0]:
            best = (value, candidate)
    return best[1]


def reach_to_mean(mdp: Mdp, query: Query) -> Tuple[Mdp, Query]:
    """Weighted reachability as mean payoff: absorbed runs loop at their
    target forever, everything else earns 0, so the payoff laws coincide."""
    zero = tuple(ZERO for _ in range(mdp.dim))
    rewards = {s: (mdp.rewards[s] if s in mdp.targets else zero) for s in mdp.states}
    return replace(mdp, rewards=rewards), replace(query, objective="mean")


# ---------------------------------------------------------------------------
# DIMACS


def write_dimacs(num_vars: int, clauses: Sequence[Sequence[int]]) -> str:
    """The CNF in DIMACS form, the inverse of ``serialize.parse_dimacs``."""
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"
