"""Differential oracle: weighted reachability against its mean-payoff encoding,
on random models whose end components may trap runs away from the targets.

``gadgets.random_mdp(..., targets=k)`` keeps a path toward the targets from
every state, so it never builds such a trap.  The generator here starts from
a target-free random model and adds exits from a few states into two
absorbing targets, so some end components reach no target (cleanup's
trapping branch) and a negative target reward breaks attraction A2.
"""
import random
from fractions import Fraction as F

from cvarmdp.gadgets import random_mdp
from cvarmdp.graphs import check_attraction, cleanup
from cvarmdp.model import Constraint, Mdp, Query
from cvarmdp.solver import _reach_to_mean, decide_mean_single, decide_reach_single
from cvarmdp.synthesis import check_strategy

SEEDS = range(30)


def trap_mdp(seed: int) -> Mdp:
    """A sparse target-free random model plus exits into the targets
    ``hi`` and ``lo``; ``lo`` is worth between -3 and 1."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    base = random_mdp(n, 2, F(1, n), (0, 4), 1, seed=seed)
    available = {s: tuple(acts) for s, acts in base.available.items()}
    delta = dict(base.delta)
    for k, s in enumerate(rng.sample(base.states, rng.randint(1, 2))):
        p = F(rng.randint(1, 4), 4)
        delta[f"exit{k}"] = {"hi": p, "lo": 1 - p} if p != 1 else {"hi": p}
        available[s] += (f"exit{k}",)
    rewards = dict(base.rewards)
    for t, r in (("hi", rng.randint(1, 6)), ("lo", rng.randint(-3, 1))):
        available[t] = (f"stay_{t}",)
        delta[f"stay_{t}"] = {t: F(1)}
        rewards[t] = (F(r),)
    return Mdp(
        states=tuple(base.states) + ("hi", "lo"),
        available=available,
        delta=delta,
        initial=base.initial,
        rewards=rewards,
        targets=frozenset({"hi", "lo"}),
    )


def trap_query(seed: int) -> Query:
    rng = random.Random(f"query:{seed}")
    return Query(
        objective="reach",
        constraints=(
            Constraint(
                dim=0,
                expectation=F(rng.randint(-2, 8), 2),
                cvar=(F(rng.randint(1, 3), 4), F(rng.randint(-6, 4), 2)),
            ),
        ),
    )


def test_generator_reaches_trapping_and_no_attraction():
    models = [trap_mdp(seed) for seed in SEEDS]
    assert any(cleanup(m) is not m for m in models)
    assert any(check_attraction(m) == "neither" for m in models)
    assert any(check_attraction(m) != "neither" for m in models)


def test_reach_agrees_with_its_mean_payoff_encoding():
    statuses = set()
    for seed in SEEDS:
        m, q = trap_mdp(seed), trap_query(seed)
        mm, mq = _reach_to_mean(m, q)
        reach = decide_reach_single(m, q)
        mean = decide_mean_single(mm, mq)
        assert reach.status == mean.status, f"seed {seed}"
        for model, query, verdict in ((m, q, reach), (mm, mq, mean)):
            if verdict.sat:
                ok, _, details = check_strategy(model, verdict.witness, query)
                assert ok, (seed, details)
        statuses.add(reach.status)
    assert statuses == {"SAT", "UNSAT"}
