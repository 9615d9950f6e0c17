"""Differential oracles on random models whose end components may trap runs
away from the targets: weighted reachability against its mean-payoff
encoding, and strategy evaluation against a reference product.

``gadgets.random_mdp(..., targets=k)`` keeps a path toward the targets from
every state, so it never builds such a trap.  The generator here starts from
a target-free random model and adds exits from a few states into two
absorbing targets, so some end components reach no target (cleanup's
trapping branch) and a negative target reward breaks attraction A2.
"""
import random
from fractions import Fraction as F

from cvarmdp.chain import solve_linear
from cvarmdp.gadgets import random_mdp
from cvarmdp.graphs import backward_reachable, bsccs, chain_graph, check_attraction, cleanup
from cvarmdp.model import (
    Constraint,
    MarkovChain,
    Mdp,
    Query,
    StrategySpec,
    memoryless,
    mix_strategies,
)
from cvarmdp.risk import FiniteDistribution
from cvarmdp.solver import _reach_to_mean, decide_mean_single, decide_reach_single
from cvarmdp.synthesis import check_strategy, evaluate

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


# ------------------------------------------- evaluation against a reference


def _action_product(mdp: Mdp, sigma: StrategySpec) -> MarkovChain:
    """The product over (state, memory, action) triples, with the action
    drawn on arrival; a target without a move takes its least action."""

    def move(s, m):
        dist = sigma.next_move.get((s, m))
        return {min(mdp.available[s]): F(1)} if dist is None and s in mdp.targets else dist

    initial = {}
    for m, pm in sigma.initial_memory.items():
        for a, pa in move(mdp.initial, m).items():
            if pm * pa:
                initial[(mdp.initial, m, a)] = pm * pa
    delta, frontier, seen = {}, list(initial), set(initial)
    while frontier:
        st = s, m, a = frontier.pop()
        if s in mdp.targets:
            delta[st] = {st: F(1)}
            continue
        row = delta[st] = {}
        for s2, pt in mdp.delta[a].items():
            for m2, pu in sigma.update_dist(a, s2, m).items():
                for a2, pa in move(s2, m2).items():
                    if pt * pu * pa:
                        key = (s2, m2, a2)
                        row[key] = row.get(key, F(0)) + pt * pu * pa
                        if key not in seen:
                            seen.add(key)
                            frontier.append(key)
    states = tuple(sorted(seen, key=repr))
    rewards = {st: mdp.rewards[st[0]] for st in states}
    targets = frozenset(st for st in states if st[0] in mdp.targets)
    return MarkovChain(states, delta, initial, rewards, targets)


def _absorption_per_sink(mc: MarkovChain, sinks) -> dict:
    """Forward solve with one right-hand-side column per sink."""
    sinks = sorted(sinks, key=repr)
    live = backward_reachable(chain_graph(mc), set(sinks))
    transient = [s for s in mc.states if s in live and s not in sinks]
    idx = {s: i for i, s in enumerate(transient)}
    a = [[F(int(i == j)) for j in range(len(transient))] for i in range(len(transient))]
    b = [[mc.delta[s].get(t, F(0)) for t in sinks] for s in transient]
    for s in transient:
        for t, p in mc.delta[s].items():
            if t in idx:
                a[idx[s]][idx[t]] -= p
    x = solve_linear(a, b) if transient else []
    out = {t: F(0) for t in sinks}
    for s, mu in mc.initial_distribution.items():
        for j, t in enumerate(sinks):
            out[t] += mu * (x[idx[s]][j] if s in idx else F(s == t))
    return out


def _reference_law(mdp: Mdp, sigma: StrategySpec, objective: str):
    """Per-dimension law: first target hit (residual mass at 0), or the
    stationary gain of the bottom component reached in a chain whose bottom
    components are frozen into absorbing targets."""
    mc = _action_product(mdp, sigma)
    if objective == "reach":
        gains = [({t}, mc.rewards[t]) for t in mc.targets]
        probs = _absorption_per_sink(mc, mc.targets)
    else:
        gains = []
        for comp in bsccs(mc):
            members = sorted(comp, key=repr)
            n = len(members)
            # stationarity at members[:-1] from in-neighbours, then total mass 1
            a = [[mc.delta[s].get(u, F(0)) - (s == u) for s in members] for u in members[:-1]]
            b = [[F(0)] for _ in members[:-1]] + [[F(1)]]
            pi = [row[0] for row in solve_linear(a + [[F(1)] * n], b)]
            gain = tuple(sum(p * mc.rewards[s][j] for p, s in zip(pi, members)) for j in range(mc.dim))
            gains.append((comp, gain))
        bottom = {s for comp, _ in gains for s in comp}
        frozen = {s: ({s: F(1)} if s in bottom else mc.delta[s]) for s in mc.states}
        aux = MarkovChain(mc.states, frozen, mc.initial_distribution, mc.rewards, frozenset(bottom))
        probs = _absorption_per_sink(aux, bottom)
    marginals = []
    for j in range(mc.dim):
        atoms = {F(0): 1 - sum(probs.values())}
        for comp, gain in gains:
            atoms[gain[j]] = atoms.get(gain[j], F(0)) + sum(probs[s] for s in comp)
        marginals.append(FiniteDistribution(atoms))
    return marginals


def _random_dist(rng: random.Random, keys) -> dict:
    weights = [F(rng.randint(0, 3)) for _ in keys]
    weights[rng.randrange(len(keys))] += 1
    total = sum(weights)
    return {k: w / total for k, w in zip(keys, weights)}


def _random_strategy(rng: random.Random, mdp: Mdp) -> StrategySpec:
    """Two memory elements with stochastic updates, or a mixture of two
    memoryless strategies; targets get no move either way."""
    inner = [s for s in mdp.states if s not in mdp.targets]
    if rng.random() < 1 / 3:
        pure = [memoryless({s: _random_dist(rng, mdp.available[s]) for s in inner}) for _ in range(2)]
        return mix_strategies(*pure, F(rng.randint(1, 3), 4))
    memory = ("m0", "m1")
    return StrategySpec(
        memory=memory,
        initial_memory=_random_dist(rng, memory),
        next_move={(s, m): _random_dist(rng, mdp.available[s]) for s in inner for m in memory},
        memory_update={
            (a, t, m): _random_dist(rng, memory)
            for a in mdp.delta
            for t in mdp.delta[a]
            for m in memory
            if rng.random() < 1 / 2
        },
    )


def test_evaluation_matches_the_action_product_reference():
    rng = random.Random(5)
    untargeted_bottoms = 0
    for seed in range(40):
        if seed % 2:
            mdp = trap_mdp(seed)
        else:
            mdp = random_mdp(rng.randint(3, 6), 2, F(1, 2), (-2, 4), 2, seed=seed, targets=2)
        sigma = _random_strategy(rng, mdp)
        for objective in ("reach", "mean"):
            law = evaluate(mdp, sigma, objective)
            assert law.marginals == _reference_law(mdp, sigma, objective), (seed, objective)
        mc = _action_product(mdp, sigma)
        untargeted_bottoms += any(not comp & mc.targets for comp in bsccs(mc))
    assert untargeted_bottoms  # some runs settle away from every target
