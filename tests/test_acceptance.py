"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each criterion is a single test and fails loudly if any check breaks.
"""
import itertools
import math
import random
import time
from fractions import Fraction as F

import numpy as np

from cvarmdp.chain import decide_mc
from cvarmdp.gadgets import Cnf3, example, random_mdp, sat_reduction
from cvarmdp.graphs import cleanup, mec_quotient
from cvarmdp.lp import solve_optimize
from cvarmdp.model import (
    Constraint,
    Mdp,
    Query,
    StrategySpec,
    induced_chain,
    memoryless,
)
from cvarmdp.risk import (
    FiniteDistribution,
    cvar,
    expectation,
    mixture,
    var,
)
from cvarmdp.simulate import SimConfig, sample_payoffs
from cvarmdp.solver import decide
from cvarmdp.synthesis import check_strategy, evaluate
from lemmas import dominates, partition_decompose, partition_recombine


def _report(n: int, description: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {n} failed: {description}"


def branch_family(lam: F) -> FiniteDistribution:
    return FiniteDistribution(
        {F(0): (1 - lam) * F(1, 10), F(5): lam, F(10): (1 - lam) * F(9, 10)}
    )


def test_criterion_1_one_shot_branch_exact_values():
    start = time.monotonic()
    d_a = FiniteDistribution({F(5): F(1)})
    d_b = FiniteDistribution({F(0): F(1, 10), F(10): F(9, 10)})
    ok = cvar(d_b, F(1, 20)) == 0 and cvar(d_a, F(1, 20)) == 5

    mdp, query = example("choice")
    mix = memoryless({"s0": {"a": F(3, 4), "b": F(1, 4)}})
    law = evaluate(mdp, mix, "reach")[0]
    ok = ok and expectation(law) == 6
    ok = ok and var(law, F(1, 20)) == 5
    ok = ok and cvar(law, F(1, 20)) == F(5, 2)

    verdict = decide(mdp, query)
    ok = ok and verdict.status == "SAT"
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(1, f"one-shot branch exact measures + SAT in {elapsed:.3f}s", ok)


def test_criterion_2_piecewise_closed_form():
    p = F(1, 5)
    ok = True
    for lam in (F(0), F(1, 20), F(1, 9), F(1, 2), F(1)):
        expected = 5 * (1 - 4 * lam) if lam < F(1, 9) else F(5, 2) * (1 + lam)
        ok = ok and cvar(branch_family(lam), p) == expected
    floor = cvar(branch_family(F(1, 9)), p)
    ok = ok and floor == F(25, 9)
    ok = ok and all(
        cvar(branch_family(F(k, 36)), p) >= floor for k in range(37)
    )
    _report(2, "piecewise closed form with minimum 25/9 at lam=1/9", ok)


def test_criterion_3_discretized_continuous_distribution():
    # half of the mass uniform on [0,1], half an atom at 2: CVaR@3/4 = 1
    def left_endpoint(n):
        atoms = {F(k, n): F(1, 2 * n) for k in range(n)}
        atoms[F(2)] = atoms.get(F(2), F(0)) + F(1, 2)
        return FiniteDistribution(atoms)

    def midpoint(n):
        atoms = {F(2 * k + 1, 2 * n): F(1, 2 * n) for k in range(n)}
        atoms[F(2)] = F(1, 2)
        return FiniteDistribution(atoms)

    p = F(3, 4)
    errors = [abs(cvar(left_endpoint(n), p) - 1) for n in (10, 100, 1000)]
    ok = errors[0] > errors[1] > errors[2]  # converging with resolution
    ok = ok and errors[2] <= F(2, 1000)
    ok = ok and cvar(midpoint(1000), p) == 1  # midpoint rule is exact here
    _report(3, "10^3-atom discretization: CVaR@3/4 within 2e-3 of 1", ok)


def test_criterion_4_mean_payoff_memory_lower_bound():
    start = time.monotonic()
    mdp, query = example("loop")
    (constraint,) = query.constraints

    def satisfies(law):
        return (
            expectation(law) >= constraint.expectation
            and cvar(law, constraint.cvar[0]) >= constraint.cvar[1]
            and var(law, constraint.var[0]) >= constraint.var[1]
        )

    # no memoryless randomizing strategy on a 64-point grid works
    grid_ok = True
    for k in range(65):
        beta = F(k, 64)
        move = {}
        if beta:
            move["a"] = beta
        if beta < 1:
            move["b"] = 1 - beta
        sigma = memoryless(
            {
                "s0": move,
                "r10": {"stay::r10": F(1)},
                "r0": {"stay::r0": F(1)},
            }
        )
        law = evaluate(mdp, sigma, "mean")[0]
        grid_ok = grid_ok and not satisfies(law)

    verdict = decide(mdp, query)
    ok = grid_ok and verdict.status == "SAT"
    ok = ok and len(verdict.witness.memory) == 2
    reverify, _, _ = check_strategy(mdp, verdict.witness, query)
    ok = ok and reverify
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(
        4,
        f"memoryless 64-grid insufficient; 2-memory witness SAT in {elapsed:.2f}s",
        ok,
    )


def test_criterion_5_slow_gamble_witness():
    eps = F(1, 8)
    mdp, query = example(f"slow({eps})")
    switch = 3 * eps  # probability of settling after each failed gamble
    sigma = StrategySpec(
        memory=("search", "remain"),
        initial_memory={"search": F(1)},
        next_move={
            ("s0", "search"): {"b": F(1)},
            ("s0", "remain"): {"a": F(1)},
            ("r10", "search"): {"stay::r10": F(1)},
            ("r10", "remain"): {"stay::r10": F(1)},
            ("r0", "search"): {"stay::r0": F(1)},
            ("r0", "remain"): {"stay::r0": F(1)},
        },
        memory_update={("b", "s0", "search"): {"remain": switch, "search": 1 - switch}},
    )
    law = evaluate(mdp, sigma, "mean")[0]
    ok = law.atoms == {F(5): F(21, 29), F(10): F(36, 145), F(0): F(4, 145)}
    ok = ok and expectation(law) == F(177, 29) >= 6
    ok = ok and cvar(law, F(1, 20)) == F(65, 29) >= 2
    # independent oracle: the chain-level solver must agree on the induced chain
    oracle = decide_mc(induced_chain(mdp, sigma), query)
    ok = ok and oracle.status == "SAT"
    _report(5, "slow(1/8) witness with switch probability 3*eps verified", ok)


def _clause_universe(m):
    literals = [v for i in range(1, m + 1) for v in (i, -i)]
    clauses = set()
    for size in (1, 2, 3):
        for combo in itertools.combinations(literals, size):
            if len({abs(l) for l in combo}) == size:  # distinct variables
                clauses.add(tuple(sorted(combo)))
    return sorted(clauses)


def test_criterion_6_reduction_soundness_exhaustive():
    """Every formula in a structured universe of <=3-variable, <=3-clause CNFs
    (clauses over distinct variables; every declared variable used) gets the
    verdict of brute-force satisfiability."""
    start = time.monotonic()
    checked = 0
    for m in (1, 2, 3):
        universe = _clause_universe(m)
        if m == 3:  # keep exhaustiveness tractable: full-width clauses only
            universe = [c for c in universe if len(c) == 3]
        for count in (1, 2, 3):
            for formula in itertools.combinations(universe, count):
                used = {abs(l) for cl in formula for l in cl}
                if used != set(range(1, m + 1)):
                    continue
                cnf = Cnf3(m, formula)
                mdp, _, query = sat_reduction(cnf)
                verdict = decide(mdp, query)
                expected = "SAT" if cnf.brute_force_sat() else "UNSAT"
                assert verdict.status == expected, formula
                checked += 1
    elapsed = time.monotonic() - start
    ok = checked >= 150 and elapsed < 300.0
    _report(6, f"{checked} reduction instances match brute force in {elapsed:.1f}s", ok)


def _random_distribution(rng, max_atoms=4):
    n = rng.randint(1, max_atoms)
    values = rng.sample(range(-12, 13), n)
    weights = [rng.randint(1, 7) for _ in range(n)]
    total = sum(weights)
    return FiniteDistribution({F(v): F(w, total) for v, w in zip(values, weights)})


def test_criterion_7_property_suites_ten_thousand_cases():
    rng = random.Random(0xC0FFEE)
    cases = 10_000

    for _ in range(cases):  # CVaR convexity under mixtures
        a, b = _random_distribution(rng), _random_distribution(rng)
        lam = F(rng.randint(0, 16), 16)
        p = F(rng.randint(1, 15), 16)
        mixed = mixture([(lam, a), (1 - lam, b)])
        assert cvar(mixed, p) <= lam * cvar(a, p) + (1 - lam) * cvar(b, p)

    for _ in range(cases):  # monotone in the level
        d = _random_distribution(rng)
        p1, p2 = sorted(F(rng.randint(0, 16), 16) for _ in range(2))
        assert cvar(d, p1) <= cvar(d, p2)

    for _ in range(cases):  # sandwich bounds
        d = _random_distribution(rng)
        p = F(rng.randint(0, 16), 16)
        c = cvar(d, p)
        assert c <= var(d, p) and c <= max(d.atoms) and c <= expectation(d)

    for _ in range(cases):  # dominance monotonicity
        d = _random_distribution(rng)
        shift = F(rng.randint(0, 6))
        shifted = FiniteDistribution({x + shift: q for x, q in d.atoms.items()})
        p = F(rng.randint(1, 15), 16)
        assert dominates(shifted, d)
        assert expectation(shifted) >= expectation(d)
        assert var(shifted, p) >= var(d, p)
        assert cvar(shifted, p) >= cvar(d, p)

    for _ in range(cases):  # partition identity is exact
        k = rng.randint(1, 4)
        parts_raw = [_random_distribution(rng) for _ in range(k)]
        weights = [rng.randint(1, 5) for _ in range(k)]
        total = sum(weights)
        parts = [(F(w, total), d) for w, d in zip(weights, parts_raw)]
        p = F(rng.randint(1, 15), 16)
        selected, levels = partition_decompose(parts, p)
        assert partition_recombine(parts, selected, levels, p) == cvar(mixture(parts), p)

    _report(7, f"five property suites x {cases} seeded cases, all exact", True)


def test_criterion_8_oracle_cross_checks():
    # exact laws vs Monte Carlo on random models + strategies
    rng = random.Random(88)
    n = 100_000
    for trial in range(100):
        mdp = random_mdp(rng.randint(2, 6), 2, F(1, 2), (0, 6), 1, seed=trial, targets=1)
        qm = mec_quotient(mdp)
        assert cleanup(qm) is qm  # every state reaches the target
        choices = {}
        for s in mdp.states:
            if s in mdp.targets:
                continue
            acts = mdp.available[s]
            weights = [F(rng.randint(1, 4)) for _ in acts]
            total = sum(weights)
            choices[s] = {a: w / total for a, w in zip(acts, weights)}
        sigma = memoryless(choices)
        law = evaluate(mdp, sigma, "reach")[0]
        samples = sample_payoffs(
            mdp, sigma, "reach", SimConfig(runs=n, horizon=400, seed=trial, burn_in=0)
        )
        for atom, prob in law.atoms.items():
            se = math.sqrt(float(prob * (1 - prob)) / n)
            observed = float(np.mean(samples == float(atom)))
            assert abs(observed - float(prob)) <= 3 * se + 1e-12, (trial, atom)

    # LP optima vs brute-force vertex enumeration
    from test_lp import brute_force_max, lp
    from cvarmdp.lp import EQ, GE, LE

    rng = random.Random(44)
    optimal_checked = 0
    for trial in range(80):
        nv = rng.randint(1, 5)
        variables = [f"v{i}" for i in range(nv)]
        rows = []
        for _ in range(rng.randint(1, 6)):
            coeffs = {v: rng.randint(-3, 3) for v in variables}
            rows.append((coeffs, rng.choice([LE, GE, EQ]), rng.randint(-4, 6)))
        objective = {v: rng.randint(-3, 3) for v in variables}
        res = solve_optimize(lp(variables, rows, objective=objective))
        oracle = brute_force_max(variables, rows, objective)
        if res.status == "optimal":
            assert oracle is not None and res.value == oracle, trial
            optimal_checked += 1
        elif res.status == "infeasible":
            assert oracle is None, trial
    assert optimal_checked >= 15
    _report(8, "100 Monte Carlo cross-checks within 3 sigma; LP optima exact", True)


def _big_ring(n: int, seed: int) -> Mdp:
    """One giant n-2 state end component with sparse exits to two targets."""
    rng = random.Random(seed)
    ring = [f"c{i}" for i in range(n - 2)]
    available, delta, rewards = {}, {}, {}
    k = len(ring)
    for i, s in enumerate(ring):
        acts = [f"fwd{i}"]
        delta[f"fwd{i}"] = {ring[(i + 1) % k]: F(1)}
        if i % 97 == 0:
            acts.append(f"exit{i}")
            ph = F(rng.randint(6, 9), 10)
            delta[f"exit{i}"] = {"hi": ph, "lo": 1 - ph}
        available[s] = tuple(acts)
        rewards[s] = (F(0),)
    for t in ("hi", "lo"):
        available[t] = (f"stay_{t}",)
        delta[f"stay_{t}"] = {t: F(1)}
    rewards["hi"], rewards["lo"] = (F(10),), (F(0),)
    return Mdp(
        states=tuple(ring + ["hi", "lo"]),
        available=available,
        delta=delta,
        initial=ring[0],
        rewards=rewards,
        targets=frozenset({"hi", "lo"}),
    )


def test_criterion_9_desk_scale_performance():
    start = time.monotonic()
    query = Query(
        objective="reach",
        constraints=(Constraint(dim=0, expectation=F(5), cvar=(F(1, 20), F(0))),),
    )
    for seed in (0, 1):
        mdp = _big_ring(1000, seed)
        verdict = decide(mdp, query)
        assert verdict.status == "SAT"
    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    _report(9, f"two 10^3-state single-dimension checks in {elapsed:.2f}s", ok)
