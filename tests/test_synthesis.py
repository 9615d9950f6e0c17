"""Witness construction tests: flows to strategies, evaluation, determinization."""
import random
from fractions import Fraction as F

import pytest

from cvarmdp.chain import reach_probabilities
from cvarmdp.gadgets import example, random_mdp
from cvarmdp.graphs import cleanup, mec_decomposition
from cvarmdp.model import (
    Constraint,
    Mdp,
    Query,
    induced_chain,
    memoryless,
)
from cvarmdp.risk import cvar, expectation
from cvarmdp.solver import decide
from cvarmdp.synthesis import (
    FlowSolution,
    evaluate,
    mec_constant_strategy,
    two_memory_strategy,
)
from lemmas import determinize_single_constraint, is_deterministic, mix_strategies


class TestReachFlow:
    def test_flow_fidelity_on_random_cleaned_mdps(self):
        # target masses prescribed by a strategy-induced flow come back exactly
        rng = random.Random(13)
        checked = 0
        for seed in range(30):
            mdp = random_mdp(rng.randint(3, 6), 2, F(1, 2), (0, 4), 1, seed=seed, targets=2)
            clean = cleanup(mdp)
            choices = {}
            for s in clean.states:
                if s in clean.targets:
                    continue
                acts = clean.available[s]
                weights = [F(rng.randint(1, 4)) for _ in acts]
                total = sum(weights)
                choices[s] = {a: w / total for a, w in zip(acts, weights)}
            sigma = memoryless(choices)
            mc = induced_chain(clean, sigma)
            probs = reach_probabilities(mc)
            # fold (state, memory) probabilities back onto model target states
            folded = {}
            for st, pr in probs.items():
                folded[st[0]] = folded.get(st[0], F(0)) + pr
            law = evaluate(clean, sigma, "reach")[0]
            assert sum(folded.values()) <= 1
            total_hit = sum(folded.values())
            assert law.atoms.get(F(0), F(0)) >= 1 - total_hit
            checked += 1
        assert checked == 30


class TestMecConstant:
    def test_two_loop_frequency_split(self):
        mdp = Mdp(
            states=("s",),
            available={"s": ("hi", "lo")},
            delta={"hi": {"s": F(1)}, "lo": {"s": F(1)}},
            initial="s",
            rewards={"s": (F(0),)},
        )
        # rewards live on the state, so any split keeps the same mean payoff;
        # check the strategy plays the requested proportions
        (mec,) = mec_decomposition(mdp).mecs
        sigma = mec_constant_strategy(mdp, mec, {"hi": F(1, 3), "lo": F(2, 3)})
        move = sigma.next_move[("s", sigma.memory[0])]
        assert move == {"hi": F(1, 3), "lo": F(2, 3)}

    def test_routing_covers_off_support_states(self):
        # frequencies concentrated on one state; others must route toward it
        mdp = Mdp(
            states=("a", "b"),
            available={"a": ("ab", "aa"), "b": ("ba",)},
            delta={"ab": {"b": F(1)}, "aa": {"a": F(1)}, "ba": {"a": F(1)}},
            initial="a",
            rewards={"a": (F(2),), "b": (F(0),)},
        )
        (mec,) = mec_decomposition(mdp).mecs
        sigma = mec_constant_strategy(mdp, mec, {"aa": F(1)})
        law = evaluate(mdp, sigma, "mean")[0]
        assert law.atoms == {F(2): F(1)}


class TestTwoMemory:
    def test_loop_witness_matches_known_switching(self):
        mdp, query = example("loop")
        verdict = decide(mdp, query)
        sigma = verdict.witness
        assert len(sigma.memory) == 2
        law = evaluate(mdp, sigma, "mean")[0]
        assert law.atoms == {F(0): F(1, 40), F(5): F(3, 4), F(10): F(9, 40)}

    def test_switch_mass_exceeding_inflow_rejected(self):
        mdp, _ = example("loop")
        flow = FlowSolution(y={"b": F(1)}, x={"s0": F(2)})
        with pytest.raises(Exception):
            two_memory_strategy(mdp, flow, {"s0": {"a": F(1)}})


class TestDeterminize:
    def test_choice_cvar_picks_a_pure_strategy(self):
        mdp, _ = example("choice")
        mixed = memoryless({"s0": {"a": F(1, 2), "b": F(1, 2)}})
        c = Constraint(dim=0, cvar=(F(1, 5), F(0)))
        det = determinize_single_constraint(mdp, mixed, c)
        assert is_deterministic(det)
        before = cvar(evaluate(mdp, mixed, "reach")[0], F(1, 5))
        after = cvar(evaluate(mdp, det, "reach")[0], F(1, 5))
        assert after >= before
        assert after == 5  # both pure strategies achieve 5 at level 1/5

    def test_expectation_constraint_picks_gamble(self):
        mdp, _ = example("choice")
        mixed = memoryless({"s0": {"a": F(1, 2), "b": F(1, 2)}})
        c = Constraint(dim=0, expectation=F(0))
        det = determinize_single_constraint(mdp, mixed, c)
        assert expectation(evaluate(mdp, det, "reach")[0]) == 9

    def test_dominance_on_random_small_mdps(self):
        rng = random.Random(31)
        for seed in range(15):
            mdp = random_mdp(3, 2, F(2, 3), (0, 5), 1, seed=seed, targets=1)
            clean = cleanup(mdp)
            choices = {}
            for s in clean.states:
                if s in clean.targets:
                    continue
                acts = clean.available[s]
                choices[s] = {a: F(1, len(acts)) for a in acts}
            sigma = memoryless(choices)
            for c in (
                Constraint(dim=0, expectation=F(0)),
                Constraint(dim=0, cvar=(F(1, 4), F(0))),
                Constraint(dim=0, var=(F(1, 4), F(0))),
            ):
                det = determinize_single_constraint(clean, sigma, c)
                measures = []
                for strat in (sigma, det):
                    dist = evaluate(clean, strat, "reach")[0]
                    if c.expectation is not None:
                        measures.append(expectation(dist))
                    elif c.cvar is not None:
                        measures.append(cvar(dist, c.cvar[0]))
                    else:
                        from cvarmdp.risk import var as _var

                        measures.append(_var(dist, c.var[0]))
                assert measures[1] >= measures[0], f"seed {seed} constraint {c}"


class TestConvexityEcho:
    def test_strategy_level_cvar_convexity(self):
        mdp, _ = example("choice")
        a = memoryless({"s0": {"a": F(1)}})
        b = memoryless({"s0": {"b": F(1)}})
        p = F(1, 5)
        for lam in (F(1, 4), F(1, 2), F(3, 4)):
            mixed = mix_strategies(a, b, lam)
            lhs = cvar(evaluate(mdp, mixed, "reach")[0], p)
            rhs = lam * cvar(evaluate(mdp, a, "reach")[0], p) + (1 - lam) * cvar(
                evaluate(mdp, b, "reach")[0], p
            )
            assert lhs <= rhs
