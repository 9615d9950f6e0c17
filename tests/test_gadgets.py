"""Constructor tests: named examples, the CNF reduction, random instances."""
import hashlib
import random
from fractions import Fraction as F

import pytest

from cvarmdp.gadgets import Cnf3, example, random_mdp, sat_reduction
from cvarmdp.model import ModelError, memoryless, validate
from cvarmdp.serialize import model_to_json, query_to_json
from cvarmdp.solver import decide
from cvarmdp.synthesis import evaluate


class TestExamples:
    def test_choice_structure(self):
        mdp, query = example("choice")
        assert mdp.delta["b"] == {"t10": F(9, 10), "t0": F(1, 10)}
        (c,) = query.constraints
        assert c.expectation == 6
        assert c.cvar == (F(1, 20), F(2))
        assert c.var == (F(1, 20), F(5))

    def test_slow_structure(self):
        mdp, _ = example("slow(1/8)")
        assert mdp.delta["b"] == {
            "r10": F(9, 80),
            "r0": F(1, 80),
            "s0": F(7, 8),
        }

    def test_negative_structure(self):
        mdp, query = example("negative")
        assert mdp.rewards["m5"] == (F(-5),)
        (c,) = query.constraints
        assert c.expectation == 1 and c.cvar == (F(1, 20), F(-3))

    def test_all_examples_validate(self):
        for name in ("choice", "loop", "slow(1/3)", "negative"):
            mdp, _ = example(name)
            assert validate(mdp).ok

    def test_unknown_name_rejected(self):
        with pytest.raises(ModelError):
            example("mystery")
        with pytest.raises(ModelError):
            example("slow(2)")  # parameter outside (0,1)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _layout(mdp) -> str:
    """The model in construction order: states, actions per state, the
    entries of every transition row, rewards, and the (sorted) targets."""
    return repr(
        (
            mdp.states,
            list(mdp.available.items()),
            [(a, list(row.items())) for a, row in mdp.delta.items()],
            list(mdp.rewards.items()),
            mdp.initial,
            sorted(mdp.targets),
        )
    )


class TestExamplePins:
    """SHA-256 of each named example's model JSON, query JSON and layout
    (the JSON writer sorts; the layout keeps every insertion order)."""

    PINS = {
        "choice": (
            "2a9f47b2c54a6f981141d45289c96fcc426648d0b123c306e21dcaea4f028153",
            "cc5475ce42e9815d0a5de51aff7d31dc8ff534dcf94f371236096c021f0dd6d1",
            "640fea26ca2bd0e1a05908e425138d848905f2fe88be8791755e164e25d2c25a",
        ),
        "loop": (
            "3f6ee631d5482f29e0f88f269423a5b9eb1f1abb71c9fc2d0445d5f5cda77689",
            "e724d66240799c35ab0af2aff5704c23fc5d487788690231f71068826c1e4533",
            "d7e458036cd4922f4d9a757ac80be87b01bffaddcd5b157fe9c3bf8b9ec4419e",
        ),
        "negative": (
            "8148c605893a543090c7caa9356ca20d50ed5e743ba06eddafc9b69666e27cca",
            "33fb8552ad3885956f86fb41e73c902fc225b8643e811628bf7b4eb7c64553c9",
            "70c72fb4dfc995fe1bdd8b61dcce3bd8cddaa2f142ac804c8468e686dddac965",
        ),
        "slow(1/8)": (
            "d1a45142c60d95d01cce7837f856bc670716d742173481ade65c446474ff9170",
            "e724d66240799c35ab0af2aff5704c23fc5d487788690231f71068826c1e4533",
            "f44b3d816ff1a28d59cf64f9cd86c7a6295570dd25e34e9deccbce306fc871c4",
        ),
        "slow(1/64)": (
            "399da799b610f98417936a308473209c1496b2dd198320d6169938b5b740aa0c",
            "e724d66240799c35ab0af2aff5704c23fc5d487788690231f71068826c1e4533",
            "a9ae58434ae63914085116728f1d753e8d86e29bf96d3360bd9e5f71cf718136",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_example_bytes(self, name):
        mdp, query = example(name)
        got = (_sha(model_to_json(mdp)), _sha(query_to_json(query)), _sha(_layout(mdp)))
        assert got == self.PINS[name]

    @pytest.mark.parametrize(
        "name, message",
        [
            ("slow(0)", "slow parameter must lie in (0,1), got 0"),
            ("slow(1)", "slow parameter must lie in (0,1), got 1"),
            ("slow(2)", "slow parameter must lie in (0,1), got 2"),
            ("slow(x)", "value: bad rational 'x': Invalid literal for Fraction: 'x'"),
            (
                "mystery",
                "unknown example 'mystery'; expected one of "
                "('choice', 'loop', 'slow(eps)', 'negative')",
            ),
        ],
    )
    def test_rejection_message(self, name, message):
        with pytest.raises(ModelError) as info:
            example(name)
        assert str(info.value) == message


class TestCnf3:
    def test_brute_force(self):
        assert Cnf3(1, ((1,),)).brute_force_sat()
        assert not Cnf3(1, ((1,), (-1,))).brute_force_sat()
        assert Cnf3(2, ((1, 2), (-1, -2))).brute_force_sat()

    def test_validation(self):
        with pytest.raises(ModelError):
            Cnf3(1, ((2,),))  # undeclared variable
        with pytest.raises(ModelError):
            Cnf3(1, ((0,),))
        with pytest.raises(ModelError):
            Cnf3(1, ((1, 1, 1, 1),))  # too many literals


class TestReduction:
    def test_dimensions_and_constraints(self):
        cnf = Cnf3(2, ((1, -2), (2,)))
        mdp, rewards, query = sat_reduction(cnf)
        assert mdp.dim == 4  # 2 variables + 2 clauses
        assert len(query.constraints) == 4
        assert validate(mdp).ok
        # variable constraints at the derived level/threshold
        c0 = query.constraints[0]
        assert c0.cvar[0] == F(1, 2) + F(1, 20)
        assert c0.cvar[1] == F(1, 2) / (2 * c0.cvar[0])
        # clause constraints as expectations
        assert query.constraints[2].expectation == F(1, 8)

    def test_verdicts_match_brute_force(self):
        cases = [
            Cnf3(1, ((1,),)),
            Cnf3(1, ((1,), (-1,))),
            Cnf3(2, ((1, 2), (-1, -2))),
            Cnf3(2, ((1,), (-1,), (2,))),
            Cnf3(3, ((1, 2, 3), (-1, -2, -3))),
        ]
        for cnf in cases:
            mdp, _, query = sat_reduction(cnf)
            verdict = decide(mdp, query)
            expected = "SAT" if cnf.brute_force_sat() else "UNSAT"
            assert verdict.status == expected, cnf

    def test_reach_and_mean_laws_coincide(self):
        # all rewards sit on absorbing targets, so both payoff notions agree
        cnf = Cnf3(2, ((1, 2), (-1, 2)))
        mdp, _, _ = sat_reduction(cnf)
        rng = random.Random(5)
        for _ in range(3):
            choices = {}
            for s in mdp.states:
                if s in mdp.targets:
                    continue
                acts = mdp.available[s]
                weights = [F(rng.randint(1, 3)) for _ in acts]
                total = sum(weights)
                choices[s] = {a: w / total for a, w in zip(acts, weights)}
            sigma = memoryless(choices)
            reach_law = evaluate(mdp, sigma, "reach")
            mean_law = evaluate(mdp, sigma, "mean")
            for j in range(mdp.dim):
                assert reach_law[j].atoms == mean_law[j].atoms

    def test_literal_absent_from_all_clauses_still_usable(self):
        # x2 never appears; both of its assignments must stay feasible
        cnf = Cnf3(2, ((1,),))
        mdp, _, query = sat_reduction(cnf)
        assert decide(mdp, query).status == "SAT"


class TestRandomMdp:
    def test_deterministic_and_valid(self):
        a = random_mdp(7, 2, F(1, 2), (0, 9), 2, seed=99, targets=2)
        b = random_mdp(7, 2, F(1, 2), (0, 9), 2, seed=99, targets=2)
        assert a == b
        assert validate(a).ok

    def test_single_state(self):
        mdp = random_mdp(1, 1, F(1), (3, 3), 1, seed=0)
        assert validate(mdp).ok
        assert mdp.rewards["s0"] == (F(3),)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ModelError):
            random_mdp(0, 1, F(1, 2), (0, 1), 1, seed=0)
        with pytest.raises(ModelError):
            random_mdp(3, 1, F(2), (0, 1), 1, seed=0)

    def test_empty_reward_range_rejected(self):
        with pytest.raises(ModelError, match=r"^reward range 5\.\.1 is empty$"):
            random_mdp(3, 1, F(1, 2), (5, 1), 1, seed=0)
        # a one-value range is not empty
        assert random_mdp(3, 1, F(1, 2), (4, 4), 1, seed=0).rewards["s2"] == (F(4),)
