"""Unit tests for core model types, validation, and strategy products."""
from dataclasses import replace
from fractions import Fraction as F

import pytest

from cvarmdp.model import (
    Constraint,
    MarkovChain,
    Mdp,
    ModelError,
    Query,
    StrategySpec,
    Verdict,
    induced_chain,
    memoryless,
    rat,
    validate,
    validate_query,
)
from lemmas import mix_strategies


def two_state():
    return Mdp(
        states=("s", "t"),
        available={"s": ("go", "stay"), "t": ("loop",)},
        delta={
            "go": {"t": F(1)},
            "stay": {"s": F(1, 2), "t": F(1, 2)},
            "loop": {"t": F(1)},
        },
        initial="s",
        rewards={"s": (F(0),), "t": (F(3),)},
        targets=frozenset({"t"}),
    )


class TestRat:
    def test_accepts_int_str_fraction(self):
        assert rat(3) == F(3)
        assert rat("9/10") == F(9, 10)
        assert rat(F(1, 7)) == F(1, 7)

    def test_rejects_floats_and_bools(self):
        with pytest.raises(ModelError):
            rat(0.5)
        with pytest.raises(ModelError):
            rat(True)

    @pytest.mark.parametrize("text", ["1/0", "abc"])
    def test_rejects_malformed_strings(self, text):
        with pytest.raises(ModelError):
            rat(text)


class TestValidation:
    def test_valid_model(self):
        assert validate(two_state()).ok

    def test_nonabsorbing_target_rejected(self):
        bad = Mdp(
            states=("s", "t"),
            available={"s": ("a",), "t": ("b",)},
            delta={"a": {"t": F(1)}, "b": {"s": F(1)}},
            initial="s",
            rewards={"s": (F(0),), "t": (F(1),)},
            targets=frozenset({"t"}),
        )
        assert not validate(bad).ok

    def test_subnormalized_row_rejected(self):
        bad = Mdp(
            states=("s",),
            available={"s": ("a",)},
            delta={"a": {"s": F(1, 2)}},
            initial="s",
            rewards={"s": (F(0),)},
        )
        assert not validate(bad).ok

    def test_repeated_state_is_named(self):
        # the second copy of "s" used to be reported as its actions being
        # shared between states 's' and 's'
        mdp = two_state()
        problems = validate(replace(mdp, states=mdp.states + ("s",))).problems
        assert problems == ["state 's' listed 2 times"]

    def test_repeated_action_is_named(self):
        mdp = two_state()
        twice = replace(mdp, available={**mdp.available, "s": ("go", "stay", "go")})
        assert validate(twice).problems == ["action 'go' listed twice at state 's'"]

    def test_query_levels_must_be_interior(self):
        q = Query(
            objective="reach",
            constraints=(Constraint(dim=0, cvar=(F(0), F(1))),),
        )
        assert not validate_query(q, 1).ok
        q2 = Query(
            objective="reach",
            constraints=(Constraint(dim=0, cvar=(F(1, 2), F(1))),),
        )
        assert validate_query(q2, 1).ok

    def test_query_dimension_bound(self):
        q = Query(objective="reach", constraints=(Constraint(dim=3, expectation=F(1)),))
        assert not validate_query(q, 1).ok


class TestInducedChain:
    def test_memoryless_product(self):
        mdp = two_state()
        sigma = memoryless({"s": {"go": F(1, 3), "stay": F(2, 3)}})
        mc = induced_chain(mdp, sigma)
        assert validate(mc).ok
        # targets are frozen with self-loops
        for st in mc.targets:
            assert mc.delta[st] == {st: F(1)}

    def test_undefined_move_at_nontarget_fails(self):
        mdp = two_state()
        sigma = StrategySpec(
            memory=("m",),
            initial_memory={"m": F(1)},
            next_move={},
            memory_update={},
        )
        with pytest.raises(ModelError):
            induced_chain(mdp, sigma)

    def test_mixture_of_strategies_mixes_laws(self):
        from cvarmdp.chain import payoff_law_reach

        mdp = two_state()
        a = memoryless({"s": {"go": F(1)}})
        b = memoryless({"s": {"stay": F(1)}})
        lam = F(1, 4)
        mixed = mix_strategies(a, b, lam)
        law = payoff_law_reach(induced_chain(mdp, mixed))[0]
        la = payoff_law_reach(induced_chain(mdp, a))[0]
        lb = payoff_law_reach(induced_chain(mdp, b))[0]
        for atom in set(law.atoms) | set(la.atoms) | set(lb.atoms):
            assert law.atoms.get(atom, F(0)) == lam * la.atoms.get(atom, F(0)) + (
                1 - lam
            ) * lb.atoms.get(atom, F(0))


class TestVerdict:
    def test_sat_flag(self):
        assert Verdict(status="SAT").sat
        assert not Verdict(status="UNSAT").sat
        assert not Verdict(status="UNKNOWN").sat
