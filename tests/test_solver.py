"""End-to-end decision procedure tests for reachability and mean payoff."""
import itertools
import random
import re
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from cvarmdp.gadgets import example, random_mdp
from cvarmdp.model import (
    Constraint,
    Mdp,
    ModelError,
    Query,
    UnsupportedQueryError,
    memoryless,
    validate,
)
from cvarmdp import chain, graphs, solver
from cvarmdp.risk import FiniteDistribution, cvar, expectation, var
from cvarmdp.solver import (
    decide,
    decide_mean_multi,
    decide_mean_single,
    decide_reach_multi,
    decide_reach_single,
)
from cvarmdp.graphs import mec_decomposition
from cvarmdp.lp import LinearProgram, WarmStart, solve_feasibility
from cvarmdp.synthesis import REMAIN, check_strategy, evaluate, flow_rows


def law_of(verdict, j=0):
    return FiniteDistribution(dict(verdict.certificate["law"][j]))


def reach_query(e=None, c=None, v=None, p=F(1, 20), q=F(1, 20), dim=0, objective="reach"):
    return Query(
        objective=objective,
        constraints=(
            Constraint(
                dim=dim,
                expectation=None if e is None else F(e),
                cvar=None if c is None else (p, F(c)),
                var=None if v is None else (q, F(v)),
            ),
        ),
    )


class TestReachSingle:
    def test_choice_paper_query_sat_with_expected_law(self):
        mdp, query = example("choice")
        verdict = decide(mdp, query)
        assert verdict.status == "SAT"
        law = law_of(verdict)
        assert law.atoms == {F(0): F(1, 40), F(5): F(3, 4), F(10): F(9, 40)}
        ok, _, details = check_strategy(mdp, verdict.witness, query)
        assert ok, details

    def test_choice_paper_mixing_strategy_meets_the_query(self):
        # the paper's witness for this query: a with 3/4, b with 1/4 at s0
        mdp, query = example("choice")
        ok, law, details = check_strategy(mdp, memoryless({"s0": {"a": F(3, 4), "b": F(1, 4)}}), query)
        assert ok, details
        assert law[0].atoms == {F(0): F(1, 40), F(5): F(3, 4), F(10): F(9, 40)}

    def test_choice_tighter_expectation_unsat(self):
        mdp, _ = example("choice")
        assert decide(mdp, reach_query(e="13/2", c=2)).status == "UNSAT"

    def test_choice_var_only(self):
        mdp, _ = example("choice")
        assert decide(mdp, reach_query(v=5)).status == "SAT"
        assert decide(mdp, reach_query(v=10, q=F(1, 20))).status == "UNSAT"

    @pytest.mark.parametrize("bounds", [{"v": 11}, {"c": 11}, {"c": 2, "v": 11}, {"e": 1, "c": 11}])
    def test_bound_above_every_target_reward_solves_no_lp(self, on_lp, bounds):
        # the targets are worth 0, 5 and 10: no threshold guess exists
        solved = []
        on_lp(lambda *call: solved.append(call))
        mdp, _ = example("choice")
        assert decide(mdp, reach_query(**bounds)).status == "UNSAT"
        assert solved == []

    def test_choice_expectation_only_picks_gamble(self):
        mdp, _ = example("choice")
        verdict = decide(mdp, reach_query(e=9))
        assert verdict.status == "SAT"
        assert expectation(law_of(verdict)) == 9

    def test_negative_rewards_route_through_mean_reduction(self):
        mdp, query = example("negative")
        verdict = decide(mdp, query)
        assert verdict.status == "SAT"
        law = law_of(verdict)
        assert expectation(law) == 1
        assert cvar(law, F(1, 20)) >= F(-3)
        assert var(law, F(1, 20)) >= 0

    def test_target_that_is_not_absorbing_is_rejected(self):
        # t leads back to s, so the run may collect t's reward and go on to
        # u; the flow LP treats t as absorbing and used to answer UNSAT
        mdp = Mdp(
            states=("s", "t", "u"),
            available={"s": ("go", "alt"), "t": ("back",), "u": ("stay",)},
            delta={"go": {"t": F(1)}, "alt": {"u": F(1)}, "back": {"s": F(1)}, "stay": {"u": F(1)}},
            initial="s",
            rewards={"s": (F(0),), "t": (F(5),), "u": (F(1),)},
            targets=frozenset({"t", "u"}),
        )
        (problem,) = validate(mdp).problems
        assert problem == "target 't' not absorbing via action 'back'"
        with pytest.raises(ModelError, match=re.escape(problem)):
            decide(mdp, reach_query(e=4))

    def test_target_that_is_not_a_state_is_rejected(self):
        # used to escape from the MEC quotient as a bare KeyError
        mdp, query = example("choice")
        mdp = replace(mdp, targets=mdp.targets | {"zz"})
        (problem,) = validate(mdp).problems
        assert problem == "target 'zz' not a state"
        with pytest.raises(ModelError, match=re.escape(problem)):
            decide(mdp, query)

    def test_negative_unsat_when_expectation_forced_too_high(self):
        mdp, _ = example("negative")
        # full gamble gives E = 4, the best possible; 9/2 is out of reach
        assert decide(mdp, reach_query(e="9/2")).status == "UNSAT"
        assert decide(mdp, reach_query(e=4)).status == "SAT"


class TestReachMulti:
    def _two_dim(self):
        # two independent coins with rewards in separate dimensions
        return Mdp(
            states=("s", "t1", "t2"),
            available={"s": ("a", "b"), "t1": ("l1",), "t2": ("l2",)},
            delta={
                "a": {"t1": F(1)},
                "b": {"t1": F(1, 2), "t2": F(1, 2)},
                "l1": {"t1": F(1)},
                "l2": {"t2": F(1)},
            },
            initial="s",
            rewards={
                "s": (F(0), F(0)),
                "t1": (F(4), F(0)),
                "t2": (F(0), F(6)),
            },
            targets=frozenset({"t1", "t2"}),
        )

    def test_joint_expectations(self):
        mdp = self._two_dim()
        q = Query(
            objective="reach",
            constraints=(
                Constraint(dim=0, expectation=F(2)),
                Constraint(dim=1, expectation=F(3)),
            ),
        )
        verdict = decide(mdp, q)
        assert verdict.status == "SAT"
        ok, _, details = check_strategy(mdp, verdict.witness, q)
        assert ok, details

    def test_conflicting_expectations_unsat(self):
        mdp = self._two_dim()
        q = Query(
            objective="reach",
            constraints=(
                Constraint(dim=0, expectation=F(4)),  # needs all mass on action a
                Constraint(dim=1, expectation=F(3)),  # needs all mass on action b
            ),
        )
        assert decide(mdp, q).status == "UNSAT"

    def test_cvar_pair(self):
        mdp = self._two_dim()
        q = Query(
            objective="reach",
            constraints=(
                Constraint(dim=0, cvar=(F(3, 4), F(1))),
                Constraint(dim=1, cvar=(F(3, 4), F(1))),
            ),
        )
        verdict = decide(mdp, q)
        assert verdict.status == "SAT"
        ok, _, details = check_strategy(mdp, verdict.witness, q)
        assert ok, details

    def test_one_dim_var_without_attraction_matches_single(self):
        # no attraction and a VaR constraint: both procedures decide the
        # same flow LP on the quotient with zero-reward commits
        mdp, query = example("negative")
        a = decide_reach_single(mdp, query)
        b = decide_reach_multi(mdp, query)
        assert a.status == b.status == "SAT"
        assert b.certificate["law"] == a.certificate["law"]

    @staticmethod
    def _gamble_or_wait(t1="t1"):
        """``a`` reaches ``t1`` (-1, 0) or ``t2`` (0, 1), each with
        probability 1/2; ``loop`` stays at s, a target-free MEC worth 0."""
        return Mdp(
            states=("s", t1, "t2"),
            available={"s": ("a", "loop"), t1: ("l1",), "t2": ("l2",)},
            delta={
                "a": {t1: F(1, 2), "t2": F(1, 2)},
                "loop": {"s": F(1)},
                "l1": {t1: F(1)},
                "l2": {"t2": F(1)},
            },
            initial="s",
            rewards={"s": (F(0), F(0)), t1: (F(-1), F(0)), "t2": (F(0), F(1))},
            targets=frozenset({t1, "t2"}),
        )

    @pytest.mark.parametrize(
        "var_q, var_v, e, status",
        [
            ("1/2", -1, "1/2", "SAT"),  # gamble surely
            ("1/4", 0, "1/4", "SAT"),  # gamble w.p. 1/2, wait forever otherwise
            ("1/4", 0, "1/2", "UNSAT"),  # E needs the sure gamble, VaR forbids it
        ],
        ids=["sure-gamble", "half-gamble", "unsat"],
    )
    def test_multi_var_without_attraction_is_decided(self, var_q, var_v, e, status):
        # "neither" attraction case plus VaR in several dimensions: an exact
        # verdict (it used to raise UnsupportedQueryError)
        mdp = self._gamble_or_wait()
        q = Query(
            objective="reach",
            constraints=(
                Constraint(dim=0, var=(F(var_q), F(var_v))),
                Constraint(dim=1, expectation=F(e)),
            ),
        )
        verdict = decide(mdp, q)
        assert verdict.status == status
        if verdict.sat:
            ok, _, details = check_strategy(mdp, verdict.witness, q)
            assert ok, details

    def test_fresh_target_names_do_not_collide_with_input_targets(self):
        # named ("__gain", 0) regardless of the input, the commit target of
        # MEC 0 ({s}) would share the input target's LP variable
        mdp = self._gamble_or_wait(t1=("__gain", 0))
        q = Query(
            objective="reach",
            constraints=(
                Constraint(dim=0, var=(F(1, 4), F(0))),
                Constraint(dim=1, expectation=F(1, 4)),
            ),
        )
        verdict = decide(mdp, q)
        assert verdict.status == "SAT"
        ok, law, details = check_strategy(mdp, verdict.witness, q)
        assert ok, details
        assert law[0].atoms == {F(-1): F(1, 4), F(0): F(3, 4)}


class TestMeanSingle:
    def test_loop_needs_two_memory(self):
        mdp, query = example("loop")
        verdict = decide(mdp, query)
        assert verdict.status == "SAT"
        law = law_of(verdict)
        assert law.atoms == {F(0): F(1, 40), F(5): F(3, 4), F(10): F(9, 40)}
        assert len(verdict.witness.memory) == 2
        ok, _, details = check_strategy(mdp, verdict.witness, query)
        assert ok, details

    def test_loop_expectation_bounds(self):
        mdp, _ = example("loop")
        assert decide(mdp, reach_query(e=9, objective="mean")).status == "SAT"
        assert decide(mdp, reach_query(e="19/2", objective="mean")).status == "UNSAT"

    def test_slow_family(self):
        for eps in (F(1, 8), F(1, 64)):
            mdp, query = example(f"slow({eps})")
            verdict = decide(mdp, query)
            assert verdict.status == "SAT"
            ok, _, details = check_strategy(mdp, verdict.witness, query)
            assert ok, details

    @staticmethod
    def _win_or_lose(go="go", win="stay_win"):
        """``go`` leads from s0 to a reward-10 loop ``win``, ``stop`` to a
        reward-0 loop; the loops are MECs 1 and 0."""
        return Mdp(
            states=("s0", "win", "lose"),
            available={"s0": (go, "stop"), "win": (win,), "lose": ("stay_lose",)},
            delta={go: {"win": F(1)}, "stop": {"lose": F(1)}, win: {"win": F(1)}, "stay_lose": {"lose": F(1)}},
            initial="s0",
            rewards={"s0": (F(0),), "win": (F(10),), "lose": (F(0),)},
        )

    def test_win_or_lose_is_sat(self):
        assert decide(self._win_or_lose(), reach_query(e=5, objective="mean")).status == "SAT"

    @pytest.mark.parametrize(
        "names",
        # the abstraction's own __commit[0] (to MEC 0) used to replace the
        # user's action, giving UNSAT; __commit[1] as the loop of MEC 1 made
        # the internal flow completion infeasible
        [{"go": "__commit[0]"}, {"win": "__commit[1]"}],
        ids=["wrong-unsat", "infeasible-completion"],
    )
    def test_reserved_action_name_is_rejected(self, names):
        (name,) = names.values()
        with pytest.raises(ModelError, match=re.escape(f"action {name!r} starts with the reserved prefix '__'")):
            decide(self._win_or_lose(**names), reach_query(e=5, objective="mean"))

    @pytest.mark.parametrize(
        "name",
        # the abstraction's gain state of MEC 0 (MEC 1) used to share the
        # user's state, giving UNSAT (an infeasible internal flow completion)
        [("__gain", 0), ("__gain", 1)],
        ids=["wrong-unsat", "infeasible-completion"],
    )
    def test_state_name_is_not_reserved(self, name):
        m = self._win_or_lose()
        r = lambda s: name if s == "win" else s
        renamed = Mdp(
            states=tuple(map(r, m.states)),
            available={r(s): acts for s, acts in m.available.items()},
            delta={a: {r(t): p for t, p in row.items()} for a, row in m.delta.items()},
            initial=m.initial,
            rewards={r(s): v for s, v in m.rewards.items()},
        )
        assert decide(renamed, reach_query(e=5, objective="mean")).status == "SAT"

    def test_mec_gain(self):
        mdp, _ = example("loop")
        dec = mec_decomposition(mdp)
        gains = sorted(solver._mec_gain_flow(mdp, mec, 0)[0] for mec in dec.mecs)
        assert gains == [F(0), F(5), F(10)]


class TestMeanMulti:
    def _two_mecs(self):
        # choose once between two absorbing loops with opposing dimensions
        return Mdp(
            states=("s", "u", "w"),
            available={"s": ("to_u", "to_w"), "u": ("lu",), "w": ("lw",)},
            delta={
                "to_u": {"u": F(1)},
                "to_w": {"w": F(1)},
                "lu": {"u": F(1)},
                "lw": {"w": F(1)},
            },
            initial="s",
            rewards={"s": (F(0), F(0)), "u": (F(8), F(0)), "w": (F(0), F(8))},
        )

    def test_split_expectations_sat(self):
        mdp = self._two_mecs()
        q = Query(
            objective="mean",
            constraints=(
                Constraint(dim=0, expectation=F(4)),
                Constraint(dim=1, expectation=F(4)),
            ),
        )
        verdict = decide(mdp, q)
        assert verdict.status == "SAT"
        ok, _, details = check_strategy(mdp, verdict.witness, q)
        assert ok, details

    def test_impossible_expectations_unsat(self):
        mdp = self._two_mecs()
        q = Query(
            objective="mean",
            constraints=(
                Constraint(dim=0, expectation=F(5)),
                Constraint(dim=1, expectation=F(5)),
            ),
        )
        assert decide(mdp, q).status == "UNSAT"

    def test_var_constraints_rejected(self):
        mdp = self._two_mecs()
        q = Query(
            objective="mean",
            constraints=(
                Constraint(dim=0, var=(F(1, 2), F(1))),
                Constraint(dim=1, expectation=F(1)),
            ),
        )
        with pytest.raises(UnsupportedQueryError):
            decide(mdp, q)

    def test_single_dimension_delegates(self, monkeypatch):
        # decide, not decide_mean_multi, sends a 1-dim model to the single
        # procedure, and to it alone
        calls = []
        for name in ("decide_mean_single", "decide_mean_multi"):
            procedure = getattr(solver, name)
            monkeypatch.setattr(
                solver, name, lambda *args, name=name, procedure=procedure: calls.append(name) or procedure(*args)
            )
        assert decide(*example("loop")).status == "SAT"
        assert calls == ["decide_mean_single"]

    @pytest.mark.parametrize("grid", [-3, 0, True, 2.0, "4"])
    def test_grid_must_be_a_positive_integer(self, grid):
        # a grid below 1 used to act as grid 1: this query answered SAT at
        # grid -3, 0, 1 and 4 alike
        q = Query(
            objective="mean",
            constraints=(
                Constraint(dim=0, cvar=(F(1, 2), F(2))),
                Constraint(dim=1, expectation=F(3)),
            ),
        )
        message = re.escape(f"grid must be a positive integer, not {grid!r}")
        with pytest.raises(ValueError, match=message):
            decide(self._two_mecs(), q, grid=grid)
        # checked for every objective, not only where it is read
        with pytest.raises(ValueError, match=message):
            decide(*example("choice"), grid=grid)

    def test_no_grid_is_the_default_grid(self):
        q = Query(
            objective="mean",
            constraints=(
                Constraint(dim=0, cvar=(F(1, 2), F(2))),
                Constraint(dim=1, expectation=F(3)),
            ),
        )
        assert decide(self._two_mecs(), q, None) == decide(self._two_mecs(), q) == decide(self._two_mecs(), q, 16)

    def test_cvar_bound_above_every_mec_gain_is_unsat(self):
        # one MEC u <-> w: its dimension-0 gains range over [0, 4], so no
        # run's payoff reaches 5, and neither does its CVaR (the grid of
        # thresholds at or above 5 is empty; this was UNKNOWN)
        mdp = Mdp(
            states=("u", "w"),
            available={"u": ("uu", "uw"), "w": ("ww", "wu")},
            delta={"uu": {"u": F(1)}, "uw": {"w": F(1)}, "ww": {"w": F(1)}, "wu": {"u": F(1)}},
            initial="u",
            rewards={"u": (F(0), F(0)), "w": (F(4), F(1))},
        )
        q = Query(objective="mean", constraints=(Constraint(dim=0, cvar=(F(1, 2), F(5))),))
        verdict = decide(mdp, q)
        assert verdict.status == "UNSAT"
        assert verdict.certificate == {"dim": 0, "max_gain": F(4)}
        at_bound = Query(objective="mean", constraints=(Constraint(dim=0, cvar=(F(1, 2), F(4))),))
        assert decide(mdp, at_bound).status == "SAT"

    def test_infeasible_cvar_with_spread_gains_is_unknown(self):
        # the t-grid cannot prove UNSAT when MEC gains are spread out
        mdp = self._two_mecs()
        q = Query(
            objective="mean",
            constraints=(
                Constraint(dim=0, cvar=(F(1, 2), F(7))),
                Constraint(dim=1, cvar=(F(1, 2), F(7))),
            ),
        )
        assert decide(mdp, q).status in ("UNSAT", "UNKNOWN")

    @staticmethod
    def _per_guess_rows(query, grids, options, terms):
        """The enumeration that ``_mean_multi_guesses`` replaced: every
        labelling combination, then every threshold combination, each
        guess's rows rebuilt from its VaR guess and classification."""
        cvar_dims = sorted(c.dim for c in query.constraints if c.cvar is not None)

        def rows_of(guess, cls):
            rows = []

            def add(mecs, weight, sense, rhs):
                rows.append(({x: w for i in mecs for x, r in terms[i] if (w := weight(r)) != 0}, sense, rhs))

            for c in sorted(query.constraints, key=lambda c: c.dim):
                j = c.dim
                if c.cvar is not None:
                    p, cbound = c.cvar
                    t, labels = guess[j], cls[j]
                    low = [i for i, lab in enumerate(labels) if lab == "le"]
                    excess = lambda r: r[j] - t
                    add(low, excess, ">=", p * (cbound - t))
                    add(low, lambda r: F(1), "<=", p)
                    add(low + [labels.index("eq")], lambda r: F(1), ">=", p)
                    for i, lab in enumerate(labels):
                        add([i], excess, {"le": "<=", "gt": ">=", "eq": "=="}[lab], F(0))
                if c.expectation is not None:
                    add(range(len(terms)), lambda r: r[j], ">=", c.expectation)
            return rows

        for cls_combo in itertools.product(options, repeat=len(cvar_dims)):
            cls = dict(zip(cvar_dims, cls_combo))
            for t_combo in itertools.product(*(grids[j] for j in cvar_dims)):
                guess = dict(zip(cvar_dims, t_combo))
                yield guess, cls, rows_of(guess, cls)

    def test_guess_table_matches_the_per_guess_rows(self):
        # the table builds each row once per key; every key still gets the
        # rows, in the coefficient order, that the per-guess builder gave it
        one_cvar = Query(
            objective="mean",
            constraints=(Constraint(dim=0, cvar=(F(1, 2), F(2))), Constraint(dim=1, expectation=F(3))),
        )
        two_cvars = Query(
            objective="mean",
            constraints=(
                Constraint(dim=0, cvar=(F(1, 2), F(2))),
                Constraint(dim=1, expectation=F(1), cvar=(F(1, 4), F(1))),
            ),
        )
        grids = {0: [F(2), F(5, 2), F(4)], 1: [F(1), F(3)]}
        plain = lambda rows: [(list(coeffs.items()), sense, rhs) for coeffs, sense, rhs in rows]
        models = [self._two_mecs()] + [random_mdp(2, 2, F(1, 2), (0, 6), 2, seed) for seed in (0, 1, 23)]
        for mdp in models:
            base = replace(mdp, targets=frozenset())
            dec = mec_decomposition(base)
            n = len(dec.mecs)
            assert n >= 2
            terms = solver._mec_terms(base, dec)
            options = [
                labs[:i] + ("eq",) + labs[i:] for i in range(n) for labs in itertools.product(("le", "gt"), repeat=n - 1)
            ]
            new = [
                ({j: t for j, (t, _) in key.items()}, {j: labels for j, (_, labels) in key.items()}, plain(rows))
                for key, rows in solver._mean_multi_guesses(one_cvar, grids, options, terms)
            ]
            old = [(guess, cls, plain(rows)) for guess, cls, rows in self._per_guess_rows(one_cvar, grids, options, terms)]
            assert new == old and len(new) == len(options) * len(grids[0])
            new = {
                tuple((j, t, labels) for j, (t, labels) in key.items()): plain(rows)
                for key, rows in solver._mean_multi_guesses(two_cvars, grids, options, terms)
            }
            old = {
                tuple((j, guess[j], cls[j]) for j in guess): plain(rows)
                for guess, cls, rows in self._per_guess_rows(two_cvars, grids, options, terms)
            }
            assert new == old and len(new) == (len(options) ** 2) * len(grids[0]) * len(grids[1])

    def test_mec_entered_away_from_its_representative(self):
        # go enters the MEC {a, b} at b; the witness routes ba to the
        # representative a and switches to remain there and nowhere else
        mdp = _pair()
        sat = [
            (Constraint(dim=0, expectation=F(3)),),
            (Constraint(dim=0, cvar=(F(1, 2), F(2))), Constraint(dim=1, expectation=F(1))),
        ]
        for constraints in sat:
            q = Query(objective="mean", constraints=constraints)
            verdict = decide(mdp, q)
            assert verdict.status == "SAT"
            ok, _, details = check_strategy(mdp, verdict.witness, q)
            assert ok, details
            switches = {(a, t) for (a, t, _), dist in verdict.witness.memory_update.items() if REMAIN in dist}
            assert switches == {("ba", "a")}
        unsat = Query(objective="mean", constraints=(Constraint(dim=0, expectation=F(5)),))
        assert decide(mdp, unsat).status == "UNSAT"

    @staticmethod
    def _per_member_switch_block(mdp, dec):
        """The multi-dimensional mean-payoff block with a switch column
        ``w::s`` per MEC member, tied to its MEC's recurrent mass by one row
        per MEC: the reference for ``solver._mean_multi_block``, which
        switches at each MEC's representative alone."""
        acts = mdp.actions
        mec_states = sorted(dec.state_to_mec, key=repr)
        mec_acts = sorted({a for _, aa in dec.mecs for a in aa})
        names = [f"y::{a}" for a in acts] + [f"w::{s!r}" for s in mec_states] + [f"xa::{a}" for a in mec_acts]
        prog = LinearProgram(variables=names)
        for s, coeffs in zip(mdp.states, flow_rows(mdp, mdp.states, acts, lambda a: f"y::{a}")):
            if s in dec.state_to_mec:
                coeffs[f"w::{s!r}"] = F(1)
            prog.add(coeffs, "==", F(1) if s == mdp.initial else F(0))
        for members, aa in dec.mecs:
            coeffs = {f"w::{s!r}": F(1) for s in members}
            for a in sorted(aa):
                coeffs[f"xa::{a}"] = F(-1)
            prog.add(coeffs, "==", F(0))
        for members, aa in dec.mecs:
            for coeffs in flow_rows(mdp, members, sorted(aa), lambda a: f"xa::{a}"):
                prog.add(coeffs, "==", F(0))
        prog.add({f"w::{s!r}": F(1) for s in mec_states}, "==", F(1))
        return prog

    def test_one_switch_point_per_mec_keeps_every_guess_status(self, monkeypatch):
        # each MEC reaches every member almost surely on its own actions, so
        # switching only at the representative leaves every guess LP of the
        # grid-4 sweep feasible or infeasible exactly as a switch per member
        guesses = []
        listed = solver._mean_multi_guesses

        def listing(*args):
            guesses.append(list(listed(*args)))
            return iter(guesses[-1])

        monkeypatch.setattr(solver, "_mean_multi_guesses", listing)
        models = [self._two_mecs(), _pair()]
        for seed in range(60):
            n = 2 + seed % 4
            mdp = random_mdp(n, 2, F(1, n), (0, 6), 2, seed)
            if len(mec_decomposition(mdp).mecs) >= 2:
                models.append(mdp)
        assert len(models) == 24
        queries = [
            Query(
                objective="mean",
                constraints=(Constraint(dim=0, cvar=(F(1, 2), F(0))), Constraint(dim=1, expectation=F(2))),
            ),
            Query(
                objective="mean",
                constraints=(Constraint(dim=0, expectation=F(1)), Constraint(dim=1, cvar=(F(1, 4), F(2)))),
            ),
        ]

        def statuses(block, rows_of_guesses):
            start = WarmStart(block)
            return [
                solve_feasibility(LinearProgram(block.variables, block.constraints + rows), start).status
                for _, rows in rows_of_guesses
            ]

        seen = []
        for mdp, q in itertools.product(models, queries):
            del guesses[:]
            decide_mean_multi(mdp, q, 4)
            dec = mec_decomposition(mdp)
            # none when a CVaR bound exceeds every MEC gain
            for listed_guesses in guesses:
                new = statuses(solver._mean_multi_block(mdp, dec), listed_guesses)
                assert new == statuses(self._per_member_switch_block(mdp, dec), listed_guesses)
                seen += new
        assert seen.count("feasible") > 100 and seen.count("infeasible") > 100


class TestConsistency:
    def test_multi_equals_single_on_random_one_dim_mean_instances(self):
        # the flow LP over MEC gains against the classification LP over
        # recurrent frequencies, both run on the same 1-dim model: exact on
        # expectations, and the CVaR sweep never contradicts the exact answer
        rng = random.Random(9)
        agreed = set()
        for seed in range(12):
            mdp = random_mdp(rng.randint(2, 5), 2, F(1, 2), (0, 6), 1, seed=seed)
            e = F(rng.randint(0, 6))
            q = Query(objective="mean", constraints=(Constraint(dim=0, expectation=e),))
            a = decide_mean_single(mdp, q)
            b = decide_mean_multi(mdp, q)
            assert a.status == b.status, f"seed {seed}"
            for c in (1, 3, 5):
                q = Query(objective="mean", constraints=(Constraint(dim=0, cvar=(F(1, 2), F(c))),))
                a = decide_mean_single(mdp, q)
                b = decide_mean_multi(mdp, q, 4)
                assert a.status in ("SAT", "UNSAT") and b.status in (a.status, "UNKNOWN"), (seed, c)
                if b.status == a.status:
                    agreed.add(a.status)
        assert agreed == {"SAT", "UNSAT"}

    def test_every_sat_witness_reverifies(self):
        cases = [example(n) for n in ("choice", "loop", "slow(1/8)", "negative")]
        for mdp, query in cases:
            verdict = decide(mdp, query)
            assert verdict.status == "SAT"
            ok, _, details = check_strategy(mdp, verdict.witness, query)
            assert ok, details


def _exit_ring(n: int) -> Mdp:
    """An (n-2)-state end component with two exits to absorbing targets
    worth 10 and 0; the exit at n/3 wins w.p. 7/10, the one at 2n/3 w.p. 9/10."""
    ring = [f"c{i}" for i in range(n - 2)]
    available, delta = {}, {}
    for i, s in enumerate(ring):
        delta[f"fwd{i}"] = {ring[(i + 1) % len(ring)]: F(1)}
        available[s] = (f"fwd{i}",)
    for i, p in ((n // 3, F(7, 10)), (2 * n // 3, F(9, 10))):
        delta[f"exit{i}"] = {"hi": p, "lo": 1 - p}
        available[ring[i]] += (f"exit{i}",)
    for t in ("hi", "lo"):
        available[t] = (f"stay_{t}",)
        delta[f"stay_{t}"] = {t: F(1)}
    rewards = {s: (F(0),) for s in ring}
    rewards["hi"], rewards["lo"] = (F(10),), (F(0),)
    return Mdp(
        states=tuple(ring + ["hi", "lo"]),
        available=available,
        delta=delta,
        initial=ring[0],
        rewards=rewards,
        targets=frozenset({"hi", "lo"}),
    )


class TestLargeModels:
    def test_commit_to_a_large_end_component(self):
        # lo is worth -10, so attraction fails: E >= 4 with CVaR_{1/10} >= -5
        # holds only if half the mass stays in the 98-state ring forever, which
        # a MEC beyond MEC_LP_LIMIT realizes through the memory "remain"
        mdp = _exit_ring(100)
        mdp = replace(mdp, rewards={**mdp.rewards, "lo": (F(-10),)})
        query = reach_query(e=4, c=-5, p=F(1, 10))
        verdict = decide(mdp, query)
        assert verdict.status == "SAT"
        ok, law, details = check_strategy(mdp, verdict.witness, query)
        assert ok, details
        assert law[0].atoms == {F(-10): F(1, 20), F(0): F(1, 2), F(10): F(9, 20)}
        assert any(m == "remain" for _, m in verdict.witness.next_move)
        assert decide(mdp, reach_query(e="41/10", c=-5, p=F(1, 10))).status == "UNSAT"

    def test_certificate_is_the_witness_law_on_the_full_model(self, monkeypatch):
        # whatever the size, decide checks the witness it returns on the input model
        mdp = _exit_ring(450)
        query = reach_query(e=8, c=0)
        checked = []

        def spy(model, strategy, q):
            checked.append((model, strategy))
            return check_strategy(model, strategy, q)

        monkeypatch.setattr(solver, "check_strategy", spy)
        verdict = decide(mdp, query)
        assert verdict.status == "SAT"
        assert checked[-1] == (mdp, verdict.witness)
        ok, law, _ = check_strategy(mdp, verdict.witness, query)
        assert ok
        assert verdict.certificate["law"] == [d.atoms for d in law.marginals]
        assert expectation(law[0]) >= 8
        assert decide(mdp, reach_query(e="91/10")).status == "UNSAT"

    def test_mean_payoff_certificate_is_the_witness_law_on_the_full_model(self, monkeypatch):
        # one 448-state MEC whose gain LP spans the whole ring
        mdp = replace(_exit_ring(450), targets=frozenset())
        query = reach_query(e=8, c=0, objective="mean")
        checked = []

        def spy(model, strategy, q):
            checked.append((model, strategy))
            return check_strategy(model, strategy, q)

        monkeypatch.setattr(solver, "check_strategy", spy)
        verdict = decide(mdp, query)
        assert verdict.status == "SAT"
        assert checked[-1] == (mdp, verdict.witness)
        ok, law, _ = check_strategy(mdp, verdict.witness, query)
        assert ok
        assert verdict.certificate["law"] == [d.atoms for d in law.marginals]
        assert expectation(law[0]) >= 8

    def test_states_the_initial_state_cannot_reach_stay_out_of_the_lp(self, monkeypatch):
        # a 100-state line into the initial state; the flow LP over all of
        # it took seconds
        mdp, query = example("choice")
        line = [f"p{i}" for i in range(100)]
        succ = dict(zip(line, line[1:] + [mdp.initial]))
        mdp = replace(
            mdp,
            states=mdp.states + tuple(line),
            available={**mdp.available, **{p: (f"{p}_next",) for p in line}},
            delta={**mdp.delta, **{f"{p}_next": {succ[p]: F(1)} for p in line}},
            rewards={**mdp.rewards, **{p: (F(0),) for p in line}},
        )
        columns = []

        def spy(prog, *args):
            columns.extend(prog.variables)
            return solve_feasibility(prog, *args)

        monkeypatch.setattr(solver, "solve_feasibility", spy)
        start = time.perf_counter()
        verdict = decide(mdp, query)
        assert time.perf_counter() - start < 1
        assert verdict.status == "SAT"
        assert check_strategy(mdp, verdict.witness, query)[0]
        assert columns and not any(name.endswith("_next") for name in columns)

    def test_witness_linear_systems_stay_sparse(self, monkeypatch):
        # a ring's stationary system loses its only cycle once pi is fixed at
        # one member, and a visit system has one entry per edge of the chain
        solve, solve_block = chain.solve_linear, chain._solve_block
        systems, blocks = [], []

        def spy_solve(a, b):
            systems.append((len(a), max(map(len, a))))
            return solve(a, b)

        def spy_solve_block(a, b):
            blocks.append(len(a))
            return solve_block(a, b)

        monkeypatch.setattr(chain, "solve_linear", spy_solve)
        monkeypatch.setattr(chain, "_solve_block", spy_solve_block)
        mean = replace(_exit_ring(900), targets=frozenset())
        assert decide(mean, reach_query(e=8, c=0, objective="mean")).status == "SAT"
        assert blocks == []
        assert max(rows for rows, _ in systems) >= 898
        assert all(width <= 2 for _, width in systems)
        systems.clear()
        assert decide(_exit_ring(3000), reach_query(e=8, c=0)).status == "SAT"
        assert max(rows for rows, _ in systems) >= 2900
        assert all(width <= 2 for _, width in systems)

    def test_zero_probability_successors_are_not_followed(self):
        # "x" is listed with probability 0 only; no witness needs a move there
        mdp = _exit_ring(80)
        delta = {**mdp.delta, "fwd5": {**mdp.delta["fwd5"], "x": F(0)}, "x_go": {"hi": F(1)}}
        mdp = replace(
            mdp,
            states=mdp.states + ("x",),
            available={**mdp.available, "x": ("x_go",)},
            delta=delta,
            rewards={**mdp.rewards, "x": (F(0),)},
        )
        assert validate(mdp).ok
        assert "x" not in mdp.successors("c5")
        query = reach_query(e=8, c=0)
        verdict = decide(mdp, query)
        assert verdict.status == "SAT"
        assert check_strategy(mdp, verdict.witness, query)[0]
        # forward everywhere, exit only where it wins w.p. 9/10
        moves = {s: {mdp.available[s][0]: F(1)} for s in mdp.states if s.startswith("c")}
        moves["c53"] = {"exit53": F(1)}
        ok, law, _ = check_strategy(mdp, memoryless(moves), query)
        assert ok and law[0].atoms == {F(10): F(9, 10), F(0): F(1, 10)}


def _trapped_mec() -> Mdp:
    """Half the mass of ``go`` falls into a two-state MEC that never reaches
    the target, so cleanup turns its representative in the MEC quotient
    into a zero-reward target."""
    return Mdp(
        states=("s", "t", "m1", "m2"),
        available={"s": ("go",), "t": ("stay",), "m1": ("a1",), "m2": ("a2",)},
        delta={
            "go": {"t": F(1, 2), "m1": F(1, 2)},
            "stay": {"t": F(1)},
            "a1": {"m2": F(1)},
            "a2": {"m1": F(1)},
        },
        initial="s",
        rewards={"s": (F(0),), "t": (F(2),), "m1": (F(0),), "m2": (F(0),)},
        targets=frozenset({"t"}),
    )


def _pair() -> Mdp:
    """``go`` enters the MEC {a, b} at b, not at its representative a; ``alt``
    reaches the loop c.  In the MEC, ``aa`` and ``bb`` stay, while ``ab`` and
    ``ba`` move to a or b with probability 1/2 each."""
    half = {"a": F(1, 2), "b": F(1, 2)}
    return Mdp(
        states=("s", "a", "b", "c"),
        available={"s": ("go", "alt"), "a": ("aa", "ab"), "b": ("bb", "ba"), "c": ("cc",)},
        delta={
            "go": {"b": F(1)},
            "alt": {"c": F(1)},
            "aa": {"a": F(1)},
            "ab": dict(half),
            "bb": {"b": F(1)},
            "ba": dict(half),
            "cc": {"c": F(1)},
        },
        initial="s",
        rewards={"s": (F(0), F(0)), "a": (F(4), F(0)), "b": (F(0), F(4)), "c": (F(1), F(1))},
    )


def _two_mecs_expectations():
    q = Query(
        objective="mean",
        constraints=(Constraint(dim=0, expectation=F(4)), Constraint(dim=1, expectation=F(4))),
    )
    return TestMeanMulti()._two_mecs(), q


class TestOneDecompositionPerModel:
    @pytest.fixture
    def decompositions(self, monkeypatch):
        calls = []

        def counted(mdp):
            calls.append(mdp)
            return mec_decomposition(mdp)

        monkeypatch.setattr(graphs, "mec_decomposition", counted)
        monkeypatch.setattr(solver, "mec_decomposition", counted)
        return calls

    @pytest.mark.parametrize(
        "instance, expected",
        [
            (lambda: example("choice"), 1),
            (lambda: (_exit_ring(12), reach_query(e=8, c=0)), 1),
            (lambda: (_trapped_mec(), reach_query(e=1)), 1),
            (lambda: example("loop"), 1),
            # reachability without attraction: its commits extend the
            # input's quotient
            (lambda: example("negative"), 1),
            (_two_mecs_expectations, 1),
        ],
        ids=["reach", "ring", "reach-trapped-mec", "mean-1d", "reach-no-attraction", "mean-2d"],
    )
    def test_decompositions_per_decide(self, decompositions, instance, expected):
        mdp, query = instance()
        verdict = decide(mdp, query)
        assert verdict.status == "SAT"
        assert len(decompositions) == expected


class TestFailedWitness:
    """A feasible guess whose witness fails the exact check proves nothing:
    the verdict is UNKNOWN, never UNSAT."""

    @staticmethod
    def reject(monkeypatch, calls):
        seen = []

        def patched(mdp, strategy, query):
            seen.append(strategy)
            if len(seen) <= calls:
                return False, None, {}
            return check_strategy(mdp, strategy, query)

        monkeypatch.setattr(solver, "check_strategy", patched)
        return seen

    @pytest.mark.parametrize("name", ["choice", "loop"])
    def test_first_witness_rejected_is_unknown(self, monkeypatch, name):
        seen = self.reject(monkeypatch, 1)
        verdict = decide(*example(name))
        assert verdict.status == "UNKNOWN"
        assert verdict.witness is None
        (failed,) = verdict.certificate["failed_guesses"]
        assert "guess" in failed and "law" not in failed
        assert len(seen) == 1

    def test_exhaustive_sweep_with_every_witness_rejected_is_unknown(self, monkeypatch):
        seen = self.reject(monkeypatch, 10**9)
        verdict = decide(*_two_mecs_expectations())
        assert verdict.status == "UNKNOWN"
        assert len(verdict.certificate["failed_guesses"]) == len(seen) >= 1

    def test_no_feasible_guess_is_unsat(self, monkeypatch):
        seen = self.reject(monkeypatch, 10**9)
        mdp, _ = example("choice")
        assert decide(mdp, reach_query(e=100)).status == "UNSAT"
        assert seen == []
