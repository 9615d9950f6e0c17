"""Witness construction tests: flows to strategies, evaluation, determinization."""
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from cvarmdp import solver
from cvarmdp.chain import reach_probabilities
from cvarmdp.gadgets import example, random_mdp
from cvarmdp.graphs import cleanup, mec_decomposition, mec_quotient
from cvarmdp.model import (
    Constraint,
    Mdp,
    ModelError,
    Query,
    StrategySpec,
    induced_chain,
    memoryless,
)
from cvarmdp.risk import cvar, expectation
from cvarmdp.solver import decide
from cvarmdp.synthesis import (
    MEC_LP_LIMIT,
    ONE,
    REMAIN,
    SEARCH,
    ZERO,
    _flow_move,
    _inflow,
    _least_action,
    _routing,
    _switch_arrival,
    _transship,
    evaluate,
    mec_constant_strategy,
    two_memory_strategy,
)
from lemmas import determinize_single_constraint, is_deterministic, mix_strategies
from test_acceptance import _big_ring
from test_oracles import trap_mdp, trap_query, two_owner_ring
from test_solver import _exit_ring, _pair, reach_query


class TestReachFlow:
    def test_flow_fidelity_on_random_cleaned_mdps(self):
        # target masses prescribed by a strategy-induced flow come back exactly
        rng = random.Random(13)
        checked = 0
        for seed in range(30):
            clean = random_mdp(rng.randint(3, 6), 2, F(1, 2), (0, 4), 1, seed=seed, targets=2)
            qm = mec_quotient(clean)
            assert cleanup(qm) is qm  # every state reaches a target
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
        dec = mec_decomposition(mdp)
        assert len(dec.mecs) == 1
        sigma = memoryless(mec_constant_strategy(dec, 0, {"hi": F(1, 3), "lo": F(2, 3)}))
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
        dec = mec_decomposition(mdp)
        assert len(dec.mecs) == 1
        sigma = memoryless(mec_constant_strategy(dec, 0, {"aa": F(1)}))
        law = evaluate(mdp, sigma, "mean")[0]
        assert law.atoms == {F(2): F(1)}


class TestTransship:
    @staticmethod
    def assert_completes(mdp, members, actions, entry, exits, commit):
        """``_transship`` is feasible and its g >= 0 meets every member's
        balance exactly, with the commit taken at ``members[0]``."""
        g = _transship(mdp, members, actions, entry, exits, commit)
        assert set(g) == set(actions) and all(m >= 0 for m in g.values())
        for s in members:
            out = sum((g[a] for a in mdp.available[s] if a in actions), ZERO)
            inflow = sum((m * mdp.delta[a].get(s, ZERO) for a, m in g.items()), ZERO)
            leave = sum((exits[a] for a in mdp.available[s] if a in exits), ZERO)
            assert out - inflow == entry[s] - leave - (commit if s == members[0] else ZERO)
        return g

    def test_random_balanced_supplies_complete(self):
        # each member reaches every other on the MEC's own actions, so any
        # entries that balance the exits and the commit can be routed
        rng = random.Random(31)
        checked = away = 0
        for seed in range(80):
            n = rng.randint(2, 8)
            mdp = random_mdp(n, 2, rng.choice([F(1, n), F(1, 2)]), (0, 4), 1, seed=seed)
            for members, actions in mec_decomposition(mdp).mecs:
                leaving = [a for s in members for a in mdp.available[s] if a not in actions]
                exits = {a: F(rng.randint(0, 4), rng.randint(1, 4)) for a in leaving if rng.random() < 0.7}
                commit = F(rng.randint(0, 3), rng.randint(1, 3))
                weights = [rng.randint(0, 3) for _ in members]
                if len(members) > 1 and rng.random() < 0.4:
                    weights[0] = 0  # entered only away from the representative
                if not any(weights):
                    weights[-1] = 1
                total = sum(exits.values(), commit)
                entry = {s: total * w / sum(weights) for s, w in zip(members, weights)}
                self.assert_completes(mdp, members, actions, entry, exits, commit)
                checked += 1
                away += entry[members[0]] == 0 and commit != 0
        assert checked >= 100 and away >= 10

    def test_commit_routed_to_the_representative(self):
        # the MEC {a, b} is entered only at b; its commit reaches a by ba
        mdp = _pair()
        (members, actions), _ = mec_decomposition(mdp).mecs
        assert members == ("a", "b")
        g = self.assert_completes(mdp, members, actions, {"a": ZERO, "b": ONE}, {}, ONE)
        assert g["ba"] > 0


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
        with pytest.raises(Exception):
            two_memory_strategy(mdp, {"b": F(1)}, {"s0": F(2)}, {"s0": {"a": F(1)}})


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
            clean = random_mdp(3, 2, F(2, 3), (0, 5), 1, seed=seed, targets=1)
            qm = mec_quotient(clean)
            assert cleanup(qm) is qm  # every state reaches a target
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


# --------------------------------------------------------------- reached pairs
# The full-table search/remain builder: a move for every state in ``search``
# and ``remain``, one per member of a large MEC for each pending exit, and an
# update for every positive-probability transition.  Witnesses are checked
# against it below.


def _full_table(mdp, y, arrival, inner, tokens):
    next_move = {}
    for tok, moves in tokens.items():
        for s, move in moves.items():
            next_move[(s, tok)] = dict(move)
    for s in mdp.states:
        next_move[(s, SEARCH)] = _flow_move(mdp, y, s)
        move = inner.get(s)
        next_move[(s, REMAIN)] = dict(move) if move else {_least_action(mdp, s): ONE}
    update = {}
    for a in mdp.delta:
        for t, p in mdp.delta[a].items():
            if p == 0:
                continue
            arr = arrival.get(t)
            if arr is not None:
                update[(a, t, SEARCH)] = arr
            tok = ("exit", a)
            if tok in tokens:
                update[(a, t, tok)] = arr if arr is not None else {SEARCH: ONE}
    return StrategySpec(
        memory=(SEARCH, REMAIN) + tuple(tokens),
        initial_memory=arrival.get(mdp.initial, {SEARCH: ONE}),
        next_move=next_move,
        memory_update=update,
    )


def _full_two_memory(mdp, y, switch, inner):
    return _full_table(mdp, y, _switch_arrival(_inflow(mdp, y), switch), inner, {})


def _state_routing(mdp, members, actions, goal):
    """Reference: the routing search on the model's own action lists and
    transition rows, for each member outside the set ``goal`` an action
    moving strictly closer to it; ties go to the first route in member
    order."""
    preds = {s: [] for s in members}
    for s in members:
        for a in mdp.available[s]:
            if a in actions:
                for t, p in mdp.delta[a].items():
                    if p != 0:
                        preds[t].append((s, a))
    frontier = [s for s in members if s in goal]
    dist = dict.fromkeys(frontier, 0)
    route = {}
    while frontier:
        nxt = []
        for t in frontier:
            for s, a in preds[t]:
                if s not in dist:
                    dist[s] = dist[t] + 1
                    route[s] = a
                    nxt.append(s)
        frontier = nxt
    missing = [repr(s) for s in members if s not in dist]
    if missing:
        raise ModelError(f"states {missing} cannot reach the routing goal")
    return route


def _full_realize(mdp, qm, y, switch, inner):
    dec = qm.decomposition
    used = {a: m for a, m in y.items() if m != 0 and a in mdp.delta}
    entry = _inflow(mdp, used)
    arrival, tokens = {}, {}
    full_y = dict(used)
    stay = {}
    for rep, (members, actions) in zip(qm.representatives, dec.mecs):
        if rep in qm.quotient.targets:
            continue
        exits = {a: used[a] for s in members for a in mdp.available[s] if a not in actions and a in used}
        commit = switch.get(rep, ZERO)
        total_in = sum((entry.get(s, ZERO) for s in members), ZERO)
        if total_in == 0:
            continue
        if len(members) <= MEC_LP_LIMIT:
            g = _transship(mdp, members, actions, entry, exits, commit)
            for a, m in g.items():
                if m != 0:
                    full_y[a] = full_y.get(a, ZERO) + m
            stay[rep] = commit
        else:
            token_dist = {("exit", a): m / total_in for a, m in exits.items() if m != 0}
            if commit != 0:
                token_dist[REMAIN] = commit / total_in
            if not token_dist:
                raise ModelError("MEC absorbs flow without exits or switch mass")
            owner = {a: s for s in mdp.states for a in mdp.available[s]}
            for tok in token_dist:
                if tok == REMAIN:
                    continue
                _, a = tok
                route = _state_routing(mdp, members, actions, {owner[a]})
                tokens[tok] = {s: {a if s == owner[a] else route[s]: ONE} for s in members}
            for s in members:
                arrival[s] = dict(token_dist)
    arrival.update(_switch_arrival(_inflow(mdp, full_y), stay))
    return _full_table(mdp, full_y, arrival, inner, tokens)


def _returning_exit(n: int) -> Mdp:
    """An n-state ring whose one exit, 10 steps in, reaches the target ``hi``
    or returns to the ring's start with probability 1/2 each."""
    ring = [f"c{i}" for i in range(n)]
    available = {s: (f"fwd{i}",) for i, s in enumerate(ring)}
    delta = {f"fwd{i}": {ring[(i + 1) % n]: F(1)} for i in range(n)}
    available[ring[10]] += ("exit",)
    delta["exit"] = {"hi": F(1, 2), ring[0]: F(1, 2)}
    available["hi"], delta["stay"] = ("stay",), {"hi": F(1)}
    rewards = {s: (F(0),) for s in ring}
    rewards["hi"] = (F(10),)
    return Mdp(
        states=tuple(ring) + ("hi",),
        available=available,
        delta=delta,
        initial=ring[0],
        rewards=rewards,
        targets=frozenset({"hi"}),
    )


class TestReachedPairsOnly:
    @pytest.fixture
    def built(self, monkeypatch):
        """Every witness ``decide`` builds, with its model and the full-table
        witness built from the same arguments."""
        calls = []

        def spy(name, reference):
            orig = getattr(solver, name)

            def wrapped(mdp, *args):
                witness = orig(mdp, *args)
                calls.append((mdp, witness, reference(mdp, *args)))
                return witness

            monkeypatch.setattr(solver, name, wrapped)

        spy("realize_quotient_flow", _full_realize)
        spy("two_memory_strategy", _full_two_memory)
        return calls

    def test_witness_is_the_full_table_on_the_pairs_it_reaches(self, built):
        ring_query = Query(
            objective="reach",
            constraints=(Constraint(dim=0, expectation=F(5), cvar=(F(1, 20), F(0))),),
        )
        cases = [example(n) for n in ("choice", "loop", "negative", "slow(1/8)")]
        cases.append((_exit_ring(300), reach_query(e=8, c=0)))
        cases += [(_big_ring(1000, seed), ring_query) for seed in (0, 1)]
        # the exit's return into its MEC redraws the pending exit it already
        # holds: an identity update, which the witness does not list
        cases.append((_returning_exit(MEC_LP_LIMIT + 16), reach_query(e=10)))
        cases += [(trap_mdp(seed), trap_query(seed)) for seed in range(200)]
        for mdp, query in cases:
            decide(mdp, query)
        assert len(built) > 100
        listed = full = 0
        for mdp, witness, ref in built:
            assert witness.memory == ref.memory
            assert witness.initial_memory == ref.initial_memory
            for key, move in witness.next_move.items():
                assert ref.next_move[key] == move
            for key, dist in witness.memory_update.items():
                assert ref.memory_update[key] == dist
                assert dist != {key[2]: ONE}
            chain = induced_chain(mdp, witness)
            assert set(witness.next_move) == {st for st in chain.states if st[0] not in mdp.targets}
            assert chain == induced_chain(mdp, ref)
            listed += len(witness.next_move)
            full += len(ref.next_move)
        assert listed * 5 < full


# ------------------------------------------------------ one read of the model
# Routing and the quotient read the lists that the MEC decomposition keeps;
# the references below read the model's action lists and rows state by state.


def _state_quotient(mdp, dec):
    """Reference: the available actions and lifted rows of ``mec_quotient``,
    with each MEC's exits found by scanning its members' actions."""
    reps = [members[0] for members, _ in dec.mecs]
    lift = {s: reps[i] for s, i in dec.state_to_mec.items()}
    for s in mdp.states:
        lift.setdefault(s, s)
    available, delta = {}, {}
    for s in mdp.states:
        if lift[s] != s:
            continue
        idx = dec.state_to_mec.get(s)
        if idx is None:
            acts = list(mdp.available.get(s, ()))
        else:
            members, mec_actions = dec.mecs[idx]
            acts = [a for t in members for a in mdp.available.get(t, ()) if a not in mec_actions]
            if s in mdp.targets and not acts:
                acts = [f"__stay[{s!r}]"]
                delta[acts[0]] = {s: ONE}
        available[s] = tuple(acts)
        for a in acts:
            if a in mdp.delta:
                row = {}
                for t, p in mdp.delta[a].items():
                    if p != 0:
                        lt = lift[t]
                        row[lt] = row[lt] + p if lt in row else p
                delta[a] = row
    return available, delta


def _differential_models():
    for name in ("choice", "loop", "negative", "slow(1/8)"):
        yield example(name)[0]
    for seed in range(200):
        yield trap_mdp(seed)
    rng = random.Random(17)
    for seed in range(120):
        n = rng.randint(3, 9)
        mdp = random_mdp(n, rng.randint(1, 3), F(1, rng.randint(1, n)), (0, 4), 1, seed=seed, targets=rng.randint(0, 2))
        if len(mec_decomposition(mdp).mecs) >= 2:
            yield mdp
    yield _exit_ring(300)
    yield two_owner_ring()[0]


class TestOneModelRead:
    def test_routes_and_quotient_match_the_state_scans(self):
        rng = random.Random(3)
        several = routed = 0
        for mdp in _differential_models():
            qm = mec_quotient(mdp)
            dec = qm.decomposition
            several += len(dec.mecs) >= 2
            available, delta = _state_quotient(mdp, dec)
            assert qm.quotient.available == available
            assert list(qm.quotient.delta.items()) == list(delta.items())
            assert all(list(qm.quotient.delta[a].items()) == list(row.items()) for a, row in delta.items())
            for i, (members, actions) in enumerate(dec.mecs):
                goals = [[p] for p in range(len(members))]
                goals += [sorted(rng.sample(range(len(members)), rng.randint(1, len(members)))) for _ in range(3)]
                for goal in goals:
                    route = _routing(dec, i, goal)
                    ref = _state_routing(mdp, members, actions, {members[p] for p in goal})
                    assert list(route.items()) == list(ref.items())
                    routed += 1
        assert several > 60 and routed > 1000

    def test_mec_constant_strategy_routes_like_the_state_scan(self):
        # frequencies on one action per MEC: every other member routes
        for mdp in _differential_models():
            dec = mec_decomposition(mdp)
            for i, (members, actions) in enumerate(dec.mecs):
                a = min(actions)
                owner = next(s for s in members if a in mdp.available[s])
                ref = _state_routing(mdp, members, actions, {owner})
                expected = {owner: {a: ONE}}
                expected.update((s, {ref[s]: ONE}) for s in members if s != owner)
                assert mec_constant_strategy(dec, i, {a: F(1)}) == expected


class _CountingDelta(dict):
    """Transition rows that count every lookup of a row."""

    reads = 0

    def __getitem__(self, a):
        self.reads += 1
        return dict.__getitem__(self, a)

    def get(self, a, default=None):
        self.reads += 1
        return dict.get(self, a, default)


def test_ring_action_costs_five_thirds_row_reads():
    # per ring action: one read by the decomposition, and one by each of
    # the witness's forward search and its induced chain along the third of
    # the ring that the witness walks; routing reads no row
    reads = {}
    for n in (300, 600):
        ring = _exit_ring(n)
        mdp = replace(ring, delta=_CountingDelta(ring.delta))
        assert decide(mdp, reach_query(e=5)).sat
        reads[n] = mdp.delta.reads
    assert F(reads[600] - reads[300], 300) <= F(5, 3) + F(1, 30)
