"""Graph-analysis tests: SCCs, MEC decomposition (vs. brute force), quotients."""
import itertools
import random
from collections.abc import Mapping
from dataclasses import replace
from fractions import Fraction as F

import cvarmdp.graphs as graphs
from cvarmdp.gadgets import random_mdp
from cvarmdp.graphs import (
    MecDecomposition,
    backward_reachable,
    bsccs,
    check_attraction,
    cleanup,
    mec_decomposition,
    mec_quotient,
    reachable_states,
    strongly_connected_components,
)
from cvarmdp.model import Mdp, validate
from test_oracles import trap_mdp
from test_solver import _exit_ring


def brute_force_mecs(mdp):
    """Oracle: maximal end components by exhaustive sub-MDP enumeration.

    An end component is a set of state/action pairs that is closed (all
    successors stay inside) and whose underlying graph is strongly connected.
    Feasible only for tiny models.
    """
    owner = {a: s for s in mdp.states for a in mdp.available[s]}
    all_actions = list(mdp.delta)
    ecs = []
    for r in range(1, len(all_actions) + 1):
        for acts in itertools.combinations(all_actions, r):
            states = {owner[a] for a in acts}
            if any(set(mdp.delta[a]) - states for a in acts):
                continue
            # strong connectivity of the induced graph
            graph = {s: set() for s in states}
            for a in acts:
                graph[owner[a]] |= set(mdp.delta[a])
            comp = _scc_closed(graph, states)
            if comp:
                ecs.append((frozenset(states), frozenset(acts)))
    # keep the maximal ones
    maximal = []
    for st, ac in ecs:
        if not any((st <= st2 and ac < ac2) or (st < st2 and ac <= ac2) for st2, ac2 in ecs):
            maximal.append((st, ac))
    return sorted(set(maximal), key=_mec_key)


def _mec_key(mec):
    # frozensets compare by subset relation, so sort by sorted member lists
    states, actions = mec
    return (sorted(states), sorted(actions))


def _scc_closed(graph, states):
    if not states:
        return False
    start = next(iter(states))
    for source in states:
        seen = {source}
        stack = [source]
        while stack:
            u = stack.pop()
            for v in graph[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen != states:
            return False
    return True


class TestScc:
    def test_two_cycles(self):
        graph = {1: [2], 2: [1, 3], 3: [4], 4: [3]}
        comps = strongly_connected_components(graph)
        assert sorted(map(sorted, comps)) == [[1, 2], [3, 4]]

    def test_deep_chain_no_recursion_limit(self):
        n = 50_000
        graph = {i: [i + 1] for i in range(n)}
        graph[n] = []
        comps = strongly_connected_components(graph)
        assert len(comps) == n + 1


class TestMecDecomposition:
    def test_matches_brute_force_on_random_models(self):
        for seed in range(40):
            rng = random.Random(seed)
            mdp = random_mdp(
                rng.randint(2, 5), rng.randint(1, 2), F(1, 2), (0, 3), 1, seed=seed
            )
            mecs = mec_decomposition(mdp).mecs
            got = sorted(((frozenset(states), actions) for states, actions in mecs), key=_mec_key)
            assert got == brute_force_mecs(mdp), f"seed {seed}"
            assert all(list(states) == sorted(states, key=repr) for states, _ in mecs), f"seed {seed}"

    def test_self_loop_is_a_mec(self):
        mdp = random_mdp(1, 1, F(1), (0, 0), 1, seed=0)
        dec = mec_decomposition(mdp)
        assert len(dec.mecs) == 1

    def test_state_to_mec_is_consistent(self):
        mdp = random_mdp(6, 2, F(1, 3), (0, 5), 1, seed=11)
        dec = mec_decomposition(mdp)
        for i, (states, _) in enumerate(dec.mecs):
            for s in states:
                assert dec.state_to_mec[s] == i


def full_refinement_mecs(mdp):
    """Reference: the MEC refinement loop that rescans until a scan removes
    no action at all."""
    live = {s: set(mdp.available.get(s, ())) for s in mdp.states}
    while True:
        graph = {
            s: {t for a in live[s] for t, p in mdp.delta[a].items() if p != 0}
            for s in mdp.states
        }
        comp_of = {}
        comps = strongly_connected_components(graph)
        for i, comp in enumerate(comps):
            for s in comp:
                comp_of[s] = i
        changed = False
        for s in mdp.states:
            for a in list(live[s]):
                for t, p in mdp.delta[a].items():
                    if p == 0:
                        continue
                    if comp_of[t] != comp_of[s] or not live[t]:
                        live[s].discard(a)
                        changed = True
                        break
        if not changed:
            break
    mecs = []
    for comp in comps:
        states = tuple(sorted((s for s in comp if live[s]), key=repr))
        if states:
            mecs.append((states, frozenset(a for s in states for a in live[s])))
    mecs = sorted(mecs, key=lambda m: list(map(repr, m[0])))
    return MecDecomposition(mecs, {s: i for i, (states, _) in enumerate(mecs) for s in states})


class TestEarlyStop:
    """``mec_decomposition`` stops after a scan that removed only edges
    between components; the full refinement loop is its reference."""

    def _models(self):
        for seed in range(150):
            rng = random.Random(f"early-stop:{seed}")
            n = rng.randint(2, 12)
            yield random_mdp(
                n, rng.randint(1, 3), F(1, rng.randint(1, n)), (0, 3), 1, seed=seed,
                targets=rng.randint(0, min(2, n - 1)),
            )
        for seed in range(50):
            yield trap_mdp(seed)

    def test_same_mecs_as_the_full_refinement(self, monkeypatch):
        scans = []
        tarjan = graphs.scc_indices
        monkeypatch.setattr(graphs, "scc_indices", lambda g: scans.append(1) or tarjan(g))
        rescanned = 0
        for mdp in self._models():
            scans.clear()
            got = mec_decomposition(mdp)
            rescanned += len(scans) > 1
            ref = full_refinement_mecs(mdp)
            assert got.mecs == ref.mecs
            assert got.state_to_mec == ref.state_to_mec
        assert rescanned > 0  # removals inside a component were rescanned

    def test_ring_runs_tarjan_once(self, monkeypatch):
        calls = []
        tarjan = graphs.scc_indices

        def spy(graph):
            calls.append(len(graph))
            return tarjan(graph)

        monkeypatch.setattr(graphs, "scc_indices", spy)
        dec = mec_decomposition(_exit_ring(300))
        assert calls == [300]
        assert sorted(len(states) for states, _ in dec.mecs) == [1, 1, 298]


class _CountingRow(Mapping):
    """A transition row that counts how often its ``items()`` is read."""

    def __init__(self, row):
        self.row, self.reads = row, 0

    def __getitem__(self, key):
        return self.row[key]

    def __iter__(self):
        return iter(self.row)

    def __len__(self):
        return len(self.row)

    def items(self):
        self.reads += 1
        return self.row.items()


def test_each_row_is_read_once_per_decomposition(monkeypatch):
    # ``a`` leaves the component {s0, s1} from inside it, so a second round runs
    rows = {
        "a": _CountingRow({"s0": F(1, 2), "s2": F(1, 2)}),
        "b": _CountingRow({"s1": F(1)}),
        "d": _CountingRow({"s0": F(1)}),
        "e": _CountingRow({"s2": F(1)}),
    }
    mdp = Mdp(
        states=("s0", "s1", "s2"),
        available={"s0": ("a", "b"), "s1": ("d",), "s2": ("e",)},
        delta=rows,
        initial="s0",
        rewards={s: (F(0),) for s in ("s0", "s1", "s2")},
    )
    scans = []
    tarjan = graphs.scc_indices
    monkeypatch.setattr(graphs, "scc_indices", lambda g: scans.append(1) or tarjan(g))
    dec = mec_decomposition(mdp)
    assert len(scans) == 2
    assert sorted(sorted(actions) for _, actions in dec.mecs) == [["b", "d"], ["e"]]
    assert {a: row.reads for a, row in rows.items()} == {a: 1 for a in rows}


def full_model_cleanup(mdp):
    """Reference: the cleanup that decides which MECs reach the targets on
    the full model, without collapsing the MECs."""
    graph = {
        s: [t for a in mdp.available.get(s, ()) for t, p in mdp.delta[a].items() if p != 0]
        for s in mdp.states
    }
    can_reach = backward_reachable(graph, set(mdp.targets))
    doomed = set()
    for states, _ in mec_decomposition(mdp).mecs:
        if not mdp.targets.intersection(states) and not can_reach.intersection(states):
            doomed.update(states)
    if not doomed:
        return mdp
    available, delta, rewards = dict(mdp.available), dict(mdp.delta), dict(mdp.rewards)
    for s in doomed:
        for a in mdp.available.get(s, ()):
            delta.pop(a, None)
        available[s] = (f"__stay[{s!r}]",)
        delta[f"__stay[{s!r}]"] = {s: F(1)}
        rewards[s] = tuple(F(0) for _ in range(mdp.dim))
    return Mdp(
        states=mdp.states,
        available=available,
        delta=delta,
        initial=mdp.initial,
        rewards=rewards,
        targets=mdp.targets | frozenset(doomed),
    )


def full_model_attraction(mdp):
    """Reference: the attraction class read from the full model's MECs and
    target rewards."""
    a1 = all(mdp.targets.intersection(states) for states, _ in mec_decomposition(mdp).mecs)
    a2 = all(r >= 0 for t in mdp.targets for r in mdp.rewards[t])
    return {(True, True): "both", (True, False): "A1", (False, True): "A2", (False, False): "neither"}[a1, a2]


def cleanup_models():
    for seed in range(400):
        rng = random.Random(f"cleanup:{seed}")
        n = rng.randint(2, 12)
        yield random_mdp(
            n, rng.randint(1, 3), F(1, rng.randint(1, n)), (0, 3), 1, seed=seed,
            targets=rng.randint(0, min(2, n - 1)),
        )
    for seed in range(200):
        yield trap_mdp(seed)
    yield _exit_ring(300)


def _lift(qm):
    """Each state's quotient state: the representative of its MEC, or itself."""
    reps, state_to_mec = qm.representatives, qm.decomposition.state_to_mec
    return lambda s: reps[state_to_mec[s]] if s in state_to_mec else s


def test_cleanup_matches_the_full_model_reference():
    changed = 0
    for mdp in cleanup_models():
        qm = mec_quotient(mdp)
        got, ref = cleanup(qm), full_model_cleanup(mdp)
        trapped = got.quotient.targets - qm.quotient.targets
        assert trapped == set(map(_lift(qm), ref.targets - mdp.targets))
        assert (got is qm) == (ref is mdp)
        assert (got.representatives, got.decomposition) == (qm.representatives, qm.decomposition)
        for s in trapped:
            assert got.quotient.available[s] == (f"__stay[{s!r}]",)
            assert got.quotient.rewards[s] == (F(0),)
        # every representative without an exit is now a target or trapped
        assert validate(got.quotient).ok
        changed += got is not qm
    assert changed >= 100


def test_check_attraction_matches_the_full_model_reference():
    # each model, and its copy with every reward negated: the cleanup models
    # alone have no negative target reward where every MEC holds a target
    classes = set()
    for mdp in cleanup_models():
        negated = replace(mdp, rewards={s: tuple(-r for r in v) for s, v in mdp.rewards.items()})
        for m in (mdp, negated):
            got = check_attraction(mec_quotient(m))
            assert got == full_model_attraction(m)
            classes.add(got)
    assert classes == {"A1", "A2", "both", "neither"}


class TestCleanupAndQuotient:
    def test_cleanup_makes_every_mec_hit_targets_or_stay(self):
        for seed in range(20):
            for mdp in (random_mdp(6, 2, F(1, 3), (0, 5), 1, seed=seed, targets=2), trap_mdp(seed)):
                qm = mec_quotient(mdp)
                clean = cleanup(qm).quotient
                assert validate(clean).ok
                # all quotient targets survive as targets, and reach themselves
                assert qm.quotient.targets <= clean.targets
                graph = {s: clean.successors(s) for s in clean.states}
                assert backward_reachable(graph, clean.targets) == set(clean.states)

    def test_quotient_collapses_mecs_to_representatives(self):
        mdp = random_mdp(8, 2, F(1, 3), (0, 5), 1, seed=5, targets=2)
        qm = cleanup(mec_quotient(mdp))
        dec = mec_decomposition(qm.quotient)
        # every MEC in the quotient is a singleton
        assert all(len(states) == 1 for states, _ in dec.mecs)
        assert validate(qm.quotient).ok
        # lift maps every state to its representative
        lift = _lift(qm)
        for s in mdp.states:
            assert lift(s) in qm.quotient.states

    def test_bsccs_of_chain(self):
        from cvarmdp.model import MarkovChain

        mc = MarkovChain(
            states=("a", "b", "c"),
            delta={"a": {"b": F(1, 2), "c": F(1, 2)}, "b": {"b": F(1)}, "c": {"c": F(1)}},
            initial_distribution={"a": F(1)},
            rewards={s: (F(0),) for s in "abc"},
        )
        comps = bsccs(mc)
        assert sorted(map(sorted, comps)) == [["b"], ["c"]]


class TestAttraction:
    def _mdp(self, targets, neg_reward):
        return Mdp(
            states=("s", "t", "u"),
            available={"s": ("a", "b"), "t": ("lt",), "u": ("lu",)},
            delta={
                "a": {"t": F(1)},
                "b": {"u": F(1)},
                "lt": {"t": F(1)},
                "lu": {"u": F(1)},
            },
            initial="s",
            rewards={
                "s": (F(0),),
                "t": (F(-1) if neg_reward else F(1),),
                "u": (F(2),),
            },
            targets=frozenset(targets),
        )

    def test_all_mecs_hit_targets(self):
        assert check_attraction(mec_quotient(self._mdp({"t", "u"}, False))) in ("A1", "both")

    def test_nonnegative_rewards(self):
        assert check_attraction(mec_quotient(self._mdp({"t"}, False))) in ("A2", "both")

    def test_neither(self):
        assert check_attraction(mec_quotient(self._mdp({"t"}, True))) == "neither"


class TestReachability:
    def test_reachable_states(self):
        mdp = random_mdp(6, 2, F(1, 3), (0, 5), 1, seed=3)
        reach = reachable_states(mdp, mdp.initial)
        assert mdp.initial in reach
        assert reach <= set(mdp.states)
