"""The witness check: ``induced_chain`` rejects strategies that cannot be
played, and the product chain, its laws and the SCC search match reference
copies of the straightforward versions (every distribution copied through
``normalized``, every factor multiplied, Tarjan on dictionaries)."""
import random
from fractions import Fraction as F
from typing import Dict, List, Set

import pytest

from cvarmdp import chain
from cvarmdp.gadgets import random_mdp
from cvarmdp.graphs import backward_reachable, chain_graph, strongly_connected_components
from cvarmdp.model import (
    Constraint,
    MarkovChain,
    Mdp,
    ModelError,
    Query,
    StrategySpec,
    induced_chain,
    memoryless,
    normalized,
)
from cvarmdp.solver import decide
from cvarmdp.synthesis import check_strategy

ZERO, ONE = F(0), F(1)


# ------------------------------------------------------------- references


def reference_scc(graph) -> List[Set]:
    """Tarjan's algorithm on a successor map, with dictionaries."""
    index, lowlink, on_stack, stack, components, counter = {}, {}, set(), [], [], 0
    for root in graph:
        if root in index:
            continue
        work = [(root, iter(graph.get(root, ())))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                components.append(comp)
    return components


def reference_induced_chain(mdp: Mdp, strategy: StrategySpec) -> MarkovChain:
    """The product chain with every distribution normalized and every
    probability multiplied."""
    initial = {(mdp.initial, m): pm for m, pm in normalized(strategy.initial_memory).items()}
    delta: Dict = {}
    frontier = list(initial)
    seen = set(frontier)
    while frontier:
        s, m = frontier.pop()
        if s in mdp.targets:
            delta[(s, m)] = {(s, m): ONE}
            continue
        row: Dict = {}
        for a, pa in normalized(strategy.next_move[(s, m)]).items():
            for s2, pt in normalized(mdp.delta[a]).items():
                for m2, pu in normalized(strategy.memory_update.get((a, s2, m), {m: ONE})).items():
                    key = (s2, m2)
                    row[key] = row.get(key, ZERO) + pa * pt * pu
                    if key not in seen:
                        seen.add(key)
                        frontier.append(key)
        delta[(s, m)] = row
    states = tuple(sorted(seen, key=repr))
    return MarkovChain(
        states=states,
        delta=delta,
        initial_distribution=initial,
        rewards={st: mdp.rewards[st[0]] for st in states},
        targets=frozenset(st for st in states if st[0] in mdp.targets),
    )


def reference_solve_linear(a, b):
    """Block-by-block solve that folds every solved unknown into the
    right-hand side with a full multiplication."""
    n = len(a)
    m = len(b[0]) if n else 0
    x: List[List[F]] = [[]] * n
    for comp in reference_scc({i: [j for j in row if j != i] for i, row in enumerate(a)}):
        rhs = {}
        for i in comp:
            r = list(b[i])
            for j, aij in a[i].items():
                if j not in comp:
                    r = [r[k] - aij * x[j][k] for k in range(m)]
            rhs[i] = r
        if len(comp) == 1:
            (i,) = comp
            d = a[i].get(i, ZERO)
            x[i] = rhs[i] if d == 1 else [v / d for v in rhs[i]]
        else:
            block = sorted(comp)
            local = {j: k for k, j in enumerate(block)}
            rows = [{local[j]: v for j, v in a[i].items() if j in local} for i in block]
            for i, row in zip(block, chain._solve_block(rows, [rhs[i] for i in block])):
                x[i] = row
    return x


def reference_absorbed(mc: MarkovChain, sinks) -> Dict:
    """Absorption probabilities with the (I - Q)^T rows filled by ``ZERO - p``."""
    can_reach = backward_reachable(chain_graph(mc), sinks)
    transient = [s for s in mc.states if s not in sinks and s in can_reach]
    index = {s: i for i, s in enumerate(transient)}
    a = [{i: ONE} for i in range(len(transient))]
    b = [[ZERO] for _ in transient]
    for i, s in enumerate(transient):
        for t, p in mc.delta[s].items():
            if p != 0 and t in index:
                row = a[index[t]]
                row[i] = row.get(i, ZERO) - p
    result = {t: ZERO for t in sinks}
    for s, mu in mc.initial_distribution.items():
        if s in index:
            b[index[s]][0] += mu
        elif s in result:
            result[s] += mu
    visits = reference_solve_linear(a, b) if transient else []
    for s in transient:
        v = visits[index[s]][0]
        if v != 0:
            for t, p in mc.delta[s].items():
                if t in result:
                    result[t] += v * p
    return result


def reference_bsccs(mc: MarkovChain) -> List[Set]:
    graph = chain_graph(mc)
    return [comp for comp in reference_scc(graph) if all(t in comp for s in comp for t in graph[s])]


def reference_laws(mc: MarkovChain, monkeypatch):
    """Both payoff laws of ``mc`` computed with the reference kernels."""
    with monkeypatch.context() as mp:
        mp.setattr(chain, "_absorbed", reference_absorbed)
        mp.setattr(chain, "solve_linear", reference_solve_linear)
        mp.setattr(chain, "bsccs", reference_bsccs)
        return chain.payoff_law_reach(mc), chain.payoff_law_mean(mc)


# ----------------------------------------------------------------- inputs


def _dist(rng: random.Random, keys, zeros: bool = True) -> Dict:
    """A random distribution over ``keys``, some of them with an explicit 0."""
    weights = [rng.randint(0, 4) if zeros and len(keys) > 1 else rng.randint(1, 4) for _ in keys]
    if not any(weights):
        weights[rng.randrange(len(keys))] = 1
    total = sum(weights)
    return {k: F(w, total) for k, w in zip(keys, weights)}


def _with_zero_entries(mdp: Mdp, rng: random.Random) -> Mdp:
    """``mdp`` with explicit zero-probability entries added to some rows."""
    delta = {}
    for a, row in mdp.delta.items():
        row = dict(row)
        if rng.random() < 0.4:
            row.setdefault(rng.choice(mdp.states), ZERO)
        delta[a] = row
    return Mdp(mdp.states, mdp.available, delta, mdp.initial, mdp.rewards, mdp.targets)


def _strategy(mdp: Mdp, rng: random.Random) -> StrategySpec:
    """A random finite-memory strategy with stochastic memory updates; some
    moves put an explicit 0 on an action of another state."""
    memory = tuple(f"m{k}" for k in range(rng.randint(1, 3)))
    actions = list(mdp.delta)
    next_move = {}
    for s in mdp.states:
        if s in mdp.targets:
            continue
        for m in memory:
            move = _dist(rng, list(mdp.available[s]))
            if rng.random() < 0.2:
                move.setdefault(rng.choice(actions), ZERO)
            next_move[(s, m)] = move
    updates = {}
    for s in mdp.states:
        for a in mdp.available.get(s, ()):
            for s2 in mdp.delta[a]:
                for m in memory:
                    if rng.random() < 0.5:
                        updates[(a, s2, m)] = _dist(rng, list(rng.sample(memory, rng.randint(1, len(memory)))))
    return StrategySpec(memory, _dist(rng, list(memory)), next_move, updates)


def _draws(count: int = 200):
    for seed in range(count):
        rng = random.Random(f"witness-check:{seed}")
        n = rng.randint(1, 7)
        mdp = random_mdp(
            n, rng.randint(1, 3), F(1, rng.randint(1, n)), (-2, 4), rng.randint(1, 2), seed=seed,
            targets=rng.randint(0, n - 1) if n > 1 else rng.randint(0, 1),
        )
        mdp = _with_zero_entries(mdp, rng)
        yield seed, mdp, _strategy(mdp, rng)


def _gate_ring(n: int, gate: int) -> Mdp:
    """An (n-2)-state ring ``c0 -> c1 -> ... -> c0`` whose exits all leave
    from ``c<gate>`` to the targets ``hi`` (worth 10) and ``lo`` (worth 0)."""
    ring = [f"c{i}" for i in range(n - 2)]
    available = {s: (f"fwd{i}",) for i, s in enumerate(ring)}
    delta = {f"fwd{i}": {ring[(i + 1) % len(ring)]: ONE} for i in range(len(ring))}
    for e, ph in enumerate((F(7, 10), F(9, 10), F(3, 5))):
        available[ring[gate]] += (f"exit{e}",)
        delta[f"exit{e}"] = {"hi": ph, "lo": 1 - ph}
    rewards = {s: (ZERO,) for s in ring}
    for t, r in (("hi", F(10)), ("lo", ZERO)):
        available[t] = (f"stay_{t}",)
        delta[f"stay_{t}"] = {t: ONE}
        rewards[t] = (r,)
    return Mdp(tuple(ring) + ("hi", "lo"), available, delta, "c0", rewards, frozenset({"hi", "lo"}))


def _long_chains():
    """Product chains longer than any of ``_draws``: the witness ``decide``
    returns on a 200-state gate ring (a path of about 150 transient pairs),
    and a strategy that leaves the same ring's gate with probability 1/2, so
    all 198 ring states form one stochastic cycle."""
    mdp = _gate_ring(200, 150)
    verdict = decide(mdp, Query("reach", (Constraint(0, expectation=F(5), cvar=(F(1, 20), ZERO)),)))
    assert verdict.status == "SAT"
    yield "gate-ring-witness", mdp, verdict.witness
    moves = {s: {acts[0]: ONE} for s, acts in mdp.available.items()}
    moves["c150"] = {"fwd150": F(1, 2), "exit0": F(1, 3), "exit1": F(1, 6)}
    yield "gate-ring-cycle", mdp, memoryless(moves)


# ------------------------------------------------------------------ tests


def test_induced_chain_matches_the_reference():
    sizes = []
    for seed, mdp, strat in _draws():
        got, ref = induced_chain(mdp, strat), reference_induced_chain(mdp, strat)
        assert got.states == ref.states, seed
        assert got.delta == ref.delta, seed
        assert list(got.delta) == list(ref.delta), seed
        assert got.initial_distribution == ref.initial_distribution, seed
        assert got.targets == ref.targets, seed
        sizes.append(max(map(len, strongly_connected_components(chain_graph(got)))))
    assert max(sizes) > 2  # some product chains have multi-state SCCs


def test_laws_match_the_reference(monkeypatch):
    multi = longest = cycle = 0
    for seed, mdp, strat in [*_draws(), *_long_chains()]:
        mc = induced_chain(mdp, strat)
        longest = max(longest, len(mc.states))
        cycle = max(cycle, *map(len, strongly_connected_components(chain_graph(mc))))
        ref_reach, ref_mean = reference_laws(reference_induced_chain(mdp, strat), monkeypatch)
        assert [d.atoms for d in chain.payoff_law_reach(mc).marginals] == [d.atoms for d in ref_reach.marginals], seed
        assert [d.atoms for d in chain.payoff_law_mean(mc).marginals] == [d.atoms for d in ref_mean.marginals], seed
        multi += len(ref_mean[0].atoms) > 1
    assert multi > 0
    assert longest > 150 and cycle == 198


def test_solve_linear_matches_the_reference():
    # diagonally dominant rows, so every block is regular; many -1 entries
    for seed in range(200):
        rng = random.Random(f"solve-linear:{seed}")
        n, width = rng.randint(1, 8), rng.randint(1, 2)
        a = []
        for i in range(n):
            row = {i: F(4 * n)}
            for j in rng.sample(range(n), rng.randint(0, n - 1)):
                row.setdefault(j, rng.choice([-ONE, -ONE, ONE, F(rng.randint(1, 3), rng.randint(1, 3))]))
            a.append(row)
        b = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(width)] for _ in range(n)]
        assert chain.solve_linear(a, b) == reference_solve_linear(a, b), seed
    # the (I - Q)^T systems of ``chain._absorbed``: unit diagonal, -1 or -p
    # off it, one nonzero right-hand-side row
    cyclic = 0
    for seed in range(200):
        a, b = _absorption_system(random.Random(f"absorbed-system:{seed}"), acyclic=seed % 2 == 0)
        assert chain.solve_linear(a, b) == reference_solve_linear(a, b), seed
        cyclic += any(len(c) > 1 for c in reference_scc({i: list(row) for i, row in enumerate(a)}))
    assert cyclic > 50


def _absorption_system(rng: random.Random, acyclic: bool):
    """``(I - Q)^T x = B`` for a random substochastic ``Q`` on 1 to 10
    transient states.  State ``s`` always moves to ``s + 1`` and the last
    state always leaks mass, so every state reaches a leak and the system is
    regular; an acyclic ``Q`` only moves to higher states.  A state with one
    successor and no leak moves there with probability 1, so many entries
    are -1.  ``B`` has 1 to 3 columns and one nonzero row."""
    n, width = rng.randint(1, 10), rng.randint(1, 3)
    a = [{i: ONE} for i in range(n)]
    for s in range(n):
        others = range(s + 2, n) if acyclic else [t for t in range(n) if t not in (s, s + 1)]
        succ = ([s + 1] if s + 1 < n else []) + rng.sample(others, min(len(others), rng.randint(0, 2)))
        weights = [rng.randint(1, 4) for _ in succ]
        leak = rng.randint(1, 4) if s == n - 1 or rng.random() < 0.2 else 0
        for t, w in zip(succ, weights):
            a[t][s] = -F(w, sum(weights) + leak)
    b = [[ZERO] * width for _ in range(n)]
    b[rng.randrange(n)] = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(width)]
    return a, b


def test_scc_matches_the_reference():
    for seed in range(200):
        rng = random.Random(f"scc:{seed}")
        n = rng.randint(1, 12)
        nodes = [f"v{i}" if seed % 2 else i for i in range(n + rng.randint(0, 3))]
        keys = rng.sample(nodes[:n], n)  # the rest appear only as successors
        graph = {v: [rng.choice(nodes) for _ in range(rng.randint(0, 3))] for v in keys}
        got = strongly_connected_components(graph)
        assert got == reference_scc(graph), seed
        assert [type(c) for c in got] == [set] * len(got)
    for _, mdp, strat in _draws(60):
        graph = chain_graph(induced_chain(mdp, strat))
        assert strongly_connected_components(graph) == reference_scc(graph)


# ------------------------------------------------------ unplayable moves


def _lose_or_win() -> Mdp:
    """``s0`` has only ``lose`` (to ``lo``, reward 0); ``win`` belongs to ``s1``."""
    states = ("s0", "s1", "lo", "hi")
    return Mdp(
        states=states,
        available={"s0": ("lose",), "s1": ("win",), "lo": ("stay_lo",), "hi": ("stay_hi",)},
        delta={
            "lose": {"lo": ONE},
            "win": {"hi": ONE},
            "stay_lo": {"lo": ONE},
            "stay_hi": {"hi": ONE},
        },
        initial="s0",
        rewards={"s0": (ZERO,), "s1": (ZERO,), "lo": (ZERO,), "hi": (F(10),)},
        targets=frozenset({"lo", "hi"}),
    )


E5 = Query("reach", (Constraint(0, expectation=F(5)),))


def test_check_rejects_an_action_of_another_state():
    with pytest.raises(ModelError, match="unavailable action 'win'"):
        check_strategy(_lose_or_win(), memoryless({"s0": {"win": ONE}}), E5)


def test_check_accepts_zero_mass_on_an_action_of_another_state():
    ok, law, _ = check_strategy(_lose_or_win(), memoryless({"s0": {"lose": ONE, "win": ZERO}}), E5)
    assert not ok and law[0].atoms == {ZERO: ONE}


@pytest.mark.parametrize("move", [{"lose": F(1, 2)}, {"lose": F(1, 2), "win": ZERO}, {}])
def test_check_rejects_a_move_that_does_not_sum_to_one(move):
    with pytest.raises(ModelError, match="does not sum to 1"):
        check_strategy(_lose_or_win(), memoryless({"s0": move}), E5)


def test_check_rejects_a_negative_move_entry():
    # s0 chooses between lo and hi; the move sums to 1
    mdp = Mdp(
        states=("s0", "lo", "hi"),
        available={"s0": ("lose", "win"), "lo": ("stay_lo",), "hi": ("stay_hi",)},
        delta={"lose": {"lo": ONE}, "win": {"hi": ONE}, "stay_lo": {"lo": ONE}, "stay_hi": {"hi": ONE}},
        initial="s0",
        rewards={"s0": (ZERO,), "lo": (ZERO,), "hi": (F(10),)},
        targets=frozenset({"lo", "hi"}),
    )
    with pytest.raises(ModelError, match=r"next_move\('s0','m'\): negative probability -1/2 at 'lose'"):
        check_strategy(mdp, memoryless({"s0": {"win": F(3, 2), "lose": F(-1, 2)}}), E5)


def test_check_rejects_a_negative_memory_update_entry():
    strat = StrategySpec(
        memory=("a", "b"),
        initial_memory={"a": ONE},
        next_move={("s0", "a"): {"lose": ONE}},
        memory_update={("lose", "lo", "a"): {"a": F(3, 2), "b": F(-1, 2)}},
    )
    with pytest.raises(ModelError, match=r"memory_update\('lose', 'lo', 'a'\): negative probability -1/2 at 'b'"):
        check_strategy(_lose_or_win(), strat, E5)


@pytest.mark.parametrize("update", [{"a": F(1, 2)}, {"a": F(1, 2), "b": F(1, 3)}])
def test_check_rejects_a_memory_update_that_does_not_sum_to_one(update):
    strat = StrategySpec(
        memory=("a", "b"),
        initial_memory={"a": ONE},
        next_move={("s0", "a"): {"lose": ONE}},
        memory_update={("lose", "lo", "a"): update},
    )
    with pytest.raises(ModelError, match=r"memory_update\('lose', 'lo', 'a'\) does not sum to 1"):
        check_strategy(_lose_or_win(), strat, E5)


def _always_minus_five() -> Mdp:
    """Every run goes from ``s0`` to the target ``lo``, worth -5."""
    return Mdp(
        states=("s0", "lo"),
        available={"s0": ("go",), "lo": ("stay",)},
        delta={"go": {"lo": ONE}, "stay": {"lo": ONE}},
        initial="s0",
        rewards={"s0": (ZERO,), "lo": (F(-5),)},
        targets=frozenset({"lo"}),
    )


E_MINUS3 = Query("reach", (Constraint(0, expectation=F(-3)),))


def _two_memories(initial_memory) -> StrategySpec:
    return StrategySpec(
        memory=("m", "n"),
        initial_memory=initial_memory,
        next_move={("s0", "m"): {"go": ONE}, ("s0", "n"): {"go": ONE}},
    )


@pytest.mark.parametrize("initial", [{"m": F(1, 2)}, {}])
def test_check_rejects_an_initial_memory_that_does_not_sum_to_one(initial):
    # the missing mass would count as payoff 0 and meet E >= -3
    with pytest.raises(ModelError, match="initial_memory does not sum to 1"):
        check_strategy(_always_minus_five(), _two_memories(initial), E_MINUS3)


def test_check_rejects_a_negative_initial_memory_entry():
    strat = _two_memories({"m": F(3, 2), "n": F(-1, 2)})
    with pytest.raises(ModelError, match="initial_memory: negative probability -1/2 at 'n'"):
        check_strategy(_always_minus_five(), strat, E_MINUS3)
