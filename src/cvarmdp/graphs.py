"""SCC/BSCC detection, MEC decomposition and MEC quotient; end components
are classified (``check_attraction``) and trapped (``cleanup``) on the
quotient, so one decomposition serves a reachability decision.

There is one Tarjan kernel, ``scc_indices``, on graphs whose nodes are the
indices ``0..n-1``; ``strongly_connected_components`` maps any successor map
onto it.  ``mec_decomposition`` reads the model's actions once, and what it
keeps serves the rest: ``mec_quotient`` takes its exits, and witness
synthesis its owners and integer successor lists."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Set, Tuple

from .model import MarkovChain, Mdp, State

ZERO = Fraction(0)
ONE = Fraction(1)


def scc_indices(succ: List[List[int]]) -> List[List[int]]:
    """Tarjan's algorithm (Tarjan, "Depth-first search and linear graph
    algorithms", SIAM J. Computing 1972), iterative, on the graph whose node
    ``i`` has the successors ``succ[i]``, every one in ``0..len(succ)-1``.

    Roots are taken in index order and successors in list order.  Components
    come out in reverse topological order of the condensation.
    """
    n = len(succ)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < lowlink[node]:
                    lowlink[node] = index[w]
            else:
                work.pop()
                low = lowlink[node]
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
                if low == index[node]:
                    k = len(stack) - 1
                    while stack[k] != node:
                        k -= 1
                    comp = stack[k:]
                    del stack[k:]
                    for w in comp:
                        on_stack[w] = False
                    components.append(comp)
    return components


def strongly_connected_components(graph: Mapping[Hashable, Iterable[Hashable]]) -> List[Set[Hashable]]:
    """The SCCs of a successor map, in ``scc_indices`` order.

    Nodes are numbered in key order, then nodes that appear only as
    successors in the order they are first met; such a node has no
    successors.
    """
    ids: Dict[Hashable, int] = {v: i for i, v in enumerate(graph)}
    succ = [[ids.setdefault(w, len(ids)) for w in graph[v]] for v in graph]
    succ.extend([] for _ in range(len(ids) - len(succ)))
    nodes = list(ids)
    return [{nodes[i] for i in comp} for comp in scc_indices(succ)]


def chain_graph(mc: MarkovChain) -> Dict[State, List[State]]:
    return {s: [t for t, p in mc.delta[s].items() if p != 0] for s in mc.states}


def bsccs(mc: MarkovChain) -> List[Set[State]]:
    """SCCs with no outgoing edge."""
    graph = chain_graph(mc)
    out = []
    for comp in strongly_connected_components(graph):
        if all(t in comp for s in comp for t in graph[s]):
            out.append(comp)
    return out


Mec = Tuple[Tuple[State, ...], FrozenSet]  # (members, actions)


@dataclass
class MecDecomposition:
    """``mecs[i]`` is ``(members, actions)``, whose ``members`` tuple is
    sorted by ``repr``: the one member order, which every procedure iterates
    as given.  The MECs come in the order of their member ``repr`` lists, and
    ``state_to_mec`` maps each member to the index of its MEC.

    It also keeps what its one read of the model found about each MEC ``i``:
    - ``exits[i]`` lists its leaving actions ``a`` as pairs ``(p, a)``, ``p``
      the position of ``a``'s state in ``members``, in member order and then
      ``available`` order; ``mec_quotient`` keeps these actions, and
      ``realize_quotient_flow`` reads their owners here;
    - ``moves[i][p]`` lists member ``p``'s actions inside the MEC, in
      ``available`` order, each with the indices in ``mdp.states`` of its
      positive-probability successors, and ``indices[i][p]`` is member
      ``p``'s own index.  ``synthesis._routing`` searches on these lists."""

    mecs: List[Mec]
    state_to_mec: Dict[State, int]
    exits: List[List[Tuple[int, str]]]
    moves: List[List[List[Tuple[str, List[int]]]]]
    indices: List[List[int]]


def mec_decomposition(mdp: Mdp) -> MecDecomposition:
    """Maximal end components via iterated SCC refinement.

    Repeatedly remove actions that may leave their current component (or hit
    a state that has no live action left) until stable; the surviving
    components with at least one live action are the MECs.  A scan whose
    removals took out only edges between components, and left every state
    that had a live action with one, is the last: removing edges between
    components splits none, so the next scan would remove nothing.  Each
    action's distribution is read once, into the indices of its
    positive-probability successors; every round works on those lists, and
    the removed actions of a member are the ones that leave its MEC.
    """
    states, available, delta = mdp.states, mdp.available, mdp.delta
    index = {s: i for i, s in enumerate(states)}
    every, graph = [], []  # per state: its (action, successors) pairs; all its successors
    for s in states:
        acts = []
        for a in available.get(s, ()):
            succ = []
            for t, p in delta[a].items():
                if p:
                    succ.append(index[t])
            acts.append((a, succ))
        every.append(acts)
        # a state with one action shares that action's successor list
        graph.append(acts[0][1] if len(acts) == 1 else [t for _, succ in acts for t in succ])
    live = every[:]  # a state's list is replaced, never changed in place
    while True:
        comps = scc_indices(graph)
        comp_of = [0] * len(states)
        for c, comp in enumerate(comps):
            for i in comp:
                comp_of[i] = c
        may_split = False
        for i, acts in enumerate(live):
            c = comp_of[i]
            kept = []
            for act in acts:
                for t in act[1]:
                    if comp_of[t] != c or not live[t]:
                        may_split = may_split or any(comp_of[u] == c for u in act[1])
                        break
                else:
                    kept.append(act)
            if len(kept) < len(acts):
                live[i] = kept
                graph[i] = [t for _, succ in kept for t in succ]
                may_split = may_split or not kept
        if not may_split:
            break
    found = []
    for comp in comps:
        names = {i: repr(states[i]) for i in comp if live[i]}
        if not names:
            continue
        order = sorted(names, key=names.__getitem__)
        exits = [(p, act[0]) for p, i in enumerate(order) for act in every[i] if act not in live[i]]
        mec = (tuple(states[i] for i in order), frozenset(a for i in comp for a, _ in live[i]))
        found.append(([names[i] for i in order], mec, exits, [live[i] for i in order], order))
    found.sort(key=lambda mec: mec[0])
    mecs = [mec for _, mec, *_ in found]
    state_to_mec = {s: k for k, (members, _) in enumerate(mecs) for s in members}
    return MecDecomposition(mecs, state_to_mec, *([mec[j] for mec in found] for j in (2, 3, 4)))


def reachable_states(mdp: Mdp, start: State) -> Set[State]:
    seen = {start}
    frontier = [start]
    while frontier:
        s = frontier.pop()
        for t in mdp.successors(s):
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def backward_reachable(graph: Mapping[Hashable, Iterable[Hashable]], goal: Iterable[Hashable]) -> Set[Hashable]:
    """All nodes of a successor map with a path into ``goal`` (goal included)."""
    preds: Dict[Hashable, List[Hashable]] = {}
    for s, succs in graph.items():
        for t in succs:
            preds.setdefault(t, []).append(s)
    seen = set(goal)
    frontier = list(seen)
    while frontier:
        for q in preds.get(frontier.pop(), ()):
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


@dataclass
class QuotientMap:
    """``representatives[i]`` stands for MEC ``i`` of ``decomposition`` in
    ``quotient``."""

    quotient: Mdp
    representatives: List[State]
    decomposition: MecDecomposition


def mec_quotient(mdp: Mdp) -> QuotientMap:
    """Collapse each MEC to its first member, the least by ``repr``.

    Internal actions disappear; the actions that leave a MEC are kept, in
    the order of the decomposition's ``exits``, and re-targeted through the
    lift map (the first mass into a lifted state is taken as it is, not
    added to 0).  Representatives of target MECs keep one absorbing
    self-loop.  The quotient has only singleton MECs.
    """
    decomp = mec_decomposition(mdp)
    reps = [members[0] for members, _ in decomp.mecs]
    lift = dict(zip(mdp.states, mdp.states))
    lift.update((s, reps[i]) for s, i in decomp.state_to_mec.items())

    kept_states = tuple(s for s in mdp.states if lift[s] == s)
    available: Dict[State, Tuple[str, ...]] = {}
    delta: Dict[str, Dict[State, Fraction]] = {}
    for s in kept_states:
        idx = decomp.state_to_mec.get(s)
        if idx is None:
            acts = list(mdp.available.get(s, ()))
        else:
            acts = [a for _, a in decomp.exits[idx]]
            if s in mdp.targets and not acts:
                acts = [f"__stay[{s!r}]"]
                delta[acts[0]] = {s: ONE}
        available[s] = tuple(acts)
        for a in acts:
            if a in mdp.delta:
                row: Dict[State, Fraction] = {}
                for t, p in mdp.delta[a].items():
                    if p != 0:
                        lt = lift[t]
                        row[lt] = row[lt] + p if lt in row else p
                delta[a] = row
    quotient = Mdp(
        states=kept_states,
        available=available,
        delta=delta,
        initial=lift[mdp.initial],
        rewards={s: mdp.rewards[s] for s in kept_states},
        targets=frozenset(lift[t] for t in mdp.targets),
    )
    return QuotientMap(quotient=quotient, representatives=reps, decomposition=decomp)


def cleanup(qm: QuotientMap) -> QuotientMap:
    """Turn every representative of ``qm``'s quotient that cannot reach a
    target into a zero-reward absorbing target.  Afterwards targets are
    reachable from every quotient state.

    The result shares ``qm``'s representatives and decomposition; it
    is ``qm`` itself when nothing is trapped.  Only representatives need
    trapping: the states that reach no target are closed under successors,
    so they hold an end component, and every end component lies inside a
    MEC.  The quotient keeps exactly the actions that may leave a MEC, so a
    MEC reaches the targets iff its representative does in the quotient.
    """
    q = qm.quotient
    graph = {s: q.successors(s) for s in q.states}
    can_reach = backward_reachable(graph, q.targets)
    trapped = [s for s in qm.representatives if s not in can_reach]
    if not trapped:
        return qm
    available, delta, rewards = dict(q.available), dict(q.delta), dict(q.rewards)
    zero = tuple(ZERO for _ in range(q.dim))
    for s in trapped:
        for a in q.available[s]:
            del delta[a]
        loop = f"__stay[{s!r}]"
        available[s] = (loop,)
        delta[loop] = {s: ONE}
        rewards[s] = zero
    quotient = replace(q, available=available, delta=delta, rewards=rewards, targets=q.targets | frozenset(trapped))
    return replace(qm, quotient=quotient)


def check_attraction(qm: QuotientMap) -> str:
    """Classify a reachability instance by its MEC quotient ``qm``: 'A1',
    'A2', 'both', or 'neither'.

    A1: targets are reached almost surely under every strategy; with
    absorbing targets this holds iff every MEC contains a target, that is,
    iff every representative is a quotient target.
    A2: every target reward is non-negative (in every dimension).
    """
    q = qm.quotient
    a1 = q.targets.issuperset(qm.representatives)
    a2 = all(r >= 0 for t in q.targets for r in q.rewards[t])
    if a1 and a2:
        return "both"
    if a1:
        return "A1"
    if a2:
        return "A2"
    return "neither"
