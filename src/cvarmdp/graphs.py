"""SCC/BSCC detection, MEC decomposition, MEC quotient, and model cleanup."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from .model import MarkovChain, Mdp, State

ZERO = Fraction(0)
ONE = Fraction(1)


def strongly_connected_components(graph: Mapping[Hashable, Iterable[Hashable]]) -> List[Set[Hashable]]:
    """Tarjan's algorithm, iterative (explicit stack).

    Components come out in reverse topological order of the condensation.
    """
    index: Dict[Hashable, int] = {}
    lowlink: Dict[Hashable, int] = {}
    on_stack: Set[Hashable] = set()
    stack: List[Hashable] = []
    components: List[Set[Hashable]] = []
    counter = 0

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
                comp: Set[Hashable] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                components.append(comp)
    return components


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


Mec = Tuple[FrozenSet, FrozenSet]  # (states, actions)


@dataclass
class MecDecomposition:
    mecs: List[Mec]
    state_to_mec: Dict[State, int]

    def mec_of(self, state: State):
        return self.state_to_mec.get(state)


def mec_decomposition(mdp: Mdp) -> MecDecomposition:
    """Maximal end components via iterated SCC refinement.

    Repeatedly remove actions that may leave their current component (or hit
    a state that has no live action left) until stable; the surviving
    components with at least one live action are the MECs.  A scan whose
    removals took out only edges between components, and left every state
    that had a live action with one, is the last: removing edges between
    components splits none, so the next scan would remove nothing.
    """
    live: Dict[State, Set[str]] = {s: set(mdp.available.get(s, ())) for s in mdp.states}
    while True:
        graph = {
            s: {t for a in live[s] for t, p in mdp.delta[a].items() if p != 0}
            for s in mdp.states
        }
        comp_of: Dict[State, int] = {}
        comps = strongly_connected_components(graph)
        for i, comp in enumerate(comps):
            for s in comp:
                comp_of[s] = i
        may_split = False
        for s in mdp.states:
            for a in list(live[s]):
                succ = [t for t, p in mdp.delta[a].items() if p != 0]
                if any(comp_of[t] != comp_of[s] or not live[t] for t in succ):
                    live[s].discard(a)
                    if not live[s] or any(comp_of[t] == comp_of[s] for t in succ):
                        may_split = True
        if not may_split:
            break
    mecs: List[Mec] = []
    for comp in comps:
        states = frozenset(s for s in comp if live[s])
        if not states:
            continue
        actions = frozenset(a for s in states for a in live[s])
        mecs.append((states, actions))
    mecs_sorted = sorted(mecs, key=lambda m: sorted(map(repr, m[0])))
    state_to_mec = {s: i for i, (states, _) in enumerate(mecs_sorted) for s in states}
    return MecDecomposition(mecs=mecs_sorted, state_to_mec=state_to_mec)


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


def states_reaching(mdp: Mdp, goal: Set[State]) -> Set[State]:
    """All states with a path into ``goal`` (goal included)."""
    graph = {
        s: [t for a in mdp.available.get(s, ()) for t, p in mdp.delta[a].items() if p != 0]
        for s in mdp.states
    }
    return backward_reachable(graph, goal)


def cleanup(mdp: Mdp, decomp: Optional[MecDecomposition] = None) -> Mdp:
    """Convert every MEC that cannot reach the targets into a zero-reward
    absorbing target.  Afterwards targets are reachable from every state.

    ``decomp`` is ``mdp``'s MEC decomposition when the caller has it;
    ``None`` computes it.  The result is ``mdp`` itself when no MEC changes.
    """
    can_reach = states_reaching(mdp, set(mdp.targets))
    decomp = decomp or mec_decomposition(mdp)
    doomed: Set[State] = set()
    for states, _ in decomp.mecs:
        if states & set(mdp.targets):
            continue
        if not states & can_reach:
            doomed.update(states)
    if not doomed:
        return mdp
    d = mdp.dim
    zero = tuple(ZERO for _ in range(d))
    available = dict(mdp.available)
    delta = dict(mdp.delta)
    rewards = dict(mdp.rewards)
    for s in doomed:
        for a in mdp.available.get(s, ()):
            delta.pop(a, None)
        loop = f"__stay[{s!r}]"
        available[s] = (loop,)
        delta[loop] = {s: ONE}
        rewards[s] = zero
    return Mdp(
        states=mdp.states,
        available=available,
        delta=delta,
        initial=mdp.initial,
        rewards=rewards,
        targets=mdp.targets | frozenset(doomed),
    )


@dataclass
class QuotientMap:
    quotient: Mdp
    lift: Dict[State, State]
    representatives: List[State]
    decomposition: MecDecomposition


def mec_quotient(mdp: Mdp) -> QuotientMap:
    """Collapse each MEC to its lexicographically least member state.

    Internal actions disappear; actions with mass outside the MEC are kept
    and re-targeted through the lift map.  Representatives of target MECs
    keep one absorbing self-loop.  The quotient has only singleton MECs.
    """
    decomp = mec_decomposition(mdp)
    lift: Dict[State, State] = {}
    reps: List[State] = []
    for states, _ in decomp.mecs:
        rep = min(states, key=repr)
        reps.append(rep)
        for s in states:
            lift[s] = rep
    for s in mdp.states:
        lift.setdefault(s, s)

    kept_states = tuple(s for s in mdp.states if lift[s] == s)
    available: Dict[State, Tuple[str, ...]] = {}
    delta: Dict[str, Dict[State, Fraction]] = {}
    for s in kept_states:
        idx = decomp.mec_of(s)
        if idx is None:
            acts = list(mdp.available.get(s, ()))
        else:
            mec_states, mec_actions = decomp.mecs[idx]
            acts = [
                a
                for t in sorted(mec_states, key=repr)
                for a in mdp.available.get(t, ())
                if a not in mec_actions
            ]
            if s in mdp.targets and not acts:
                acts = [f"__stay[{s!r}]"]
                delta[acts[0]] = {s: ONE}
        available[s] = tuple(acts)
        for a in acts:
            if a in mdp.delta:
                row: Dict[State, Fraction] = {}
                for t, p in mdp.delta[a].items():
                    if p != 0:
                        row[lift[t]] = row.get(lift[t], ZERO) + p
                delta[a] = row
    rewards = {s: mdp.rewards[s] for s in kept_states}
    quotient = Mdp(
        states=kept_states,
        available=available,
        delta=delta,
        initial=lift[mdp.initial],
        rewards=rewards,
        targets=frozenset(lift[t] for t in mdp.targets),
    )
    return QuotientMap(quotient=quotient, lift=lift, representatives=reps, decomposition=decomp)


def check_attraction(mdp: Mdp, decomp: Optional[MecDecomposition] = None) -> str:
    """Classify a reachability instance: 'A1', 'A2', 'both', or 'neither'.

    A1: targets are reached almost surely under every strategy; with
    absorbing targets this holds iff every MEC contains a target.
    A2: every target reward is non-negative (in every dimension).
    ``decomp`` is ``mdp``'s MEC decomposition, computed when ``None``.
    """
    decomp = decomp or mec_decomposition(mdp)
    a1 = all(states & set(mdp.targets) for states, _ in decomp.mecs)
    a2 = all(r >= 0 for t in mdp.targets for r in mdp.rewards[t])
    if a1 and a2:
        return "both"
    if a1:
        return "A1"
    if a2:
        return "A2"
    return "neither"
