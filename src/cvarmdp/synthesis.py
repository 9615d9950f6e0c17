"""Witness strategy construction from LP flows, and exact strategy evaluation."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from . import lp as lpmod
from .chain import PayoffLaw, check_constraints, payoff_law_mean, payoff_law_reach
from .graphs import QuotientMap
from .model import (
    Mdp,
    ModelError,
    Query,
    State,
    StrategySpec,
    UnsupportedQueryError,
    induced_chain,
    normalized,
)

ZERO = Fraction(0)
ONE = Fraction(1)

SEARCH = "search"
REMAIN = "remain"

# MECs up to this many states get a memoryless witness: one exact
# transshipment LP completes the flow inside the MEC, so the witness needs no
# pending-exit memory there.  The LP is dense, so larger MECs take the
# pending-exit construction, which costs one routing search per exit.
MEC_LP_LIMIT = 64


def _least_action(mdp: Mdp, s: State) -> str:
    return sorted(mdp.available[s])[0]


def _proportional(masses: Mapping[str, Fraction]) -> Optional[Dict[str, Fraction]]:
    masses = {a: m for a, m in masses.items() if m != 0}
    total = sum(masses.values(), ZERO)
    if total == 0:
        return None
    return {a: m / total for a, m in masses.items()}


def _flow_move(mdp: Mdp, y: Mapping[str, Fraction], s: State) -> Dict[str, Fraction]:
    dist = _proportional({a: y.get(a, ZERO) for a in mdp.available[s]})
    return dist if dist is not None else {_least_action(mdp, s): ONE}


def _routing(mdp: Mdp, members: Sequence[State], actions: frozenset, goal: Set[State]) -> Dict[State, str]:
    """For each member outside ``goal`` (a set of members), an action moving
    strictly closer to the goal set (distances via backward BFS over the
    component's actions).  Ties go to the first route in member order, the
    ``repr`` order of ``MecDecomposition``, so the result does not depend on
    set iteration order."""
    preds: Dict[State, List[Tuple[State, str]]] = {s: [] for s in members}
    for s in members:
        for a in mdp.available[s]:
            if a in actions:
                for t, p in mdp.delta[a].items():
                    if p != 0:
                        preds[t].append((s, a))
    frontier = [s for s in members if s in goal]
    dist = dict.fromkeys(frontier, 0)
    route: Dict[State, str] = {}
    while frontier:
        nxt: List[State] = []
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


def mec_constant_strategy(mdp: Mdp, mec, frequencies: Mapping[str, Fraction]) -> Dict[State, Dict]:
    """The moves, per state, of a memoryless strategy inside a MEC realizing
    the given recurrent action frequencies: positive-frequency states
    randomize proportionally, the rest route deterministically toward the
    support."""
    members, actions = mec
    choices: Dict[State, Dict[str, Fraction]] = {}
    support: Set[State] = set()
    for s in members:
        masses = {a: frequencies.get(a, ZERO) for a in mdp.available[s] if a in actions}
        dist = _proportional(masses)
        if dist is not None:
            choices[s] = dist
            support.add(s)
    if not support:
        raise ModelError("MEC frequencies are identically zero")
    route = _routing(mdp, members, actions, support)
    for s in members:
        if s not in support:
            choices[s] = {route[s]: ONE}
    return choices


def evaluate(mdp: Mdp, strategy: StrategySpec, objective: str) -> PayoffLaw:
    """Exact per-dimension payoff law of a finite-memory strategy."""
    mc = induced_chain(mdp, strategy)
    if objective == "reach":
        return payoff_law_reach(mc)
    if objective == "mean":
        return payoff_law_mean(mc)
    raise UnsupportedQueryError(f"unknown objective {objective!r}")


def check_strategy(mdp: Mdp, strategy: StrategySpec, query: Query):
    """Evaluate and check every constraint; returns (ok, law, details)."""
    law = evaluate(mdp, strategy, query.objective)
    ok, details = check_constraints(law, query)
    return ok, law, details


def flow_rows(
    mdp: Mdp,
    states: Sequence[State],
    actions: Sequence[str],
    name: Callable[[str], str],
) -> List[Dict[str, Fraction]]:
    """Flow-balance coefficients, outflow minus inflow, one row per state.

    Row ``s`` maps ``name(a)`` to ``[a available at s] - delta(a)(s)`` for
    each given action ``a``; zero entries are dropped.  Rows follow the order
    of ``states``.
    """
    rows: Dict[State, Dict[str, Fraction]] = {s: {} for s in states}
    acts = set(actions)
    for s, row in rows.items():
        for a in mdp.available[s]:
            if a in acts:
                row[name(a)] = ONE
    for a in actions:
        v = name(a)
        for t, p in mdp.delta[a].items():
            row = rows.get(t)
            if row is not None:
                row[v] = row[v] - p if v in row else -p
    return [{v: c for v, c in row.items() if c != 0} for row in rows.values()]


def _inflow(mdp: Mdp, y: Mapping[str, Fraction]) -> Dict[State, Fraction]:
    """Initial mass plus the mass the transient flow ``y`` moves into each state."""
    inflow: Dict[State, Fraction] = {s: ZERO for s in mdp.states}
    inflow[mdp.initial] += ONE
    for a, mass in y.items():
        if mass != 0:
            for t, p in mdp.delta[a].items():
                inflow[t] += mass * p
    return inflow


def _search_remain(
    mdp: Mdp,
    y: Mapping[str, Fraction],
    arrival: Callable[[State], Optional[Mapping]],
    inner: Mapping[State, Mapping[str, Fraction]],
    tokens: Mapping[object, Tuple[State, Mapping[State, str]]],
) -> StrategySpec:
    """Search/remain strategy over the completed transient flow ``y``.

    In ``search`` play ``y`` proportionally; every arrival at a state ``t``
    for which ``arrival(t)`` is not ``None`` resamples the memory from that
    distribution.  In ``remain`` play the per-state ``inner`` moves.
    ``tokens`` maps each pending-exit memory ``("exit", a)`` to the state
    that owns ``a`` and a routing action toward it for the other members of
    its MEC; taking ``a`` resamples the memory on arrival as a search step
    does, while the routing actions keep the token.

    The strategy lists only the ``(state, memory)`` pairs it reaches: a
    forward search from the initial memory distribution follows exactly what
    ``induced_chain`` follows (positive-probability actions, successors and
    memory outcomes, target pairs absorbing), writes a move for each reached
    non-target pair and an update for each reached ``(action, successor,
    memory)`` triple whose update is not the identity.
    """
    initial = arrival(mdp.initial) or {SEARCH: ONE}
    next_move: Dict[Tuple[State, object], Dict[str, Fraction]] = {}
    update: Dict[Tuple[str, State, object], Mapping] = {}
    frontier = [(mdp.initial, m) for m, p in initial.items() if p != 0]
    seen = set(frontier)
    while frontier:
        s, m = frontier.pop()
        if s in mdp.targets:
            continue
        if m == SEARCH:
            move = _flow_move(mdp, y, s)
        elif m == REMAIN:
            move = inner.get(s)
            move = dict(move) if move else {_least_action(mdp, s): ONE}
        else:
            owner, route = tokens[m]
            move = {m[1] if s == owner else route[s]: ONE}
        next_move[(s, m)] = move
        for a, pa in move.items():
            if pa == 0:
                continue
            exit_token = m == ("exit", a)
            for t, p in mdp.delta[a].items():
                if p == 0:
                    continue
                dist = None
                if m == SEARCH:
                    dist = arrival(t)
                elif exit_token:
                    dist = arrival(t) or {SEARCH: ONE}
                if dist is None or dist == {m: ONE}:
                    reached = [(t, m)]
                else:
                    update[(a, t, m)] = dist
                    reached = [(t, m2) for m2, pu in dist.items() if pu != 0]
                for key in reached:
                    if key not in seen:
                        seen.add(key)
                        frontier.append(key)

    return StrategySpec(
        memory=(SEARCH, REMAIN) + tuple(tokens),
        initial_memory=initial,
        next_move=next_move,
        memory_update=update,
    )


def _switch_arrival(
    mdp: Mdp, y: Mapping[str, Fraction], x: Mapping[State, Fraction]
) -> Dict[State, Dict[str, Fraction]]:
    """On arrival at s, switch to ``remain`` with probability x_s / inflow(s)."""
    inflow = _inflow(mdp, y)
    arrival: Dict[State, Dict[str, Fraction]] = {}
    for s, mass in x.items():
        if mass == 0:
            continue
        if inflow[s] < mass:
            raise ModelError(f"switch mass {mass} exceeds inflow {inflow[s]} at {s!r}")
        beta = mass / inflow[s]
        arrival[s] = normalized({REMAIN: beta, SEARCH: ONE - beta})
    return arrival


def two_memory_strategy(mdp: Mdp, y: Mapping, switch: Mapping, inner: Mapping) -> StrategySpec:
    """Search/remain strategy: in ``search`` play the transient flow ``y``
    and on arrival at s switch to ``remain`` with probability
    ``switch[s] / inflow(s)``; in ``remain`` play the per-state ``inner``
    moves; ``decide_mean_multi`` switches only at MEC representatives.  Only
    the ``(state, memory)`` pairs the strategy reaches get a move."""
    return _search_remain(mdp, y, _switch_arrival(mdp, y, switch).get, inner, {})


def realize_quotient_flow(
    mdp: Mdp,
    qm: QuotientMap,
    y: Mapping[str, Fraction],
    switch: Mapping[State, Fraction],
    inner: Mapping[State, Mapping[str, Fraction]],
) -> StrategySpec:
    """Turn a quotient-level flow into a strategy on the un-quotiented MDP.

    ``qm`` may be ``cleanup(mec_quotient(mdp))``; MECs whose representative
    is a quotient target get no flow and keep default moves.
    ``y`` gives masses for the quotient's actions (each owned by an original
    state); ``switch`` gives per-MEC-representative masses that stop searching
    and stay in the MEC forever, where ``inner`` then prescribes the moves.
    MECs of at most ``MEC_LP_LIMIT`` states are realized memorylessly by
    completing the flow with an exact transshipment LP over their internal
    actions, which carries the switch mass to the representative, where the
    run switches; larger MECs fall back to a finite-memory construction that
    samples the pending exit (or ``remain``) on entry and routes to it.
    A pending exit is held as the state that owns it plus one routing search
    toward that state, shared by the exits of one owner; the entry
    distribution is kept once per MEC, and the pending exits are listed in
    the member order of their owners.  The strategy lists only the
    ``(state, memory)`` pairs it reaches.
    """
    dec = qm.decomposition
    used = {a: m for a, m in y.items() if m != 0 and a in mdp.delta}
    entry = _inflow(mdp, used)

    # pending-exit memory distribution on entry, per large MEC index
    mec_arrival: Dict[int, Dict] = {}
    tokens: Dict[object, Tuple[State, Dict[State, str]]] = {}
    full_y: Dict[str, Fraction] = dict(used)  # completed with internal flows
    stay: Dict[State, Fraction] = {}  # switch mass at each small MEC's representative

    for i, (members, actions) in enumerate(dec.mecs):
        rep = qm.representatives[i]
        if rep in qm.quotient.targets:
            continue
        owner = {
            a: s
            for s in members
            for a in mdp.available[s]
            if a not in actions and a in used
        }
        commit = switch.get(rep, ZERO)
        total_in = sum(filter(None, (entry[s] for s in members)), ZERO)
        if total_in == 0:
            continue  # never entered; default moves suffice
        if len(members) <= MEC_LP_LIMIT:
            g = _transship(mdp, members, actions, entry, {a: used[a] for a in owner}, commit)
            for a, m in g.items():
                if m != 0:
                    full_y[a] = full_y.get(a, ZERO) + m
            stay[rep] = commit
        else:
            token_dist = {("exit", a): used[a] / total_in for a in owner}
            if commit != 0:
                token_dist[REMAIN] = commit / total_in
            if not token_dist:
                raise ModelError("MEC absorbs flow without exits or switch mass")
            routes: Dict[State, Dict[State, str]] = {}
            for a, s in owner.items():
                if s not in routes:
                    routes[s] = _routing(mdp, members, actions, {s})
                tokens[("exit", a)] = (s, routes[s])
            mec_arrival[i] = token_dist

    # internal actions never leave their MEC, so the completed flow's inflow
    # at a small MEC's member is its entry plus that MEC's own internal flow
    switch_arrival = _switch_arrival(mdp, full_y, stay)

    def arrival(t: State) -> Optional[Dict]:
        dist = switch_arrival.get(t)
        return dist if dist is not None else mec_arrival.get(dec.state_to_mec.get(t))

    return _search_remain(mdp, full_y, arrival, inner, tokens)


def _transship(
    mdp: Mdp,
    members: Sequence[State],
    actions: frozenset,
    entry: Mapping[State, Fraction],
    exits: Mapping[str, Fraction],
    commit: Fraction,
) -> Dict[str, Fraction]:
    """Complete a quotient flow inside one MEC: internal action masses g
    carrying the entries to the exits and the switch mass ``commit`` to the
    representative ``members[0]``.  One switch point per MEC loses nothing:
    - every balanced supply on a MEC is a nonnegative sum of routing flows
      ``e_s - e_t``, one per pair of members;
    - a routing flow exists because every member reaches every other almost
      surely on the MEC's own actions (Etessami et al., LMCS 2008);
    - so this LP is feasible, and each guess LP of ``solver`` has exactly the
      same feasible set of quotient masses, frequencies and guesses as with
      a switch mass per member."""
    gvars = sorted(actions)
    prog = lpmod.LinearProgram(variables=[f"g::{a}" for a in gvars])
    for s, coeffs in zip(members, flow_rows(mdp, members, gvars, lambda a: f"g::{a}")):
        rhs = entry[s] - sum((exits[a] for a in mdp.available[s] if a in exits), ZERO)
        prog.add(coeffs, "==", rhs - commit if s == members[0] else rhs)
    res = lpmod.solve_feasibility(prog)
    if not res.ok:
        raise ModelError("internal flow completion infeasible")
    return {a: res.assignment[f"g::{a}"] for a in gvars}
