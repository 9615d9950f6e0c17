"""Witness strategy construction from LP flows, and exact strategy evaluation."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import lp as lpmod
from .chain import PayoffLaw, check_constraints, payoff_law_mean, payoff_law_reach
from .graphs import MecDecomposition, QuotientMap
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


def _routing(dec: MecDecomposition, i: int, goal: Sequence[int]) -> Dict[State, str]:
    """For each member of MEC ``i`` of ``dec`` outside ``goal`` (ascending
    member positions), an action moving strictly closer to the goal, by a
    backward search on the MEC's integer ``moves``; pending exits and
    ``mec_constant_strategy`` route with it.  Ties go to the first route in
    member order, so the result does not depend on set iteration order."""
    members = dec.mecs[i][0]
    position = dict(zip(dec.indices[i], range(len(members))))
    preds: List[List[Tuple[int, str]]] = [[] for _ in members]
    for p, acts in enumerate(dec.moves[i]):
        for a, succ in acts:
            for t in succ:
                preds[position[t]].append((p, a))
    seen = set(goal)
    frontier = list(goal)
    route: Dict[State, str] = {}
    while frontier:
        nxt: List[int] = []
        for q in frontier:
            for p, a in preds[q]:
                if p not in seen:
                    seen.add(p)
                    route[members[p]] = a
                    nxt.append(p)
        frontier = nxt
    if len(seen) < len(members):
        missing = [repr(s) for p, s in enumerate(members) if p not in seen]
        raise ModelError(f"states {missing} cannot reach the routing goal")
    return route


def mec_constant_strategy(dec: MecDecomposition, i: int, frequencies: Mapping[str, Fraction]) -> Dict[State, Dict]:
    """The moves, per state, of a memoryless strategy inside MEC ``i`` of
    ``dec`` realizing the given recurrent action frequencies:
    positive-frequency states randomize proportionally, the rest route
    deterministically toward the support."""
    members = dec.mecs[i][0]
    choices: Dict[State, Dict[str, Fraction]] = {}
    support: List[int] = []
    for p, acts in enumerate(dec.moves[i]):
        dist = _proportional({a: frequencies.get(a, ZERO) for a, _ in acts})
        if dist is not None:
            choices[members[p]] = dist
            support.append(p)
    if not support:
        raise ModelError("MEC frequencies are identically zero")
    route = _routing(dec, i, support)
    for s in members:
        if s not in choices:
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
    """Initial mass plus the mass the transient flow ``y`` moves into each
    state that receives any; an entry that is still 0 takes its first term."""
    inflow: Dict[State, Fraction] = {mdp.initial: ONE}
    for a, mass in y.items():
        if mass != 0:
            for t, p in mdp.delta[a].items():
                v = mass * p
                inflow[t] = inflow[t] + v if inflow.get(t) else v
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


def _switch_arrival(inflow: Mapping[State, Fraction], x: Mapping[State, Fraction]) -> Dict[State, Dict[str, Fraction]]:
    """On arrival at s, switch to ``remain`` with probability x_s / inflow(s)."""
    arrival: Dict[State, Dict[str, Fraction]] = {}
    for s, mass in x.items():
        if mass == 0:
            continue
        total = inflow.get(s, ZERO)
        if total < mass:
            raise ModelError(f"switch mass {mass} exceeds inflow {total} at {s!r}")
        beta = mass / total
        arrival[s] = normalized({REMAIN: beta, SEARCH: ONE - beta})
    return arrival


def two_memory_strategy(mdp: Mdp, y: Mapping, switch: Mapping, inner: Mapping) -> StrategySpec:
    """Search/remain strategy: in ``search`` play the transient flow ``y``
    and on arrival at s switch to ``remain`` with probability
    ``switch[s] / inflow(s)``; in ``remain`` play the per-state ``inner``
    moves; ``decide_mean_multi`` switches only at MEC representatives.  Only
    the ``(state, memory)`` pairs the strategy reaches get a move."""
    return _search_remain(mdp, y, _switch_arrival(_inflow(mdp, y), switch).get, inner, {})


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
    ``(state, memory)`` pairs it reaches.  The entry inflow covers only the
    states that ``y`` reaches; each MEC's exits, their owners and the
    routing come from ``qm.decomposition``.
    """
    dec = qm.decomposition
    used = {a: m for a, m in y.items() if m != 0 and a in mdp.delta}
    entry = _inflow(mdp, used)

    # pending-exit memory distribution on entry, per large MEC index
    mec_arrival: Dict[int, Dict] = {}
    tokens: Dict[object, Tuple[State, Dict[State, str]]] = {}
    full_y: Dict[str, Fraction] = dict(used)  # completed with internal flows
    switch_arrival: Dict[State, Dict[str, Fraction]] = {}  # at small MECs' representatives

    for i, (members, actions) in enumerate(dec.mecs):
        rep = qm.representatives[i]
        if rep in qm.quotient.targets:
            continue
        total_in = sum(filter(None, map(entry.get, members)), ZERO)
        if total_in == 0:
            continue  # never entered; default moves suffice
        owner = {a: p for p, a in dec.exits[i] if a in used}
        commit = switch.get(rep, ZERO)
        if len(members) <= MEC_LP_LIMIT:
            g = _transship(mdp, members, actions, entry, {a: used[a] for a in owner}, commit)
            for a, m in g.items():
                if m != 0:
                    full_y[a] = full_y.get(a, ZERO) + m
            if commit != 0:
                # internal actions never leave their MEC: the completed flow's
                # inflow at the representative is its entry plus g's inflow
                inflow = sum((m * mdp.delta[a].get(rep, ZERO) for a, m in g.items() if m), entry.get(rep, ZERO))
                switch_arrival.update(_switch_arrival({rep: inflow}, {rep: commit}))
        else:
            token_dist = {("exit", a): used[a] / total_in for a in owner}
            if commit != 0:
                token_dist[REMAIN] = commit / total_in
            if not token_dist:
                raise ModelError("MEC absorbs flow without exits or switch mass")
            routes: Dict[int, Dict[State, str]] = {}
            for a, p in owner.items():
                if p not in routes:
                    routes[p] = _routing(dec, i, [p])
                tokens[("exit", a)] = (members[p], routes[p])
            mec_arrival[i] = token_dist

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
        rhs = entry.get(s, ZERO) - sum((exits[a] for a in mdp.available[s] if a in exits), ZERO)
        prog.add(coeffs, "==", rhs - commit if s == members[0] else rhs)
    res = lpmod.solve_feasibility(prog)
    if not res.ok:
        raise ModelError("internal flow completion infeasible")
    return {a: res.assignment[f"g::{a}"] for a in gvars}
