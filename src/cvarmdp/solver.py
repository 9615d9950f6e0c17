"""Decision procedures for expectation/VaR/CVaR lower-bound queries on MDPs;
``decide`` is the one dispatcher, and each decomposes its model once.

Reachability: on the MEC quotient, with every representative that reaches
no target trapped, satisfiability is a flow LP once the value-at-risk
thresholds are guessed; the guesses range over target rewards at or above
the CVaR bound, and each CVaR constraint is one Rockafellar-Uryasev row at
its guessed threshold.  Without attraction, each representative that is
still not a target may commit to a fresh zero-reward target: the run stays
in that MEC forever.  Mean payoff reduces to the same commits worth per-MEC
optimal gains (single dimension), or ({E, CVaR} in several dimensions) to
one Rockafellar-Uryasev epigraph LP over recurrent frequencies per threshold
of a grid that starts at the CVaR bound; an infeasible one refutes every MEC
labelling at its threshold, and only where a feasible one's witness fails
the exact check are the labellings at that threshold solved.  The guess LPs
of one model share their flow rows, which are built once and solved once as
the block of an ``lp.WarmStart``; each guess appends only its own rows.
Every SAT verdict carries a witness strategy that has been re-checked by
exact evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .graphs import (
    MecDecomposition,
    check_attraction,
    cleanup,
    mec_decomposition,
    mec_quotient,
    reachable_states,
)
from .lp import LinearProgram, WarmStart, solve_feasibility, solve_optimize
from .model import (
    Mdp,
    ModelError,
    Query,
    State,
    UnsupportedQueryError,
    Verdict,
    reserved_action_problems,
    target_problems,
    validate_query,
)
from .synthesis import (
    check_strategy,
    flow_rows,
    mec_constant_strategy,
    realize_quotient_flow,
    two_memory_strategy,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def _y(a: str) -> str:
    return f"y::{a}"


def _x(s: State) -> str:
    return f"x::{s!r}"


# ---------------------------------------------------------------- reachability


def _reach_block(m: Mdp) -> LinearProgram:
    """The guess-independent rows of the flow LP over a cleaned, quotiented
    MDP: transient flow balance and the switch to recurrent behaviour."""
    targets = sorted(m.targets, key=repr)
    nontarget = [s for s in m.states if s not in m.targets]
    acts = [a for s in nontarget for a in m.available[s]]
    prog = LinearProgram(variables=[_y(a) for a in acts] + [_x(s) for s in targets])

    # Transient flow: inflow equals outflow at every non-target state, and
    # the recurrent mass of each target is its inflow.
    rows = nontarget + targets
    for s, coeffs in zip(rows, flow_rows(m, rows, acts, _y)):
        if s in m.targets:
            coeffs[_x(s)] = ONE
        prog.add(coeffs, "==", ONE if s == m.initial else ZERO)
    # Switching to recurrent behaviour.
    prog.add({_x(t): ONE for t in targets}, "==", ONE)
    return prog


Row = Tuple[Dict[str, Fraction], str, Fraction]
Option = Tuple[Optional[Tuple[int, object]], List[Row]]


def _guesses(table: Sequence[Sequence[Option]]) -> Iterator[Tuple[Dict[int, object], List[Row]]]:
    """One ``(key, rows)`` per pick of an option ``(part, rows)``, built once,
    from each entry of ``table``, in product order: ``key`` maps j to v for
    each picked part ``(j, v)`` not ``None``; ``rows`` joins the picked rows."""
    for combo in itertools.product(*table):
        yield {part[0]: part[1] for part, _ in combo if part is not None}, [row for _, rows in combo for row in rows]


def _reach_guesses(m: Mdp, query: Query) -> Iterator[Tuple[Dict[int, Fraction], List[Row]]]:
    """Every threshold guess of the flow LP over ``m``'s target rewards, in
    ascending order: ``(tc, rows)``, the guessed CVaR threshold of each CVaR
    dimension and the guess's constraint rows.  A guess picks one option per
    table entry: a CVaR row per candidate threshold, the one VaR row at the
    least target reward that reaches the VaR bound, an expectation row.  A
    VaR or CVaR bound above every target reward leaves its entry, and so the
    product of guesses, empty: no strategy can meet it.

    A CVaR constraint (p, c) on dimension j at guessed threshold t is the one
    row  sum_{r_s[j] < t} (r_s[j] - t) x_s >= p (c - t),  i.e.
    t - E[(t - X)+] / p >= c for the target-mass law X of x.  By the
    Rockafellar-Uryasev identity CVaR_p(X) = max_t (t - E[(t - X)+] / p),
    attained at t = VaR_p(X):

    - every x meeting the row has CVaR_p >= c, and the witness realises x
      exactly, so each candidate passes the full-model check;
    - no verdict differs from the split-variable encoding (mass below t plus
      parts u_s <= x_s of the mass at t, summing to exactly p): substituting
      sum u = p - sum_{r_s[j] < t} x_s  turns its value row into this row,
      and its "= p" row implies the VaR row it left out at the same level
      (whose threshold is at most t), so its feasible guesses stay feasible.
    """
    targets = [(_x(s), m.rewards[s]) for s in sorted(m.targets, key=repr)]
    table: List[List[Option]] = []
    for c in sorted(query.constraints, key=lambda c: c.dim):
        j = c.dim
        cands = sorted({r[j] for _, r in targets})
        tv = [t for t in cands if c.var is not None and t >= c.var[1]][:1]
        if c.cvar is not None:
            p, cbound = c.cvar
            lo = cbound  # CVaR is a sub-threshold average, so t >= c is forced
            if tv and p == c.var[0]:
                lo = max(lo, tv[0])  # the maximiser VaR_p is then at least v
            table.append([
                ((j, t), [({x: r[j] - t for x, r in targets if r[j] < t}, ">=", p * (cbound - t))])
                for t in cands if t >= lo
            ])
        if c.var is not None:
            q = c.var[0]
            table.append([(None, [({x: ONE for x, r in targets if r[j] < t}, "<=", q)]) for t in tv])
        if c.expectation is not None:
            table.append([(None, [({x: r[j] for x, r in targets if r[j] != 0}, ">=", c.expectation)])])
    return _guesses(table)


def _feasible(start: WarmStart, guesses: Iterable[Tuple[object, List[Row]]]) -> Iterator:
    """``(guess, point)`` for each ``(guess, rows)`` of ``guesses`` whose LP,
    ``start.block`` followed by ``rows``, is feasible; every guess LP is
    decided from the one warm start ``start`` on the block."""
    block = start.block
    for guess, rows in guesses:
        res = solve_feasibility(LinearProgram(block.variables, block.constraints + rows), start)
        if res.ok:
            yield guess, res.assignment


def _first_certified(mdp: Mdp, query: Query, candidates, exhaustive: bool = True) -> Verdict:
    """The verdict of a guess enumeration.

    ``candidates`` yields one (strategy, certificate) pair per feasible
    guess, and each strategy is checked once: asking ``candidates`` for the
    next pair tells it that the last strategy failed (``decide_mean_multi``
    then falls back to the labellings at that guess).  SAT with the first
    strategy whose exact evaluation on the full model meets every
    constraint; its certificate gains the law and the per-constraint
    details.  UNSAT only when no guess was feasible and the enumeration is
    ``exhaustive``; otherwise UNKNOWN, whose certificate lists the guesses
    whose witnesses failed under ``failed_guesses``: the threshold
    ``"guess"``, and for a mean-payoff labelling also its
    ``"classification"``, which an epigraph guess has not."""
    failed = []
    for strat, cert in candidates:
        ok, law, details = check_strategy(mdp, strat, query)
        if ok:
            cert["law"] = [d.atoms for d in law.marginals]
            cert["constraints"] = details
            return Verdict("SAT", witness=strat, certificate=cert)
        failed.append(cert)
    if failed:
        return Verdict("UNKNOWN", certificate={"failed_guesses": failed})
    return Verdict("UNSAT" if exhaustive else "UNKNOWN")


@dataclass(frozen=True)
class _Gain:
    """The fresh absorbing target of MEC ``i`` in ``_with_commits``, equal to
    no input state.  Its ``repr``, that of ``(tag, i)``, is no other state's,
    so its LP variable ``x::(tag, i)`` names no other target."""

    tag: str
    i: int

    def __repr__(self) -> str:
        return repr((self.tag, self.i))


def _with_commits(q: Mdp, reps: Sequence[State], worth: Mapping[int, Tuple[Fraction, ...]]) -> Mdp:
    """``q`` where the representative ``reps[i]`` of each MEC ``i`` in
    ``worth`` gets a move ``__commit[i]`` to a fresh absorbing target worth
    ``worth[i]``, the value of staying in that MEC forever; ``tag`` keeps
    each fresh target's ``repr`` apart from every state's."""
    taken = {repr(s) for s in q.states}
    tag = "__gain"
    while any(repr((tag, i)) in taken for i in worth):
        tag = "_" + tag
    available, delta, rewards = dict(q.available), dict(q.delta), dict(q.rewards)
    fresh = tuple(_Gain(tag, i) for i in worth)
    for t, reward in zip(fresh, worth.values()):
        available[reps[t.i]] += (f"__commit[{t.i}]",)
        delta[f"__commit[{t.i}]"] = {t: ONE}
        available[t] = (f"__settle[{t.i}]",)
        delta[f"__settle[{t.i}]"] = {t: ONE}
        rewards[t] = reward
    targets = q.targets | frozenset(fresh)
    return replace(q, states=q.states + fresh, available=available, delta=delta, rewards=rewards, targets=targets)


def _realized(mdp: Mdp, qm, m: Mdp, query: Query, freqs: Sequence[Mapping[str, Fraction]]):
    """``(tc, y, x, strategy)`` per feasible threshold guess, ascending, of
    the flow LP over the states of ``m`` (``qm``'s quotient of ``mdp`` with
    commits) that its initial state reaches: ``y`` masses ``mdp``'s actions,
    ``x`` each target and, for its commit, each representative; the witness
    plays ``freqs[i]`` in each MEC ``i`` it commits to."""
    keep = reachable_states(m, m.initial)
    m = replace(m, states=tuple(s for s in m.states if s in keep), targets=m.targets & keep)
    reps = qm.representatives
    for tc, point in _feasible(WarmStart(_reach_block(m)), _reach_guesses(m, query)):
        y = {a: point[_y(a)] for s in m.states if s not in m.targets for a in m.available[s] if a in mdp.delta}
        ends = {s: point[_x(s)] for s in m.states if s in m.targets}
        x = {reps[s.i] if isinstance(s, _Gain) else s: v for s, v in ends.items()}
        switch = {reps[s.i]: v for s, v in ends.items() if isinstance(s, _Gain)}
        used = [f if switch.get(rep) else {} for f, rep in zip(freqs, reps)]
        yield tc, y, x, realize_quotient_flow(mdp, qm, y, switch, _inner_moves(qm.decomposition, used))


def _decide_reach(mdp: Mdp, query: Query) -> Verdict:
    """Reachability over one MEC decomposition of ``mdp``.

    A run that reaches no target almost surely stays in one MEC forever,
    worth 0.  ``cleanup`` traps the MECs that reach no target; without
    attraction each representative that is still not a target may commit to
    stay (Etessami, Kwiatkowska, Vardi, Yannakakis, LMCS 2008), playing all
    its MEC's internal actions.  A1 leaves no such representative.  With A2
    every strategy of the cleaned quotient reaches a target almost surely,
    so routing a commit's mass to a target pays at least its 0 in every
    dimension; E, VaR and CVaR are monotone, so commits are left out.
    """
    if query.objective != "reach":
        raise UnsupportedQueryError("reachability procedure got a non-reach query")
    qm = mec_quotient(mdp)
    neither = check_attraction(qm) == "neither"
    qm = cleanup(qm)
    m, reps = qm.quotient, qm.representatives
    if neither:
        m = _with_commits(m, reps, {i: (ZERO,) * m.dim for i, r in enumerate(reps) if r not in m.targets})
    freqs = [dict.fromkeys(aa, ONE) for _, aa in qm.decomposition.mecs]
    candidates = (
        (strat, {"guess": dict(tc), "flow": {"y": y, "x": x}})
        for tc, y, x, strat in _realized(mdp, qm, m, query, freqs)
    )
    return _first_certified(mdp, query, candidates)


def decide_reach_single(mdp: Mdp, query: Query) -> Verdict:
    """Decide a single-dimension weighted-reachability query exactly."""
    return _decide_reach(mdp, query)


def decide_reach_multi(mdp: Mdp, query: Query) -> Verdict:
    """Decide a multi-dimension weighted-reachability query exactly."""
    return _decide_reach(mdp, query)


# ----------------------------------------------------------------- mean payoff


def _mec_gain_flow(mdp: Mdp, mec, j: int, minimize: bool = False):
    """Optimal expected mean payoff inside one MEC plus witnessing frequencies."""
    members, actions = mec
    acts = sorted(actions)
    prog = LinearProgram(variables=[f"f::{a}" for a in acts])
    for coeffs in flow_rows(mdp, members, acts, lambda a: f"f::{a}"):
        prog.add(coeffs, "==", ZERO)
    prog.add({f"f::{a}": ONE for a in acts}, "==", ONE)
    owner = {a: s for s in members for a in mdp.available[s] if a in actions}
    sign = -ONE if minimize else ONE
    prog.objective = {f"f::{a}": sign * mdp.rewards[owner[a]][j] for a in acts}
    res = solve_optimize(prog)
    if res.status != "optimal":
        raise ModelError(f"MEC gain LP came back {res.status}")
    return sign * res.value, {a: res.assignment[f"f::{a}"] for a in acts}


def _inner_moves(dec: MecDecomposition, freqs: Sequence[Mapping[str, Fraction]]) -> Dict[State, Dict]:
    """Moves of the memoryless strategies that realise the action frequencies
    ``freqs[i]`` inside MEC ``i`` of ``dec``, for every MEC with frequency mass."""
    inner: Dict[State, Dict] = {}
    for i, freq in enumerate(freqs):
        if sum(freq.values(), ZERO) != 0:
            inner.update(mec_constant_strategy(dec, i, freq))
    return inner


def decide_mean_single(mdp: Mdp, query: Query) -> Verdict:
    """Single-dimension mean payoff: reduce to reachability over MEC gains,
    then turn the reachability flow into a search/remain two-memory witness.
    The commits extend ``base``'s own quotient, which has no end component."""
    if query.objective != "mean":
        raise UnsupportedQueryError("mean-payoff procedure got a non-mean query")
    if mdp.dim != 1:
        raise UnsupportedQueryError("single-dimension procedure on multi-dimensional model")
    base = replace(mdp, targets=frozenset())
    qm = mec_quotient(base)
    flows = [_mec_gain_flow(base, mec, 0) for mec in qm.decomposition.mecs]
    gains, freqs = [g for g, _ in flows], [f for _, f in flows]
    reps = qm.representatives
    # every representative commits, so ``cleanup`` traps nothing; the mean
    # workloads of ``perfbench/run.py`` still expect to reach it
    qa = cleanup(replace(qm, quotient=_with_commits(qm.quotient, reps, {i: (g,) for i, g in enumerate(gains)})))
    # built on ``mdp``, not ``base``: the witness lists only the pairs it
    # reaches, and the check on ``mdp`` stops at its targets
    candidates = (
        (strat, {"guess": dict(tc), "gains": {repr(r): g for r, g in zip(reps, gains)}})
        for tc, _, _, strat in _realized(mdp, qm, qa.quotient, query, freqs)
    )
    return _first_certified(mdp, query, candidates)


def _u(j: int, i: int) -> str:
    return f"u::{j}::{i}"


def _mean_multi_block(mdp: Mdp, dec, cvar_dims: Sequence[int]) -> LinearProgram:
    """The guess-independent rows of the multi-dimensional mean-payoff LP:
    transient flow, recurrent flow and total recurrent mass.  MEC i's
    recurrent mass leaves its representative's transient row: the run
    switches there alone (see ``synthesis._transship``).  Each CVaR
    dimension j adds a nonnegative column ``u::j::i`` per MEC i, the
    shortfall of the epigraph guesses; no block row uses it."""
    acts = mdp.actions
    mec_acts = sorted({a for _, aa in dec.mecs for a in aa})
    shortfall = [_u(j, i) for j in cvar_dims for i in range(len(dec.mecs))]
    prog = LinearProgram(variables=[_y(a) for a in acts] + [f"xa::{a}" for a in mec_acts] + shortfall)
    recurrent = {members[0]: sorted(aa) for members, aa in dec.mecs}

    # Transient flow, less each MEC's recurrent mass at its representative.
    for s, coeffs in zip(mdp.states, flow_rows(mdp, mdp.states, acts, _y)):
        for a in recurrent.get(s, ()):
            coeffs[f"xa::{a}"] = ONE
        prog.add(coeffs, "==", ONE if s == mdp.initial else ZERO)
    # Recurrent flow inside each MEC.
    for members, aa in dec.mecs:
        for coeffs in flow_rows(mdp, members, sorted(aa), lambda a: f"xa::{a}"):
            prog.add(coeffs, "==", ZERO)
    prog.add({f"xa::{a}": ONE for a in mec_acts}, "==", ONE)
    return prog


def _mec_terms(mdp: Mdp, dec) -> List[List[Tuple[str, Tuple[Fraction, ...]]]]:
    """Per MEC, the recurrent-frequency variable of each of its actions, with
    the reward vector of the state that owns the action."""
    return [
        [(f"xa::{a}", mdp.rewards[s]) for s in members for a in mdp.available[s] if a in aa]
        for members, aa in dec.mecs
    ]


def _expectation_row(j: int, bound: Fraction, terms) -> Row:
    return {x: r[j] for mec in terms for x, r in mec if r[j] != 0}, ">=", bound


def _epigraph_guesses(
    query: Query,
    grids: Mapping[int, Sequence[Fraction]],
    terms: Sequence[Sequence[Tuple[str, Tuple[Fraction, ...]]]],
) -> Iterator[Tuple[Dict[int, Fraction], List[Row]]]:
    """The ``_guesses`` of the Rockafellar-Uryasev epigraph LP over the
    ``_mec_terms`` table: CVaR dimension j's key is its threshold t in
    ``grids[j]``, and its rows, built once per t, are
    ``u_ij + sum_{a in MEC i} (r_j(a) - t) xa >= 0`` for each MEC i and
    ``sum_i u_ij <= p (t - c)``; an expectation adds its one row."""
    table: List[List[Option]] = []
    for c in sorted(query.constraints, key=lambda c: c.dim):
        j = c.dim
        if c.cvar is not None:
            p, cbound = c.cvar
            us = [_u(j, i) for i in range(len(terms))]
            options: List[Option] = []
            for t in grids[j]:
                rows = [
                    ({u: ONE, **{x: w for x, r in mec if (w := r[j] - t) != 0}}, ">=", ZERO)
                    for u, mec in zip(us, terms)
                ]
                rows.append((dict.fromkeys(us, ONE), "<=", p * (t - cbound)))
                options.append(((j, t), rows))
            table.append(options)
        if c.expectation is not None:
            table.append([(None, [_expectation_row(j, c.expectation, terms)])])
    return _guesses(table)


_CLASS_SENSE = {"le": "<=", "gt": ">=", "eq": "=="}


def _labellings(n: int) -> List[Tuple[str, ...]]:
    """Every MEC labelling: one MEC 'eq', each other one 'le' or 'gt'."""
    return [labs[:i] + ("eq",) + labs[i:] for i in range(n) for labs in itertools.product(("le", "gt"), repeat=n - 1)]


def _mean_multi_guesses(
    query: Query,
    grids: Mapping[int, Sequence[Fraction]],
    options: Sequence[Sequence[str]],
    terms: Sequence[Sequence[Tuple[str, Tuple[Fraction, ...]]]],
) -> Iterator[Tuple[Dict[int, Tuple[Fraction, Sequence[str]]], List[Row]]]:
    """The ``_guesses`` of the multi-dimensional mean-payoff labelling LP
    over the ``_mec_terms`` table: CVaR dimension j's key is its VaR guess t
    in ``grids[j]`` and its MEC labelling in ``options`` (one 'eq' MEC each)."""

    def row(mecs, weight, sense: str, rhs: Fraction) -> Row:
        return {x: w for i in mecs for x, r in terms[i] if (w := weight(r)) != 0}, sense, rhs

    table: List[List[Option]] = []
    for c in sorted(query.constraints, key=lambda c: c.dim):
        j = c.dim
        if c.cvar is not None:
            p, cbound = c.cvar
            table.append([])
            for labels in options:
                low = [i for i, lab in enumerate(labels) if lab == "le"]
                # Verify VaR guess: 'le' mass below p, adding 'eq' reaches p
                mass = [row(low, lambda r: ONE, "<=", p), row(low + [labels.index("eq")], lambda r: ONE, ">=", p)]
                for t in grids[j]:
                    excess = lambda r: r[j] - t
                    # CVaR tail: 'le' mass topped up to p at t; then one class row per MEC
                    rows = [row(low, excess, ">=", p * (cbound - t)), *mass]
                    rows += [row([i], excess, _CLASS_SENSE[lab], ZERO) for i, lab in enumerate(labels)]
                    table[-1].append(((j, (t, labels)), rows))
        if c.expectation is not None:
            table.append([(None, [_expectation_row(j, c.expectation, terms)])])
    return _guesses(table)


def decide_mean_multi(mdp: Mdp, query: Query, grid: int = 16) -> Verdict:
    """Multi-dimension {E, CVaR} mean payoff: one Rockafellar-Uryasev
    epigraph LP per threshold guess on a grid, ``grid`` steps between
    consecutive candidates, with MEC labellings as the fallback for SAT.

    A guess picks a threshold t_j in ``grids[j]`` for each CVaR dimension j
    (ascending).  Its LP is the block of recurrent frequencies xa (Brazdil,
    Brozek, Chatterjee, Forejt, Kucera, LICS 2011) with the rows of
    ``_epigraph_guesses``: with m_i and R_ij MEC i's mass and dimension-j
    reward sum, u_ij >= t m_i - R_ij and sum_i u_ij <= p (t - c), i.e.
    t - E[(t - X)+] / p >= c for the law X of the MEC averages, the
    Rockafellar-Uryasev bound CVaR_p(X) >= c.

    - An infeasible epigraph LP at t refutes every labelling at t: in a
      feasible labelling point each 'le' MEC has t m_i - R_ij >= 0, each
      'gt' or 'eq' one t m_i - R_ij <= 0, and the tail row bounds the 'le'
      sum by p (t - c); so u_ij = (t m_i - R_ij)+ makes the same point
      feasible for the epigraph.
    - A feasible epigraph point whose witness passes the exact check is SAT.
    - Its witness can fail: a MEC's frequencies may spread over BSCCs whose
      gains straddle t, and Jensen only gives E[(t - X)+] >= the LP's
      (t m_i - R_ij)+.  Only then are the labellings at that same t solved,
      from the same ``WarmStart``: each pins t to VaR, one MEC 'eq' and each
      other 'le' or 'gt' (``_mean_multi_guesses``).

    Each witness is checked once.  A run that stays in MEC i almost surely
    pays at most gmax_ij in dimension j, so a CVaR bound above every gmax_ij
    is UNSAT.  Otherwise UNSAT needs every epigraph LP infeasible on a
    provably exhaustive grid, where every MEC's gain range in each CVaR
    dimension is a point g_ij: a strategy that meets the query then has a
    point whose law X puts mass m_i on g_ij, and the epigraph LP at
    t = VaR_p(X), a gain at or above c and so a grid point, is feasible.
    """
    if query.objective != "mean":
        raise UnsupportedQueryError("mean-payoff procedure got a non-mean query")
    if any(c.var is not None for c in query.constraints):
        raise UnsupportedQueryError("VaR constraints unsupported for multi-dimensional mean payoff")

    base = replace(mdp, targets=frozenset())
    dec = mec_decomposition(base)
    mecs = dec.mecs
    n = len(mecs)
    bound = {c.dim: c.cvar[1] for c in query.constraints if c.cvar is not None}
    cvar_dims = sorted(bound)
    gmin: Dict[Tuple[int, int], Fraction] = {}
    gmax: Dict[Tuple[int, int], Fraction] = {}
    for i, mec in enumerate(mecs):
        for j in cvar_dims:
            gmax[i, j], _ = _mec_gain_flow(base, mec, j)
            gmin[i, j], _ = _mec_gain_flow(base, mec, j, minimize=True)

    # Only thresholds t >= c can be feasible: below c the epigraph row
    # sum_i u_ij <= p (t - c) < 0 has no nonnegative u.
    grids: Dict[int, List[Fraction]] = {}
    for j in cvar_dims:
        pts = sorted({gmin[i, j] for i in range(n)} | {gmax[i, j] for i in range(n)})
        if pts and pts[-1] < bound[j]:
            return Verdict("UNSAT", certificate={"dim": j, "max_gain": pts[-1]})
        refined = set(pts)
        for a, b in zip(pts, pts[1:]):
            for k in range(1, grid):
                refined.add(a + (b - a) * Fraction(k, grid))
        grids[j] = sorted(t for t in refined if t >= bound[j])

    # expectation-only queries, and models whose MECs have point-valued gain
    # ranges, make the sweep provably exhaustive
    exhaustive = all(gmin[i, j] == gmax[i, j] for i in range(n) for j in cvar_dims)
    terms = _mec_terms(base, dec)
    start = WarmStart(_mean_multi_block(base, dec, cvar_dims))

    def points():
        for guess, point in _feasible(start, _epigraph_guesses(query, grids, terms)):
            yield point, {"guess": guess}
            if guess:
                # its witness failed: every labelling at the same thresholds
                labellings = _mean_multi_guesses(query, {j: [t] for j, t in guess.items()}, _labellings(n), terms)
                for key, point in _feasible(start, labellings):
                    yield point, {"guess": guess, "classification": {j: list(labels) for j, (_, labels) in key.items()}}

    def candidates():
        # a witness yielded has failed once the next is asked for; points
        # that differ can give one strategy, which is checked only once
        failed = []
        for point, cert in points():
            y = {a: point[_y(a)] for a in base.actions}
            freqs = [{a: point[f"xa::{a}"] for a in aa} for _, aa in mecs]
            switch = {members[0]: sum(f.values(), ZERO) for (members, _), f in zip(mecs, freqs)}
            strat = two_memory_strategy(mdp, y, switch, _inner_moves(dec, freqs))
            if strat not in failed:
                failed.append(strat)
                yield strat, cert

    return _first_certified(mdp, query, candidates(), exhaustive)


def decide(mdp: Mdp, query: Query, grid: Optional[int] = None) -> Verdict:
    """Dispatch a query to the decision procedure for its objective and
    dimension.  ``grid`` (``None`` means 16) only refines multi-dimensional
    mean payoff, but any value other than a positive integer raises
    ``ValueError``.  Raises ``ModelError`` for an invalid query, for a target
    that is not a state or not absorbing, and for an action named with the
    prefix ``__``, which the procedures reserve for their own actions.  The
    rest of ``validate`` is not run: the model is otherwise taken to be valid.
    """
    grid = 16 if grid is None else grid
    if isinstance(grid, bool) or not isinstance(grid, int) or grid < 1:
        raise ValueError(f"grid must be a positive integer, not {grid!r}")
    problems = reserved_action_problems(mdp.delta) + target_problems(mdp) + validate_query(query, mdp.dim).problems
    if problems:
        raise ModelError("; ".join(problems))
    single = mdp.dim == 1
    if query.objective == "reach":
        return (decide_reach_single if single else decide_reach_multi)(mdp, query)
    if query.objective == "mean":
        return decide_mean_single(mdp, query) if single else decide_mean_multi(mdp, query, grid)
    raise UnsupportedQueryError(f"unknown objective {query.objective!r}")
