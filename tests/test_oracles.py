"""Differential oracles on random models whose end components may trap runs
away from the targets: weighted reachability against its mean-payoff
encoding (``lemmas.reach_to_mean``), strategy evaluation against a reference
product, and witness laws against Monte Carlo samples; and multi-dimensional
mean-payoff CVaR's epigraph LPs against the MEC-labelling sweep.

``gadgets.random_mdp(..., targets=k)`` keeps a path toward the targets from
every state, so it never builds such a trap.  The generator here starts from
a target-free random model and adds exits from a few states into two
absorbing targets, so some end components reach no target (cleanup's
trapping branch) and a negative target reward breaks attraction A2.
"""
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

from cvarmdp.chain import solve_linear
from cvarmdp.gadgets import Cnf3, random_mdp, sat_reduction
from cvarmdp import solver
from cvarmdp.graphs import backward_reachable, bsccs, chain_graph, check_attraction, cleanup, mec_decomposition, mec_quotient
from cvarmdp.lp import LinearProgram, WarmStart, solve_feasibility
from cvarmdp.model import (
    Constraint,
    MarkovChain,
    Mdp,
    Query,
    StrategySpec,
    UnsupportedQueryError,
    memoryless,
)
from cvarmdp.risk import FiniteDistribution, cvar, expectation, var
from cvarmdp.simulate import SimConfig, sample_payoffs
from cvarmdp.solver import (
    _reach_block,
    _reach_guesses,
    _x,
    decide,
    decide_mean_multi,
    decide_mean_single,
    decide_reach_single,
)
from cvarmdp.synthesis import check_strategy, evaluate, two_memory_strategy
from lemmas import mix_strategies, reach_to_mean

SEEDS = range(30)


def trap_mdp(seed: int) -> Mdp:
    """A sparse target-free random model plus exits into the targets
    ``hi`` and ``lo``; ``lo`` is worth between -3 and 1."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    base = random_mdp(n, 2, F(1, n), (0, 4), 1, seed=seed)
    available = {s: tuple(acts) for s, acts in base.available.items()}
    delta = dict(base.delta)
    for k, s in enumerate(rng.sample(base.states, rng.randint(1, 2))):
        p = F(rng.randint(1, 4), 4)
        delta[f"exit{k}"] = {"hi": p, "lo": 1 - p} if p != 1 else {"hi": p}
        available[s] += (f"exit{k}",)
    rewards = dict(base.rewards)
    for t, r in (("hi", rng.randint(1, 6)), ("lo", rng.randint(-3, 1))):
        available[t] = (f"stay_{t}",)
        delta[f"stay_{t}"] = {t: F(1)}
        rewards[t] = (F(r),)
    return Mdp(
        states=tuple(base.states) + ("hi", "lo"),
        available=available,
        delta=delta,
        initial=base.initial,
        rewards=rewards,
        targets=frozenset({"hi", "lo"}),
    )


def trap_query(seed: int) -> Query:
    rng = random.Random(f"query:{seed}")
    return Query(
        objective="reach",
        constraints=(
            Constraint(
                dim=0,
                expectation=F(rng.randint(-2, 8), 2),
                cvar=(F(rng.randint(1, 3), 4), F(rng.randint(-6, 4), 2)),
            ),
        ),
    )


def two_owner_ring():
    """An 80-state ring r0 -> ... -> r79 -> r0, above ``MEC_LP_LIMIT``, whose
    exit e1 at r10 reaches ``hi`` (worth 10) and e2 at r50 reaches ``mid``
    (worth 4), with the query E >= 7: the witness uses both exits, so its
    pending exits sit at two states of one MEC."""
    ring = [f"r{i}" for i in range(80)]
    available = {s: (f"fwd{i}",) for i, s in enumerate(ring)}
    delta = {f"fwd{i}": {ring[(i + 1) % 80]: F(1)} for i in range(80)}
    available["r10"] += ("e1",)
    available["r50"] += ("e2",)
    delta["e1"], delta["e2"] = {"hi": F(1)}, {"mid": F(1)}
    rewards = {s: (F(0),) for s in ring}
    for t, r in (("hi", 10), ("mid", 4)):
        available[t], delta[f"stay_{t}"], rewards[t] = (f"stay_{t}",), {t: F(1)}, (F(r),)
    mdp = Mdp(
        states=tuple(ring) + ("hi", "mid"),
        available=available,
        delta=delta,
        initial="r0",
        rewards=rewards,
        targets=frozenset({"hi", "mid"}),
    )
    return mdp, Query(objective="reach", constraints=(Constraint(dim=0, expectation=F(7)),))


def test_generator_reaches_trapping_and_no_attraction():
    quotients = [mec_quotient(trap_mdp(seed)) for seed in SEEDS]
    assert any(cleanup(qm) is not qm for qm in quotients)
    assert any(check_attraction(qm) == "neither" for qm in quotients)
    assert any(check_attraction(qm) != "neither" for qm in quotients)


def test_reach_agrees_with_its_mean_payoff_encoding():
    statuses = set()
    for seed in range(200):
        m, q = trap_mdp(seed), trap_query(seed)
        mm, mq = reach_to_mean(m, q)
        reach = decide_reach_single(m, q)
        mean = decide_mean_single(mm, mq)
        assert reach.status == mean.status, f"seed {seed}"
        for model, query, verdict in ((m, q, reach), (mm, mq, mean)):
            if verdict.sat:
                ok, _, details = check_strategy(model, verdict.witness, query)
                assert ok, (seed, details)
        statuses.add(reach.status)
    assert statuses == {"SAT", "UNSAT"}


def _lift(seed: int, kind: str):
    """``trap_mdp(seed)`` with a second reward dimension on its targets, and
    ``trap_query(seed)`` plus an expectation (``kind`` "e") or a VaR bound
    (``kind`` "var") on that dimension."""
    m, q = trap_mdp(seed), trap_query(seed)
    rng = random.Random(f"lift:{seed}")
    rewards = {s: (r[0], F(rng.randint(-2, 3)) if s in m.targets else F(0)) for s, r in m.rewards.items()}
    if kind == "e":
        extra = Constraint(dim=1, expectation=F(rng.randint(-2, 4), 2))
    else:
        values = sorted(rewards[t][1] for t in m.targets) + [F(0)]
        extra = Constraint(dim=1, var=(F(rng.randint(1, 3), 4), rng.choice(values)))
    return replace(m, rewards=rewards), replace(q, constraints=q.constraints + (extra,))


def test_two_dim_reach_without_attraction_is_exact():
    # the mean-payoff encoding rejects VaR in several dimensions, and sweeps
    # a threshold grid for CVaR; reachability answers both exactly
    seen = {}
    for seed in range(60):
        if check_attraction(mec_quotient(trap_mdp(seed))) != "neither":
            continue
        for kind in ("e", "var"):
            m, q = _lift(seed, kind)
            verdict = decide(m, q)
            assert verdict.status in ("SAT", "UNSAT"), (seed, kind)
            if verdict.sat:
                ok, _, details = check_strategy(m, verdict.witness, q)
                assert ok, (seed, kind, details)
            try:
                mean = decide_mean_multi(*reach_to_mean(m, q), grid=4).status
            except UnsupportedQueryError:
                mean = "UNKNOWN"
            assert mean in ("UNKNOWN", verdict.status), (seed, kind)
            key = (kind, verdict.status, mean == verdict.status)
            seen[key] = seen.get(key, 0) + 1
    assert {key for key, count in seen.items() if count >= 5} == {
        ("e", "SAT", True),
        ("e", "UNSAT", True),
        ("var", "SAT", False),
        ("var", "UNSAT", False),
    }, seen


def test_witness_does_not_depend_on_the_hash_seed():
    # trap seed 171 has two equally short routes into the frequency support
    # at s5; on the two-owner ring the pending exits are listed in the
    # owners' order, which set iteration once took from the hash seed
    cases = [
        ("strategy_to_json(decide(trap_mdp(171), trap_query(171)).witness)", ("1", "4")),
        ("verdict_to_json(decide(*two_owner_ring()))", ("0", "1")),
    ]
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    for expr, seeds in cases:
        script = (
            "from cvarmdp.serialize import strategy_to_json, verdict_to_json\n"
            "from cvarmdp.solver import decide\n"
            "from test_oracles import trap_mdp, trap_query, two_owner_ring\n"
            f"print({expr})\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in seeds
        ]
        assert outputs[0] and outputs[0] == outputs[1], expr


# ------------------------------------------- evaluation against a reference


def _action_product(mdp: Mdp, sigma: StrategySpec) -> MarkovChain:
    """The product over (state, memory, action) triples, with the action
    drawn on arrival; a target without a move takes its least action."""

    def move(s, m):
        dist = sigma.next_move.get((s, m))
        return {min(mdp.available[s]): F(1)} if dist is None and s in mdp.targets else dist

    initial = {}
    for m, pm in sigma.initial_memory.items():
        for a, pa in move(mdp.initial, m).items():
            if pm * pa:
                initial[(mdp.initial, m, a)] = pm * pa
    delta, frontier, seen = {}, list(initial), set(initial)
    while frontier:
        st = s, m, a = frontier.pop()
        if s in mdp.targets:
            delta[st] = {st: F(1)}
            continue
        row = delta[st] = {}
        for s2, pt in mdp.delta[a].items():
            for m2, pu in sigma.memory_update.get((a, s2, m), {m: F(1)}).items():
                for a2, pa in move(s2, m2).items():
                    if pt * pu * pa:
                        key = (s2, m2, a2)
                        row[key] = row.get(key, F(0)) + pt * pu * pa
                        if key not in seen:
                            seen.add(key)
                            frontier.append(key)
    states = tuple(sorted(seen, key=repr))
    rewards = {st: mdp.rewards[st[0]] for st in states}
    targets = frozenset(st for st in states if st[0] in mdp.targets)
    return MarkovChain(states, delta, initial, rewards, targets)


def _absorption_per_sink(mc: MarkovChain, sinks) -> dict:
    """Forward solve with one right-hand-side column per sink."""
    sinks = sorted(sinks, key=repr)
    live = backward_reachable(chain_graph(mc), set(sinks))
    transient = [s for s in mc.states if s in live and s not in sinks]
    idx = {s: i for i, s in enumerate(transient)}
    a = [{i: F(1)} for i in range(len(transient))]
    b = [[mc.delta[s].get(t, F(0)) for t in sinks] for s in transient]
    for s in transient:
        for t, p in mc.delta[s].items():
            if t in idx:
                a[idx[s]][idx[t]] = a[idx[s]].get(idx[t], F(0)) - p
    x = solve_linear(a, b) if transient else []
    out = {t: F(0) for t in sinks}
    for s, mu in mc.initial_distribution.items():
        for j, t in enumerate(sinks):
            out[t] += mu * (x[idx[s]][j] if s in idx else F(s == t))
    return out


def _reference_law(mdp: Mdp, sigma: StrategySpec, objective: str):
    """Per-dimension law: first target hit (residual mass at 0), or the
    stationary gain of the bottom component reached in a chain whose bottom
    components are frozen into absorbing targets."""
    mc = _action_product(mdp, sigma)
    if objective == "reach":
        gains = [({t}, mc.rewards[t]) for t in mc.targets]
        probs = _absorption_per_sink(mc, mc.targets)
    else:
        gains = []
        for comp in bsccs(mc):
            members = sorted(comp, key=repr)
            n = len(members)
            # stationarity at members[:-1] from in-neighbours, then total mass 1
            a = [[mc.delta[s].get(u, F(0)) - (s == u) for s in members] for u in members[:-1]]
            b = [[F(0)] for _ in members[:-1]] + [[F(1)]]
            rows = [{k: v for k, v in enumerate(row) if v} for row in a + [[F(1)] * n]]
            pi = [row[0] for row in solve_linear(rows, b)]
            gain = tuple(sum(p * mc.rewards[s][j] for p, s in zip(pi, members)) for j in range(mc.dim))
            gains.append((comp, gain))
        bottom = {s for comp, _ in gains for s in comp}
        frozen = {s: ({s: F(1)} if s in bottom else mc.delta[s]) for s in mc.states}
        aux = MarkovChain(mc.states, frozen, mc.initial_distribution, mc.rewards, frozenset(bottom))
        probs = _absorption_per_sink(aux, bottom)
    marginals = []
    for j in range(mc.dim):
        atoms = {F(0): 1 - sum(probs.values())}
        for comp, gain in gains:
            atoms[gain[j]] = atoms.get(gain[j], F(0)) + sum(probs[s] for s in comp)
        marginals.append(FiniteDistribution(atoms))
    return marginals


def _random_dist(rng: random.Random, keys) -> dict:
    weights = [F(rng.randint(0, 3)) for _ in keys]
    weights[rng.randrange(len(keys))] += 1
    total = sum(weights)
    return {k: w / total for k, w in zip(keys, weights)}


def _random_strategy(rng: random.Random, mdp: Mdp) -> StrategySpec:
    """Two memory elements with stochastic updates, or a mixture of two
    memoryless strategies; targets get no move either way."""
    inner = [s for s in mdp.states if s not in mdp.targets]
    if rng.random() < 1 / 3:
        pure = [memoryless({s: _random_dist(rng, mdp.available[s]) for s in inner}) for _ in range(2)]
        return mix_strategies(*pure, F(rng.randint(1, 3), 4))
    memory = ("m0", "m1")
    return StrategySpec(
        memory=memory,
        initial_memory=_random_dist(rng, memory),
        next_move={(s, m): _random_dist(rng, mdp.available[s]) for s in inner for m in memory},
        memory_update={
            (a, t, m): _random_dist(rng, memory)
            for a in mdp.delta
            for t in mdp.delta[a]
            for m in memory
            if rng.random() < 1 / 2
        },
    )


def test_evaluation_matches_the_action_product_reference():
    rng = random.Random(5)
    untargeted_bottoms = 0
    for seed in range(40):
        if seed % 2:
            mdp = trap_mdp(seed)
        else:
            mdp = random_mdp(rng.randint(3, 6), 2, F(1, 2), (-2, 4), 2, seed=seed, targets=2)
        sigma = _random_strategy(rng, mdp)
        for objective in ("reach", "mean"):
            law = evaluate(mdp, sigma, objective)
            assert law.marginals == _reference_law(mdp, sigma, objective), (seed, objective)
        mc = _action_product(mdp, sigma)
        untargeted_bottoms += any(not comp & mc.targets for comp in bsccs(mc))
    assert untargeted_bottoms  # some runs settle away from every target


def test_witness_law_against_monte_carlo():
    # runs caught in a target-free end component sample 0 at the horizon,
    # as the exact law counts them
    cfg = SimConfig(runs=4000, horizon=1000, seed=0, burn_in=0)
    kinds = set()
    for seed in SEEDS:
        m, q = trap_mdp(seed), trap_query(seed)
        verdict = decide(m, q)
        if not verdict.sat:
            continue
        law = evaluate(m, verdict.witness, "reach")[0]
        mean = sample_payoffs(m, verdict.witness, "reach", cfg).mean()
        e = expectation(law)
        if len(law.atoms) == 1:
            assert mean == e, seed
        else:
            variance = sum((x - e) ** 2 * p for x, p in law.atoms.items())
            assert abs(mean - float(e)) <= 4 * math.sqrt(variance / cfg.runs), seed
        kinds.add(len(law.atoms) == 1)
    assert kinds == {True, False}


# ----------------------------------- CVaR row against the split-variable rows


def _reach_lp(m: Mdp, rows) -> LinearProgram:
    """The solver's flow LP for one threshold guess: its block plus its guess rows."""
    block = _reach_block(m)
    return LinearProgram(block.variables, block.constraints + rows)


def _split_variable_lp(m: Mdp, query: Query, tc) -> LinearProgram:
    """Reference encoding of each CVaR constraint (p, c) at threshold t: split
    parts u_s <= x_s of the targets worth exactly t top the mass below t up
    to exactly p, and that tail's value is at least p*c.  A VaR row at the
    CVaR level is left out; the "= p" row implies it."""
    same = {c.dim for c in query.constraints if c.cvar and c.var and c.cvar[0] == c.var[0]}
    rest = tuple(replace(c, cvar=None, var=None if c.dim in same else c.var) for c in query.constraints)
    ((_, rows),) = _reach_guesses(m, replace(query, constraints=rest))
    prog = _reach_lp(m, rows)
    for c in query.constraints:
        if c.cvar is None:
            continue
        (p, bound), j, t = c.cvar, c.dim, tc[c.dim]
        lows = [s for s in m.targets if m.rewards[s][j] < t]
        u = {s: f"u{j}::{s!r}" for s in m.targets if m.rewards[s][j] == t}
        prog.variables += list(u.values())
        for s, name in u.items():
            prog.add({name: F(1), _x(s): F(-1)}, "<=", F(0))
        prog.add({**{_x(s): F(1) for s in lows}, **{name: F(1) for name in u.values()}}, "==", p)
        value = {_x(s): m.rewards[s][j] for s in lows}
        prog.add({**value, **{name: t for name in u.values()}}, ">=", p * bound)
    return prog


def _with_var(rng: random.Random, m: Mdp, query: Query) -> Query:
    """``query`` plus a VaR constraint at the CVaR level on about half of its
    CVaR dimensions, at another level on a quarter; bounds lie near the
    rewards of random targets."""
    cons = []
    for c in query.constraints:
        rewards = sorted(m.rewards[t][c.dim] for t in m.targets)
        kind = rng.choice(("same", "same", "other", "none"))
        if c.cvar is not None and kind != "none":
            level = c.cvar[0] if kind == "same" else F(rng.randint(1, 9), 10)
            c = replace(c, var=(level, rng.choice(rewards) + F(rng.randint(-2, 1), 2)))
        cons.append(c)
    return replace(query, constraints=tuple(cons))


def _cvar_row_instances():
    """Cleaned quotients of attracting ``trap_mdp`` models with random CVaR
    queries, and quotients of small 3-SAT reductions with their own."""
    rng = random.Random(9)
    for seed in range(100):
        m = trap_mdp(seed)
        qm = mec_quotient(m)
        if check_attraction(qm) != "neither":
            q = cleanup(qm).quotient
            rewards = sorted(r for (r,) in (q.rewards[t] for t in q.targets))
            bound = rng.choice(rewards) + F(rng.randint(-2, 1), 2)
            mean_bound = rng.choice(rewards) if rng.random() < 0.3 else None
            cvar_c = Constraint(dim=0, expectation=mean_bound, cvar=(F(rng.randint(1, 9), 10), bound))
            yield q, _with_var(rng, q, Query(objective="reach", constraints=(cvar_c,)))
    for _ in range(16):
        clauses = tuple(
            tuple(rng.choice((1, -1)) * v for v in rng.sample((1, 2), rng.randint(1, 2)))
            for _ in range(rng.randint(1, 2))
        )
        m, _, query = sat_reduction(Cnf3(2, clauses))
        q = mec_quotient(m).quotient
        yield q, _with_var(rng, q, query)


def test_cvar_row_against_the_split_variable_encoding():
    same_level = instances = 0
    for m, query in _cvar_row_instances():
        new_any = ref_any = False
        for tc, rows in _reach_guesses(m, query):
            new = solve_feasibility(_reach_lp(m, rows))
            ref = solve_feasibility(_split_variable_lp(m, query, tc))
            assert new.ok or not ref.ok, (query, tc)
            new_any, ref_any = new_any or new.ok, ref_any or ref.ok
            if not new.ok:
                continue
            for c in query.constraints:
                atoms = {}
                for s in m.targets:
                    r = m.rewards[s][c.dim]
                    atoms[r] = atoms.get(r, F(0)) + new.assignment.get(_x(s), F(0))
                law = FiniteDistribution(atoms)
                assert c.cvar is None or cvar(law, c.cvar[0]) >= c.cvar[1], (query, tc)
                assert c.var is None or var(law, c.var[0]) >= c.var[1], (query, tc)
                assert c.expectation is None or expectation(law) >= c.expectation
        assert new_any == ref_any, query
        instances += 1
        same_level += any(c.var and c.var[0] == c.cvar[0] for c in query.constraints)
    assert instances > 40 and same_level > 15


def _labelling_sweep(mdp: Mdp, query: Query, grid: int):
    """The status of the sweep that ``decide_mean_multi`` ran before its
    epigraph LPs, and how many threshold guesses the epigraph LP refutes.

    The sweep solves every MEC labelling at every grid threshold on the
    block without ``u`` columns and checks feasible guesses' witnesses until
    one passes; its status does not depend on the order.  UNSAT needs no
    feasible guess and point-valued gains.  Each labelling at a threshold
    whose epigraph LP is infeasible must be infeasible too."""
    base = replace(mdp, targets=frozenset())
    dec = mec_decomposition(base)
    mecs, n = dec.mecs, len(dec.mecs)
    bound = {c.dim: c.cvar[1] for c in query.constraints if c.cvar is not None}
    grids, exhaustive = {}, True
    for j in sorted(bound):
        gains = [(solver._mec_gain_flow(base, mec, j, True)[0], solver._mec_gain_flow(base, mec, j)[0]) for mec in mecs]
        exhaustive = exhaustive and all(lo == hi for lo, hi in gains)
        pts = sorted({g for pair in gains for g in pair})
        if pts[-1] < bound[j]:
            return "UNSAT", 0
        refined = set(pts)
        for a, b in zip(pts, pts[1:]):
            refined.update(a + (b - a) * F(k, grid) for k in range(1, grid))
        grids[j] = sorted(t for t in refined if t >= bound[j])
    terms = solver._mec_terms(base, dec)
    labelled = WarmStart(solver._mean_multi_block(base, dec, ()))
    epigraph = WarmStart(solver._mean_multi_block(base, dec, sorted(bound)))

    def solve(start, rows):
        return solve_feasibility(LinearProgram(start.block.variables, start.block.constraints + rows), start)

    feasible = certified = False
    refuted = 0
    for guess, rows in solver._epigraph_guesses(query, grids, terms):
        bounded = solve(epigraph, rows).ok
        refuted += not bounded
        for _, rows in solver._mean_multi_guesses(query, {j: [t] for j, t in guess.items()}, solver._labellings(n), terms):
            res = solve(labelled, rows)
            assert bounded or not res.ok, (query, guess)
            if res.ok and not certified:
                feasible, point = True, res.assignment
                y = {a: point[f"y::{a}"] for a in base.actions}
                freqs = [{a: point[f"xa::{a}"] for a in aa} for _, aa in mecs]
                switch = {members[0]: sum(f.values(), F(0)) for (members, _), f in zip(mecs, freqs)}
                strategy = two_memory_strategy(mdp, y, switch, solver._inner_moves(dec, freqs))
                certified = check_strategy(mdp, strategy, query)[0]
    if certified:
        return "SAT", refuted
    return ("UNSAT" if exhaustive and not feasible else "UNKNOWN"), refuted


def test_epigraph_against_the_labelling_sweep():
    # random 2- and 3-MEC models: CVaR on dimension 0, and E or (with two
    # MECs) CVaR on dimension 1, at grid 4
    rng = random.Random(5)
    seen, refuted = {}, 0
    for seed in range(200):
        n = 3 + seed % 3
        mdp = random_mdp(n, 2, F(1, n), (0, 6), 2, seed)
        mecs = len(mec_decomposition(mdp).mecs)
        if mecs not in (2, 3):
            continue
        first = Constraint(dim=0, cvar=(rng.choice((F(1, 2), F(1, 3), F(1, 4))), F(rng.randint(0, 12), 2)))
        if mecs == 3 or rng.random() < 0.5:
            second = Constraint(dim=1, expectation=F(rng.randint(0, 12), 2))
        else:
            second = Constraint(dim=1, cvar=(F(1, 2), F(rng.randint(0, 8), 2)))
        query = Query(objective="mean", constraints=(first, second))
        old, count = _labelling_sweep(mdp, query, 4)
        verdict = decide_mean_multi(mdp, query, 4)
        assert verdict.status == old, (seed, query)
        if verdict.sat:
            ok, _, details = check_strategy(mdp, verdict.witness, query)
            assert ok, (seed, details)
        key = (mecs, old)
        seen[key] = seen.get(key, 0) + 1
        refuted += count
    assert all(seen.get((mecs, status), 0) >= 2 for mecs in (2, 3) for status in ("SAT", "UNSAT", "UNKNOWN")), seen
    assert sum(seen.values()) > 80 and refuted > 200
