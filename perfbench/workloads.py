"""Seeded instance generators for the benchmark workloads.

A workload's corpus at seed ``s`` is drawn from ``random.Random(f"{w}:{s}")``,
so one seed always gives the same inputs, and different seeds cost about the
same.  On ``ring`` the seed draws exit probabilities, which leave the work
unchanged.  ``reach-lp``, ``sat-gadget`` and ``mean-multi`` (and so
``lp-mix``) are fixed sets of problems, drawn once from seed-independent
generators; there the seed renames and reorders each model's states and
actions (``relabel``).  Drawing the problems themselves per seed made the
cost of one instance swing by up to 1.6x between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from cvarmdp import (
    Cnf3,
    Constraint,
    Mdp,
    ModelError,
    Query,
    random_mdp,
    sat_reduction,
    validate,
    validate_query,
)


@dataclass(frozen=True)
class Instance:
    id: str
    mdp: Mdp
    query: Query
    # verdicts consistent with the known answer; None when it is unknown
    allowed: Optional[Tuple[str, ...]] = None


def _rename(prefix: str, items: Sequence, rng: random.Random, keep_order: bool) -> dict:
    if keep_order:  # new names sort as the old ones did
        keys = sorted(rng.sample(range(10**6), len(items)))
        return {x: f"{prefix}{k:06d}" for x, k in zip(sorted(items), keys)}
    return {x: f"{prefix}{k}" for x, k in zip(items, rng.sample(range(len(items)), len(items)))}


def relabel(mdp: Mdp, rng: random.Random, reorder: bool = True) -> Mdp:
    """An isomorphic copy with states and actions renamed at random.

    With ``reorder`` the states and each state's actions are shuffled too.
    Without it they keep their order, and the new names sort as the old ones
    did: the mean-payoff procedures visit their guesses in that order, and
    which witness they find first, and so their cost, depends on it.
    """
    states = list(mdp.states)
    sname = _rename("q", states, rng, not reorder)
    aname = _rename("a", mdp.actions, rng, not reorder)
    if reorder:
        rng.shuffle(states)

    def order(acts):
        return rng.sample(acts, len(acts)) if reorder else acts

    return Mdp(
        states=tuple(sname[s] for s in states),
        available={sname[s]: tuple(aname[a] for a in order(mdp.available.get(s, ()))) for s in states},
        delta={aname[a]: {sname[t]: p for t, p in d.items()} for a, d in mdp.delta.items()},
        initial=sname[mdp.initial],
        rewards={sname[s]: r for s, r in mdp.rewards.items()},
        targets=frozenset(sname[t] for t in mdp.targets),
    )


def check_inputs(inst: Instance) -> None:
    """Raise ModelError unless the instance is a valid model/query pair."""
    problems = validate(inst.mdp).problems + validate_query(inst.query, inst.mdp.dim).problems
    if problems:
        raise ModelError(f"{inst.id}: " + "; ".join(problems))


# ------------------------------------------------------------------- ring

RING_QUERY = Query(
    objective="reach",
    constraints=(Constraint(dim=0, expectation=F(5), cvar=(F(1, 20), F(0))),),
)


def ring_mdp(n: int, gate: int, rng: random.Random, exits: int = 3) -> Mdp:
    """One (n-2)-state end component with all exits at one gate state.

    The shape is the acceptance tests' ``_big_ring``, except that the exits
    leave from a single state at distance ``gate`` from the start.  In
    ``_big_ring`` the exit the LP picks depends on the seed, and the witness
    chain (and so the evaluation cost) ranges from 3 to ~700 states; here it
    is always ``gate + 3`` states and the seed draws the exit probabilities.
    """
    ring = [f"c{i}" for i in range(n - 2)]
    available, delta, rewards = {}, {}, {}
    for i, s in enumerate(ring):
        acts = [f"fwd{i}"]
        delta[f"fwd{i}"] = {ring[(i + 1) % len(ring)]: F(1)}
        if i == gate:
            for e in range(exits):
                ph = F(rng.randint(6, 9), 10)
                acts.append(f"exit{e}")
                delta[f"exit{e}"] = {"hi": ph, "lo": 1 - ph}
        available[s] = tuple(acts)
        rewards[s] = (F(0),)
    for t in ("hi", "lo"):
        available[t] = (f"stay_{t}",)
        delta[f"stay_{t}"] = {t: F(1)}
    rewards["hi"], rewards["lo"] = (F(10),), (F(0),)
    return Mdp(
        states=tuple(ring + ["hi", "lo"]),
        available=available,
        delta=delta,
        initial=ring[0],
        rewards=rewards,
        targets=frozenset({"hi", "lo"}),
    )


def ring_corpus(rng: random.Random, tiny: bool) -> List[Instance]:
    # 300 states is verified inside decide (below SolverConfig.verify_limit),
    # 1000 states only on the quotient, so the benchmark's re-check is the
    # sole full evaluation there.
    sizes = ((30, 8), (60, 10)) if tiny else ((300, 80), (1000, 100))
    return [Instance(f"ring{n}", ring_mdp(n, gate, rng), RING_QUERY, allowed=("SAT",)) for n, gate in sizes]


# --------------------------------------------------------------- reach-lp

# VaR rather than CVaR: a CVaR constraint makes decide enumerate thresholds,
# and on about one instance in six the first guess is infeasible, which
# doubles that instance's LP work.  A VaR threshold is fixed up front, so
# every instance is exactly one flow LP.
REACH_QUERY = Query(
    objective="reach",
    constraints=(Constraint(dim=0, expectation=F(3), var=(F(1, 5), F(1))),),
)


def reach_lp_corpus(rng: random.Random, tiny: bool, count: int = 8) -> List[Instance]:
    n, count = (12, 2) if tiny else (40, count)
    fixed = random.Random("reach-lp")
    out = []
    for _ in range(count):
        s = fixed.randrange(1 << 30)
        mdp = random_mdp(n, 2, F(1, 10), (0, 10), 1, s, targets=4)
        out.append(Instance(f"random{n}-{s}", relabel(mdp, rng), REACH_QUERY))
    return out


# ------------------------------------------------------------- sat-gadget


def _draw_cnf(rng: random.Random, nvars: int, widths: Sequence[int], models: int) -> Cnf3:
    """A random CNF with the given clause widths and number of models."""
    while True:
        clauses = tuple(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nvars + 1), w))
            for w in widths
        )
        cnf = Cnf3(nvars, clauses)
        if sum(cnf.satisfied(a) for a in cnf.assignments()) == models:
            return cnf


def sat_corpus(rng: random.Random, tiny: bool) -> List[Instance]:
    """A uniquely satisfiable formula under polarity flips, and an
    unsatisfiable one.

    ``decide`` tries the per-variable threshold guesses in binary order, so a
    formula whose only model has rank k stops at the (k+1)-th LP.  The
    variants flip variables so that their models are exactly the assignments
    with an even number of true variables; the ranks, and so the LP counts
    (18 in all for M = 3), are then the same whatever the formula.  The
    unsatisfiable formula exhausts all 2^M guesses through infeasible LPs.
    Both formulas have the same clause widths, so their LPs have about the
    same size.
    """
    nvars, widths = (2, (1, 2, 2)) if tiny else (3, (1, 2, 2, 3, 3))
    fixed = random.Random("sat-gadget")
    uniq = _draw_cnf(fixed, nvars, widths, models=1)
    model = next(a for a in uniq.assignments() if uniq.satisfied(a))
    to_false = sum(1 << i for i, value in enumerate(model) if value)
    cnfs = [
        Cnf3(nvars, tuple(tuple(-lit if mask >> (abs(lit) - 1) & 1 else lit for lit in c) for c in uniq.clauses))
        for mask in (to_false ^ even for even in range(1 << nvars) if bin(even).count("1") % 2 == 0)
    ]
    cnfs.append(_draw_cnf(fixed, nvars, widths, models=0))
    out = []
    for cnf in cnfs:
        mdp, _, query = sat_reduction(cnf)
        answer = "SAT" if cnf.brute_force_sat() else "UNSAT"
        out.append(Instance(f"cnf{cnf.clauses}", relabel(mdp, rng), query, allowed=(answer,)))
    return out


# ------------------------------------------------------------- mean-multi


def chooser_mdp(mecs: Sequence[Sequence[Tuple[int, ...]]]) -> Mdp:
    """A chooser state leading into small end components.

    Each MEC is a list of state reward vectors: one state is a self-loop (a
    point gain), two states form a cycle with a self-loop on each (a gain
    interval between their rewards).
    """
    dim = len(mecs[0][0])
    states, available, delta = ["s"], {"s": []}, {}
    rewards: Dict[str, tuple] = {"s": (F(0),) * dim}
    for k, mec in enumerate(mecs):
        names = [f"m{k}_{i}" for i in range(len(mec))]
        available["s"].append(f"to{k}")
        delta[f"to{k}"] = {names[0]: F(1)}
        for i, (name, vec) in enumerate(zip(names, mec)):
            states.append(name)
            rewards[name] = tuple(F(v) for v in vec)
            available[name] = [f"stay_{name}"]
            delta[f"stay_{name}"] = {name: F(1)}
            if len(mec) > 1:
                nxt = names[(i + 1) % len(mec)]
                available[name].append(f"go_{name}")
                delta[f"go_{name}"] = {nxt: F(1)}
    return Mdp(
        states=tuple(states),
        available={s: tuple(a) for s, a in available.items()},
        delta=delta,
        initial="s",
        rewards=rewards,
    )


# The multi-dimensional mean-payoff procedure may answer UNKNOWN; a wrong
# answer is the opposite definite verdict.
NOT_SAT = ("UNSAT", "UNKNOWN")
NOT_UNSAT = ("SAT", "UNKNOWN")


def _mean_query(cvar_bound, e_bound=None) -> Query:
    cs = [Constraint(dim=0, cvar=(F(1, 2), F(cvar_bound)))]
    if e_bound is not None:
        cs.append(Constraint(dim=1, expectation=F(e_bound)))
    return Query(objective="mean", constraints=tuple(cs))


# Two SAT shapes (MEC reward vectors, CVaR_{1/2} bound on dim 0, E bound on
# dim 1).  A positive affine map of one dimension's rewards and bounds leaves
# every guess LP's feasibility unchanged, so the corpus uses affine images of
# them and the guess sweep stays the same length.
_SAT_SHAPES = (
    ([[(2, 9), (1, 4)], [(1, 7), (7, 10)]], 4, 2),
    ([[(5, 2)], [(0, 1), (1, 5)]], 5, 1),
)


def _affine(rng: random.Random, shape):
    mecs, c, e = shape
    (a0, b0), (a1, b1) = [(rng.randint(1, 3), rng.randint(0, 4)) for _ in range(2)]
    mecs = [[(a0 * x + b0, a1 * y + b1) for x, y in mec] for mec in mecs]
    return mecs, a0 * c + b0, a1 * e + b1


def mean_corpus(rng: random.Random, tiny: bool) -> List[Instance]:
    """The classification x threshold-grid sweep of decide_mean_multi, and
    1-dimensional counterparts that run decide_mean_single.

    - unsat: two point-gain MECs and a CVaR bound above every gain; the sweep
      is provably exhaustive, so all 4 labelings x 17 grid points are tried;
    - unknown: one gain interval and one point gain, CVaR bound above every
      gain; 4 labelings x 33 grid points, and the answer is UNKNOWN;
    - sat-0, sat-1: affine images of the two SAT shapes;
    - 1d-sat-*: dimension 0 of sat-0 and sat-1 with the CVaR constraint alone.
    """
    fixed = random.Random("mean-multi")
    a, b = fixed.sample(range(11), 2)
    cases = [("unsat", [[(a, fixed.randint(0, 10))], [(b, fixed.randint(0, 10))]], max(a, b) + 1, 1, NOT_SAT)]
    if not tiny:
        x, y, z = fixed.sample(range(11), 3)
        mecs = [[(x, fixed.randint(0, 10)), (y, fixed.randint(0, 10))], [(z, fixed.randint(0, 10))]]
        cases.append(("unknown", mecs, max(x, y, z) + 1, 1, NOT_SAT))
    for j, shape in enumerate(_SAT_SHAPES[1:] if tiny else _SAT_SHAPES):
        cases.append((f"sat-{j}", *_affine(fixed, shape), NOT_UNSAT))
    out = []
    for tag, mecs, c, e, allowed in cases:
        out.append(Instance(f"mean-{tag}", relabel(chooser_mdp(mecs), rng, reorder=False), _mean_query(c, e), allowed))
        if tag.startswith("sat"):
            flat = [[v[:1] for v in mec] for mec in mecs]
            out.append(Instance(f"mean-1d-{tag}", relabel(chooser_mdp(flat), rng, reorder=False), _mean_query(c), allowed))
    return out


def lp_mix_corpus(rng: random.Random, tiny: bool) -> List[Instance]:
    """The reach-lp, sat-gadget and mean-multi corpora in one run.

    On a 2-CPU host whose speed drifts for minutes at a time, two long
    workloads measure more steadily than four short ones; the three parts
    stay runnable on their own for a per-part breakdown.  One random
    reachability instance keeps a pass to 9-16 s, so that a 50 s run makes
    2-4 passes; with four it made 2-3.
    """
    return reach_lp_corpus(rng, tiny, count=1) + sat_corpus(rng, tiny) + mean_corpus(rng, tiny)


CORPORA: Dict[str, Callable[[random.Random, bool], List[Instance]]] = {
    "ring": ring_corpus,
    "lp-mix": lp_mix_corpus,
    "reach-lp": reach_lp_corpus,
    "sat-gadget": sat_corpus,
    "mean-multi": mean_corpus,
}


def build_corpus(workload: str, seed: int, tiny: bool = False) -> List[Instance]:
    insts = CORPORA[workload](random.Random(f"{workload}:{seed}"), tiny)
    for inst in insts:
        check_inputs(inst)
    return insts
