"""Model constructors: benchmark examples, a 3-SAT reduction, random instances.

All constructors return exact-rational models.  The reduction maps a 3-CNF
formula to a multi-dimensional weighted-reachability query that is satisfiable
iff the formula is.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from .model import Constraint, Mdp, ModelError, Query, Rational, rat, validate

__all__ = [
    "Cnf3",
    "example",
    "sat_reduction",
    "random_mdp",
    "EXAMPLE_NAMES",
]

EXAMPLE_NAMES = ("choice", "loop", "slow(eps)", "negative")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _rewards(states: Sequence[str], dim: int, values: Mapping[str, Mapping[int, Rational]]):
    out = {}
    for s in states:
        vec = [_ZERO] * dim
        for j, v in values.get(s, {}).items():
            vec[j] = rat(v)
        out[s] = tuple(vec)
    return out


def _build(
    states: Sequence[str],
    available: Mapping[str, Sequence[str]],
    delta: Mapping[str, Mapping[str, Rational]],
    initial: str,
    rewards,
    targets: Sequence[str] = (),
) -> Mdp:
    avail = {s: tuple(available.get(s, ())) for s in states}
    dl = {a: {t: rat(pr) for t, pr in row.items()} for a, row in delta.items()}
    # absorbing states without an explicit action get a self-loop
    for s in states:
        if not avail[s]:
            loop = f"stay::{s}"
            avail[s] = (loop,)
            dl[loop] = {s: _ONE}
    mdp = Mdp(
        states=tuple(states),
        available=avail,
        delta=dl,
        initial=initial,
        rewards=rewards,
        targets=frozenset(targets),
    )
    report = validate(mdp)
    if not report.ok:
        raise ModelError("; ".join(report.problems))
    return mdp


def _gamble(
    objective: str, keep: str, win: str, lose: str, rewards: Mapping[str, int], bounds, eps: Rational = 1
) -> Tuple[Mdp, Query]:
    """The stay-or-gamble gadget behind every named example.

    At ``s0``, action ``a`` moves surely to ``keep`` and action ``b`` reaches
    ``win`` with probability 9/10 * eps and ``lose`` with 1/10 * eps, staying
    at ``s0`` otherwise.  ``rewards`` maps states to their one reward; a reach
    objective makes every state but ``s0`` a target.  ``bounds`` are the
    expectation, CVaR and VaR lower bounds, the last two at level 1/20.
    """
    states = list(dict.fromkeys(["s0", keep, win, lose]))
    gamble = {win: Fraction(9, 10) * eps, lose: Fraction(1, 10) * eps}
    if eps != 1:
        gamble["s0"] = 1 - eps
    mdp = _build(
        states,
        {"s0": ("a", "b")},
        {"a": {keep: _ONE}, "b": gamble},
        "s0",
        _rewards(states, 1, {s: {0: r} for s, r in rewards.items()}),
        targets=states[1:] if objective == "reach" else (),
    )
    e, c, v = (rat(b) for b in bounds)
    level = Fraction(1, 20)
    constraint = Constraint(dim=0, expectation=e, cvar=(level, c), var=(level, v))
    return mdp, Query(objective=objective, constraints=(constraint,))


# name -> _gamble arguments; slow(eps) is loop with the gamble slowed by eps
_EXAMPLES = {
    "choice": ("reach", "t5", "t10", "t0", {"t5": 5, "t10": 10}, (6, 2, 5)),
    "loop": ("mean", "s0", "r10", "r0", {"s0": 5, "r10": 10}, (6, 2, 5)),
    "negative": ("reach", "s0", "p5", "m5", {"p5": 5, "m5": -5}, (1, -3, 0)),
}
_SLOW_RE = re.compile(r"^slow\((.+)\)$")


def example(name: str) -> Tuple[Mdp, Query]:
    """Return a named benchmark instance as an ``(Mdp, Query)`` pair.

    All are one stay-or-gamble gadget (see ``_gamble``).  Known names:
    ``choice`` (one-shot branch, weighted reachability), ``loop``
    (stay-or-gamble mean payoff, needs two-memory witnesses), ``slow(eps)``
    with a rational ``eps`` in (0, 1) such as ``slow(1/8)`` (the slowed
    gamble whose witness switch probability scales with eps; ``loop`` is its
    ``eps = 1`` case), and ``negative`` (mixed-sign rewards and a loop at
    ``s0`` that reaches no target: reachability without attraction).
    """
    if name in _EXAMPLES:
        return _gamble(*_EXAMPLES[name])
    m = _SLOW_RE.match(name)
    if m:
        eps = rat(m.group(1))
        if not (0 < eps < 1):
            raise ModelError(f"slow parameter must lie in (0,1), got {eps}")
        return _gamble(*_EXAMPLES["loop"], eps)
    raise ModelError(f"unknown example {name!r}; expected one of {EXAMPLE_NAMES}")


@dataclass(frozen=True)
class Cnf3:
    """A CNF formula with at most three literals per clause.

    Literals use DIMACS conventions: a nonzero integer whose absolute value is
    a 1-based variable index; negative means negated.
    """

    num_vars: int
    clauses: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ModelError("formula needs at least one variable")
        for clause in self.clauses:
            if not 1 <= len(clause) <= 3:
                raise ModelError(f"clause {clause} must have 1..3 literals")
            for lit in clause:
                if not isinstance(lit, int) or lit == 0:
                    raise ModelError(f"bad literal {lit!r} in clause {clause}")
                if abs(lit) > self.num_vars:
                    raise ModelError(
                        f"literal {lit} references undeclared variable "
                        f"(declared {self.num_vars})"
                    )

    def assignments(self):
        for mask in range(1 << self.num_vars):
            yield tuple(bool(mask >> i & 1) for i in range(self.num_vars))

    def satisfied(self, assignment: Sequence[bool]) -> bool:
        return all(
            any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)
            for clause in self.clauses
        )

    def brute_force_sat(self) -> bool:
        return any(self.satisfied(a) for a in self.assignments())


def _lit_name(lit: int) -> str:
    return f"x{abs(lit)}{'+' if lit > 0 else '-'}"


def sat_reduction(cnf: Cnf3) -> Tuple[Mdp, Dict[str, Tuple[Rational, ...]], Query]:
    """Encode a 3-CNF formula as a multi-constraint reachability query.

    The instance is satisfiable iff the formula is.  Construction, for M
    variables and N clauses (dimension d = M + N):

    - the initial state branches uniformly to one chooser state per variable;
    - chooser m offers ``tt`` (9/20 to a 10-reward leaf, 1/20 to a 0-reward
      leaf, 1/2 to the positive-literal hub) and ``ff`` (1/2 to a 5-reward
      leaf, 1/2 to the negative-literal hub), rewards living in dimension m;
    - each literal hub moves uniformly to one leaf per clause containing the
      literal; that leaf pays 10 in the variable dimension and 1 in the
      clause dimension (a literal occurring in no clause gets a plain
      10-reward leaf);
    - per variable: CVaR at level p_m = (M-1)/M + 1/(10M) must reach
      c_m = 1/(2*M*p_m).  Mixing the two chooser actions strictly lowers the
      tail value, so only the two pure choices meet the bound (with equality);
    - per clause: expected reward in the clause dimension must reach
      1/(2*M*N), which holds iff some chosen literal satisfies the clause.
    """
    M = cnf.num_vars
    N = len(cnf.clauses)
    d = M + N

    # clause indices per literal, deduplicated (uniform choice over a set)
    incidence: Dict[int, List[int]] = {}
    for n, clause in enumerate(cnf.clauses):
        for lit in set(clause):
            incidence.setdefault(lit, []).append(n)

    states: List[str] = ["s0"]
    available: Dict[str, List[str]] = {"s0": ["init"]}
    delta: Dict[str, Dict[str, Fraction]] = {
        "init": {f"?{m}": Fraction(1, M) for m in range(1, M + 1)}
    }
    reward_at: Dict[str, Dict[int, Rational]] = {}
    targets: List[str] = []

    for m in range(1, M + 1):
        chooser = f"?{m}"
        leaf10, leaf0, leaf5 = f"win10_{m}", f"win0_{m}", f"win5_{m}"
        states += [chooser, leaf10, leaf0, leaf5]
        targets += [leaf10, leaf0, leaf5]
        reward_at[leaf10] = {m - 1: Fraction(10)}
        reward_at[leaf5] = {m - 1: Fraction(5)}
        available[chooser] = [f"tt{m}", f"ff{m}"]
        for lit in (m, -m):
            hub = _lit_name(lit)
            states.append(hub)
            commit = f"commit::{hub}"
            available[hub] = [commit]
            hits = incidence.get(lit, [])
            if hits:
                row: Dict[str, Fraction] = {}
                for n in hits:
                    leaf = f"sat::{hub}::{n}"
                    states.append(leaf)
                    targets.append(leaf)
                    reward_at[leaf] = {m - 1: Fraction(10), M + n: Fraction(1)}
                    row[leaf] = Fraction(1, len(hits))
                delta[commit] = row
            else:
                leaf = f"free::{hub}"
                states.append(leaf)
                targets.append(leaf)
                reward_at[leaf] = {m - 1: Fraction(10)}
                delta[commit] = {leaf: _ONE}
        delta[f"tt{m}"] = {
            leaf10: Fraction(9, 20),
            leaf0: Fraction(1, 20),
            _lit_name(m): Fraction(1, 2),
        }
        delta[f"ff{m}"] = {leaf5: Fraction(1, 2), _lit_name(-m): Fraction(1, 2)}

    mdp = _build(
        states,
        available,
        delta,
        "s0",
        _rewards(states, d, reward_at),
        targets=targets,
    )

    constraints: List[Constraint] = []
    for m in range(1, M + 1):
        p_m = Fraction(M - 1, M) + Fraction(1, 10 * M)
        c_m = Fraction(1, 2) / (M * p_m)
        constraints.append(Constraint(dim=m - 1, cvar=(p_m, c_m)))
    for n in range(N):
        constraints.append(
            Constraint(dim=M + n, expectation=Fraction(1, 2 * M * N))
        )
    query = Query(objective="reach", constraints=tuple(constraints))
    return mdp, dict(mdp.rewards), query


def random_mdp(
    states: int,
    actions_per_state: int,
    density: Rational,
    reward_range: Tuple[int, int],
    d: int,
    seed: int,
    *,
    targets: int = 0,
) -> Mdp:
    """Generate a seeded-deterministic valid MDP.

    ``density`` in (0, 1] controls branching: each action reaches roughly
    ``density * states`` successors.  ``targets`` marks that many trailing
    states as absorbing targets; non-target actions then always keep a path
    toward higher-numbered states so targets stay reachable.
    """
    if states < 1 or actions_per_state < 1 or d < 1:
        raise ModelError("states, actions_per_state and d must be positive")
    dens = rat(density)
    if not (0 < dens <= 1):
        raise ModelError(f"density must lie in (0,1], got {dens}")
    if not (0 <= targets < states or (targets == states == 1)):
        raise ModelError("target count out of range")
    lo, hi = reward_range
    if lo > hi:
        raise ModelError(f"reward range {lo}..{hi} is empty")
    rng = random.Random(seed)
    names = [f"s{i}" for i in range(states)]
    target_names = names[states - targets :] if targets else []
    fanout = max(1, round(dens * Fraction(states)))

    available: Dict[str, List[str]] = {}
    delta: Dict[str, Dict[str, Fraction]] = {}
    for i, s in enumerate(names):
        if s in target_names:
            available[s] = []
            continue
        acts = [f"a{i}_{k}" for k in range(actions_per_state)]
        available[s] = acts
        for a in acts:
            succ = rng.sample(names, min(fanout, states))
            if targets and not any(names.index(t) > i for t in succ):
                succ[rng.randrange(len(succ))] = names[rng.randrange(i + 1, states)]
            weights = [rng.randint(1, 8) for _ in succ]
            total = sum(weights)
            delta[a] = {}
            for t, w in zip(succ, weights):
                delta[a][t] = delta[a].get(t, _ZERO) + Fraction(w, total)

    rewards = {
        s: tuple(Fraction(rng.randint(lo, hi)) for _ in range(d)) for s in names
    }
    return _build(names, available, delta, names[0], rewards, targets=target_names)
