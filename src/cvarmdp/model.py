"""Core data model: MDPs, Markov chains, queries, strategies, verdicts.

All probabilities and rewards are exact ``fractions.Fraction`` values.
Floating point is confined to the simulation module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

Rational = Fraction

State = Hashable
ActionName = str

ZERO = Fraction(0)
ONE = Fraction(1)


class ModelError(ValueError):
    """Raised for structurally broken models or strategies."""


RESERVED_PREFIX = "__"


def reserved_action_problems(actions) -> List[str]:
    """One problem for each action name that starts with ``RESERVED_PREFIX``.

    The decision procedures add actions named with that prefix to the
    models they build (cleanup traps, MEC quotients, the mean-payoff
    abstraction), so an input action named the same would be overwritten.
    ``validate`` accepts such names, since those built models are valid
    MDPs; ``decide`` and ``serialize.model_from_json`` reject them.
    """
    return [
        f"action {a!r} starts with the reserved prefix {RESERVED_PREFIX!r}"
        for a in actions
        if isinstance(a, str) and a.startswith(RESERVED_PREFIX)
    ]


class UnsupportedQueryError(ValueError):
    """Raised when a query falls outside the implemented decision procedures."""


def rat(value, where: str = "value") -> Fraction:
    """Coerce ints, strings like ``"9/10"``, and Fractions to Fraction;
    ``where`` names the value in the error.

    Booleans and floats are rejected on purpose: model data must be exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"{where}: bad rational {value!r}: {exc}") from None
    raise ModelError(f"{where}: not an exact rational: {value!r}; write it as an integer or a string 'a/b'")


Distribution = Dict  # value -> Fraction, positive, summing to 1


def check_distribution(dist: Mapping, what: str, problems: List[str]) -> None:
    total = ZERO
    for key, prob in dist.items():
        if not isinstance(prob, Fraction):
            problems.append(f"{what}: probability of {key!r} is not a Fraction")
            return
        if prob < 0:
            problems.append(f"{what}: negative probability {prob} at {key!r}")
        total += prob
    if total != 1:
        problems.append(f"{what}: probabilities sum to {total}, not 1")


def normalized(dist: Mapping) -> Dict:
    """Drop zero-probability entries; keep exact values."""
    return {k: v for k, v in dist.items() if v != 0}


@dataclass(frozen=True)
class Mdp:
    """Finite MDP with d-dimensional rational state rewards.

    ``available`` partitions the action set: every action belongs to exactly
    one state.  ``targets`` (for reachability objectives) must be absorbing.
    """

    states: Tuple[State, ...]
    available: Mapping[State, Tuple[ActionName, ...]]
    delta: Mapping[ActionName, Mapping[State, Fraction]]
    initial: State
    rewards: Mapping[State, Tuple[Fraction, ...]]
    targets: frozenset = frozenset()

    @property
    def dim(self) -> int:
        return len(self.rewards[self.initial])

    @property
    def actions(self) -> List[ActionName]:
        return [a for s in self.states for a in self.available.get(s, ())]

    def successors(self, state: State) -> set:
        out = set()
        for a in self.available.get(state, ()):
            out.update(t for t, p in self.delta[a].items() if p != 0)
        return out


@dataclass(frozen=True)
class MarkovChain:
    """Finite Markov chain with an initial distribution."""

    states: Tuple[State, ...]
    delta: Mapping[State, Mapping[State, Fraction]]
    initial_distribution: Mapping[State, Fraction]
    rewards: Mapping[State, Tuple[Fraction, ...]]
    targets: frozenset = frozenset()

    @property
    def dim(self) -> int:
        return len(self.rewards[self.states[0]])


@dataclass(frozen=True)
class Constraint:
    """Lower-bound constraints for one reward dimension; each is optional."""

    dim: int
    expectation: Optional[Fraction] = None
    cvar: Optional[Tuple[Fraction, Fraction]] = None  # (p, c)
    var: Optional[Tuple[Fraction, Fraction]] = None  # (q, v)


@dataclass(frozen=True)
class Query:
    objective: str  # "reach" | "mean"
    constraints: Tuple[Constraint, ...]

    @property
    def dim(self) -> int:
        return 1 + max((c.dim for c in self.constraints), default=0)


@dataclass(frozen=True)
class StrategySpec:
    """Finite-memory stochastic-update strategy (next-move + memory-update).

    ``memory_update`` is sparse: a missing ``(action, state, memory)`` key
    means the memory is kept unchanged (Dirac identity update).
    """

    memory: Tuple[Hashable, ...]
    initial_memory: Mapping[Hashable, Fraction]
    next_move: Mapping[Tuple[State, Hashable], Mapping[ActionName, Fraction]]
    memory_update: Mapping[Tuple[ActionName, State, Hashable], Mapping[Hashable, Fraction]] = field(
        default_factory=dict
    )


def memoryless(choices: Mapping[State, Mapping[ActionName, Fraction]]) -> StrategySpec:
    """Build a memoryless strategy from per-state action distributions."""
    mem = "m"
    return StrategySpec(
        memory=(mem,),
        initial_memory={mem: ONE},
        next_move={(s, mem): dict(d) for s, d in choices.items()},
    )


@dataclass
class ValidationReport:
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


def validate(model) -> ValidationReport:
    """Check structural invariants; returns a report instead of raising."""
    report = ValidationReport()
    problems = report.problems
    if isinstance(model, Mdp):
        _validate_mdp(model, problems)
    elif isinstance(model, MarkovChain):
        _validate_chain(model, problems)
    else:
        problems.append(f"not a model: {type(model).__name__}")
    return report


def _validate_mdp(mdp: Mdp, problems: List[str]) -> None:
    states = Counter(mdp.states)  # each state once, in order
    problems.extend(f"state {s!r} listed {n} times" for s, n in states.items() if n > 1)
    if mdp.initial not in states:
        problems.append(f"initial state {mdp.initial!r} not a state")
    owner: Dict[ActionName, State] = {}
    for s in states:
        acts = mdp.available.get(s, ())
        if not acts:
            problems.append(f"state {s!r} has no available action")
        for a in acts:
            if a not in owner:
                owner[a] = s
            elif owner[a] == s:
                problems.append(f"action {a!r} listed twice at state {s!r}")
            else:
                problems.append(f"action {a!r} shared between states {owner[a]!r} and {s!r}")
            row = mdp.delta.get(a)
            if row is None:
                problems.append(f"action {a!r} has no transition row")
                continue
            check_distribution(row, f"delta({a!r})", problems)
            for t in row:
                if t not in states:
                    problems.append(f"delta({a!r}) targets unknown state {t!r}")
    for a in mdp.delta:
        if a not in owner:
            problems.append(f"transition row for unavailable action {a!r}")
    dims = {len(v) for v in mdp.rewards.values()}
    if len(dims) > 1:
        problems.append(f"inconsistent reward dimensions: {sorted(dims)}")
    for s in states:
        if s not in mdp.rewards:
            problems.append(f"state {s!r} has no reward vector")
    problems.extend(target_problems(mdp))


def target_problems(mdp: Mdp) -> List[str]:
    """One problem for each target that is not a state, and one for each
    action of a target that leaves the target."""
    states = set(mdp.states)
    return [f"target {t!r} not a state" for t in mdp.targets if t not in states] + [
        f"target {t!r} not absorbing via action {a!r}"
        for t in mdp.targets
        for a in mdp.available.get(t, ())
        if normalized(mdp.delta.get(a, {})) != {t: ONE}
    ]


def _validate_chain(mc: MarkovChain, problems: List[str]) -> None:
    states = set(mc.states)
    check_distribution(mc.initial_distribution, "initial distribution", problems)
    for s in mc.initial_distribution:
        if s not in states:
            problems.append(f"initial distribution over unknown state {s!r}")
    for s in mc.states:
        row = mc.delta.get(s)
        if row is None:
            problems.append(f"state {s!r} has no transition row")
            continue
        check_distribution(row, f"delta({s!r})", problems)
        for t in row:
            if t not in states:
                problems.append(f"delta({s!r}) targets unknown state {t!r}")
        if s not in mc.rewards:
            problems.append(f"state {s!r} has no reward vector")
    for t in mc.targets:
        if t in states and normalized(mc.delta.get(t, {})) != {t: ONE}:
            problems.append(f"target {t!r} not absorbing")


def validate_query(query: Query, dim: int) -> ValidationReport:
    report = ValidationReport()
    problems = report.problems
    if query.objective not in ("reach", "mean"):
        problems.append(f"unknown objective {query.objective!r}")
    seen = set()
    for c in query.constraints:
        if c.dim in seen:
            problems.append(f"duplicate constraint block for dimension {c.dim}")
        seen.add(c.dim)
        if not 0 <= c.dim < dim:
            problems.append(f"constraint dimension {c.dim} outside 0..{dim - 1}")
        for level_pair, name in ((c.cvar, "cvar"), (c.var, "var")):
            if level_pair is not None:
                level, _ = level_pair
                if not ZERO < level < ONE:
                    problems.append(f"{name} level {level} not strictly inside (0,1)")
    return report


def strategy_problems(mdp: Mdp, strategy: StrategySpec) -> List[str]:
    problems: List[str] = []
    mem = set(strategy.memory)
    check_distribution(strategy.initial_memory, "initial memory", problems)
    if set(strategy.initial_memory) - mem:
        problems.append("initial memory distribution uses unknown memory elements")
    for (s, m), dist in strategy.next_move.items():
        if m not in mem:
            problems.append(f"next_move uses unknown memory {m!r}")
        check_distribution(dist, f"next_move({s!r},{m!r})", problems)
        allowed = set(mdp.available.get(s, ()))
        for a, prob in dist.items():
            if prob != 0 and a not in allowed:
                problems.append(f"next_move({s!r},{m!r}) uses unavailable action {a!r}")
    for key, dist in strategy.memory_update.items():
        check_distribution(dist, f"memory_update{key!r}", problems)
        if set(normalized(dist)) - mem:
            problems.append(f"memory_update{key!r} targets unknown memory")
    return problems


@dataclass
class Verdict:
    status: str  # "SAT" | "UNSAT" | "UNKNOWN"
    witness: Optional[StrategySpec] = None
    certificate: Optional[dict] = None

    @property
    def sat(self) -> bool:
        return self.status == "SAT"


def _sums_to_one(dist: Mapping) -> bool:
    if len(dist) == 1:
        (p,) = dist.values()
        return p == 1
    return sum(dist.values()) == 1


def induced_chain(mdp: Mdp, strategy: StrategySpec) -> MarkovChain:
    """Product of an MDP with a finite-memory strategy.

    States are the ``(state, memory)`` pairs reachable with positive
    probability; each row sums over the action the strategy moves with.
    Target pairs are absorbing and need no move, because the payoff is
    decided on arrival.  Rewards and target flags are lifted from the state
    component.

    Raises ``ModelError`` when the initial memory does not sum to 1 or has a
    negative entry, or when the strategy cannot be played from a reached
    non-target pair: it has no move there, its move does not sum to 1, has a
    negative entry or puts positive mass on an action not available at the
    state, or a memory update it takes does not sum to 1 or has a negative
    entry.
    """
    available, delta, targets = mdp.available, mdp.delta, mdp.targets
    next_move, updates = strategy.next_move, strategy.memory_update
    if not _sums_to_one(strategy.initial_memory):
        raise ModelError("initial_memory does not sum to 1")
    for m, pm in strategy.initial_memory.items():
        if pm < 0:
            raise ModelError(f"initial_memory: negative probability {pm} at {m!r}")
    initial = {(mdp.initial, m): pm for m, pm in strategy.initial_memory.items() if pm}
    rows: Dict = {}
    frontier = list(initial)
    seen = set(frontier)
    while frontier:
        pair = frontier.pop()
        s, m = pair
        if s in targets:
            rows[pair] = {pair: ONE}
            continue
        move = next_move.get(pair)
        if move is None:
            raise ModelError(f"strategy undefined at state {s!r}, memory {m!r}")
        if not _sums_to_one(move):
            raise ModelError(f"next_move({s!r},{m!r}) does not sum to 1")
        acts = available.get(s, ())
        row: Dict = {}
        for a, pa in move.items():
            if not pa:
                continue
            if a not in acts:
                raise ModelError(f"next_move({s!r},{m!r}) uses unavailable action {a!r}")
            scaled = pa != 1
            if scaled and pa < 0:
                raise ModelError(f"next_move({s!r},{m!r}): negative probability {pa} at {a!r}")
            for s2, p in delta[a].items():
                if not p:
                    continue
                if scaled:
                    p = pa * p
                # (s, m) is expanded once, so each update is summed once
                update = updates.get((a, s2, m))
                if update is None:
                    key = (s2, m)
                    row[key] = row[key] + p if key in row else p
                    continue
                if not _sums_to_one(update):
                    raise ModelError(f"memory_update{(a, s2, m)!r} does not sum to 1")
                for m2, pu in update.items():
                    if pu:
                        if pu < 0:
                            key = (a, s2, m)
                            raise ModelError(f"memory_update{key!r}: negative probability {pu} at {m2!r}")
                        key = (s2, m2)
                        q = p if pu == 1 else p * pu
                        row[key] = row[key] + q if key in row else q
        rows[pair] = row
        for key in row:
            if key not in seen:
                seen.add(key)
                frontier.append(key)

    states = tuple(sorted(seen, key=repr))
    rewards = {st: mdp.rewards[st[0]] for st in states}
    return MarkovChain(
        states=states,
        delta=rows,
        initial_distribution=initial,
        rewards=rewards,
        targets=frozenset(st for st in states if st[0] in targets),
    )
