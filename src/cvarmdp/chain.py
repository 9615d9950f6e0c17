"""Exact payoff laws and query decision for finite Markov chains.  An
absorption law reads the chain once: one pass lists each state's
predecessors, and the backward search from the sinks, the rows of
(I - Q)^T and the sinks' inflow all read those lists.  Linear systems come
as sparse rows and are solved one strongly connected block at a time; a
block of several unknowns is eliminated in Markowitz order on sparse integer
rows, so no system is ever stored densely.  Nothing is added to zero: a
right-hand side or law entry that is still 0 takes the term itself.
Stationary laws fix pi = 1 at one BSCC member, then scale to mass 1."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Container, Dict, FrozenSet, List, Set, Tuple

from . import risk
from .graphs import bsccs, scc_indices
from .model import MarkovChain, ModelError, Query, State, Verdict, validate_query

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_linear(a: List[Dict[int, Fraction]], b: List[List[Fraction]]) -> List[List[Fraction]]:
    """Solve A X = B exactly.  Row ``i`` of A is the mapping ``{j: A[i][j]}``
    of its nonzero entries; B holds one right-hand-side row per row of A.

    The unknowns are split into the strongly connected components of the
    graph i -> j over the keys of row i, j != i, and solved one block at a
    time, sinks first, with the solved x_j folded into the right-hand side.
    A singleton block is one division; a larger one goes to ``_solve_block``.
    A block-triangular determinant is the product of its blocks', so a
    singular block means a singular system.
    """
    succ = [[j for j in row if j != i] for i, row in enumerate(a)]
    x: List[List[Fraction]] = [[]] * len(a)
    for comp in scc_indices(succ):
        if len(comp) == 1:
            (i,) = comp
            d = a[i].get(i, ZERO)
            if d == 0:
                raise ValueError("singular linear system")
            r = _folded(a[i], b[i], x, comp)
            x[i] = r if d == 1 else [v / d for v in r]
        else:
            block = sorted(comp)
            local = {j: k for k, j in enumerate(block)}
            rows = [{local[j]: v for j, v in a[i].items() if j in local} for i in block]
            rhs = [_folded(a[i], b[i], x, local) for i in block]
            for i, row in zip(block, _solve_block(rows, rhs)):
                x[i] = row
    return x


def _folded(
    row: Dict[int, Fraction], b: List[Fraction], x: List[List[Fraction]], inside: Container[int]
) -> List[Fraction]:
    """``b`` minus ``row[j] * x[j]`` for every solved unknown ``j`` of
    ``row`` outside the block ``inside``.  Zero entries of ``x[j]`` are
    skipped, a coefficient of -1 adds ``x[j]`` as it is, and an entry of
    ``b`` that is still 0 takes the term itself instead of a sum."""
    r = list(b)
    for j, aij in row.items():
        if j not in inside:
            c = None if aij == -1 else -aij
            for k, v in enumerate(x[j]):
                if v:
                    if c is not None:
                        v = c * v
                    rk = r[k]
                    r[k] = rk + v if rk else v
    return r


def _solve_block(a: List[Dict[int, Fraction]], b: List[List[Fraction]]) -> List[List[Fraction]]:
    """Solve one square block A X = B, rows as in ``solve_linear``, by sparse
    fraction-free Gaussian elimination in Markowitz order (Markowitz, "The
    elimination form of the inverse and its application to linear
    programming", Management Science 1957).

    Row ``i`` is kept as the integer equation ``rows[i] . x = rhs[i]``: a
    ``{column: int}`` map of its nonzero entries and a list of right-hand
    sides, with the gcd of all its numbers divided out.  Scaling an equation
    leaves its solutions alone, so no denominator is kept.  Each step takes
    a live row with the fewest live entries and, in it, the live column held
    by the fewest other live rows, then clears that column from exactly
    those rows.  A cleared column leaves every live row, so a pivot row holds
    only columns pivoted after it, and back-substitution in reverse pivot
    order solves the system.  A live row with no live column means a
    singular system.
    """
    n, m = len(a), len(b[0])
    rows: List[Dict[int, int]] = []
    rhs: List[List[int]] = []
    holders: List[Set[int]] = [set() for _ in range(n)]  # live rows by column
    for i, (row, brow) in enumerate(zip(a, b)):
        terms = [(j, *v.as_integer_ratio()) for j, v in row.items()]
        ratios = [v.as_integer_ratio() for v in brow]
        den = lcm(*[d for _, _, d in terms], *[d for _, d in ratios])
        rows.append({j: x * (den // d) for j, x, d in terms if x})
        rhs.append([x * (den // d) for x, d in ratios])
        for j in rows[i]:
            holders[j].add(i)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapify(heap)
    live = [True] * n
    order = []
    while heap:
        count, r = heappop(heap)
        if not live[r] or count != len(rows[r]):
            continue  # a stale entry: the row was pivoted or has changed
        if count == 0:
            raise ValueError("singular linear system")
        live[r] = False
        prow = rows[r]
        for j in prow:
            holders[j].discard(r)
        c = min(prow, key=lambda j: (len(holders[j]), j))
        for i in holders[c]:
            _eliminate(rows, rhs, holders, i, r, c)
            heappush(heap, (len(rows[i]), i))
        order.append((r, c, prow.pop(c)))
    x = [[ZERO] * m for _ in range(n)]
    for k in range(m):
        nums, dens = [0] * n, [1] * n  # x[j][k] = nums[j] / dens[j]
        for r, c, p in reversed(order):
            prow = rows[r]
            den = lcm(*[dens[j] for j in prow])
            s = rhs[r][k] * den
            for j, v in prow.items():
                s -= v * nums[j] * (den // dens[j])
            x[c][k] = xc = Fraction(s, den * p)
            nums[c], dens[c] = xc.as_integer_ratio()
    return x


def _eliminate(
    rows: List[Dict[int, int]], rhs: List[List[int]], holders: List[Set[int]], i: int, r: int, c: int
) -> None:
    """Clear column ``c`` of row ``i`` with pivot row ``r``: row ``i``
    becomes ``p * row_i - a * row_r`` for the pivot entry ``p`` and row
    ``i``'s entry ``a``, both divided by their gcd, and then drops the gcd
    of its numbers.  ``holders`` follows every entry that fills in or
    cancels."""
    prow, row = rows[r], rows[i]
    g = gcd(prow[c], row[c])
    p, f = prow[c] // g, row.pop(c) // g
    if p != 1:
        for j in row:
            row[j] *= p
    for j, v in prow.items():
        if j != c:
            w = row.get(j, 0) - f * v
            if not w:
                del row[j]
                holders[j].discard(i)
            elif j not in row:
                row[j] = w
                holders[j].add(i)
            else:
                row[j] = w
    vals = [p * x - f * y for x, y in zip(rhs[i], rhs[r])]
    g = gcd(*row.values(), *vals)
    if g > 1:
        for j in row:
            row[j] //= g
        vals = [x // g for x in vals]
    rhs[i] = vals


@dataclass
class PayoffLaw:
    """Per-dimension distribution of the payoff under a fixed strategy/chain."""

    marginals: List[risk.FiniteDistribution]

    @property
    def dim(self) -> int:
        return len(self.marginals)

    def __getitem__(self, j: int) -> risk.FiniteDistribution:
        return self.marginals[j]


def _absorbed(mc: MarkovChain, sinks: Set[State]) -> Dict[State, Fraction]:
    """Probability of entering each sink state from the initial distribution.

    One pass over the chain lists the predecessors ``(s, P(s, t))`` of each
    state ``t`` along the nonzero edges leaving non-sinks.  Every later step
    reads these lists: the backward search from the sinks finds the
    transient states that can reach one, row ``t`` of ``(I - Q)^T`` is 1 at
    ``t`` minus ``P(s, t)`` at each predecessor ``s``, and one solve of
    ``(I - Q)^T v = mu`` gives the expected visits ``v``.  A sink then
    receives its initial mass plus ``v(s) * P(s, t)`` over its predecessors.
    Runs that never reach a sink contribute nothing.
    """
    preds: Dict[State, List[Tuple[State, Fraction]]] = {}
    for s in mc.states:
        if s not in sinks:
            for t, p in mc.delta[s].items():
                if p:
                    if t in preds:
                        preds[t].append((s, p))
                    else:
                        preds[t] = [(s, p)]
    seen = set(sinks)
    frontier = list(seen)
    while frontier:
        for s, _ in preds.get(frontier.pop(), ()):
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    # a predecessor of a state in ``seen`` is in ``seen`` and not a sink
    transient = [s for s in mc.states if s in seen and s not in sinks]
    index = {s: i for i, s in enumerate(transient)}
    a: List[Dict[int, Fraction]] = []
    for i, t in enumerate(transient):
        row = {i: ONE}
        for s, p in preds.get(t, ()):
            k = index[s]
            row[k] = ONE - p if k == i else -p
        a.append(row)
    b = [[ZERO] for _ in transient]
    result = {t: ZERO for t in sinks}
    for s, mu in mc.initial_distribution.items():
        if s in index:
            b[index[s]] = [mu]
        elif s in result:
            result[s] = mu
    visits = solve_linear(a, b) if transient else []
    for t in result:
        for s, p in preds.get(t, ()):
            v = visits[index[s]][0]
            if v:
                r = result[t]
                result[t] = r + v * p if r else v * p
    return result


def reach_probabilities(mc: MarkovChain) -> Dict[State, Fraction]:
    """Exact absorption probability for each target, from the initial
    distribution.  States that cannot reach any target contribute nothing."""
    return _absorbed(mc, set(mc.targets))


def _law(dim: int, outcomes: List[Tuple[Fraction, Tuple[Fraction, ...]]]) -> PayoffLaw:
    """The per-dimension law of ``(probability, value vector)`` outcomes;
    the mass they leave short of 1 counts as value 0."""
    outcomes = [(p, v) for p, v in outcomes if p != 0]
    residual = 1 - sum((p for p, _ in outcomes), ZERO)
    marginals = []
    for j in range(dim):
        atoms: Dict[Fraction, Fraction] = {}
        for p, v in outcomes:
            key = v[j]
            atoms[key] = atoms[key] + p if key in atoms else p
        if residual != 0:
            atoms[ZERO] = atoms[ZERO] + residual if ZERO in atoms else residual
        marginals.append(risk.FiniteDistribution(atoms))
    return PayoffLaw(marginals)


def payoff_law_reach(mc: MarkovChain) -> PayoffLaw:
    """Distribution of the reward of the first target visited; mass that never
    reaches a target counts as value 0."""
    return _law(mc.dim, [(p, mc.rewards[t]) for t, p in reach_probabilities(mc).items()])


def bscc_mean_payoff(mc: MarkovChain) -> List[Tuple[FrozenSet, Tuple[Fraction, ...]]]:
    """Expected mean payoff of each BSCC via its exact stationary distribution.

    The stationarity rows pi(t) = sum_s pi(s) P(s, t) sum to zero, so the one
    at ``members[0]`` is replaced by pi(members[0]) = 1, and the solution is
    scaled to mass 1.  A BSCC is irreducible, so its stationary distribution
    is unique and positive (Perron-Frobenius): the system's one solution is
    pi / pi(members[0]), and the gain is that of a total-mass row.  A unit row
    keeps the system sparse where an all-ones row would make it one block.
    """
    out = []
    for comp in bsccs(mc):
        members = sorted(comp, key=repr)
        idx = {s: i for i, s in enumerate(members)}
        a: List[Dict[int, Fraction]] = [{i: -ONE} for i in range(len(members))]
        for i, s in enumerate(members):
            for t, p in mc.delta[s].items():
                if p != 0:
                    row = a[idx[t]]
                    row[i] = row[i] + p if i in row else p
        a[0] = {0: ONE}
        x = [row[0] for row in solve_linear(a, [[ONE]] + [[ZERO] for _ in members[1:]])]
        total = sum(x, ZERO)
        gain = tuple(
            sum((v * mc.rewards[s][j] for v, s in zip(x, members)), ZERO) / total for j in range(mc.dim)
        )
        out.append((frozenset(comp), gain))
    return out


def payoff_law_mean(mc: MarkovChain) -> PayoffLaw:
    """Mean-payoff law: almost every run settles in a BSCC and attains that
    BSCC's expected gain, so the law is the absorption law over BSCCs."""
    gains = bscc_mean_payoff(mc)
    probs = _absorbed(mc, {s for comp, _ in gains for s in comp})
    return _law(mc.dim, [(sum((probs[s] for s in comp), ZERO), gain) for comp, gain in gains])


def check_constraints(law: PayoffLaw, query: Query) -> Tuple[bool, List[dict]]:
    """Evaluate every constraint of the query against an exact payoff law."""
    details = []
    ok = True
    for c in query.constraints:
        d = law[c.dim]
        entry: dict = {"dim": c.dim}
        if c.expectation is not None:
            val = risk.expectation(d)
            entry["expectation"] = (val, c.expectation, val >= c.expectation)
        if c.cvar is not None:
            p, bound = c.cvar
            val = risk.cvar(d, p)
            entry["cvar"] = (val, bound, val >= bound)
        if c.var is not None:
            q, bound = c.var
            val = risk.var(d, q)
            entry["var"] = (val, bound, val >= bound)
        for key in ("expectation", "cvar", "var"):
            if key in entry and not entry[key][2]:
                ok = False
        details.append(entry)
    return ok, details


def decide_mc(mc: MarkovChain, query: Query) -> Verdict:
    """Decide a query on a Markov chain by computing the exact law and
    checking each dimension's measures directly; an invalid query raises
    ``ModelError``."""
    problems = validate_query(query, mc.dim).problems
    if problems:
        raise ModelError("; ".join(problems))
    law = payoff_law_reach(mc) if query.objective == "reach" else payoff_law_mean(mc)
    ok, details = check_constraints(law, query)
    certificate = {
        "law": [dist.atoms for dist in law.marginals],
        "constraints": details,
    }
    return Verdict(status="SAT" if ok else "UNSAT", certificate=certificate)
