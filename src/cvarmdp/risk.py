"""Exact E / VaR / CVaR operators on finite discrete distributions.

VaR uses the sup-based quantile ``sup{r : F(r) <= p}``; on a finite
distribution this is the least atom whose CDF value exceeds p (and +inf for
p = 1).  CVaR averages the worst p-fraction with the probability atom at the
quantile handled explicitly, which is what keeps it monotone in p.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from .model import ModelError, rat

ZERO = Fraction(0)
ONE = Fraction(1)

INF = math.inf  # VaR_1; compares correctly against Fractions


class FiniteDistribution:
    """Finite mapping from rational values to positive rational probabilities."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Mapping):
        merged: Dict[Fraction, Fraction] = {}
        for value, prob in atoms.items():
            v, p = rat(value), rat(prob)
            if p < 0:
                raise ModelError(f"negative probability {p} at {v}")
            if p == 0:
                continue
            merged[v] = merged.get(v, ZERO) + p
        if sum(merged.values(), ZERO) != 1:
            raise ModelError(f"probabilities sum to {sum(merged.values(), ZERO)}, not 1")
        self.atoms = merged

    def sorted_atoms(self) -> List[Tuple[Fraction, Fraction]]:
        return sorted(self.atoms.items())

    @property
    def min_value(self) -> Fraction:
        return min(self.atoms)

    @property
    def max_value(self) -> Fraction:
        return max(self.atoms)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteDistribution) and self.atoms == other.atoms

    def __hash__(self):
        return hash(frozenset(self.atoms.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {p}" for v, p in self.sorted_atoms())
        return f"FiniteDistribution({{{inner}}})"


def cdf(d: FiniteDistribution, r) -> Fraction:
    r = rat(r)
    return sum((p for v, p in d.atoms.items() if v <= r), ZERO)


def expectation(d: FiniteDistribution) -> Fraction:
    return sum((v * p for v, p in d.atoms.items()), ZERO)


def var(d: FiniteDistribution, p):
    """Worst p-quantile, sup{r : F(r) <= p}.  Returns +inf for p = 1."""
    p = rat(p)
    if not ZERO <= p <= ONE:
        raise ModelError(f"risk level {p} outside [0,1]")
    if p == 1:
        return INF
    acc = ZERO
    for v, prob in d.sorted_atoms():
        acc += prob
        if acc > p:
            return v
    raise AssertionError("unreachable: total mass is 1 > p")


def cvar(d: FiniteDistribution, p) -> Fraction:
    """Average over the worst p-fraction of outcomes.

    Corner cases: CVaR_0 is the minimum atom (= VaR_0), CVaR_1 the
    expectation.
    """
    p = rat(p)
    if not ZERO <= p <= ONE:
        raise ModelError(f"risk level {p} outside [0,1]")
    if p == 0:
        return d.min_value
    if p == 1:
        return expectation(d)
    v = var(d, p)
    below = sum((x * q for x, q in d.atoms.items() if x < v), ZERO)
    mass_below = sum((q for x, q in d.atoms.items() if x < v), ZERO)
    return (below + (p - mass_below) * v) / p


def mixture(parts: Sequence[Tuple[Fraction, FiniteDistribution]]) -> FiniteDistribution:
    atoms: Dict[Fraction, Fraction] = {}
    for w, d in parts:
        for v, p in d.atoms.items():
            atoms[v] = atoms.get(v, ZERO) + rat(w) * p
    return FiniteDistribution(atoms)


def dominates(d1: FiniteDistribution, d2: FiniteDistribution) -> bool:
    """True iff d1 stochastically dominates d2 (CDF of d1 pointwise <= d2's)."""
    grid = set(d1.atoms) | set(d2.atoms)
    return all(cdf(d1, r) <= cdf(d2, r) for r in grid)


def partition_decompose(
    parts: Sequence[Tuple[Fraction, FiniteDistribution]], p
) -> Tuple[List[int], List[Fraction]]:
    """Split a CVaR computation across a partition of the sample space.

    Given parts ``(w_i, d_i)`` with positive weights summing to 1 and a risk
    level p, returns the indices of the parts that carry worst-case mass and a
    per-part risk level ``p_i``, chosen so that

        cvar(mixture, p) == (1/p) * sum_i w_i * p_i * cvar(d_i, p_i)

    holds exactly (the jump mass of the mixture at its VaR is apportioned
    greedily among the parts that have an atom there).  For p = 0 a single
    worst-case witness part is returned; for p = 1 every part appears with
    level 1 and the identity degenerates to mixing expectations.
    """
    p = rat(p)
    weights = [rat(w) for w, _ in parts]
    if any(w <= 0 for w in weights):
        raise ModelError("part weights must be positive")
    if sum(weights, ZERO) != 1:
        raise ModelError("part weights must sum to 1")
    if p == 1:
        return list(range(len(parts))), [ONE] * len(parts)
    mixed = mixture(parts)
    if p == 0:
        v = mixed.min_value
        for i, (_, d) in enumerate(parts):
            if d.min_value == v:
                return [i], [ZERO]
        raise AssertionError("some part must attain the minimum")
    v = var(mixed, p)
    remaining = p - sum((q for x, q in mixed.atoms.items() if x < v), ZERO)
    selected: List[int] = []
    levels: List[Fraction] = []
    for i, (w, d) in enumerate(parts):
        at_v = d.atoms.get(v, ZERO)
        share = min(at_v, remaining / weights[i])
        remaining -= weights[i] * share
        level = sum((q for x, q in d.atoms.items() if x < v), ZERO) + share
        if level > 0:
            selected.append(i)
            levels.append(level)
    if remaining != 0:
        raise AssertionError("jump mass at the quantile not fully apportioned")
    return selected, levels


def partition_recombine(
    parts: Sequence[Tuple[Fraction, FiniteDistribution]],
    selected: Sequence[int],
    levels: Sequence[Fraction],
    p,
) -> Fraction:
    """Evaluate the decomposed CVaR expression produced by partition_decompose."""
    p = rat(p)
    if p == 0:
        (i,) = selected
        return cvar(parts[i][1], ZERO)
    total = ZERO
    for i, level in zip(selected, levels):
        w = rat(parts[i][0])
        total += w * level * cvar(parts[i][1], level)
    return total / p
