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
            merged[v] = merged[v] + p if v in merged else p
        if sum(merged.values(), ZERO) != 1:
            raise ModelError(f"probabilities sum to {sum(merged.values(), ZERO)}, not 1")
        self.atoms = merged

    def sorted_atoms(self) -> List[Tuple[Fraction, Fraction]]:
        return sorted(self.atoms.items())

    @property
    def min_value(self) -> Fraction:
        return min(self.atoms)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteDistribution) and self.atoms == other.atoms

    def __hash__(self):
        return hash(frozenset(self.atoms.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {p}" for v, p in self.sorted_atoms())
        return f"FiniteDistribution({{{inner}}})"


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
