"""Exact rational linear programming via a two-phase dense-tableau simplex.

Row ``i`` of the tableau is ``rows[i] / dens[i]``: Python ints over one
positive denominator, kept by integer-preserving elimination (Edmonds 1967,
Bareiss 1968) and a gcd reduction per changed row.  Pivot choices compare
integers, so they are those of exact rational arithmetic.  Pivoting is
Dantzig's rule, falling back to Bland's rule permanently once the objective
stalls, which guarantees termination on degenerate programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

LE, GE, EQ = "<=", ">=", "=="
_SENSES = (LE, GE, EQ)


@dataclass
class LinearProgram:
    """A maximization LP over named variables, nonnegative unless listed free."""

    variables: List[str] = field(default_factory=list)
    constraints: List[Tuple[Dict[str, Fraction], str, Fraction]] = field(default_factory=list)
    objective: Optional[Dict[str, Fraction]] = None
    free: FrozenSet[str] = frozenset()

    def add(self, coeffs: Mapping[str, Fraction], sense: str, rhs: Fraction) -> None:
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        row = {v: Fraction(c) for v, c in coeffs.items() if c != 0}
        for v in row:
            if v not in self.variables:
                raise ValueError(f"unknown variable {v!r}")
        self.constraints.append((row, sense, Fraction(rhs)))


@dataclass
class LpResult:
    status: str  # "optimal" | "feasible" | "infeasible" | "unbounded"
    assignment: Optional[Dict[str, Fraction]] = None
    value: Optional[Fraction] = None
    pivots: int = 0  # simplex pivots over both phases
    bland: bool = False  # True once Bland's rule switched on

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "feasible")


def dump(lp: LinearProgram) -> str:
    lines = []
    if lp.objective is not None:
        terms = " + ".join(f"{c}*{v}" for v, c in sorted(lp.objective.items()))
        lines.append(f"maximize {terms or '0'}")
    else:
        lines.append("feasibility")
    lines.append(f"variables ({len(lp.variables)}): " + ", ".join(lp.variables))
    if lp.free:
        lines.append("free: " + ", ".join(sorted(lp.free)))
    for coeffs, sense, rhs in lp.constraints:
        terms = " + ".join(f"{c}*{v}" for v, c in sorted(coeffs.items()))
        lines.append(f"  {terms or '0'} {sense} {rhs}")
    return "\n".join(lines)


def solve_feasibility(lp: LinearProgram) -> LpResult:
    """Find any feasible point, ignoring the objective."""
    return _solve(lp, optimize=False)


def solve_optimize(lp: LinearProgram) -> LpResult:
    """Maximize the objective over the feasible region."""
    if lp.objective is None:
        raise ValueError("LP has no objective")
    return _solve(lp, optimize=True)


def integer_row(values) -> Tuple[List[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def pivot(rows: List[List[int]], dens: List[int], r: int, c: int) -> None:
    """Pivot at (r, c) in place: the pivot row keeps its numerators over the
    denominator ``|rows[r][c]|`` (the sign moves into the numerators), and
    every other row with a nonzero entry at ``c`` has it eliminated."""
    if rows[r][c] < 0:
        rows[r] = [-x for x in rows[r]]
    dens[r] = rows[r][c]
    _reduce(rows, dens, r)
    support = [j for j, y in enumerate(rows[r]) if y]
    for i in range(len(rows)):
        if rows[i][c] and i != r:
            _eliminate(rows, dens, i, rows[r], support, c)


def _eliminate(rows, dens, i, prow, support, c) -> None:
    """Clear entry ``c`` of row ``i`` with ``prow``, whose entry at ``c`` is
    its denominator: ``pd * row - a * prow`` over ``den * pd``, after dividing
    ``pd`` and ``a`` by their gcd."""
    g = gcd(prow[c], rows[i][c])
    pd, a = prow[c] // g, rows[i][c] // g
    row = rows[i]
    if pd != 1:
        rows[i] = row = [pd * x for x in row]
        dens[i] *= pd
    for j in support:
        row[j] -= a * prow[j]
    _reduce(rows, dens, i)


def _reduce(rows: List[List[int]], dens: List[int], i: int) -> None:
    """Divide row ``i`` by the gcd of its denominator and numerators."""
    d = dens[i]
    if d != 1:
        g = gcd(d, *rows[i])
        if g != 1:
            rows[i] = [x // g for x in rows[i]]
            dens[i] = d // g


def _solve(lp: LinearProgram, optimize: bool) -> LpResult:
    # column layout: one column per variable, an extra negated column for free
    # variables, then slack columns, then artificials.
    col_of = {v: j for j, v in enumerate(lp.variables)}
    neg_col = {v: len(col_of) + k for k, v in enumerate(v for v in lp.variables if v in lp.free)}
    nstruct = len(col_of) + len(neg_col)

    nslack = sum(1 for _, sense, _ in lp.constraints if sense != EQ)
    m = len(lp.constraints)
    width = nstruct + nslack + m  # artificials occupy the trailing m columns
    nart_start = nstruct + nslack

    rows: List[List[int]] = []
    dens: List[int] = []
    basis = list(range(nart_start, width))
    slack_idx = nart_start - nslack
    for i, (coeffs, sense, rhs) in enumerate(lp.constraints):
        nums, den = integer_row([rhs, *coeffs.values()])
        sign = -1 if rhs < 0 else 1
        row = [0] * (width + 1)
        for v, x in zip(coeffs, nums[1:]):
            row[col_of[v]] = sign * x
            if v in neg_col:
                row[neg_col[v]] = -sign * x
        if sense != EQ:
            row[slack_idx] = sign * den if sense == LE else -sign * den
            slack_idx += 1
        row[width] = sign * nums[0]
        row[nart_start + i] = den
        rows.append(row)
        dens.append(den)
    stats = LpResult(status="infeasible")

    # phase 1: drive the artificial variables to zero
    _run_simplex(rows, dens, basis, [0] * nart_start + [-1] * m, stats)  # always bounded
    if stats.value != 0:
        stats.value = None
        return stats

    # remove artificials from the basis, dropping redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= nart_start:
            c = next((j for j in range(nart_start) if rows[i][j] != 0), None)
            if c is None:
                continue  # redundant constraint
            pivot(rows, dens, i, c)
            basis[i] = c
            stats.pivots += 1
        keep.append(i)

    # truncate artificial columns
    rows = [rows[i][:nart_start] + [rows[i][width]] for i in keep]
    dens = [dens[i] for i in keep]
    basis = [basis[i] for i in keep]
    width = nart_start

    if optimize:
        cost2 = [Fraction(0)] * width
        for v, c in lp.objective.items():
            cost2[col_of[v]] += c
            if v in neg_col:
                cost2[neg_col[v]] -= c
        if _run_simplex(rows, dens, basis, cost2, stats) == "unbounded":
            stats.status, stats.value = "unbounded", None
            return stats
        stats.status = "optimal"
    else:
        stats.status, stats.value = "feasible", None

    values = [Fraction(0)] * width
    for i, bi in enumerate(basis):
        values[bi] = Fraction(rows[i][width], dens[i])
    for v, j in neg_col.items():
        values[col_of[v]] -= values[j]
    stats.assignment = {v: values[col_of[v]] for v in lp.variables}
    return stats


def _run_simplex(rows, dens, basis, cost, stats: LpResult) -> str:
    """Maximize ``cost · x`` from a canonical basis, with the reduced cost row
    appended to ``rows``; leaves the objective in ``stats.value``."""
    m, width = len(basis), len(cost)
    nums, den = integer_row(cost)
    rows.append(nums + [0])
    dens.append(den)
    for i, b in enumerate(basis):
        if rows[m][b]:
            _eliminate(rows, dens, m, rows[i], [j for j, y in enumerate(rows[i]) if y], b)

    bland = False
    stall = 0
    last = (rows[m][width], dens[m])
    limit = 2 * (m + width) + 16
    while True:
        costrow = rows[m]
        entering = [j for j in range(width) if costrow[j] > 0]
        if not entering:
            stats.value = Fraction(-costrow[width], dens[m])
            return "optimal"
        c = entering[0] if bland else max(entering, key=costrow.__getitem__)
        r = None
        for i in range(m):
            a = rows[i][c]
            if a > 0:
                b = rows[i][width]
                if r is None or b * ra < rb * a or (b * ra == rb * a and basis[i] < basis[r]):
                    r, ra, rb = i, a, b
        if r is None:
            return "unbounded"
        pivot(rows, dens, r, c)
        basis[r] = c
        stats.pivots += 1
        obj = (rows[m][width], dens[m])
        stall = stall + 1 if obj[0] * last[1] == last[0] * obj[1] else 0
        last = obj
        if stall > limit:
            bland = stats.bland = True
