"""Exact rational linear programming via a two-phase dense-tableau simplex.

All arithmetic is exact ``fractions.Fraction``.  Pivoting is Dantzig's rule,
falling back to Bland's rule permanently once the objective stalls, which
guarantees termination on degenerate programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
            if v not in self._varset():
                raise ValueError(f"unknown variable {v!r}")
        self.constraints.append((row, sense, Fraction(rhs)))

    def _varset(self):
        cached = getattr(self, "_vars_cache", None)
        if cached is None or len(cached) != len(self.variables):
            cached = set(self.variables)
            object.__setattr__(self, "_vars_cache", cached)
        return cached


@dataclass
class LpResult:
    status: str  # "optimal" | "feasible" | "infeasible" | "unbounded"
    assignment: Optional[Dict[str, Fraction]] = None
    value: Optional[Fraction] = None

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


def _solve(lp: LinearProgram, optimize: bool) -> LpResult:
    zero = Fraction(0)
    one = Fraction(1)

    # column layout: one column per variable, an extra negated column for free
    # variables, then slack columns, then artificials.
    col_of: Dict[str, int] = {}
    neg_col: Dict[str, int] = {}
    for v in lp.variables:
        col_of[v] = len(col_of) + len(neg_col)
    for v in lp.variables:
        if v in lp.free:
            neg_col[v] = len(col_of) + len(neg_col)
    nstruct = len(col_of) + len(neg_col)

    nslack = sum(1 for _, sense, _ in lp.constraints if sense != EQ)
    m = len(lp.constraints)
    width = nstruct + nslack + m  # artificials occupy the trailing m columns
    nart_start = nstruct + nslack

    rows: List[List] = []
    basis: List[int] = []
    slack_idx = nart_start - nslack
    for i, (coeffs, sense, rhs) in enumerate(lp.constraints):
        row = [zero] * (width + 1)
        for v, c in coeffs.items():
            row[col_of[v]] += c
            if v in neg_col:
                row[neg_col[v]] -= c
        if sense != EQ:
            row[slack_idx] = one if sense == LE else -one
            slack_idx += 1
        row[width] = rhs
        if row[width] < 0:
            row = [-x for x in row]
        row[nart_start + i] = one
        rows.append(row)
        basis.append(nart_start + i)

    # phase 1: drive the artificial variables to zero
    cost1 = [zero] * width
    for j in range(nart_start, width):
        cost1[j] = -one
    costrow = _init_costrow(rows, basis, cost1, width)
    status = _run_simplex(rows, basis, costrow, width)
    assert status == "optimal"  # phase 1 is always bounded
    if -costrow[width] != 0:
        return LpResult(status="infeasible")

    # remove artificials from the basis, dropping redundant rows
    keep = []
    for i in range(len(rows)):
        if basis[i] >= nart_start:
            c = next((j for j in range(nart_start) if rows[i][j] != 0), None)
            if c is None:
                continue  # redundant constraint
            _pivot(rows, costrow, basis, i, c, width)
        keep.append(i)
    rows = [rows[i] for i in keep]
    basis = [basis[i] for i in keep]

    # truncate artificial columns
    rows = [r[:nart_start] + [r[width]] for r in rows]
    width = nart_start

    if optimize:
        cost2 = [zero] * width
        for v, c in (lp.objective or {}).items():
            q = Fraction(c)
            cost2[col_of[v]] += q
            if v in neg_col:
                cost2[neg_col[v]] -= q
        costrow = _init_costrow(rows, basis, cost2, width)
        status = _run_simplex(rows, basis, costrow, width)
        if status == "unbounded":
            return LpResult(status="unbounded")
        final = "optimal"
    else:
        final = "feasible"

    values = [zero] * width
    for i, bi in enumerate(basis):
        values[bi] = rows[i][width]
    assignment = {}
    for v in lp.variables:
        x = values[col_of[v]]
        if v in neg_col:
            x = x - values[neg_col[v]]
        assignment[v] = x
    value = None
    if optimize:
        value = sum(
            (Fraction(c) * assignment[v] for v, c in (lp.objective or {}).items()),
            Fraction(0),
        )
    return LpResult(status=final, assignment=assignment, value=value)


def _init_costrow(rows, basis, cost, width):
    costrow = list(cost) + [cost[0] * 0]
    for i, bi in enumerate(basis):
        cb = cost[bi]
        if cb != 0:
            row = rows[i]
            costrow = [cj - cb * rj for cj, rj in zip(costrow, row)]
    return costrow


def _pivot(rows, costrow, basis, r, c, width):
    prow = rows[r]
    inv = 1 / prow[c]
    if inv != 1:
        prow = [x * inv for x in prow]
        rows[r] = prow
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [x - f * px for x, px in zip(row, prow)]
    if costrow[c] != 0:
        f = costrow[c]
        costrow[:] = [x - f * px for x, px in zip(costrow, prow)]
    basis[r] = c


def _run_simplex(rows, basis, costrow, width) -> str:
    bland = False
    stall = 0
    last_obj = costrow[width]
    limit = 2 * (len(rows) + width) + 16
    while True:
        c = None
        if bland:
            for j in range(width):
                if costrow[j] > 0:
                    c = j
                    break
        else:
            best = None
            for j in range(width):
                if costrow[j] > 0 and (best is None or costrow[j] > best):
                    best = costrow[j]
                    c = j
        if c is None:
            return "optimal"
        r = None
        best_ratio = None
        for i, row in enumerate(rows):
            if row[c] > 0:
                ratio = row[width] / row[c]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[r])
                ):
                    best_ratio = ratio
                    r = i
        if r is None:
            return "unbounded"
        _pivot(rows, costrow, basis, r, c, width)
        if costrow[width] == last_obj:
            stall += 1
            if stall > limit:
                bland = True
        else:
            stall = 0
            last_obj = costrow[width]
