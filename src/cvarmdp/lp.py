"""Exact rational linear programming over nonnegative variables via a
two-phase dense-tableau simplex.

Row ``i`` of the tableau is ``rows[i] / dens[i]``: Python ints over one
positive denominator, kept by integer-preserving elimination (Edmonds 1967,
Bareiss 1968), which is exact at any scale.  A pivot brings its pivot row to
lowest terms, because that row multiplies into every row it clears; any
other row is divided by its gcd only once its denominator has more than
``REDUCE_BITS`` bits, which bounds the growth of its integers.  Pivot choices
compare the numerators of one row, or two rows' entries cross-multiplied,
and points are read as ``Fraction``s, so how far a row is reduced changes no
pivot and no result: they are those of exact rational arithmetic.  Pivoting is
Dantzig's rule, falling back to Bland's rule permanently once the objective
stalls, which guarantees termination on degenerate programs.  The kernel
``pivot`` serves the simplex alone: the linear systems of Markov-chain
evaluation are sparse and have their own elimination, ``chain.solve_linear``.

Phase 1's artificials have no columns, only basis indices, and one that
leaves the basis is gone for good (Chvatal, *Linear Programming*, 1983,
ch. 8).  Correctness: every x feasible with all artificials at 0 stays
feasible once the left ones are fixed at 0, so phase 1 still ends at 0
exactly when the LP is feasible.  Termination: columns only ever leave;
after the last one leaves, the LP is fixed and Bland's rule terminates.

A family of feasibility LPs that open with the same rows, such as the guess
LPs of one quotient, is decided from one ``WarmStart``.  The first member is
solved from scratch.  Then the shared block is solved once, and each later
member only appends its own rows to a copy of the block's tableau and runs
phase 1 over those; a member found feasible there is solved again from
scratch, so that every point returned is the cold one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Mapping, Optional, Tuple

LE, GE, EQ = "<=", ">=", "=="
_SENSES = (LE, GE, EQ)

# A row other than the pivot row is divided by its gcd once its denominator
# has more than this many bits.  Reducing every row after every pivot spends
# more on gcds than it saves on smaller integers, and never reducing lets the
# integers of a long run grow without bound.  On the benchmark's LPs, bounds
# from 64 to 1024 bits and no bound were timed, and 512 was among the fastest
# on every one.
REDUCE_BITS = 512


@dataclass
class LinearProgram:
    """A maximization LP over named nonnegative variables; a solve raises
    ``ValueError`` when a name is listed twice."""

    variables: List[str] = field(default_factory=list)
    constraints: List[Tuple[Dict[str, Fraction], str, Fraction]] = field(default_factory=list)
    objective: Optional[Dict[str, Fraction]] = None

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
    for coeffs, sense, rhs in lp.constraints:
        terms = " + ".join(f"{c}*{v}" for v, c in sorted(coeffs.items()))
        lines.append(f"  {terms or '0'} {sense} {rhs}")
    return "\n".join(lines)


def solve_feasibility(lp: LinearProgram, start: Optional[WarmStart] = None) -> LpResult:
    """Find any feasible point, ignoring the objective.

    With ``start``, ``lp`` must open with the very row objects of
    ``start.block`` (else ``ValueError``), and is decided from the block's
    tableau: see ``WarmStart``.  The status and the point are those of
    ``start=None``; only ``pivots`` differs.
    """
    if start is None:
        return _solve(lp, optimize=False)
    return start._solve(lp)


def solve_optimize(lp: LinearProgram) -> LpResult:
    """Maximize the objective over the feasible region."""
    if lp.objective is None:
        raise ValueError("LP has no objective")
    return _solve(lp, optimize=True)


def pivot(rows: List[List[int]], dens: List[int], r: int, c: int) -> None:
    """Pivot at (r, c) in place: the pivot row is brought to lowest terms
    over the denominator ``|rows[r][c]|`` (the sign moves into the
    numerators), and every other row with a nonzero entry at ``c`` has it
    eliminated."""
    row = rows[r]
    g = gcd(*row)
    if row[c] < 0:
        g = -g
    if g != 1:
        rows[r] = row = [x // g for x in row]
    dens[r] = row[c]
    support = [j for j, y in enumerate(row) if y]
    for i in range(len(rows)):
        if rows[i][c] and i != r:
            _eliminate(rows, dens, i, row, support, c)


def _eliminate(rows, dens, i, prow, support, c) -> None:
    """Clear entry ``c`` of row ``i`` with ``prow``, whose entry at ``c`` is
    its denominator: ``pd * row - a * prow`` over ``den * pd``, after dividing
    ``pd`` and ``a`` by their gcd.  The row is then divided by the gcd of its
    denominator and numerators if the denominator has more than
    ``REDUCE_BITS`` bits."""
    g = gcd(prow[c], rows[i][c])
    pd, a = prow[c] // g, rows[i][c] // g
    row = rows[i]
    if pd != 1:
        rows[i] = row = [pd * x for x in row]
        dens[i] *= pd
    for j in support:
        row[j] -= a * prow[j]
    d = dens[i]
    if d.bit_length() > REDUCE_BITS:
        g = gcd(d, *row)
        if g != 1:
            rows[i] = [x // g for x in row]
            dens[i] = d // g


@dataclass
class _Tableau:
    """A canonical tableau: row ``i`` is ``rows[i] / dens[i]`` with the
    right-hand side at column ``width``, and ``basis[i]`` is its basic
    column, or an artificial's index (``width`` or more), which has none."""

    rows: List[List[int]]
    dens: List[int]
    basis: List[int]
    col_of: Dict[str, int]
    width: int

    def point(self, variables: List[str]) -> Dict[str, Fraction]:
        """The basic solution, as values of ``variables``."""
        values = [Fraction(0)] * self.width
        for i, bi in enumerate(self.basis):
            if bi < self.width:  # a basic artificial has no column and is 0
                values[bi] = Fraction(self.rows[i][self.width], self.dens[i])
        return dict(zip(variables, values))


def _row_name(k: Optional[int]) -> str:
    return "objective" if k is None else f"constraint {k}"


def _constraint_row(k, coeffs, sense, rhs, col_of, width, slack) -> Tuple[List[int], int]:
    """Constraint ``k`` (``None``: the objective, with sense ``EQ`` and
    ``rhs`` 0) over its least common denominator, negated when ``rhs < 0``:
    its structural numerators, its slack's at column ``slack`` unless it is
    an equation, and the right-hand side at column ``width``.  Returns the
    row and the denominator; an unknown sense or variable raises
    ``ValueError`` naming the constraint."""
    if sense not in _SENSES:
        raise ValueError(f"{_row_name(k)}: unknown sense {sense!r}")
    values = [rhs, *coeffs.values()]
    den = lcm(*(x.denominator for x in values))
    nums = [x.numerator * (den // x.denominator) for x in values]
    sign = -1 if rhs < 0 else 1
    row = [0] * (width + 1)
    try:
        for v, x in zip(coeffs, nums[1:]):
            row[col_of[v]] = sign * x
    except KeyError:
        raise ValueError(f"{_row_name(k)}: unknown variable {v!r}") from None
    if sense != EQ:
        row[slack] = sign * den if sense == LE else -sign * den
    row[width] = sign * nums[0]
    return row, den


def _phase1(lp: LinearProgram) -> Tuple[Optional[_Tableau], LpResult]:
    """Phase 1 from an all-artificial basis, then artificial removal; the
    tableau is None when ``lp`` is infeasible."""
    # columns: one per variable, then slacks; row i's artificial has no
    # column, only basis index nart_start + i
    col_of = {v: j for j, v in enumerate(lp.variables)}
    if len(col_of) != len(lp.variables):
        repeat = next(v for j, v in enumerate(lp.variables) if col_of[v] != j)
        raise ValueError(f"variable {repeat!r} named twice")
    nslack = sum(1 for _, sense, _ in lp.constraints if sense != EQ)
    nart_start = len(col_of) + nslack

    rows: List[List[int]] = []
    dens: List[int] = []
    basis = list(range(nart_start, nart_start + len(lp.constraints)))
    slack_idx = len(col_of)
    for k, (coeffs, sense, rhs) in enumerate(lp.constraints):
        row, den = _constraint_row(k, coeffs, sense, rhs, col_of, nart_start, slack_idx)
        slack_idx += sense != EQ
        rows.append(row)
        dens.append(den)
    stats = LpResult(status="infeasible")

    # phase 1: drive the artificial variables to zero
    _phase1_cost(rows, dens, basis, nart_start)
    _run_simplex(rows, dens, basis, stats)  # always bounded
    if stats.value != 0:
        stats.value = None
        return None, stats

    # remove artificials from the basis, dropping redundant rows and the cost row
    keep = []
    for i in range(len(basis)):
        if basis[i] >= nart_start:
            c = next((j for j in range(nart_start) if rows[i][j] != 0), None)
            if c is None:
                continue  # redundant constraint
            pivot(rows, dens, i, c)
            basis[i] = c
            stats.pivots += 1
        keep.append(i)
    rows, dens, basis = [rows[i] for i in keep], [dens[i] for i in keep], [basis[i] for i in keep]
    return _Tableau(rows, dens, basis, col_of, nart_start), stats


def _phase1_cost(rows, dens, basis, art_start) -> None:
    """Append the phase-1 reduced-cost row: the sum of the rows whose basic
    variable is an artificial (index ``art_start`` or more)."""
    arts = [i for i, b in enumerate(basis) if b >= art_start]
    den = lcm(*(dens[i] for i in arts))
    scaled = [(den // dens[i], rows[i]) for i in arts]
    rows.append([sum(f * row[j] for f, row in scaled) for j in range(art_start + 1)])
    dens.append(den)


def _solve(lp: LinearProgram, optimize: bool) -> LpResult:
    tab, stats = _phase1(lp)
    if tab is None:
        return stats
    rows, dens, basis, width = tab.rows, tab.dens, tab.basis, tab.width

    if optimize:
        costrow, den = _constraint_row(None, lp.objective, EQ, 0, tab.col_of, width, None)
        m = len(basis)
        rows.append(costrow)
        dens.append(den)
        for i, b in enumerate(basis):
            if rows[m][b]:
                _eliminate(rows, dens, m, rows[i], [j for j, y in enumerate(rows[i]) if y], b)
        if _run_simplex(rows, dens, basis, stats) == "unbounded":
            stats.status, stats.value = "unbounded", None
            return stats
        stats.status = "optimal"
    else:
        stats.status, stats.value = "feasible", None
    stats.assignment = tab.point(lp.variables)
    return stats


class WarmStart:
    """The shared leading rows ``block`` of a family of feasibility LPs, and
    the block's tableau after phase 1 and artificial removal.

    The first ``solve_feasibility(prog, start)`` solves ``prog`` cold, as
    ``start=None`` does: a family whose first member is feasible, such as a
    lone guess or a guess enumeration that stops at its first, then costs
    nothing more.  The second call computes the block's tableau, so its
    pivots, Bland switch and time count in that call; when the block has no
    feasible point, every later member is infeasible.  Each later call
    decides ``prog`` from a copy of the tableau (Chvatal, *Linear
    Programming*, 1983, ch. 10): every row after the block gets a slack
    column (unless it is an equation), and its entries in the block's basic
    columns are cleared.  Where the cleared row leaves its slack nonnegative,
    the slack becomes basic, with the row negated if its coefficient is
    negative; every other row is made to have a nonnegative right-hand side
    and its artificial, which has no column, becomes basic.  A phase 1 over
    those artificials alone decides ``prog``.

    An infeasible member is answered from that phase 1.  A feasible one is
    then solved cold, and the point returned is the one ``start=None``
    finds: the *warm vertex* meets every row of ``prog`` too, but it can
    depend on the order of the block's variables where the block's phase 1
    breaks a tie by column order, and a witness built from it would then
    depend on the order of each state's actions.  ``pivots`` and ``bland``
    count both solves.

    B^-1 is in no tableau, cold or warm: a Farkas vector of an infeasible
    LP, ``lambda = c_B B^-1``, comes from one exact solve ``B^T y = c_B`` on
    the final phase-1 basis B.  That is enough, because a Farkas vector needs
    the reduced costs of the structural and slack columns only.
    """

    def __init__(self, block: LinearProgram) -> None:
        self.block = block
        self._first = True
        self._tableau: Optional[_Tableau] = None
        self._solved = False

    def _solve(self, lp: LinearProgram) -> LpResult:
        if self._first:
            self._check(lp)
            self._first = False
            return _solve(lp, optimize=False)
        stats = self._warm(lp)
        if not stats.ok:
            return stats
        cold = _solve(lp, optimize=False)
        cold.pivots += stats.pivots
        cold.bland = cold.bland or stats.bland
        return cold

    def _check(self, lp: LinearProgram) -> None:
        shared = self.block.constraints
        if (
            lp.variables != self.block.variables
            or len(lp.constraints) < len(shared)
            or any(a is not b for a, b in zip(lp.constraints, shared))
        ):
            raise ValueError("the LP does not open with the warm start's block rows")

    def _warm(self, lp: LinearProgram) -> LpResult:
        """Decide ``lp`` from the block's tableau; a feasible result carries
        the warm vertex."""
        self._check(lp)
        shared = self.block.constraints
        stats = LpResult(status="infeasible")
        if not self._solved:
            self._tableau, first = _phase1(self.block)
            self._solved = True
            stats.pivots, stats.bland = first.pivots, first.bland
        tab = self._tableau
        if tab is None:
            return stats

        # columns: the block's, one slack per appended inequality, then the
        # right-hand side; appended row k's artificial is basis index art_start + k
        extra = lp.constraints[len(shared):]
        art_start = tab.width + sum(1 for _, sense, _ in extra if sense != EQ)
        pad = [0] * (art_start - tab.width)
        rows = [row[: tab.width] + pad + row[tab.width :] for row in tab.rows]
        dens, basis = list(tab.dens), list(tab.basis)
        supports = [[j for j, y in enumerate(row) if y] for row in rows]
        slack = tab.width
        for k, (coeffs, sense, rhs) in enumerate(extra):
            row, den = _constraint_row(len(shared) + k, coeffs, sense, rhs, tab.col_of, art_start, slack)
            r = len(rows)
            rows.append(row)
            dens.append(den)
            for i, b in enumerate(tab.basis):
                if rows[r][b]:
                    _eliminate(rows, dens, r, rows[i], supports[i], b)
            row = rows[r]
            s = row[slack] if sense != EQ else 0
            if s and (row[art_start] == 0 or (row[art_start] > 0) == (s > 0)):
                flip, basic = s < 0, slack
            else:
                flip, basic = row[art_start] < 0, art_start + k
            if flip:
                rows[r] = [-x for x in row]
            basis.append(basic)
            slack += sense != EQ

        if any(b >= art_start for b in basis):
            _phase1_cost(rows, dens, basis, art_start)
            _run_simplex(rows, dens, basis, stats)  # always bounded
            if stats.value != 0:
                stats.value = None
                return stats
        stats.status, stats.value = "feasible", None
        stats.assignment = _Tableau(rows, dens, basis, tab.col_of, art_start).point(lp.variables)
        return stats


def _run_simplex(rows, dens, basis, stats: LpResult) -> str:
    """Maximize from a canonical basis; the caller appends the reduced-cost
    row to ``rows``, after the basis rows, and the objective is left in
    ``stats.value``."""
    m = len(basis)
    width = len(rows[m]) - 1

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
