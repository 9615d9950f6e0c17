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
scratch, so that every point returned is the cold one.  For as long as it
lives, a ``WarmStart`` keeps the integer form of every row object its family
has used, and each appended row object as cleared against the block's basic
columns, so no row is converted from ``Fraction``s, or cleared, twice; a row
must not be mutated after the first solve that uses it.
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
        row = {v: c if type(c) is Fraction else Fraction(c) for v, c in coeffs.items() if c != 0}
        known = set(self.variables)
        for v in row:
            if v not in known:
                raise ValueError(f"unknown variable {v!r}")
        self.constraints.append((row, sense, rhs if type(rhs) is Fraction else Fraction(rhs)))


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
        return _solve(lp, optimize=False, forms={})
    return start._solve(lp)


def solve_optimize(lp: LinearProgram) -> LpResult:
    """Maximize the objective over the feasible region."""
    if lp.objective is None:
        raise ValueError("LP has no objective")
    return _solve(lp, optimize=True, forms={})


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


# The integer form of a constraint: its structural numerators as
# ``(column, numerator)`` pairs, its slack's numerator (0 for an equation),
# the right-hand side's, and the denominator.
_Form = Tuple[List[Tuple[int, int]], int, int, int]


def _convert(k, row, col_of) -> _Form:
    """The integer form of ``row``, ``(coeffs, sense, rhs)``, over the
    columns ``col_of``: over its least common denominator, negated when
    ``rhs < 0``.  An unknown sense or variable raises ``ValueError`` naming
    constraint ``k`` (``None``: the objective)."""
    coeffs, sense, rhs = row
    if sense not in _SENSES:
        raise ValueError(f"{_row_name(k)}: unknown sense {sense!r}")
    values = [rhs, *coeffs.values()]
    den = lcm(*(x.denominator for x in values))
    nums = [x.numerator * (den // x.denominator) for x in values]
    sign = -1 if rhs < 0 else 1
    entries = []
    for v, x in zip(coeffs, nums[1:]):
        j = col_of.get(v)
        if j is None:
            raise ValueError(f"{_row_name(k)}: unknown variable {v!r}")
        entries.append((j, sign * x))
    slack = 0 if sense == EQ else sign * den if sense == LE else -sign * den
    return entries, slack, sign * nums[0], den


def _once(cache: dict, row, make, *args):
    """``make(*args)`` for the row object ``row``, made on the row's first
    use and kept in ``cache``, which maps the id of a row object to the row
    (kept, so that the id is not reused) and the result."""
    hit = cache.get(id(row))
    if hit is None:
        hit = cache[id(row)] = (row, make(*args))
    return hit[1]


def _layout(form: _Form, width: int, slack: int) -> List[int]:
    """A tableau row of ``form``: its slack at column ``slack``, unless it is
    an equation, and the right-hand side at column ``width``."""
    entries, s, rhs, _ = form
    row = [0] * (width + 1)
    for j, x in entries:
        row[j] = x
    if s:
        row[slack] = s
    row[width] = rhs
    return row


def _phase1(lp: LinearProgram, forms: dict) -> Tuple[Optional[_Tableau], LpResult]:
    """Phase 1 from an all-artificial basis, then artificial removal; the
    tableau is None when ``lp`` is infeasible.  The rows' integer forms are
    kept in ``forms`` (see ``_once``)."""
    # columns: one per variable, then slacks; row i's artificial has no
    # column, only basis index nart_start + i
    col_of = {v: j for j, v in enumerate(lp.variables)}
    if len(col_of) != len(lp.variables):
        repeat = next(v for j, v in enumerate(lp.variables) if col_of[v] != j)
        raise ValueError(f"variable {repeat!r} named twice")
    converted = [_once(forms, row, _convert, k, row, col_of) for k, row in enumerate(lp.constraints)]
    nart_start = len(col_of) + sum(1 for form in converted if form[1])

    rows: List[List[int]] = []
    basis = list(range(nart_start, nart_start + len(lp.constraints)))
    slack_idx = len(col_of)
    for form in converted:
        rows.append(_layout(form, nart_start, slack_idx))
        slack_idx += form[1] != 0
    dens = [form[3] for form in converted]
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
    variable is an artificial (index ``art_start`` or more), over their
    nonzero entries."""
    arts = [i for i, b in enumerate(basis) if b >= art_start]
    den = lcm(*(dens[i] for i in arts))
    cost = [0] * (art_start + 1)
    for i in arts:
        f = den // dens[i]
        for j, x in enumerate(rows[i]):
            if x:
                cost[j] += f * x
    rows.append(cost)
    dens.append(den)


def _solve(lp: LinearProgram, optimize: bool, forms: dict) -> LpResult:
    tab, stats = _phase1(lp, forms)
    if tab is None:
        return stats
    rows, dens, basis, width = tab.rows, tab.dens, tab.basis, tab.width

    if optimize:
        objective = _convert(None, (lp.objective, EQ, 0), tab.col_of)
        m = len(basis)
        rows.append(_layout(objective, width, None))
        dens.append(objective[3])
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

    A ``WarmStart`` caches its family's rows for as long as it lives,
    keyed by the row object, to which it keeps a reference: each row's
    integer form (least common denominator, numerators, sign), which the
    first cold solve, the block's phase 1 and every cold re-solve lay out;
    the supports of the block tableau's rows; and each appended row cleared
    against the block's basic columns (structural part, denominator, own
    slack's entry and right-hand side), which every later member that
    appends the same row object reuses.  So no row is converted from
    ``Fraction``s, or cleared, twice, and a row must not be mutated after
    the first solve that uses it.  A clearing reduces lazily, as ``pivot``
    does, so a cached row's integers are those a fresh clearing would give.

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
        self._supports: List[List[int]] = []  # of the tableau's rows
        self._forms: dict = {}  # each row's _convert form, see _once
        self._cleared: dict = {}  # each appended row's _clear form, see _once

    def _solve(self, lp: LinearProgram) -> LpResult:
        if self._first:
            self._check(lp)
            self._first = False
            return _solve(lp, optimize=False, forms=self._forms)
        stats = self._warm(lp)
        if not stats.ok:
            return stats
        cold = _solve(lp, optimize=False, forms=self._forms)
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
            self._tableau, first = _phase1(self.block, self._forms)
            self._solved = True
            stats.pivots, stats.bland = first.pivots, first.bland
            if self._tableau is not None:
                self._supports = [[j for j, y in enumerate(row) if y] for row in self._tableau.rows]
        tab = self._tableau
        if tab is None:
            return stats

        extra = enumerate(lp.constraints[len(shared):], len(shared))
        cleared = [_once(self._cleared, row, self._clear, k, row) for k, row in extra]

        # columns: the block's, one slack per appended inequality, then the
        # right-hand side; appended row k's artificial is basis index art_start + k
        width = tab.width
        art_start = width + sum(1 for form in cleared if form[1])
        pad = [0] * (art_start - width)
        rows = [row[:width] + pad + row[width:] for row in tab.rows]
        dens, basis = list(tab.dens), list(tab.basis)
        slack = width
        for k, (struct, s, rhs, den, at_slack) in enumerate(cleared):
            row = struct + pad
            row.append(rhs)
            if s:
                row[slack] = s
            rows.append(row)
            dens.append(den)
            basis.append(slack if at_slack else art_start + k)
            slack += s != 0

        if any(b >= art_start for b in basis):
            _phase1_cost(rows, dens, basis, art_start)
            _run_simplex(rows, dens, basis, stats)  # always bounded
            if stats.value != 0:
                stats.value = None
                return stats
        stats.status, stats.value = "feasible", None
        stats.assignment = _Tableau(rows, dens, basis, tab.col_of, art_start).point(lp.variables)
        return stats

    def _clear(self, k: int, row) -> Tuple[List[int], int, int, int, bool]:
        """Constraint ``k``, ``row``, of a member with its entries in the
        block's basic columns cleared: ``(struct, slack, rhs, den,
        at_slack)``, its numerators in the block's columns, in its own
        slack's column and in the right-hand side, over ``den``.  Where the
        cleared row leaves its slack nonnegative, the slack is its basic
        variable (``at_slack``), else its artificial is; the row is negated
        where that makes the basic variable's value nonnegative."""
        tab = self._tableau
        width = tab.width
        entries, s, rhs, den = _once(self._forms, row, _convert, k, row, tab.col_of)
        # the block's columns, then the right-hand side, then the row's slack
        rows, dens = [[0] * (width + 2)], [den]
        for j, x in entries:
            rows[0][j] = x
        rows[0][width:] = rhs, s
        for prow, support, b in zip(tab.rows, self._supports, tab.basis):
            if rows[0][b]:
                _eliminate(rows, dens, 0, prow, support, b)
        row = rows[0]
        rhs, s = row[width], row[width + 1]
        at_slack = bool(s) and (rhs == 0 or (rhs > 0) == (s > 0))
        if (s if at_slack else rhs) < 0:
            row = [-x for x in row]
        return row[:width], row[width + 1], row[width], dens[0], at_slack


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
