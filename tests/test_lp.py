"""Exact simplex tests, including a vertex-enumeration oracle and degeneracy."""
import itertools
import random
from fractions import Fraction as F

import pytest

from cvarmdp.lp import EQ, GE, LE, LinearProgram, WarmStart, dump, solve_feasibility, solve_optimize


def lp(variables, rows, objective=None):
    prog = LinearProgram(variables=list(variables))
    for coeffs, sense, rhs in rows:
        prog.add({v: F(c) for v, c in coeffs.items()}, sense, F(rhs))
    if objective:
        prog.objective = {v: F(c) for v, c in objective.items()}
    return prog


def brute_force_max(variables, rows, objective):
    """Oracle: enumerate basic solutions of the constraint system.

    Solves every square subsystem of the tight-constraint candidates
    (constraints-as-equalities plus x_i = 0 for every variable) and keeps
    the best feasible solution.  Exponential; fine below ~6 variables.
    """
    from cvarmdp.chain import solve_linear

    n = len(variables)
    eqs = []
    for coeffs, sense, rhs in rows:
        eqs.append(([F(coeffs.get(v, 0)) for v in variables], sense, F(rhs)))
    planes = [(row, rhs) for row, sense, rhs in eqs]
    for i in range(n):
        planes.append(([F(int(j == i)) for j in range(n)], F(0)))
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        a = [planes[i][0] for i in combo]
        b = [[planes[i][1]] for i in combo]
        try:
            x = solve_linear([{j: v for j, v in enumerate(row) if v != 0} for row in a], b)
        except ValueError:
            continue  # singular subsystem: no vertex
        point = [x[j][0] for j in range(n)]
        if any(x < 0 for x in point):
            continue
        feasible = True
        for row, sense, rhs in eqs:
            lhs = sum(c * p for c, p in zip(row, point))
            if sense == LE and lhs > rhs:
                feasible = False
            elif sense == GE and lhs < rhs:
                feasible = False
            elif sense == EQ and lhs != rhs:
                feasible = False
        if not feasible:
            continue
        value = sum(F(objective.get(v, 0)) * point[i] for i, v in enumerate(variables))
        if best is None or value > best:
            best = value
    return best


class TestBasics:
    def test_simple_max(self):
        prog = lp(
            ["x", "y"],
            [({"x": 1, "y": 1}, LE, 4), ({"x": 1}, LE, 3)],
            objective={"x": 3, "y": 5},
        )
        res = solve_optimize(prog)
        assert res.status == "optimal"
        assert res.value == 20  # x=0, y=4

    def test_equality_and_ge(self):
        prog = lp(
            ["x", "y"],
            [({"x": 1, "y": 1}, EQ, 2), ({"x": 1}, GE, "1/2")],
            objective={"y": 1},
        )
        res = solve_optimize(prog)
        assert res.value == F(3, 2)

    def test_infeasible(self):
        prog = lp(["x"], [({"x": 1}, LE, 1), ({"x": 1}, GE, 2)])
        assert solve_feasibility(prog).status == "infeasible"

    def test_unbounded(self):
        prog = lp(["x"], [({"x": 1}, GE, 0)], objective={"x": 1})
        assert solve_optimize(prog).status == "unbounded"

    def test_add_checks_the_current_variable_list(self):
        prog = LinearProgram(variables=["a", "b"])
        prog.add({"a": 1}, LE, 1)
        prog.variables[1] = "z"  # same length, other name
        prog.add({"z": 1}, LE, 1)
        with pytest.raises(ValueError, match="unknown variable 'b'"):
            prog.add({"b": 1}, LE, 1)
        assert solve_feasibility(prog).ok

    def test_repeated_variable_name_is_rejected(self):
        # a repeat would shift "x" onto a slack column: x >= 2 came back infeasible
        prog = lp(["x", "x"], [({"x": 1}, GE, 2)], objective={"x": -1})
        for solve in (solve_feasibility, solve_optimize):
            with pytest.raises(ValueError, match="variable 'x' named twice"):
                solve(prog)
        assert solve_optimize(lp(["x"], [({"x": 1}, GE, 2)], objective={"x": -1})).value == -2

    def test_constructor_rows_are_checked_by_the_solver(self):
        # "=<" was read as ">=": x >= -2 came back feasible at x = 0
        for message, rows in (
            ("constraint 0: unknown sense '=<'", [({"x": F(1)}, "=<", F(-2))]),
            ("constraint 1: unknown variable 'y'", [({"x": F(1)}, LE, F(1)), ({"y": F(1)}, GE, F(1))]),
        ):
            prog = LinearProgram(["x"], rows, {"x": F(1)})
            for solve in (solve_feasibility, solve_optimize):
                with pytest.raises(ValueError, match=message):
                    solve(prog)
        with pytest.raises(ValueError, match="objective: unknown variable 'z'"):
            solve_optimize(lp(["x"], [({"x": 1}, LE, 1)], objective={"z": 1}))

    def test_warm_start_checks_the_rows_it_appends(self):
        block = lp(["x"], [({"x": 1}, LE, 1)])
        start = WarmStart(block)
        assert solve_feasibility(LinearProgram(block.variables, block.constraints), start).ok
        for row, message in (
            (({"x": F(1)}, "=<", F(-2)), "constraint 1: unknown sense '=<'"),
            (({"y": F(1)}, GE, F(1)), "constraint 1: unknown variable 'y'"),
        ):
            with pytest.raises(ValueError, match=message):
                solve_feasibility(LinearProgram(block.variables, block.constraints + [row]), start)

    def test_dump_is_plain_text(self):
        prog = lp(["x"], [({"x": 1}, LE, 1)], objective={"x": 1})
        text = dump(prog)
        assert "x" in text and "<=" in text


class TestDegeneracy:
    def test_classic_cycling_instance_terminates(self):
        # Beale's example: cycles under naive most-negative pivoting
        prog = lp(
            ["x1", "x2", "x3", "x4"],
            [
                ({"x1": "1/4", "x2": -60, "x3": "-1/25", "x4": 9}, LE, 0),
                ({"x1": "1/2", "x2": -90, "x3": "-1/50", "x4": 3}, LE, 0),
                ({"x3": 1}, LE, 1),
            ],
            objective={"x1": "3/4", "x2": -150, "x3": "1/50", "x4": -6},
        )
        res = solve_optimize(prog)
        assert res.status == "optimal"
        assert res.value == F(1, 20)

    def test_redundant_equalities(self):
        prog = lp(
            ["x", "y"],
            [
                ({"x": 1, "y": 1}, EQ, 2),
                ({"x": 2, "y": 2}, EQ, 4),  # redundant copy
                ({"x": 1}, LE, 1),
            ],
            objective={"x": 1},
        )
        res = solve_optimize(prog)
        assert res.status == "optimal"
        assert res.value == 1


class TestOracle:
    def test_random_lps_match_vertex_enumeration(self):
        rng = random.Random(20260826)
        checked = 0
        for trial in range(120):
            n = rng.randint(1, 4)
            variables = [f"v{i}" for i in range(n)]
            rows = []
            for _ in range(rng.randint(1, 5)):
                coeffs = {v: rng.randint(-3, 3) for v in variables}
                sense = rng.choice([LE, GE, EQ])
                rows.append((coeffs, sense, rng.randint(-4, 6)))
            objective = {v: rng.randint(-3, 3) for v in variables}
            prog = lp(variables, rows, objective=objective)
            res = solve_optimize(prog)
            oracle = brute_force_max(variables, rows, objective)
            if res.status == "optimal":
                assert oracle is not None
                assert res.value == oracle, f"trial {trial}"
                checked += 1
            elif res.status == "infeasible":
                assert oracle is None, f"trial {trial}"
            # unbounded: oracle still reports its best vertex; no comparison
        assert checked >= 20  # the suite actually exercised optimal cases

    def test_assignments_are_fractions(self):
        prog = lp(["x"], [({"x": 3}, LE, 1)], objective={"x": 1})
        res = solve_optimize(prog)
        assert isinstance(res.assignment["x"], F)
        assert res.value == F(1, 3)


# --------------------------------------------------------------------------
# Differential check: the integer-row simplex against the Fraction tableau it
# replaced.  ``fraction_solve`` is that tableau, kept here as the reference;
# it returns the result and the (row, column) sequence of every pivot.  It
# keeps the artificial columns, but by default phase 1 lets only structural
# and slack columns enter, as the library does, where an artificial that
# leaves the basis is gone.  ``reenter=True`` is the earlier rule, under which
# a left artificial could enter again.


def fraction_solve(lp, optimize, reenter=False):
    from cvarmdp.lp import LpResult

    zero, one = F(0), F(1)
    trail = []
    col_of = {v: j for j, v in enumerate(lp.variables)}
    nstruct = len(col_of)
    nslack = sum(1 for _, sense, _ in lp.constraints if sense != EQ)
    m = len(lp.constraints)
    width = nstruct + nslack + m
    nart_start = nstruct + nslack
    rows, basis = [], []
    slack_idx = nart_start - nslack
    for i, (coeffs, sense, rhs) in enumerate(lp.constraints):
        row = [zero] * (width + 1)
        for v, c in coeffs.items():
            row[col_of[v]] += c
        if sense != EQ:
            row[slack_idx] = one if sense == LE else -one
            slack_idx += 1
        row[width] = rhs
        if row[width] < 0:
            row = [-x for x in row]
        row[nart_start + i] = one
        rows.append(row)
        basis.append(nart_start + i)

    def init_costrow(cost):
        costrow = list(cost) + [zero]
        for i, bi in enumerate(basis):
            if cost[bi] != 0:
                costrow = [cj - cost[bi] * rj for cj, rj in zip(costrow, rows[i])]
        return costrow

    def pivot(costrow, r, c):
        trail.append((r, c))
        prow = [x / rows[r][c] for x in rows[r]]
        rows[r] = prow
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                f = row[c]
                rows[i] = [x - f * px for x, px in zip(row, prow)]
        if costrow[c] != 0:
            f = costrow[c]
            costrow[:] = [x - f * px for x, px in zip(costrow, prow)]
        basis[r] = c

    switched = []

    def run(costrow, width, enter):
        bland, stall, last_obj = False, 0, costrow[width]
        limit = 2 * (len(rows) + enter) + 16
        while True:
            positive = [j for j in range(enter) if costrow[j] > 0]
            if not positive:
                return "optimal"
            c = positive[0] if bland else max(positive, key=lambda j: (costrow[j], -j))
            r = None
            for i, row in enumerate(rows):
                if row[c] > 0:
                    ratio = row[width] / row[c]
                    if r is None or ratio < best or (ratio == best and basis[i] < basis[r]):
                        best, r = ratio, i
            if r is None:
                return "unbounded"
            pivot(costrow, r, c)
            if costrow[width] == last_obj:
                stall += 1
                if stall > limit and not bland:
                    bland = True
                    switched.append(True)
            else:
                stall, last_obj = 0, costrow[width]

    costrow = init_costrow([zero] * nart_start + [-one] * m)
    run(costrow, width, width if reenter else nart_start)
    if costrow[width] != 0:
        return LpResult("infeasible"), trail, bool(switched)
    keep = []
    for i in range(len(rows)):
        if basis[i] >= nart_start:
            c = next((j for j in range(nart_start) if rows[i][j] != 0), None)
            if c is None:
                continue
            pivot(costrow, i, c)
        keep.append(i)
    rows[:] = [rows[i][:nart_start] + [rows[i][width]] for i in keep]
    basis[:] = [basis[i] for i in keep]
    width = nart_start
    final = "feasible"
    if optimize:
        cost2 = [zero] * width
        for v, c in lp.objective.items():
            cost2[col_of[v]] += c
        costrow = init_costrow(cost2)
        if run(costrow, width, width) == "unbounded":
            return LpResult("unbounded"), trail, bool(switched)
        final = "optimal"
    values = [zero] * width
    for i, bi in enumerate(basis):
        values[bi] = rows[i][width]
    assignment = {v: values[col_of[v]] for v in lp.variables}
    value = sum((c * assignment[v] for v, c in lp.objective.items()), zero) if optimize else None
    return LpResult(final, assignment, value), trail, bool(switched)


def _random_lp(rng):
    n = rng.randint(1, 6)
    variables = [f"v{i}" for i in range(n)]

    def coeff():
        return F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 5]))

    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = {v: coeff() for v in rng.sample(variables, rng.randint(1, n))}
        rows.append((coeffs, rng.choice([LE, GE, EQ]), F(rng.randint(-5, 6), rng.choice([1, 2, 7]))))
    # redundant equalities: copies and combinations of existing rows
    for _ in range(rng.choice([0, 0, 1, 2])):
        (c1, _, b1), (c2, _, b2) = rng.choice(rows), rng.choice(rows)
        k1, k2 = F(rng.choice([-2, -1, 1, 3])), F(rng.choice([-1, 0, 1]))
        combo = {v: k1 * c1.get(v, 0) + k2 * c2.get(v, 0) for v in variables}
        rows.insert(rng.randint(0, len(rows)), (combo, EQ, k1 * b1 + k2 * b2))
        rows.append((dict(c1), EQ, b1))
    objective = {v: coeff() for v in variables}
    return lp(variables, rows, objective=objective)


def _beale():
    return lp(
        ["x1", "x2", "x3", "x4"],
        [
            ({"x1": "1/4", "x2": -60, "x3": "-1/25", "x4": 9}, LE, 0),
            ({"x1": "1/2", "x2": -90, "x3": "-1/50", "x4": 3}, LE, 0),
            ({"x3": 1}, LE, 1),
        ],
        objective={"x1": "3/4", "x2": -150, "x3": "1/50", "x4": -6},
    )


def _chvatal():
    # Chvatal's cycling example ("Linear Programming", 1983, ch. 3); unlike
    # Beale's, it cycles under this tableau's Dantzig rule and tie-break
    return lp(
        ["x1", "x2", "x3", "x4"],
        [
            ({"x1": "1/2", "x2": "-11/2", "x3": "-5/2", "x4": 9}, LE, 0),
            ({"x1": "1/2", "x2": "-3/2", "x3": "-1/2", "x4": 1}, LE, 0),
            ({"x1": 1}, LE, 1),
        ],
        objective={"x1": 10, "x2": -57, "x3": -9, "x4": -24},
    )


def _near_tie():
    # the two ratios differ by one part in 10**18: equal as floats
    big = 10**18
    return lp(["x"], [({"x": 1}, LE, big + 1), ({"x": 1}, LE, big)], objective={"x": 1})


class TestAgainstFractionTableau:
    def _run_both(self, prog, optimize, monkeypatch, seen):
        import cvarmdp.lp as lpmod

        trail = []
        kernel = lpmod.pivot

        def spy(rows, dens, r, c):
            trail.append((r, c))
            seen["negative"] += rows[r][c] < 0
            return kernel(rows, dens, r, c)

        monkeypatch.setattr(lpmod, "pivot", spy)
        res = (solve_optimize if optimize else solve_feasibility)(prog)
        monkeypatch.setattr(lpmod, "pivot", kernel)
        ref, ref_trail, ref_bland = fraction_solve(prog, optimize)
        assert (res.status, res.assignment, res.value) == (ref.status, ref.assignment, ref.value)
        assert trail == ref_trail
        assert (res.pivots, res.bland) == (len(ref_trail), ref_bland)
        seen[res.status] += 1
        return res

    def test_random_programs_pivot_like_the_fraction_tableau(self, monkeypatch):
        rng = random.Random("integer-rows")
        seen = {"optimal": 0, "feasible": 0, "infeasible": 0, "unbounded": 0, "negative": 0}
        for _ in range(300):
            prog = _random_lp(rng)
            self._run_both(prog, True, monkeypatch, seen)
            self._run_both(prog, False, monkeypatch, seen)
        # every status and the negative artificial-removal pivot occur
        assert min(seen.values()) > 0, seen

    def test_cycling_instances(self, monkeypatch):
        seen = {"optimal": 0, "negative": 0}
        res = self._run_both(_beale(), True, monkeypatch, seen)
        assert not res.bland and res.value == F(1, 20)
        res = self._run_both(_chvatal(), True, monkeypatch, seen)
        assert res.bland and res.value == 1

    def test_near_tie_in_the_ratio_test(self, monkeypatch):
        seen = {"optimal": 0, "negative": 0}
        res = self._run_both(_near_tie(), True, monkeypatch, seen)
        assert res.value == 10**18 and not res.bland


# --------------------------------------------------------------------------
# Phase 1 keeps its artificial variables implicit: an artificial that leaves
# the basis has no column to come back through.


def _columns(prog):
    """Structural plus slack columns."""
    return len(prog.variables) + sum(sense != EQ for _, sense, _ in prog.constraints)


def test_artificials_that_leave_do_not_change_any_status_or_optimum(on_lp):
    """The reference under both phase-1 rules, and the library, agree on every
    status and optimal value of random programs, the cycling examples, and
    every LP that ``decide`` solves on the named examples and trap seeds."""
    import cvarmdp.lp as lpmod
    from cvarmdp.gadgets import example
    from cvarmdp.solver import decide
    from test_oracles import trap_mdp, trap_query

    rng = random.Random("no-reentry")
    solved = [(prog, True, solve_optimize(prog)) for prog in [_random_lp(rng) for _ in range(200)]]
    solved += [(prog, True, solve_optimize(prog)) for prog in (_beale(), _chvatal())]
    on_lp(lambda *call: solved.append(call))
    for name in ("choice", "loop", "slow(1/8)", "slow(1/64)", "negative"):
        decide(*example(name))
    for seed in range(120):
        decide(trap_mdp(seed), trap_query(seed))
    assert len(solved) > 400

    trails_differ = 0
    for prog, optimize, res in solved:
        new, new_trail, _ = fraction_solve(prog, optimize)
        old, old_trail, _ = fraction_solve(prog, optimize, reenter=True)
        assert (new.status, new.value) == (old.status, old.value), lpmod.dump(prog)
        assert (res.status, res.assignment, res.value) == (new.status, new.assignment, new.value)
        trails_differ += new_trail != old_trail
    assert trails_differ > 0  # the two rules do pivot differently


def test_no_tableau_holds_an_artificial_column(monkeypatch):
    """Every row a pivot sees, the cost row included, has one entry per
    structural and slack column plus the right-hand side, in a cold solve, in
    a warm start's block and in a warm phase 1."""
    import cvarmdp.lp as lpmod
    from cvarmdp.lp import WarmStart

    widths = []
    kernel = lpmod.pivot

    def spy(rows, dens, r, c):
        widths.append({len(row) for row in rows})
        return kernel(rows, dens, r, c)

    monkeypatch.setattr(lpmod, "pivot", spy)
    rng = random.Random("integer-rows")
    split = random.Random("no-artificial-columns")
    pivots = {"cold": 0, "block": 0, "warm": 0}
    for _ in range(300):
        prog = _random_lp(rng)
        expected = {_columns(prog) + 1}
        for solve in (solve_optimize, solve_feasibility):
            widths.clear()
            solve(prog)
            assert all(w == expected for w in widths), (widths, expected)
            pivots["cold"] += len(widths)

        k = split.randint(0, len(prog.constraints) - 1)
        block = LinearProgram(prog.variables, prog.constraints[:k])
        start = WarmStart(block)
        widths.clear()
        start._warm(LinearProgram(prog.variables, list(block.constraints)))
        assert all(w == {_columns(block) + 1} for w in widths), widths
        pivots["block"] += len(widths)
        widths.clear()
        start._warm(prog)
        assert all(w == expected for w in widths), (widths, expected)
        pivots["warm"] += len(widths)
    assert min(pivots.values()) > 0, pivots
