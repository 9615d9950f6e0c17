"""Warm-started guess LPs against cold solves.

The guess LPs of one quotient share their flow block, and
``solve_feasibility(prog, start)`` decides each of them from the block's
tableau.  Every warm decision is compared with the cold solve of the same
LP, and every warm vertex is checked against every row of the full LP by
plain arithmetic, without the solver.  What ``solve_feasibility`` returns
with a start, status and point, is the cold result.
"""
import itertools
import random
from fractions import Fraction as F

import pytest

import cvarmdp.lp as lpmod
from cvarmdp import solver
from cvarmdp.gadgets import Cnf3, sat_reduction
from cvarmdp.lp import EQ, GE, LE, LinearProgram, WarmStart, solve_feasibility
from cvarmdp.model import Constraint, Mdp, Query
from cvarmdp.solver import decide
from lemmas import reach_to_mean
from test_lp import _random_lp
from test_lp_pins import _two_mecs
from test_oracles import trap_mdp, trap_query


def _warm_and_cold(prog: LinearProgram, start: WarmStart):
    """The warm decision of ``prog``, checked against the cold solve; returns
    what ``solve_feasibility(prog, start)`` gives."""
    warm, cold = start._warm(prog), solve_feasibility(prog)
    assert warm.status == cold.status, lpmod.dump(prog)
    assert not warm.ok or _meets(prog, warm.assignment), lpmod.dump(prog)
    res = solve_feasibility(prog, start)
    assert (res.status, res.assignment) == (cold.status, cold.assignment), lpmod.dump(prog)
    return res


def _meets(prog: LinearProgram, point) -> bool:
    """Every row and sign constraint of ``prog`` holds exactly at ``point``."""
    if any(point[v] < 0 for v in prog.variables):
        return False
    for coeffs, sense, rhs in prog.constraints:
        lhs = sum((c * point[v] for v, c in coeffs.items()), F(0))
        if (sense == LE and lhs > rhs) or (sense == GE and lhs < rhs) or (sense == EQ and lhs != rhs):
            return False
    return True


# ----------------------------------------------------------- random programs


def test_random_programs_split_anywhere_keep_their_status():
    rng = random.Random("integer-rows")  # the programs of TestAgainstFractionTableau
    split = random.Random("warm-split")
    seen = {"feasible": 0, "infeasible": 0, "empty block": 0, "no extra rows": 0}
    for _ in range(300):
        prog = _random_lp(rng)
        k = split.randint(0, len(prog.constraints))
        seen["empty block"] += k == 0
        seen["no extra rows"] += k == len(prog.constraints)
        start = WarmStart(LinearProgram(prog.variables, prog.constraints[:k]))
        # a second member with the rows after the block reversed; the first
        # member again shows the block's tableau was left as it was
        reversed_tail = prog.constraints[:k] + prog.constraints[k:][::-1]
        other = LinearProgram(prog.variables, reversed_tail)
        for member in (prog, other, prog):
            seen[_warm_and_cold(member, start).status] += 1
    assert min(seen.values()) > 0, seen


def _shared_row_families(rng, count=80):
    """``(block, members)`` warm families whose guesses share row objects, as
    the solver's guesses do: the block is a random program's leading rows,
    and each member appends one to three rows of a pool of four.  The last
    member appends one pool row twice, once as an equal but distinct
    object."""
    for _ in range(count):
        prog = _random_lp(rng)
        variables = prog.variables
        block = LinearProgram(variables, prog.constraints[: rng.randint(0, len(prog.constraints))])
        pool = []
        for _ in range(4):
            support = rng.sample(variables, rng.randint(1, len(variables)))
            coeffs = {v: F(rng.randint(-4, 4), rng.choice([1, 2, 3])) for v in support}
            pool.append((coeffs, rng.choice([LE, GE, EQ]), F(rng.randint(-5, 6), rng.choice([1, 2, 7]))))
        members = [rng.sample(pool, rng.randint(1, 3)) for _ in range(5)]
        coeffs, sense, rhs = members[-1][0]
        members[-1].append((dict(coeffs), sense, rhs))
        yield block, [LinearProgram(variables, block.constraints + rows) for rows in members]


def test_shared_rows_are_converted_and_cleared_once(monkeypatch):
    """Each row object of a family is converted from ``Fraction``s once and
    cleared against the block once, however many members it is in, and
    every member gets the ``start=None`` status and point."""
    converted, cleared = {}, {}
    convert, clear = lpmod._convert, WarmStart._clear

    def convert_spy(k, row, col_of):
        converted[id(row)] = converted.get(id(row), 0) + 1
        return convert(k, row, col_of)

    def clear_spy(self, k, row):
        cleared[id(row)] = cleared.get(id(row), 0) + 1
        return clear(self, k, row)

    seen = {"feasible": 0, "infeasible": 0, "rows cleared": 0, "rows reused": 0}
    for block, members in _shared_row_families(random.Random("shared-rows")):
        cold = [solve_feasibility(prog) for prog in members]
        converted.clear()
        cleared.clear()
        with monkeypatch.context() as patch:
            patch.setattr(lpmod, "_convert", convert_spy)
            patch.setattr(WarmStart, "_clear", clear_spy)
            start = WarmStart(block)
            for prog, ref in zip(members, cold):
                res = solve_feasibility(prog, start)
                assert (res.status, res.assignment) == (ref.status, ref.assignment), lpmod.dump(prog)
                seen[res.status] += 1
        assert all(converted[id(row)] == 1 for row in block.constraints)
        assert set(converted.values()) <= {1} and set(cleared.values()) <= {1}
        appended = [row for prog in members[1:] for row in prog.constraints[len(block.constraints) :]]
        if start._tableau is not None:  # the block is feasible: every later row is cleared
            assert set(cleared) == {id(row) for row in appended}
        seen["rows cleared"] += len(cleared)
        seen["rows reused"] += len(appended) - len(cleared)
    assert min(seen.values()) > 0, seen


def test_a_program_that_does_not_open_with_the_block_rows_is_refused():
    block = LinearProgram(variables=["x", "y"])
    block.add({"x": 1, "y": 1}, EQ, 1)
    start = WarmStart(block)
    guess = (({"x": F(1)}, GE, F(1, 2)),)
    equal_rows = [(dict(c), sense, rhs) for c, sense, rhs in block.constraints]
    for prog in (
        LinearProgram(block.variables, equal_rows + list(guess)),
        LinearProgram(["x", "y", "z"], block.constraints + list(guess)),
        LinearProgram(block.variables, []),
    ):
        with pytest.raises(ValueError, match="block rows"):
            solve_feasibility(prog, start)
    res = solve_feasibility(LinearProgram(block.variables, block.constraints + list(guess)), start)
    assert res.ok and res.assignment["x"] >= F(1, 2)


# ------------------------------------------------------- the solver's guesses


@pytest.fixture
def cross_checked(monkeypatch):
    """Each guess LP the solver decides warm is decided cold too, and every
    guess enumeration runs to its end."""
    seen = {"feasible": 0, "infeasible": 0}

    def both(prog, start=None):
        assert start is not None
        res = _warm_and_cold(prog, start)
        seen[res.status] += 1
        return res

    first_certified = solver._first_certified

    def exhausted(mdp, query, candidates, exhaustive=True):
        return first_certified(mdp, query, iter(list(candidates)), exhaustive)

    monkeypatch.setattr(solver, "solve_feasibility", both)
    monkeypatch.setattr(solver, "_first_certified", exhausted)
    return seen


@pytest.mark.parametrize("encoding", ["reach", "mean"])
def test_trap_seed_guesses(cross_checked, encoding):
    statuses = set()
    for seed in range(30):
        m, q = trap_mdp(seed), trap_query(seed)
        if encoding == "mean":
            m, q = reach_to_mean(m, q)
        statuses.add(decide(m, q).status)
    assert statuses == {"SAT", "UNSAT"}
    assert min(cross_checked.values()) > 0, cross_checked


def _cnfs():
    """Every formula of one or two clauses that uses both of two variables,
    and a few three-variable formulas."""
    universe = [(v,) for v in (1, -1, 2, -2)] + [(a, b) for a in (1, -1) for b in (2, -2)]
    for count in (1, 2):
        for clauses in itertools.combinations(universe, count):
            if {abs(lit) for c in clauses for lit in c} == {1, 2}:
                yield Cnf3(2, clauses)
    rng = random.Random("warm-cnf")
    for _ in range(6):
        width = [1, 2, 3, 3]
        yield Cnf3(3, tuple(tuple(rng.choice((1, -1)) * v for v in rng.sample((1, 2, 3), w)) for w in width))


def test_sat_reduction_guesses(cross_checked):
    for cnf in _cnfs():
        mdp, _, query = sat_reduction(cnf)
        assert decide(mdp, query).status == ("SAT" if cnf.brute_force_sat() else "UNSAT"), cnf
    assert min(cross_checked.values()) > 0, cross_checked


def _chooser(mecs) -> Mdp:
    """A chooser state leading into end components given by their states'
    reward vectors: a single state loops on itself; a longer list is a cycle
    with a self-loop on each state."""
    dim = len(mecs[0][0])
    states, available, delta, rewards = ["s"], {"s": []}, {}, {"s": (F(0),) * dim}
    for k, mec in enumerate(mecs):
        names = [f"m{k}_{i}" for i in range(len(mec))]
        available["s"].append(f"to{k}")
        delta[f"to{k}"] = {names[0]: F(1)}
        for i, (name, vec) in enumerate(zip(names, mec)):
            states.append(name)
            rewards[name] = tuple(F(v) for v in vec)
            available[name] = [f"stay_{name}"]
            delta[f"stay_{name}"] = {name: F(1)}
            if len(mec) > 1:
                available[name].append(f"go_{name}")
                delta[f"go_{name}"] = {names[(i + 1) % len(mec)]: F(1)}
    return Mdp(
        states=tuple(states),
        available={s: tuple(a) for s, a in available.items()},
        delta=delta,
        initial="s",
        rewards=rewards,
    )


def _mean_query(cvar_bound, e_bound=None) -> Query:
    cs = [Constraint(dim=0, cvar=(F(1, 2), F(cvar_bound)))]
    if e_bound is not None:
        cs.append(Constraint(dim=1, expectation=F(e_bound)))
    return Query(objective="mean", constraints=tuple(cs))


SWEEPS = [
    (_two_mecs, _mean_query(7, 1)),
    (_two_mecs, _mean_query(2, 3)),
    (
        _two_mecs,
        Query(
            objective="mean",
            constraints=(Constraint(dim=0, expectation=F(4)), Constraint(dim=1, expectation=F(4))),
        ),
    ),
    (lambda: _chooser([[(2, 9), (1, 4)], [(1, 7), (7, 10)]]), _mean_query(4, 2)),
    (lambda: _chooser([[(5, 2)], [(0, 1), (1, 5)]]), _mean_query(5, 1)),
    (lambda: _chooser([[(3, 1)], [(6, 0)], [(1, 9)]]), _mean_query(4, 3)),
    (lambda: _chooser([[(2,), (1,)], [(7,)]]), _mean_query(4)),
]


def test_mean_sweep_guesses(cross_checked):
    statuses = set()
    for model, query in SWEEPS:
        statuses.add(decide(model(), query, grid=4).status)
    assert "SAT" in statuses and len(statuses) > 1, statuses
    assert min(cross_checked.values()) > 0, cross_checked
