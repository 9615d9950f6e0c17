"""The simplex kernel's lazy gcd reduction.

A pivot brings its pivot row to lowest terms; every other row is divided by
its gcd only once its denominator has more than ``lp.REDUCE_BITS`` bits.
With the bound at 0 every row is reduced after every elimination, as the
kernel did before the bound, and no result may depend on the bound.
"""
import math
import random

import pytest

import cvarmdp.lp as lpmod
from cvarmdp.gadgets import example
from cvarmdp.lp import WarmStart, solve_feasibility, solve_optimize
from cvarmdp.serialize import verdict_to_json
from cvarmdp.solver import decide
from test_lp import _beale, _chvatal, _random_lp
from test_oracles import trap_mdp, trap_query
from test_warm_start import _shared_row_families

EXAMPLES = ("choice", "loop", "slow(1/8)", "slow(1/64)", "negative")


def _programs():
    rng = random.Random("lazy-reduction")
    return [_random_lp(rng) for _ in range(200)] + [_beale(), _chvatal()]


def _decisions():
    for name in EXAMPLES:
        yield example(name)
    for seed in range(50):
        yield trap_mdp(seed), trap_query(seed)


def _outcome(res):
    return res.status, res.assignment, res.value, res.pivots, res.bland


@pytest.fixture
def lp_log(on_lp):
    """The outcome of every LP that ``decide`` solves, in order."""
    log = []
    on_lp(lambda prog, optimize, res: log.append(_outcome(res)))
    return log


def _warm_family_outcomes():
    """The outcome of every member of warm families whose guesses share row
    objects, each decided from its family's ``WarmStart``."""
    outcomes = []
    for block, members in _shared_row_families(random.Random("lazy-reduction-warm")):
        start = WarmStart(block)
        outcomes += [_outcome(solve_feasibility(prog, start)) for prog in members]
    return outcomes


def test_results_do_not_depend_on_the_bound(monkeypatch, lp_log):
    def run():
        direct = [_outcome(solve(prog)) for prog in _programs() for solve in (solve_optimize, solve_feasibility)]
        lp_log.clear()
        verdicts = [verdict_to_json(decide(mdp, query)) for mdp, query in _decisions()]
        return direct, list(lp_log), verdicts, _warm_family_outcomes()

    lazy = run()
    monkeypatch.setattr(lpmod, "REDUCE_BITS", 0)
    eager = run()
    assert lazy == eager
    assert len(lazy[1]) > 100
    assert {status for status, *_ in lazy[3]} == {"feasible", "infeasible"}


@pytest.mark.parametrize("bits", [8, lpmod.REDUCE_BITS])
def test_rows_after_every_pivot(monkeypatch, bits):
    """The pivot row is in lowest terms over its positive pivot entry, and
    every other row is in lowest terms or has a denominator of at most
    ``REDUCE_BITS`` bits."""
    seen = {"pivots": 0, "unreduced": 0, "over": 0}
    kernel = lpmod.pivot

    def checked(rows, dens, r, c):
        kernel(rows, dens, r, c)
        seen["pivots"] += 1
        assert dens[r] == rows[r][c] > 0
        assert math.gcd(*rows[r]) == 1
        for row, d in zip(rows, dens):
            assert d > 0
            if math.gcd(d, *row) != 1:
                assert d.bit_length() <= bits
                seen["unreduced"] += 1
            seen["over"] += d.bit_length() > bits

    monkeypatch.setattr(lpmod, "REDUCE_BITS", bits)
    monkeypatch.setattr(lpmod, "pivot", checked)
    for prog in _programs():
        solve_optimize(prog)
        solve_feasibility(prog)
    for mdp, query in _decisions():
        decide(mdp, query)
    assert seen["pivots"] > 1000 and seen["unreduced"] > 0, seen
    if bits == 8:
        assert seen["over"] > 0, seen  # the bound was reached and kept
