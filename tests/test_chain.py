"""Markov chain solver tests: exact reachability laws, mean payoff, verdicts."""
import random
from fractions import Fraction as F

import pytest

from cvarmdp import chain as chain_module
from cvarmdp.chain import (
    _solve_block,
    bscc_mean_payoff,
    decide_mc,
    payoff_law_mean,
    payoff_law_reach,
    reach_probabilities,
    solve_linear,
)
from cvarmdp.graphs import strongly_connected_components
from cvarmdp.model import Constraint, MarkovChain, ModelError, Query
from cvarmdp.risk import cvar, expectation, var


def chain(delta, init, rewards, targets=()):
    states = tuple(sorted({s for s in delta} | {t for row in delta.values() for t in row}))
    return MarkovChain(
        states=states,
        delta={s: {t: F(p) for t, p in row.items()} for s, row in delta.items()},
        initial_distribution={init: F(1)},
        rewards={s: (F(rewards.get(s, 0)),) for s in states},
        targets=frozenset(targets),
    )


def sparse(a):
    """The rows of a dense matrix as ``solve_linear`` takes them: {column: nonzero entry}."""
    return [{j: v for j, v in enumerate(row) if v != 0} for row in a]


class TestLinearSolver:
    def test_exact_solution(self):
        a = [[F(2), F(1)], [F(1), F(3)]]
        b = [[F(5)], [F(10)]]
        x = solve_linear(sparse(a), b)
        assert x == [[F(1)], [F(3)]]

    def test_random_systems_roundtrip(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 4)
            a = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            x_true = [[F(rng.randint(-3, 3))] for _ in range(n)]
            b = [[sum(a[i][j] * x_true[j][0] for j in range(n))] for i in range(n)]
            try:
                x = solve_linear(sparse(a), b)
            except ValueError:
                continue  # singular draw
            assert all(
                sum(a[i][j] * x[j][0] for j in range(n)) == b[i][0] for i in range(n)
            )


def _block_system(rng, sizes, m):
    """A sparse, strictly diagonally dominant (so regular) system whose
    dependency graph has one strongly connected block per entry of
    ``sizes``, with rows and columns shuffled by one permutation; returns
    (A, X, B) with A X = B and ``m`` right-hand-side columns."""
    n = sum(sizes)
    a = [[F(0)] * n for _ in range(n)]
    start = 0
    for size in sizes:
        block = range(start, start + size)
        for i in block:
            if size > 1:  # a cycle through the block keeps it one component
                a[i][start + (i - start + 1) % size] = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
            for j in rng.sample(range(start + size), min(2, start + size)):
                if j != i and a[i][j] == 0 and rng.random() < 0.5:
                    a[i][j] = F(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 3))
            a[i][i] = sum(abs(v) for v in a[i]) + F(rng.randint(1, 3), rng.randint(1, 2))
        start += size
    perm = rng.sample(range(n), n)
    a = [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    x = [[F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(m)] for _ in range(n)]
    b = [[sum(a[i][j] * x[j][k] for j in range(n)) for k in range(m)] for i in range(n)]
    return a, x, b


class TestBlockKernel:
    @pytest.mark.parametrize("shape", ["acyclic", "mixed", "one-block"])
    def test_random_sparse_systems(self, shape):
        rng = random.Random(f"kernel:{shape}")
        for _ in range(30):
            if shape == "acyclic":
                sizes = [1] * rng.randint(1, 12)
            elif shape == "mixed":
                sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 6))]
            else:
                sizes = [rng.randint(2, 8)]
            a, x_true, b = _block_system(rng, sizes, rng.randint(1, 3))
            graph = {i: [j for j, v in enumerate(row) if v != 0 and j != i] for i, row in enumerate(a)}
            assert sorted(map(len, strongly_connected_components(graph))) == sorted(sizes)
            x = solve_linear(sparse(a), b)
            n, m = len(a), len(b[0])
            assert all(
                sum(a[i][j] * x[j][k] for j in range(n)) == b[i][k]
                for i in range(n)
                for k in range(m)
            )
            assert x == x_true

    def test_zero_diagonal_singleton_is_singular(self):
        # x1 is determined, but row 0 has no term in x0: det = 0 * 1
        a = [[F(0), F(1)], [F(0), F(1)]]
        with pytest.raises(ValueError, match="singular linear system"):
            solve_linear(sparse(a), [[F(1)], [F(1)]])

    def test_singular_block_behind_regular_ones(self):
        # x3 and x2 are regular singletons; block {0, 1} is [[1, 2], [1, 2]]
        a = [
            [F(1), F(2), F(1), F(0)],
            [F(1), F(2), F(0), F(3)],
            [F(0), F(0), F(2), F(1)],
            [F(0), F(0), F(0), F(5)],
        ]
        b = [[F(1), F(0)], [F(2), F(0)], [F(3), F(1)], [F(4), F(1)]]
        with pytest.raises(ValueError, match="singular linear system"):
            solve_linear(sparse(a), b)
        a[1][0] = F(2)  # block {0, 1} becomes [[1, 2], [2, 2]], det -2
        x = solve_linear(sparse(a), b)
        assert all(sum(a[i][j] * x[j][k] for j in range(4)) == b[i][k] for i in range(4) for k in range(2))

    def test_long_acyclic_chain_closed_form(self):
        # from s_i absorb at "hit" w.p. 1/(i+2), else move on; s_{n-1} ends
        # at "end".  Surviving k steps has probability prod (i+1)/(i+2) = 1/(k+1).
        n = 2000
        states = [f"s{i}" for i in range(n)]
        delta = {s: {"hit": F(1, i + 2), states[i + 1]: F(i + 1, i + 2)} for i, s in enumerate(states[:-1])}
        delta[states[-1]] = {"end": F(1)}
        delta["hit"], delta["end"] = {"hit": F(1)}, {"end": F(1)}
        mc = MarkovChain(
            states=tuple(states) + ("hit", "end"),
            delta=delta,
            initial_distribution={states[0]: F(1)},
            rewards={s: (F(0),) for s in delta},
            targets=frozenset({"hit", "end"}),
        )
        assert reach_probabilities(mc) == {"end": F(1, n), "hit": 1 - F(1, n)}


class TestReachLaw:
    def test_gambler_walk(self):
        # fair coin from 1 on {0..3}: absorb at 0 or 3
        mc = chain(
            {
                "1": {"0": "1/2", "2": "1/2"},
                "2": {"1": "1/2", "3": "1/2"},
                "0": {"0": 1},
                "3": {"3": 1},
            },
            "1",
            {"3": 9},
            targets={"0", "3"},
        )
        probs = reach_probabilities(mc)
        assert probs["3"] == F(1, 3)
        assert probs["0"] == F(2, 3)
        law = payoff_law_reach(mc)[0]
        assert law.atoms == {F(0): F(2, 3), F(9): F(1, 3)}

    def test_never_reaching_counts_as_zero(self):
        mc = chain(
            {"a": {"a": "1/2", "t": "1/4", "b": "1/4"}, "b": {"b": 1}, "t": {"t": 1}},
            "a",
            {"t": 4},
            targets={"t"},
        )
        law = payoff_law_reach(mc)[0]
        assert law.atoms[F(4)] == F(1, 2)
        assert law.atoms[F(0)] == F(1, 2)


class TestMeanLaw:
    def test_single_bscc_stationary_average(self):
        # two-state rotation with rewards 2 and 6 -> mean 4
        mc = chain({"a": {"b": 1}, "b": {"a": 1}}, "a", {"a": 2, "b": 6})
        gains = bscc_mean_payoff(mc)
        assert [g for _, g in gains] == [(F(4),)]
        law = payoff_law_mean(mc)[0]
        assert law.atoms == {F(4): F(1)}

    def test_branching_into_two_bsccs(self):
        mc = chain(
            {"s": {"a": "1/3", "b": "2/3"}, "a": {"a": 1}, "b": {"b": 1}},
            "s",
            {"a": 10, "b": 1},
        )
        law = payoff_law_mean(mc)[0]
        assert law.atoms == {F(10): F(1, 3), F(1): F(2, 3)}

    def test_biased_loop(self):
        # stay at h (reward 3) w.p. 3/4 else go to l (reward 0) and back
        mc = chain({"h": {"h": "3/4", "l": "1/4"}, "l": {"h": 1}}, "h", {"h": 3})
        gains = bscc_mean_payoff(mc)
        # stationary distribution (4/5, 1/5)
        assert [g for _, g in gains] == [(F(12, 5),)]

    def test_unit_row_gains_match_the_total_mass_row(self):
        # pi(members[0]) = 1 and scaling against the stationarity rows at
        # members[:-1] plus an all-ones row, solved densely
        rng = random.Random("stationary")
        for _ in range(60):
            n = rng.randint(1, 9)
            states = [f"s{i}" for i in range(n)]
            delta = {}
            for i, s in enumerate(states):  # a Hamiltonian cycle keeps it irreducible
                succ = {states[(i + 1) % n]} | set(rng.sample(states, rng.randint(0, min(3, n))))
                weights = {t: F(rng.randint(1, 5)) for t in succ}
                total = sum(weights.values())
                delta[s] = {t: w / total for t, w in weights.items()}
            rewards = {s: (F(rng.randint(-5, 9)), F(rng.randint(0, 4), 3)) for s in states}
            mc = MarkovChain(tuple(states), delta, {states[0]: F(1)}, rewards, frozenset())
            members = sorted(states, key=repr)
            a = [[delta[s].get(u, F(0)) - (s == u) for s in members] for u in members[:-1]]
            (pi,) = zip(*fraction_gauss_jordan(a + [[F(1)] * n], [[F(0)]] * (n - 1) + [[F(1)]]))
            expected = tuple(sum(p * rewards[s][j] for p, s in zip(pi, members)) for j in range(2))
            assert bscc_mean_payoff(mc) == [(frozenset(states), expected)]


class TestDecideMc:
    def test_reach_verdict_with_details(self):
        mc = chain(
            {"s": {"hi": "9/10", "lo": "1/10"}, "hi": {"hi": 1}, "lo": {"lo": 1}},
            "s",
            {"hi": 10},
            targets={"hi", "lo"},
        )
        q = Query(
            objective="reach",
            constraints=(
                Constraint(dim=0, expectation=F(9), cvar=(F(1, 5), F(1)), var=(F(1, 2), F(10))),
            ),
        )
        verdict = decide_mc(mc, q)
        assert verdict.status == "SAT"
        q_bad = Query(
            objective="reach", constraints=(Constraint(dim=0, expectation=F(19, 2)),)
        )
        assert decide_mc(mc, q_bad).status == "UNSAT"

    @pytest.mark.parametrize(
        "query, message",
        [
            # a misspelt objective got the mean-payoff law and a verdict
            (Query(objective="raech", constraints=(Constraint(dim=0, expectation=F(1)),)), "unknown objective 'raech'"),
            # a dimension the chain lacks raised IndexError
            (Query(objective="reach", constraints=(Constraint(dim=1, expectation=F(1)),)), "dimension 1 outside 0..0"),
        ],
    )
    def test_invalid_query_raises_model_error(self, query, message):
        mc = chain({"s": {"t": 1}, "t": {"t": 1}}, "s", {"t": 2}, targets={"t"})
        with pytest.raises(ModelError, match=message):
            decide_mc(mc, query)

    def test_law_certificate_matches_measures(self):
        mc = chain(
            {"s": {"hi": "1/2", "lo": "1/2"}, "hi": {"hi": 1}, "lo": {"lo": 1}},
            "s",
            {"hi": 8, "lo": 2},
            targets={"hi", "lo"},
        )
        q = Query(objective="reach", constraints=(Constraint(dim=0, expectation=F(5)),))
        from cvarmdp.risk import FiniteDistribution

        verdict = decide_mc(mc, q)
        law = FiniteDistribution(verdict.certificate["law"][0])
        assert expectation(law) == 5
        assert cvar(law, F(1, 2)) == 2
        assert var(law, F(1, 2)) == 8


def fraction_gauss_jordan(a, b):
    """Dense Gauss-Jordan on Fractions, kept as the reference for the sparse
    block solve ``chain._solve_block``."""
    n, m = len(a), len(b[0])
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [aug[r][k] - f * aug[col][k] for k in range(n + m)]
    return [aug[i][n:] for i in range(n)]


class TestIntegerGaussJordan:
    def test_random_blocks_match_the_fraction_elimination(self):
        rng = random.Random("integer-gauss-jordan")
        solved = singular = 0
        for _ in range(200):
            n, m = rng.randint(1, 7), rng.randint(1, 4)
            density = rng.choice([0.3, 0.6, 1.0])

            def entry():
                if rng.random() > density:
                    return F(0)
                return F(rng.randint(-9, 9), rng.choice([1, 2, 3, 10, 97]))

            a = [[entry() for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.2 and n > 1:  # a dependent row
                i, j = rng.sample(range(n), 2)
                a[i] = [F(-3, 2) * x for x in a[j]]
            b = [[entry() for _ in range(m)] for _ in range(n)]
            try:
                expected = fraction_gauss_jordan(a, b)
            except ValueError:
                with pytest.raises(ValueError, match="singular linear system"):
                    _solve_block(sparse(a), b)
                singular += 1
                continue
            assert _solve_block(sparse(a), b) == expected
            solved += 1
        assert solved >= 50 and singular >= 20

    def test_sparse_blocks_with_zero_diagonals(self):
        # a cycle through every unknown and no diagonal at all: each pivot
        # is off the diagonal, and every right-hand side is carried along
        rng = random.Random("zero-diagonals")
        solved = 0
        for _ in range(60):
            n, m = rng.randint(2, 12), rng.randint(2, 4)
            a = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                a[i][(i + 1) % n] = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5))
                for j in rng.sample(range(n), 2):
                    if j != i and rng.random() < 0.4:
                        a[i][j] = F(rng.randint(-5, 5), rng.randint(1, 7))
            assert all(a[i][i] == 0 for i in range(n))
            b = [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)] for _ in range(n)]
            try:
                expected = fraction_gauss_jordan(a, b)
            except ValueError:
                with pytest.raises(ValueError, match="singular linear system"):
                    _solve_block(sparse(a), b)
                continue
            assert _solve_block(sparse(a), b) == expected
            solved += 1
        assert solved >= 40

    def test_sparse_block_needs_few_eliminations(self, monkeypatch):
        # the visit system (I - Q)^T v = e_0 of a 120-state ring that moves on
        # w.p. 1/2, stays w.p. 1/4 and jumps 7 ahead w.p. 1/4 is one strongly
        # connected block; an exit at state 0 keeps I - Q regular
        n = 120
        moves = {i: {i: F(1, 4), (i + 1) % n: F(1, 2), (i + 7) % n: F(1, 4)} for i in range(n)}
        moves[0][1] = F(1, 4)  # the rest of state 0's mass leaves the ring
        a = [{j: F(1)} for j in range(n)]
        for i, row in moves.items():
            for j, p in row.items():
                a[j][i] = a[j].get(i, F(0)) - p
        b = [[F(1)]] + [[F(0)] for _ in range(n - 1)]
        graph = {i: [j for j in row if j != i] for i, row in enumerate(a)}
        assert len(strongly_connected_components(graph)) == 1
        eliminate, calls = chain_module._eliminate, []

        def spy(rows, rhs, holders, i, r, c):
            calls.append(i)
            return eliminate(rows, rhs, holders, i, r, c)

        monkeypatch.setattr(chain_module, "_eliminate", spy)
        x = _solve_block(a, b)
        assert all(sum(v * x[j][0] for j, v in row.items()) == b[i][0] for i, row in enumerate(a))
        # Markowitz order clears 397 rows here; dense Gauss-Jordan clears
        # n - 1 rows per pivot, n (n - 1) = 14280 in all
        assert len(calls) <= 4 * n
