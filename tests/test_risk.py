"""Unit tests for the risk measures on finite distributions."""
import math
from fractions import Fraction as F

import pytest

from cvarmdp.risk import (
    FiniteDistribution,
    cvar,
    expectation,
    mixture,
    var,
)
from lemmas import dominates, partition_decompose, partition_recombine


def dist(atoms):
    return FiniteDistribution({F(x): F(p) for x, p in atoms.items()})


# the one-shot branch family: lam on mid reward 5, rest split 9:1 over 10 / 0
def branch_family(lam):
    lam = F(lam)
    return FiniteDistribution(
        {
            F(0): (1 - lam) * F(1, 10),
            F(5): lam,
            F(10): (1 - lam) * F(9, 10),
        }
    )


class TestVar:
    def test_point_mass(self):
        d = dist({7: 1})
        assert var(d, F(1, 2)) == 7

    def test_least_atom_with_cdf_above_p(self):
        d = dist({0: "1/10", 5: "1/2", 10: "2/5"})
        assert var(d, F(1, 20)) == 0
        # sup-quantile: at p exactly equal to a cdf step the next atom wins
        assert var(d, F(1, 10)) == 5
        assert var(d, F(11, 100)) == 5
        assert var(d, F(3, 5)) == 10
        assert var(d, F(59, 100)) == 5

    def test_p_one_is_infinite(self):
        d = dist({0: "1/2", 1: "1/2"})
        assert var(d, F(1)) == math.inf

    def test_p_zero_is_min(self):
        d = dist({-3: "1/2", 4: "1/2"})
        assert var(d, F(0)) == -3


class TestCvar:
    def test_point_mass(self):
        d = dist({7: 1})
        assert cvar(d, F(1, 3)) == 7

    def test_tail_average(self):
        d = dist({0: "1/10", 10: "9/10"})
        # lowest 1/5 of the mass: all of the 0s plus 1/10 worth of 10s
        assert cvar(d, F(1, 5)) == F(5)

    def test_p_zero_is_min(self):
        d = dist({-3: "1/2", 4: "1/2"})
        assert cvar(d, F(0)) == -3

    def test_p_one_is_expectation(self):
        d = dist({0: "1/4", 8: "3/4"})
        assert cvar(d, F(1)) == expectation(d) == 6

    def test_below_var_sandwich(self):
        d = dist({0: "1/10", 5: "3/4", 10: "3/20"})
        p = F(1, 20)
        assert cvar(d, p) <= var(d, p) <= max(d.atoms)
        assert cvar(d, p) <= expectation(d)

    def test_branch_family_piecewise_formula(self):
        # closed form at level 1/5: 5(1-4*lam) below lam=1/9, 2.5(1+lam) above
        p = F(1, 5)
        for lam in (F(0), F(1, 20), F(1, 9), F(1, 2), F(1)):
            d = branch_family(lam)
            expected = 5 * (1 - 4 * lam) if lam < F(1, 9) else F(5, 2) * (1 + lam)
            assert cvar(d, p) == expected

    def test_branch_family_minimum_at_one_ninth(self):
        p = F(1, 5)
        floor = cvar(branch_family(F(1, 9)), p)
        assert floor == F(25, 9)
        for k in range(0, 21):
            assert cvar(branch_family(F(k, 20)), p) >= floor

    def test_rockafellar_uryasev_maximum_over_atoms_at_var(self):
        # CVaR_p(X) = max_t (t - E[(t - X)+] / p), attained at t = VaR_p(X):
        # the reachability LP encodes CVaR as this one row at a guessed atom
        import random

        def ru(d, t, p):
            return t - sum(((t - x) * q for x, q in d.atoms.items() if x < t), F(0)) / p

        rng = random.Random(20261018)
        at_step = 0
        for _ in range(300):
            atoms = {F(rng.randint(-20, 20), rng.randint(1, 4)): F(rng.randint(1, 9)) for _ in range(rng.randint(1, 5))}
            total = sum(atoms.values())
            d = FiniteDistribution({x: q / total for x, q in atoms.items()})
            # half of the levels sit on a cdf step, where VaR jumps
            steps = [s for s in (sum(q for y, q in d.atoms.items() if y <= x) for x in d.atoms) if s < 1]
            if steps and rng.random() < 0.5:
                p = rng.choice(steps)
                at_step += 1
            else:
                p = F(rng.randint(1, 99), 100)
            values = [ru(d, t, p) for t in d.atoms]
            assert cvar(d, p) == max(values)
            assert ru(d, var(d, p), p) == cvar(d, p)
        assert at_step > 50


class TestMixture:
    def test_two_point_mix(self):
        a = dist({5: 1})
        b = dist({0: "1/10", 10: "9/10"})
        m = mixture([(F(3, 4), a), (F(1, 4), b)])
        assert m.atoms == branch_family(F(3, 4)).atoms
        assert expectation(m) == 6
        assert var(m, F(1, 20)) == 5
        assert cvar(m, F(1, 20)) == F(5, 2)

    def test_convexity_of_cvar(self):
        a = dist({0: "1/2", 4: "1/2"})
        b = dist({1: "1/3", 9: "2/3"})
        p = F(1, 4)
        for lam in (F(1, 3), F(1, 2), F(7, 8)):
            m = mixture([(lam, a), (1 - lam, b)])
            assert cvar(m, p) <= lam * cvar(a, p) + (1 - lam) * cvar(b, p)


class TestDominance:
    def test_shifted_distribution_dominates(self):
        a = dist({0: "1/2", 10: "1/2"})
        b = dist({1: "1/2", 11: "1/2"})
        assert dominates(b, a)
        for p in (F(1, 10), F(1, 2), F(9, 10)):
            assert var(b, p) >= var(a, p)
            assert cvar(b, p) >= cvar(a, p)
        assert expectation(b) >= expectation(a)


class TestPartition:
    def test_weighted_parts_recombine_exactly(self):
        d_a = dist({5: 1})
        d_b = dist({0: "1/10", 10: "9/10"})
        parts = [(F(3, 4), d_a), (F(1, 4), d_b)]
        p = F(1, 5)
        selected, levels = partition_decompose(parts, p)
        assert sum(parts[i][0] * pi for i, pi in zip(selected, levels)) == p
        assert partition_recombine(parts, selected, levels, p) == cvar(mixture(parts), p)

    def test_equal_split_two_point(self):
        d0 = dist({0: 1})
        d1 = dist({10: 1})
        parts = [(F(1, 2), d0), (F(1, 2), d1)]
        p = F(1, 2)
        selected, levels = partition_decompose(parts, p)
        assert partition_recombine(parts, selected, levels, p) == cvar(mixture(parts), p) == 0

    def test_identity_against_direct_cvar_randomized(self):
        import random

        rng = random.Random(20260826)
        for _ in range(200):
            k = rng.randint(1, 4)
            raw = []
            for _ in range(k):
                atoms = {}
                for _ in range(rng.randint(1, 4)):
                    atoms[F(rng.randint(-5, 10))] = F(rng.randint(1, 6))
                total = sum(atoms.values())
                raw.append(FiniteDistribution({x: q / total for x, q in atoms.items()}))
            weights = [F(rng.randint(1, 5)) for _ in raw]
            wsum = sum(weights)
            parts = [(w / wsum, d) for w, d in zip(weights, raw)]
            p = F(rng.randint(1, 19), 20)
            selected, levels = partition_decompose(parts, p)
            assert partition_recombine(parts, selected, levels, p) == cvar(mixture(parts), p)
