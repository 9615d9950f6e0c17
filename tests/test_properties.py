"""Property-based tests for the risk measures and small-model invariants."""
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from cvarmdp.risk import (
    FiniteDistribution,
    cvar,
    expectation,
    mixture,
    var,
)
from lemmas import dominates, partition_decompose, partition_recombine

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
levels = st.fractions(min_value=0, max_value=1, max_denominator=40)
interior_levels = st.fractions(
    min_value=F(1, 40), max_value=F(39, 40), max_denominator=40
)


@st.composite
def distributions(draw, max_atoms=5):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    values = draw(
        st.lists(rationals, min_size=n, max_size=n, unique=True)
    )
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n)
    )
    total = sum(weights)
    return FiniteDistribution({v: F(w, total) for v, w in zip(values, weights)})


@st.composite
def weighted_partitions(draw, max_parts=4):
    k = draw(st.integers(min_value=1, max_value=max_parts))
    parts = [draw(distributions()) for _ in range(k)]
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=5), min_size=k, max_size=k)
    )
    total = sum(weights)
    return [(F(w, total), d) for w, d in zip(weights, parts)]


class TestCvarProperties:
    @given(distributions(), distributions(), interior_levels, interior_levels)
    @settings(max_examples=300, deadline=None)
    def test_convex_under_mixtures(self, a, b, p, lam):
        mixed = mixture([(lam, a), (1 - lam, b)])
        assert cvar(mixed, p) <= lam * cvar(a, p) + (1 - lam) * cvar(b, p)

    @given(distributions(), levels, levels)
    @settings(max_examples=300, deadline=None)
    def test_monotone_in_level(self, d, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        assert cvar(d, lo) <= cvar(d, hi)

    @given(distributions(), levels)
    @settings(max_examples=300, deadline=None)
    def test_sandwich(self, d, p):
        c = cvar(d, p)
        assert c <= var(d, p)
        assert c <= max(d.atoms)
        assert c <= expectation(d)

    @given(distributions(), levels)
    @settings(max_examples=300, deadline=None)
    def test_boundary_levels(self, d, p):
        assert cvar(d, F(0)) == min(d.atoms)
        assert cvar(d, F(1)) == expectation(d)


class TestDominanceProperties:
    @given(distributions(), st.fractions(min_value=0, max_value=5, max_denominator=6), levels)
    @settings(max_examples=300, deadline=None)
    def test_shift_preserves_all_measures(self, d, shift, p):
        shifted = FiniteDistribution({x + shift: q for x, q in d.atoms.items()})
        assert dominates(shifted, d)
        assert expectation(shifted) >= expectation(d)
        assert cvar(shifted, p) >= cvar(d, p)
        if p < 1:
            assert var(shifted, p) >= var(d, p)

    @given(distributions(), distributions(), levels)
    @settings(max_examples=300, deadline=None)
    def test_dominance_implies_measure_order(self, a, b, p):
        if dominates(a, b):
            assert expectation(a) >= expectation(b)
            assert cvar(a, p) >= cvar(b, p)
            if p < 1:
                assert var(a, p) >= var(b, p)


class TestPartitionProperties:
    @given(weighted_partitions(), levels)
    @settings(max_examples=300, deadline=None)
    def test_identity_is_exact(self, parts, p):
        selected, part_levels = partition_decompose(parts, p)
        assert partition_recombine(parts, selected, part_levels, p) == cvar(
            mixture(parts), p
        )

    @given(weighted_partitions(), interior_levels)
    @settings(max_examples=300, deadline=None)
    def test_levels_account_for_all_tail_mass(self, parts, p):
        selected, part_levels = partition_decompose(parts, p)
        assert sum(parts[i][0] * pi for i, pi in zip(selected, part_levels)) == p


class TestMixtureLawProperties:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.fractions(min_value=0, max_value=1, max_denominator=16),
    )
    @settings(max_examples=120, deadline=None)
    def test_strategy_mixture_matches_distribution_mixture(self, seed, lam):
        from cvarmdp.gadgets import example
        from cvarmdp.model import memoryless
        from lemmas import mix_strategies
        from cvarmdp.synthesis import evaluate

        mdp, _ = example("choice")
        a = memoryless({"s0": {"a": F(1)}})
        b = memoryless({"s0": {"b": F(1)}})
        mixed = mix_strategies(a, b, lam)
        law = evaluate(mdp, mixed, "reach")[0]
        expected = mixture(
            [
                (lam, evaluate(mdp, a, "reach")[0]),
                (1 - lam, evaluate(mdp, b, "reach")[0]),
            ]
        )
        assert law.atoms == expected.atoms
