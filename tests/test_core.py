"""Point dominance (the oracles' truth), set dominance, and front extraction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretoeval import (
    EmptySetError,
    Solution,
    nondominated_front,
    set_dominates,
    unique_nondominated_front,
)
from paretoeval import core
from conftest import KNEE_A, KNEE_B, kernel_settings, make_set
import oracles


# Point dominance is the oracles' pairwise truth, which the kernels are
# checked against.
weakly_dominates, dominates = oracles.weakly_dom, oracles.strictly_dom


def weakly_covers(A, B) -> bool:
    """Every row of B is weakly dominated by some row of A: the weak query
    that CI and C run, checked against the pairwise scan."""
    got = bool(core._dominated_by(A.values(), B.values(), weak=True).all())
    assert got == oracles.set_weakly_dominates_oracle(A, B)
    return got


def dominates_set(A, B) -> bool:
    """:func:`set_dominates`, checked against the pairwise scan."""
    got = set_dominates(A, B)
    assert got == all(oracles.dominated_by_oracle(A.values().tolist(), B.values().tolist()))
    return got


vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=4
)
pair = st.integers(min_value=2, max_value=4).flatmap(
    lambda m: st.tuples(
        st.lists(st.floats(-50, 50), min_size=m, max_size=m),
        st.lists(st.floats(-50, 50), min_size=m, max_size=m),
    )
)


class TestPointDominance:
    def test_weak_includes_equality(self):
        assert weakly_dominates((1, 2), (1, 2))

    def test_weak_fails_on_tradeoff(self):
        assert not weakly_dominates((2, 6), (7, 5))

    def test_weak_on_strict_improvement(self):
        assert weakly_dominates((1, 4), (2, 5))

    def test_equal_vectors_never_dominate(self):
        assert not dominates((1, 2), (1, 2))

    def test_strict_dominance(self):
        assert dominates((2, 5), (3, 9))
        assert dominates((1, 3), (3, 3))

    def test_outcomes_in_both_directions(self):
        outcomes = {
            ((2, 6), (9, 2)): (False, False),  # incomparable
            ((5, 5), (5, 5)): (False, False),  # equal
            ((1, 1), (2, 2)): (True, False),
            ((2, 2), (1, 1)): (False, True),
        }
        for (a, b), expected in outcomes.items():
            assert (dominates(a, b), dominates(b, a)) == expected


class TestSetRelations:
    def test_set_dominates_basic(self):
        A = make_set("A", [(2, 2), (3, 3)])
        B = make_set("B", [(4, 4), (5, 5)])
        assert dominates_set(A, B)

    def test_mutually_nondominated_sets(self):
        A, B = make_set("A", KNEE_A), make_set("B", KNEE_B)
        assert not dominates_set(A, B)
        assert not dominates_set(B, A)
        assert not weakly_covers(A, B)
        assert not weakly_covers(B, A)

    def test_equal_singletons(self):
        A = make_set("A", [(1, 1)])
        B = make_set("B", [(1, 1)])
        assert not dominates_set(A, B)
        assert weakly_covers(A, B)

    def test_weak_set_dominance_with_shared_member(self):
        A = make_set("A", [(2, 2)])
        B = make_set("B", [(3, 3), (2, 2)])
        assert weakly_covers(A, B)

    def test_empty_second_set_rejected(self):
        A = make_set("A", [(1, 1)])
        B = make_set("B", [])
        with pytest.raises(EmptySetError):
            set_dominates(A, B)

    def test_dominance_one_way(self):
        A = make_set("A", [(1, 1)])
        B = make_set("B", [(2, 2)])
        assert dominates_set(A, B)
        assert not dominates_set(B, A)
        assert not dominates_set(A, A)

    def test_incomparable_scenario(self, coverage_sets):
        # Neither test-generation set weakly set-dominates the other.
        from paretoeval import to_minimization

        A, B = (to_minimization(s) for s in coverage_sets)
        assert not weakly_covers(A, B)
        assert not weakly_covers(B, A)


class TestFronts:
    def test_front_keeps_all_nondominated(self, coverage_sets):
        from paretoeval import to_minimization

        _, B = coverage_sets
        front = nondominated_front(to_minimization(B))
        assert len(front) == 5

    def test_front_drops_dominated(self):
        A = make_set("A", [(1, 1), (2, 2)])
        assert [s.objectives for s in nondominated_front(A).solutions] == [(1.0, 1.0)]

    def test_front_retains_duplicates(self):
        A = make_set("A", [(1, 2), (1, 2)])
        assert len(nondominated_front(A)) == 2

    def test_unique_front_collapses_duplicates(self):
        A = make_set("A", [(1, 2), (1, 2), (0, 3)])
        vecs = [s.objectives for s in unique_nondominated_front(A).solutions]
        assert vecs == [(1.0, 2.0), (0.0, 3.0)]

    def test_unique_front_of_front_is_itself(self):
        A = make_set("A", KNEE_A)
        assert len(unique_nondominated_front(A)) == 2

    def test_unique_front_keeps_first_only(self):
        A = make_set("A", [(2, 2), (1, 1)])
        vecs = [s.objectives for s in unique_nondominated_front(A).solutions]
        assert vecs == [(1.0, 1.0)]

    def test_empty_in_empty_out(self):
        A = make_set("A", [])
        assert len(nondominated_front(A)) == 0


class TestDominanceProperties:
    @given(pair)
    def test_antisymmetry(self, ab):
        a, b = ab
        if dominates(tuple(a), tuple(b)):
            assert not dominates(tuple(b), tuple(a))

    @given(
        st.integers(2, 4).flatmap(
            lambda m: st.tuples(
                *(
                    st.lists(st.floats(-50, 50), min_size=m, max_size=m)
                    for _ in range(3)
                )
            )
        )
    )
    def test_weak_dominance_transitivity(self, abc):
        a, b, c = (tuple(v) for v in abc)
        if weakly_dominates(a, b) and weakly_dominates(b, c):
            assert weakly_dominates(a, c)

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=12
        ),
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=12
        ),
    )
    def test_set_dominance_is_one_way(self, pa, pb):
        A = make_set("A", pa)
        B = make_set("B", pb)
        if dominates_set(A, B):
            assert weakly_covers(A, B)
            assert not dominates_set(B, A)

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=150)
    def test_front_matches_bruteforce(self, points):
        A = make_set("A", points)
        ours = [s.objectives for s in nondominated_front(A).solutions]
        expected = [
            tuple(float(v) for v in points[i])
            for i in oracles.front_indices(points)
        ]
        assert ours == expected

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=30
        )
    )
    def test_front_idempotent(self, points):
        A = make_set("A", points)
        once = nondominated_front(A)
        twice = nondominated_front(once)
        assert [s.objectives for s in once.solutions] == [
            s.objectives for s in twice.solutions
        ]

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=30
        )
    )
    def test_unique_front_weakly_set_dominates_input(self, points):
        A = make_set("A", points)
        assert weakly_covers(unique_nondominated_front(A), A)

    @given(vectors)
    def test_shifted_singleton_is_dominated_one_way(self, v):
        A = make_set("A", [tuple(v)])
        B = make_set("B", [tuple(x + 1.0 for x in v)])
        assert dominates_set(A, B)
        assert not dominates_set(B, A)


@st.composite
def limit_blocks(draw):
    """The limit sets of one block of WFG rows, m in 4..6: rows at three
    scales with rounded ties, exact twins, zeros of either sign, pushed up
    to each of the first ``b`` rows in turn, as ``_hv_wfg`` builds them."""
    m = draw(st.integers(4, 6))
    n = draw(st.integers(1, 14))
    b = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = rng.normal(size=(n, m)) * rng.choice([0.1, 1.0, 100.0])
    ties = rng.random((n, m)) < 0.4
    V[ties] = np.round(V[ties])
    twins = rng.random(n) < 0.3
    V[twins] = V[rng.integers(n, size=twins.sum())]
    V[(V == 0) & (rng.random((n, m)) < 0.5)] = -0.0
    return np.maximum(V[1:], V[:b, None])


@kernel_settings
@given(L=limit_blocks())
def test_limit_front_masks_match_front_mask(block_pairs, L):
    # Set t of the block is L[t, t:]; the batch must pick, for every set,
    # the rows ``_front_mask`` picks from it alone, and nothing before t.
    masks = core._limit_front_masks(L)
    for t, limit in enumerate(L):
        assert not masks[t, :t].any()
        assert (masks[t, t:] == core._front_mask(limit[t:], unique=True)).all()


class TestSolutionValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Solution((1.0, float("nan")))
        with pytest.raises(ValueError):
            Solution((float("inf"), 0.0))

    def test_values_matrix_shape(self):
        A = make_set("A", KNEE_B)
        assert A.values().shape == (3, 2)
        assert A.values().dtype == np.float64
