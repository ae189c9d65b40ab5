"""Descriptive statistics, their misleading-verdict flag, and run selection."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretoeval import (
    DimensionMismatchError,
    Direction,
    EmptySetError,
    IndicatorConfig,
    NormalizationBounds,
    doe_compare,
    normalize,
    per_objective_stats,
    scalarize_best,
    set_dominates,
    spacing,
    to_minimization,
)
from paretoeval.doe import indicator_table
from conftest import make_set
import oracles

# A set whose members straddle the whole range can dominate a tighter set
# while having worse componentwise means.
WIDE = [(0.0, 0.0), (10.0, 10.0)]
TIGHT = [(3.0, 3.0), (5.0, 5.0)]


class TestPerObjectiveStats:
    def test_two_point_set(self):
        stats = per_objective_stats(make_set("A", [(1, 4), (3, 2)]))
        assert stats.mean == (2.0, 3.0)
        assert stats.median == (2.0, 3.0)
        assert stats.best == (1.0, 2.0)
        assert stats.worst == (3.0, 4.0)

    def test_singleton_collapses(self):
        stats = per_objective_stats(make_set("A", [(5, 7)]))
        assert stats.mean == stats.median == stats.best == stats.worst == (5.0, 7.0)

    def test_natural_direction_flips_best(self, coverage_sets):
        A, _ = coverage_sets
        converted = to_minimization(A)
        stats = per_objective_stats(converted)
        # cost is minimized, coverage maximized; both reported in
        # natural units
        assert stats.best == (200.0, 1.0)
        assert stats.worst == (450.0, 0.2)
        assert stats.names == ("cost", "coverage")

    def test_unconverted_set_follows_declared_direction(self):
        raw = make_set(
            "A",
            [(1, 10), (2, 30)],
            directions=[Direction.MINIMIZE, Direction.MAXIMIZE],
            names=["cost", "gain"],
        )
        stats = per_objective_stats(raw)
        assert (stats.best, stats.worst) == ((1.0, 30.0), (2.0, 10.0))
        assert per_objective_stats(to_minimization(raw)) == stats

    def test_empty_set_rejected(self):
        empty = make_set("A", [(1, 1)]).with_solutions(())
        with pytest.raises(EmptySetError):
            per_objective_stats(empty)


class TestDoeCompare:
    def test_mean_contradicts_dominance(self):
        A = make_set("A", WIDE)
        B = make_set("B", TIGHT)
        assert set_dominates(A, B)
        outcome = doe_compare(A, B, stat="mean")
        assert outcome.first_stats.mean == (5.0, 5.0)
        assert outcome.second_stats.mean == (4.0, 4.0)
        assert outcome.winners == (-1, -1)
        assert outcome.misleading_flag

    def test_flag_symmetric_under_swap(self):
        A = make_set("A", WIDE)
        B = make_set("B", TIGHT)
        outcome = doe_compare(B, A, stat="mean")
        assert outcome.winners == (1, 1)
        assert outcome.misleading_flag

    def test_worst_also_contradicts_here(self):
        outcome = doe_compare(make_set("A", WIDE), make_set("B", TIGHT), "worst")
        assert outcome.winners == (-1, -1)
        assert outcome.misleading_flag

    def test_best_agrees_here(self):
        outcome = doe_compare(make_set("A", WIDE), make_set("B", TIGHT), "best")
        assert outcome.winners == (1, 1)
        assert not outcome.misleading_flag

    def test_identical_sets_tie_everywhere(self):
        A = make_set("A", TIGHT)
        B = make_set("B", TIGHT)
        for stat in ("mean", "median", "best", "worst"):
            outcome = doe_compare(A, B, stat)
            assert outcome.winners == (0, 0)
            assert not outcome.misleading_flag

    def test_no_flag_without_dominance(self):
        A = make_set("A", [(0, 10)])
        B = make_set("B", [(1, 1)])
        outcome = doe_compare(A, B)
        assert outcome.winners == (1, -1)
        assert not outcome.misleading_flag

    def test_natural_directions_in_winners(self, users_sets):
        A, B = (to_minimization(s) for s in users_sets)
        outcome = doe_compare(A, B, stat="mean")
        # first set has cheaper mean cost; second serves more users
        assert outcome.winners == (1, -1)
        assert not outcome.misleading_flag

    def test_unknown_stat(self):
        with pytest.raises(ValueError):
            doe_compare(make_set("A", TIGHT), make_set("B", TIGHT), "mode")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            doe_compare(make_set("A", [(1, 2)]), make_set("B", [(1, 2, 3)]))

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8
        ),
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 4)), min_size=8, max_size=8
        ),
    )
    @settings(max_examples=150)
    def test_best_never_contradicts_dominance(self, raw, shifts):
        """The per-objective best of a dominating set can never lose."""
        base = [tuple(map(float, p)) for p in dict.fromkeys(raw)]
        front = [base[i] for i in oracles.front_indices(base)]
        worse = [
            tuple(x + d for x, d in zip(p, s)) for p, s in zip(front, shifts)
        ]
        A = make_set("A", front)
        B = make_set("B", worse)
        assert set_dominates(A, B)
        outcome = doe_compare(A, B, stat="best")
        assert all(w >= 0 for w in outcome.winners)
        assert not outcome.misleading_flag

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=6
        ),
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=6
        ),
        st.sampled_from(["mean", "median", "best", "worst"]),
    )
    @settings(max_examples=150)
    def test_flag_iff_contradiction(self, pa, pb, stat):
        A, B = make_set("A", pa), make_set("B", pb)
        outcome = doe_compare(A, B, stat)
        contradiction = (
            set_dominates(A, B) and any(w < 0 for w in outcome.winners)
        ) or (set_dominates(B, A) and any(w > 0 for w in outcome.winners))
        assert outcome.misleading_flag == contradiction


class TestScalarizeBest:
    POINTS = [(0.4, 0.4), (0.0, 1.0), (1.0, 0.0)]

    def test_even_weights_favour_balance(self):
        best, score = scalarize_best(make_set("A", self.POINTS), (0.5, 0.5))
        assert best.objectives == (0.4, 0.4)
        assert score == pytest.approx(0.4)

    def test_one_hot_weights_pick_objective_minimum(self):
        A = make_set("A", self.POINTS)
        first, _ = scalarize_best(A, (1.0, 0.0))
        second, _ = scalarize_best(A, (0.0, 1.0))
        assert first.objectives == (0.0, 1.0)
        assert second.objectives == (1.0, 0.0)

    def test_tie_keeps_first_occurrence(self):
        A = make_set("A", [(0.0, 1.0), (1.0, 0.0)])
        best, score = scalarize_best(A, (0.5, 0.5))
        assert best is A.solutions[0]
        assert score == pytest.approx(0.5)

    def test_weight_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            scalarize_best(make_set("A", self.POINTS), (1.0,))

    def test_empty_set_rejected(self):
        empty = make_set("A", [(1, 1)]).with_solutions(())
        with pytest.raises(EmptySetError):
            scalarize_best(empty, (0.5, 0.5))


def _staircase_run(name, size):
    """A nondominated staircase with `size` solutions."""
    return make_set(name, [(float(i), float(size - i)) for i in range(size)])


def _representative(runs, indicator="hv", config=None):
    """The representative run of one algorithm's runs, ranked by `indicator`."""
    column = (indicator, config or IndicatorConfig())
    return indicator_table({"alg": runs}, [column], column).representative["alg"]


class TestRepresentativeRun:
    def test_odd_count_picks_median(self):
        runs = [_staircase_run(f"r{k}", k) for k in (1, 2, 3)]
        assert _representative(runs, "nfs") == 1

    def test_even_count_picks_lower_middle(self):
        runs = [_staircase_run(f"r{k}", k) for k in (1, 2, 3, 4)]
        assert _representative(runs, "nfs") == 1

    def test_order_permutation_tracks_same_run(self):
        runs = [_staircase_run(f"r{k}", k) for k in (3, 1, 2)]
        assert _representative(runs, "nfs") == 2

    def test_single_run(self):
        assert _representative([_staircase_run("only", 3)]) == 0

    def test_default_indicator_is_dominated_volume(self):
        boxes = [make_set(f"r{k}", [(1.0 - 0.2 * k, 1.0 - 0.2 * k)]) for k in (0, 1, 2)]
        config = IndicatorConfig(hv_strategy="explicit", ref_point=(2.0, 2.0))
        assert _representative(boxes, config=config) == 1

    def test_binary_indicator_rejected(self):
        runs = [_staircase_run("r", 2)]
        with pytest.raises(ValueError):
            _representative(runs, "ci")
        with pytest.raises(ValueError):
            _representative(runs, "c")

    def test_gd_p_setting_reaches_indicator(self):
        runs = [
            make_set("r0", [(0.0, 3.0), (4.0, 0.0)]),
            make_set("r1", [(0.0, 0.0)]),
        ]
        # with the combined-front reference r1 sits on the front, so the
        # indicator order is stable across p; this just exercises the path
        assert _representative(runs, "gd", IndicatorConfig(gd_p=2.0)) in (0, 1)


class TestIndicatorTableInputs:
    def test_spacing_column_reads_normalized_runs(self):
        runs = [
            make_set("r0", [(0, 4), (1, 3), (4, 0)]),
            make_set("r1", [(2, 2), (3, 0)]),
        ]
        column = ("sp", IndicatorConfig())
        table = indicator_table({"alg": runs}, [column], ("nfs", IndicatorConfig()))
        normed = normalize(runs, NormalizationBounds.from_sets(runs))
        assert table.values == {
            ("alg", 0): (spacing(normed[0]),),
            ("alg", 1): (spacing(normed[1]),),
        }
        assert table.values[("alg", 1)] == (0.0,)  # two points: one distance

    def test_requires_runs(self):
        with pytest.raises(EmptySetError):
            _representative([])

    def test_requires_name(self):
        column = ("nfs", IndicatorConfig())
        with pytest.raises(ValueError):
            indicator_table({"": [_staircase_run("r", 1)]}, [column], column)

    def test_dimension_agreement(self):
        with pytest.raises(DimensionMismatchError):
            _representative([make_set("a", [(1, 2)]), make_set("b", [(1, 2, 3)])])
