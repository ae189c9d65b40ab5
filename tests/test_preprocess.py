"""Orientation, screening, preference transfer, normalization, references."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paretoeval import (
    ClearConstraint,
    Direction,
    EvaluationWarning,
    NormalizationBounds,
    ObjectiveMeta,
    PreferenceSpec,
    Solution,
    SolutionSet,
    VagueClamp,
    apply_clear_preferences,
    apply_vague_preferences,
    build_reference_point,
    build_reference_set,
    compute_h,
    normalize,
    restore_orientation,
    screen_trivial,
    set_weakly_dominates,
    to_minimization,
)
from conftest import KNEE_A, KNEE_B, REFSET_A, REFSET_B, make_set
import oracles


class TestOrientation:
    def test_maximize_negated(self, coverage_sets):
        A, _ = coverage_sets
        converted = to_minimization(A)
        assert converted.solutions[0].objectives == (200.0, -0.2)
        assert all(
            o.direction is Direction.MINIMIZE for o in converted.meta
        )
        assert converted.signs == (1.0, -1.0)

    def test_all_minimize_is_identity_on_values(self):
        A = make_set("A", KNEE_A)
        converted = to_minimization(A)
        assert converted.values().tolist() == A.values().tolist()

    def test_round_trip_bit_exact(self, users_sets):
        A, _ = users_sets
        converted = to_minimization(A)
        restored = restore_orientation(converted, A.meta)
        assert [s.objectives for s in restored.solutions] == [
            s.objectives for s in A.solutions
        ]
        assert [o.direction for o in restored.meta] == [o.direction for o in A.meta]

    def test_double_conversion_rejected(self, users_sets):
        A, _ = users_sets
        with pytest.raises(ValueError):
            to_minimization(to_minimization(A))

    def test_natural_values(self, coverage_sets):
        A, _ = coverage_sets
        converted = to_minimization(A)
        assert converted.natural_values().tolist() == A.values().tolist()


class TestScreening:
    def test_zero_cost_zero_coverage_removed(self, coverage_sets):
        _, B = coverage_sets
        work = to_minimization(B)
        # keep only solutions with coverage strictly above zero
        rule = ClearConstraint(objective=1, kind="at_least", threshold=0.4)
        log = []
        screened = screen_trivial(work, (rule,), log=log)
        assert len(screened) == 4
        assert log[0].index == 0
        assert log[0].solution.objectives[0] == 0.0
        assert "coverage" in log[0].rule
        # Without the objective's name the rule names its index.
        for meta in (None, work.meta[:1]):
            assert rule.describe(meta) == "objective[1] >= 0.4"

    def test_empty_rules_identity(self):
        A = make_set("A", KNEE_A)
        assert screen_trivial(A, ()) is A

    def test_all_removed_warns(self):
        A = make_set("A", [(5, 5)])
        rule = ClearConstraint(objective=0, kind="at_most", threshold=1.0)
        with pytest.warns(EvaluationWarning):
            out = screen_trivial(A, (rule,))
        assert len(out) == 0


class TestClearPreferences:
    def test_exactly_best_keeps_best_and_drops(self, coverage_sets):
        A, B = coverage_sets
        spec = PreferenceSpec(
            clear=(ClearConstraint(objective=1, kind="exactly_best"),)
        )
        outA, droppedA = apply_clear_preferences(to_minimization(A), spec)
        outB, droppedB = apply_clear_preferences(to_minimization(B), spec)
        assert [s.objectives for s in outA.solutions] == [(450.0, -1.0)]
        assert [s.objectives for s in outB.solutions] == [(500.0, -1.0)]
        assert droppedA == (1,) and droppedB == (1,)

    def test_at_least_filters_without_dropping(self):
        dirs = [Direction.MINIMIZE, Direction.MAXIMIZE]
        A = make_set("A", [(1, 0.96), (0.5, 0.90)], dirs, ["cost", "availability"])
        spec = PreferenceSpec(
            clear=(ClearConstraint(objective=1, kind="at_least", threshold=0.95),)
        )
        out, dropped = apply_clear_preferences(to_minimization(A), spec)
        assert [s.objectives for s in out.solutions] == [(1.0, -0.96)]
        assert dropped == ()

    def test_threshold_is_inclusive(self):
        dirs = [Direction.MINIMIZE, Direction.MAXIMIZE]
        A = make_set("A", [(1, 0.95)], dirs)
        spec = PreferenceSpec(
            clear=(ClearConstraint(objective=1, kind="at_least", threshold=0.95),)
        )
        out, _ = apply_clear_preferences(to_minimization(A), spec)
        assert len(out) == 1

    def test_empty_spec_identity(self):
        A = to_minimization(make_set("A", KNEE_A))
        out, dropped = apply_clear_preferences(A, PreferenceSpec())
        assert out is A and dropped == ()

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=15
        ),
        st.integers(0, 9),
    )
    def test_never_grows(self, points, threshold):
        A = make_set("A", points)
        spec = PreferenceSpec(
            clear=(
                ClearConstraint(objective=0, kind="at_most", threshold=threshold),
            ),
            untransferable=False,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvaluationWarning)
            out, _ = apply_clear_preferences(to_minimization(A), spec)
        assert len(out) <= len(A)


class TestVaguePreferences:
    def _spec(self):
        return PreferenceSpec(
            vague=(VagueClamp(objective=1, saturation=3000, hard_floor=1500),)
        )

    def test_clamp_discard_keep(self, users_sets):
        _, B = users_sets
        out = apply_vague_preferences(to_minimization(B), self._spec())
        assert [s.objectives for s in out.solutions] == [
            (1250.0, -2500.0),
            (2000.0, -3000.0),
        ]

    def test_boundary_values_kept_unclamped(self):
        dirs = [Direction.MINIMIZE, Direction.MAXIMIZE]
        A = make_set("A", [(750, 1500), (1500, 3000)], dirs, ["cost", "users"])
        out = apply_vague_preferences(to_minimization(A), self._spec())
        assert [s.objectives for s in out.solutions] == [
            (750.0, -1500.0),
            (1500.0, -3000.0),
        ]

    def test_unchanged_set(self, users_sets):
        A, _ = users_sets
        out = apply_vague_preferences(to_minimization(A), self._spec())
        assert [s.objectives for s in out.solutions] == [
            s.objectives for s in to_minimization(A).solutions
        ]

    def test_minimization_clamp_mirrored(self):
        spec = PreferenceSpec(
            vague=(VagueClamp(objective=0, saturation=10, hard_floor=20),)
        )
        A = make_set("A", [(5, 1), (15, 2), (25, 3)])
        out = apply_vague_preferences(to_minimization(A), spec)
        # 5 is better than needed -> clamped to 10; 25 is past the floor.
        assert [s.objectives for s in out.solutions] == [(10.0, 1.0), (15.0, 2.0)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)),
            min_size=2,
            max_size=10,
        )
    )
    def test_clamping_preserves_weak_dominance(self, points):
        spec = PreferenceSpec(
            vague=(VagueClamp(objective=0, saturation=5, hard_floor=None),)
        )
        A = make_set("A", points)
        out = apply_vague_preferences(to_minimization(A), spec)
        raw = to_minimization(A).values()
        clamped = out.values()
        for i in range(len(points)):
            for j in range(len(points)):
                if i != j and all(raw[i] <= raw[j]):
                    assert all(clamped[i] <= clamped[j])

    def test_floor_equal_saturation_rejected(self):
        with pytest.raises(ValueError):
            VagueClamp(objective=0, saturation=5, hard_floor=5)


class TestNormalization:
    def test_midpoint(self):
        A = make_set("A", [(5, 5)])
        bounds = NormalizationBounds(ideal=(0.0, 0.0), nadir=(10.0, 10.0))
        out = normalize([A], bounds)[0]
        assert out.solutions[0].objectives == (0.5, 0.5)
        assert normalize([], bounds) == []

    def test_boundaries(self):
        A = make_set("A", [(0, 10), (10, 0)])
        bounds = NormalizationBounds.from_sets([A])
        out = normalize([A], bounds)[0]
        assert out.solutions[0].objectives == (0.0, 1.0)
        assert out.solutions[1].objectives == (1.0, 0.0)

    def test_degenerate_objective_maps_to_zero_with_warning(self):
        A = make_set("A", [(1, 5), (2, 5)])
        bounds = NormalizationBounds.from_sets([A])
        with pytest.warns(EvaluationWarning):
            out = normalize([A], bounds)[0]
        assert out.values()[:, 1].tolist() == [0.0, 0.0]

    def test_out_of_bounds_flagged_not_clamped(self):
        A = make_set("A", [(15, 5)])
        bounds = NormalizationBounds(ideal=(0.0, 0.0), nadir=(10.0, 10.0))
        with pytest.warns(EvaluationWarning):
            out = normalize([A], bounds)[0]
        assert out.solutions[0].objectives == (1.5, 0.5)

    def test_in_range_stays_in_unit_box(self):
        A = make_set("A", REFSET_A)
        B = make_set("B", REFSET_B)
        bounds = NormalizationBounds.from_sets([A, B])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for out in normalize([A, B], bounds):
                vals = out.values()
                assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_hard_bounds_source(self):
        meta = (
            ObjectiveMeta("f1", Direction.MINIMIZE, hard_bounds=(0.0, 4.0)),
            ObjectiveMeta("f2", Direction.MINIMIZE, hard_bounds=(0.0, 8.0)),
        )
        A = SolutionSet("A", meta, (Solution((2.0, 2.0)),))
        bounds = NormalizationBounds.from_hard_bounds(A)
        out = normalize([A], bounds)[0]
        assert out.solutions[0].objectives == (0.5, 0.25)


class TestReferenceSet:
    def test_union_of_mutually_nondominated(self, knee_sets):
        A, B = knee_sets
        ref = build_reference_set([A, B])
        assert len(ref) == 5

    def test_dominated_point_excluded(self, refset_sets):
        A, B = refset_sets
        ref = build_reference_set([A, B])
        vecs = {s.objectives for s in ref.solutions}
        assert len(ref) == 5
        assert (3.0, 3.0) not in vecs

    def test_single_nondominated_set_is_itself(self):
        A = make_set("A", KNEE_A)
        ref = build_reference_set([A])
        assert [s.objectives for s in ref.solutions] == [
            s.objectives for s in A.solutions
        ]

    def test_source_tags_retained(self, knee_sets):
        A, B = knee_sets
        ref = build_reference_set([A, B])
        assert {s.source for s in ref.solutions} == {"A", "B"}

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 8), st.integers(0, 8)),
                min_size=1,
                max_size=6,
            ),
            min_size=2,
            max_size=4,
        )
    )
    def test_order_and_grouping_invariant(self, groups):
        sets = [make_set(f"S{i}", pts) for i, pts in enumerate(groups)]
        forward = build_reference_set(sets)
        backward = build_reference_set(list(reversed(sets)))
        merged = build_reference_set(
            [make_set("all", [p for pts in groups for p in pts])]
        )
        as_vectors = lambda s: sorted(x.objectives for x in s.solutions)
        assert as_vectors(forward) == as_vectors(backward) == as_vectors(merged)


class TestReferencePoint:
    def test_explicit_passthrough(self, knee_sets):
        A, B = knee_sets
        basis = build_reference_set([A, B])
        assert build_reference_point(basis, "explicit", explicit=(13, 11)) == (
            13.0,
            11.0,
        )

    def test_nadir_plus_tenth(self, knee_sets):
        A, B = knee_sets
        basis = build_reference_set([A, B])
        point = build_reference_point(basis, "nadir_plus_tenth")
        assert point == pytest.approx((13.1, 10.85), abs=1e-12)

    def test_doubled_range(self, knee_sets):
        A, B = knee_sets
        basis = build_reference_set([A, B])
        point = build_reference_point(basis, "doubled_range")
        assert point == pytest.approx((23.0, 18.5), abs=1e-12)

    def test_worst_values_weakly_dominated_by_every_member(self, refset_sets):
        A, B = refset_sets
        union = make_set("U", REFSET_A + REFSET_B)
        point = build_reference_point(union, "worst_values")
        assert point == (10.0, 10.0)
        for s in union.solutions:
            assert all(v <= r for v, r in zip(s.objectives, point))

    def test_nadir_plus_l_over_h(self, knee_sets):
        A, B = knee_sets
        basis = build_reference_set([A, B])
        point = build_reference_point(basis, "nadir_plus_l_over_h")
        # 5 front points, m=2 -> h=4
        assert point == pytest.approx((12 + 11 / 4, 10 + 8.5 / 4), abs=1e-12)

    @pytest.mark.parametrize(
        "strategy", ["nadir_plus_tenth", "nadir_plus_l_over_h", "doubled_range"]
    )
    def test_raw_basis_gives_the_point_of_its_unique_front(self, knee_sets, strategy):
        # Twice every knee point plus two dominated rows: h for nadir_plus_l_over_h
        # must count the 5 distinct front points, not the 10 copies.
        raw = make_set("U", KNEE_A + KNEE_B + KNEE_B + KNEE_A + [(13, 11), (9, 6)])
        front = build_reference_set(list(knee_sets))
        assert build_reference_point(raw, strategy) == build_reference_point(
            front, strategy
        )

    def test_degenerate_range_steps_by_one(self):
        A = make_set("A", [(1, 5), (2, 5)])
        with pytest.warns(EvaluationWarning):
            point = build_reference_point(A, "nadir_plus_tenth")
        assert point[1] == 6.0

    def test_explicit_below_nadir_rejected(self, knee_sets):
        A, B = knee_sets
        basis = build_reference_set([A, B])
        with pytest.raises(ValueError):
            build_reference_point(basis, "explicit", explicit=(5, 5))


class TestComputeH:
    def test_documented_values(self):
        assert compute_h(5, 2) == 4
        assert compute_h(10, 3) == 3

    def test_fallback_warns(self):
        with pytest.warns(EvaluationWarning):
            assert compute_h(1, 2) == 1

    @given(st.integers(2, 300), st.integers(2, 6))
    def test_matches_exhaustive_enumeration(self, n, m):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvaluationWarning)
            assert compute_h(n, m) == oracles.h_oracle(n, m)


class TestPreferenceSpecValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PreferenceSpec(weights=(0.7, 0.7))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PreferenceSpec(weights=(1.5, -0.5))

    def test_one_clear_constraint_per_objective(self):
        c1 = ClearConstraint(objective=0, kind="at_most", threshold=5)
        c2 = ClearConstraint(objective=0, kind="at_least", threshold=1)
        with pytest.raises(ValueError):
            PreferenceSpec(clear=(c1, c2))
