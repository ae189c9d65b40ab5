"""Quality indicators: worked values, oracle agreement, compliance properties."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretoeval import (
    EvaluationWarning,
    IndicatorConfig,
    apply_vague_preferences,
    aspects_of,
    build_reference_set,
    canonical_name,
    contribution,
    coverage,
    epsilon_additive,
    gd,
    gd_plus,
    grid_diversity,
    hypervolume,
    igd,
    igd_plus,
    nfs,
    PreferenceSpec,
    spacing,
    spread_delta,
    to_minimization,
    unfr,
    unique_nondominated_front,
    VagueClamp,
)
from paretoeval import core
from paretoeval import indicators as ind
from conftest import (
    BOUNDARY_A,
    DIAG_A,
    DIAG_B,
    DIAG_C,
    INNER_B,
    KNEE_A,
    KNEE_B,
    REFSET_A,
    REFSET_B,
    kernel_settings,
    make_set,
)
import oracles

SINGLE_A = [(2, 5)]
SINGLE_B = [(3, 9)]
ANCHORS = [(1, 0), (0, 10)]


class TestContribution:
    def test_knee_scenario_values(self, knee_sets):
        A, B = knee_sets
        assert contribution(A, B) == pytest.approx(0.4, abs=0)
        assert contribution(B, A) == pytest.approx(0.6, abs=0)

    def test_self_is_half(self):
        for pts in (KNEE_A, KNEE_B, [(1, 1), (1, 1)]):
            A = make_set("A", pts)
            assert contribution(A, A) == 0.5

    def test_dominated_side_is_zero(self):
        A = make_set("A", [(1, 1), (2, 0)])
        B = make_set("B", [(3, 3), (4, 2)])
        assert contribution(B, A) == 0.0
        assert contribution(A, B) == 1.0

    def test_duplicate_surplus_earns_no_credit(self):
        A = make_set("A", [(1, 1), (1, 1)])
        B = make_set("B", [(1, 1)])
        # one shared vector; the surplus duplicate neither dominates nor
        # is incomparable, so parity is preserved
        assert contribution(A, B) == 0.5

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=10
        ),
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=10
        ),
    )
    def test_complementarity(self, pa, pb):
        A, B = make_set("A", pa), make_set("B", pb)
        assert contribution(A, B) + contribution(B, A) == pytest.approx(1.0)


class TestCoverage:
    def test_mutually_nondominated_is_zero(self, knee_sets):
        A, B = knee_sets
        assert coverage(A, B) == 0.0
        assert coverage(B, A) == 0.0

    def test_dominating_pair(self):
        A = make_set("A", [(0, 0)])
        B = make_set("B", [(1, 1), (2, 2)])
        assert coverage(A, B) == 1.0
        assert coverage(B, A) == 0.0

    def test_self_coverage_full(self):
        A = make_set("A", KNEE_B)
        assert coverage(A, A) == 1.0

    def test_duplicates_in_second_set_collapse(self):
        A = make_set("A", [(0, 0)])
        B = make_set("B", [(1, 1), (1, 1), (5, 5)])
        # two unique vectors, both dominated
        assert coverage(A, B) == 1.0


class TestGd:
    def test_counterexample_p2(self):
        A = make_set("A", SINGLE_A)
        B = make_set("B", SINGLE_B)
        R = make_set("R", ANCHORS)
        assert gd(A, R, p=2) == pytest.approx(math.sqrt(26), abs=1e-12)
        assert gd(B, R, p=2) == pytest.approx(math.sqrt(10), abs=1e-12)

    def test_zero_on_front_subsets(self, knee_sets):
        A, B = knee_sets
        R = build_reference_set([A, B])
        assert gd(A, R) == 0.0
        assert gd(B, R) == 0.0

    def test_default_p_is_one(self):
        A = make_set("A", [(0, 3), (4, 0)])
        R = make_set("R", [(0, 0)])
        assert gd(A, R) == pytest.approx((3 + 4) / 2)

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8
        ),
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8
        ),
        st.sampled_from([1.0, 2.0, 3.0]),
    )
    def test_matches_oracle(self, pa, pr, p):
        A, R = make_set("A", pa), make_set("R", pr)
        assert gd(A, R, p=p) == pytest.approx(oracles.gd_oracle(pa, pr, p))


class TestGdPlus:
    def test_counterexample_resolved(self):
        A = make_set("A", SINGLE_A)
        B = make_set("B", SINGLE_B)
        R = make_set("R", ANCHORS)
        assert gd_plus(A, R) == pytest.approx(2.0, abs=1e-12)
        assert gd_plus(B, R) == pytest.approx(3.0, abs=1e-12)

    def test_zero_when_subset_of_reference(self, knee_sets):
        A, B = knee_sets
        R = build_reference_set([A, B])
        assert gd_plus(A, R) == 0.0

    def test_matches_oracle_on_worked_pairs(self):
        for pts in (REFSET_A, REFSET_B, KNEE_B):
            A = make_set("A", pts)
            R = make_set("R", ANCHORS)
            assert gd_plus(A, R) == pytest.approx(
                oracles.gd_plus_oracle(pts, ANCHORS)
            )


class TestIgd:
    def test_knee_scenario(self, knee_sets):
        A, B = knee_sets
        R = build_reference_set([A, B])
        assert igd(A, R) == pytest.approx(2.154, abs=1e-3)
        assert igd(B, R) == pytest.approx(1.433, abs=1e-3)

    def test_combined_front_bias(self, refset_sets):
        A, B = refset_sets
        R = build_reference_set([A, B])
        value_a, value_b = igd(A, R), igd(B, R)
        assert value_a == pytest.approx(2.80, abs=0.01)
        assert value_b == pytest.approx(1.08, abs=0.01)
        assert value_a > value_b  # the tight set scores worse

    def test_reference_composition_flips_order(self, diag_sets):
        A, B, C = diag_sets
        R2 = build_reference_set([A, B])
        assert igd(A, R2) == pytest.approx(1.41, abs=0.01)
        assert igd(B, R2) == pytest.approx(2.12, abs=0.01)
        R3 = build_reference_set([A, B, C])
        assert igd(A, R3) == pytest.approx(1.82, abs=0.01)
        assert igd(B, R3) == pytest.approx(1.72, abs=0.01)
        assert igd(C, R3) == pytest.approx(1.61, abs=0.01)
        assert igd(A, R2) < igd(B, R2)
        assert igd(A, R3) > igd(B, R3) > igd(C, R3)

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8
        ),
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8
        ),
    )
    def test_matches_oracle(self, pa, pr):
        A, R = make_set("A", pa), make_set("R", pr)
        assert igd(A, R) == pytest.approx(oracles.igd_oracle(pa, pr))


class TestIgdPlus:
    def test_hand_worked_value(self):
        A = make_set("A", SINGLE_A)
        R = make_set("R", ANCHORS)
        assert igd_plus(A, R) == pytest.approx((math.sqrt(26) + 2) / 2, abs=1e-12)

    def test_zero_when_superset_of_reference(self, knee_sets):
        A, B = knee_sets
        R = build_reference_set([A, B])
        union = make_set("U", KNEE_A + KNEE_B)
        assert igd_plus(union, R) == 0.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8
        ),
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8
        ),
    )
    def test_matches_oracle(self, pa, pr):
        A, R = make_set("A", pa), make_set("R", pr)
        assert igd_plus(A, R) == pytest.approx(oracles.igd_plus_oracle(pa, pr))


# Few distinct coordinates, so first objectives tie, with zeros of either sign.
SPREAD_COORD = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0]) | st.floats(-1e3, 1e3)


class TestSpread:
    def test_equidistant_with_met_extremes(self):
        A = make_set("A", [(0, 1), (0.5, 0.5), (1, 0)])
        assert spread_delta(A, [(0, 1), (1, 0)]) == 0.0

    def test_two_points_on_extremes(self):
        A = make_set("A", [(0, 1), (1, 0)])
        assert spread_delta(A, [(0, 1), (1, 0)]) == 0.0

    def test_interior_pair_value(self):
        A = make_set("A", [(0.2, 0.8), (0.4, 0.6)])
        expected = oracles.spread_oracle(
            [(0.2, 0.8), (0.4, 0.6)], (0, 1), (1, 0)
        )
        assert expected == pytest.approx(0.8)
        assert spread_delta(A, [(0, 1), (1, 0)]) == pytest.approx(expected)

    def test_three_objectives_rejected(self):
        A = make_set("A", [(1, 2, 3)])
        with pytest.raises(ValueError):
            spread_delta(A, [(0, 0, 0), (1, 1, 1)])

    def test_single_point_conventions(self):
        lonely = make_set("A", [(0.5, 0.5)])
        assert spread_delta(lonely, [(0, 1), (1, 0)]) == 1.0
        pinned = make_set("A", [(0, 1)])
        assert spread_delta(pinned, [(0, 1), (0, 1)]) == 0.0

    def test_copies_of_one_point_at_both_extremes(self):
        # No gap and no edge distance: the zero denominator reads as 0.
        copies = make_set("A", [(0, 1), (0, 1), (0, 1)])
        assert spread_delta(copies, [(0, 1), (0, 1)]) == 0.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 10)),
            min_size=2,
            max_size=12,
        )
    )
    def test_matches_direct_transcription(self, points):
        A = make_set("A", points)
        expected = oracles.spread_oracle(
            [tuple(map(float, p)) for p in points], (0.0, 12.0), (12.0, 0.0)
        )
        assert spread_delta(A, [(0, 12), (12, 0)]) == pytest.approx(expected)

    @given(
        rows=st.lists(st.tuples(SPREAD_COORD, SPREAD_COORD), min_size=1, max_size=12),
        copies=st.lists(st.integers(0, 11), max_size=4),
        extremes=st.tuples(*[st.tuples(SPREAD_COORD, SPREAD_COORD)] * 2),
    )
    def test_matches_the_list_sorted_route(self, rows, copies, extremes):
        # Tied first objectives, duplicate rows and zeros of either sign: the
        # stable lexicographic sort must give the rows the order Python's
        # sort of their lists does, so every value keeps its bits.
        rows = rows + [rows[i % len(rows)] for i in copies]
        expected = oracles.spread_list_sorted(np.array(rows), extremes)
        assert repr(spread_delta(make_set("A", rows), extremes)) == repr(expected)


class TestSpacing:
    def test_equidistant_colinear_is_zero(self):
        A = make_set("A", [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)])
        assert spacing(A) == 0.0

    def test_duplicates_only_is_zero(self):
        A = make_set("A", [(1, 1), (1, 1), (1, 1)])
        assert spacing(A) == 0.0

    def test_single_point_rejected(self):
        # The bound is the profile's, which lint's L-RUN-TOO-SMALL reads.
        assert aspects_of("sp").min_size == 2
        with pytest.raises(ValueError, match="at least 2 solutions"):
            spacing(make_set("A", [(1, 1)]))

    @given(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 10)),
            min_size=2,
            max_size=10,
        )
    )
    def test_matches_bruteforce(self, points):
        A = make_set("A", points)
        assert spacing(A) == pytest.approx(oracles.spacing_oracle(points))


class TestCardinality:
    def test_front_sizes(self, coverage_sets):
        A, B = (to_minimization(s) for s in coverage_sets)
        assert nfs(A) == 4
        assert nfs(B) == 5

    def test_empty_set(self):
        A = make_set("A", [])
        assert nfs(A) == 0

    def test_duplicates_counted(self):
        assert nfs(make_set("A", [(1, 2), (1, 2)])) == 2

    def test_unfr_against_self(self):
        A = make_set("A", KNEE_A)
        assert unfr(A, build_reference_set([A])) == 1.0

    def test_unfr_shares(self, knee_sets):
        union = build_reference_set(list(knee_sets))
        A, B = knee_sets
        assert unfr(A, union) == pytest.approx(0.4)
        assert unfr(B, union) == pytest.approx(0.6)

    def test_unfr_fully_dominated_side(self):
        A = make_set("A", [(0, 0)])
        B = make_set("B", [(1, 1), (2, 2)])
        union = build_reference_set([A, B])
        assert unfr(B, union) == 0.0
        assert unfr(A, union) == 1.0


class TestHypervolume:
    def test_knee_scenario(self, knee_sets):
        A, B = knee_sets
        assert hypervolume(A, (13, 11)) == pytest.approx(71.0, abs=1e-9)
        assert hypervolume(B, (13, 11)) == pytest.approx(45.5, abs=1e-9)

    def test_reference_point_flips_ranking(self, boundary_sets):
        A, B = boundary_sets
        assert hypervolume(A, (6, 6)) == 11.0
        assert hypervolume(B, (6, 6)) == 19.0
        assert hypervolume(A, (11, 11)) == 96.0
        assert hypervolume(B, (11, 11)) == 94.0

    def test_points_outside_reference_contribute_nothing(self):
        A = make_set("A", [(1, 1), (7, 0)])
        assert hypervolume(A, (5, 5)) == 16.0

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            hypervolume(make_set("A", [(1,)]), (2,))
        eleven = make_set("A", [tuple(range(11))])
        with pytest.raises(ValueError):
            hypervolume(eleven, tuple([20] * 11))

    def test_reference_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hypervolume(make_set("A", [(1, 1)]), (2, 2, 2))

    def test_three_objectives_exact(self):
        # Two disjoint unit boxes plus their overlap, checked by hand:
        # (0,0,0) alone fills the whole 2^3 box; adding a dominated point
        # changes nothing.
        A = make_set("A", [(0, 0, 0), (1, 1, 1)])
        assert hypervolume(A, (2, 2, 2)) == 8.0
        B = make_set("B", [(0, 1, 1), (1, 0, 0)])
        # union = 1*1*1 + 1*2*2 - overlap 1*1*1 = 4... direct grid oracle:
        assert hypervolume(B, (2, 2, 2)) == oracles.hv_grid(
            [(0, 1, 1), (1, 0, 0)], (2, 2, 2)
        )

    def test_scale_and_translation_covariance(self, knee_sets):
        A, _ = knee_sets
        scaled = make_set("A", [(20, 60), (90, 20)])
        assert hypervolume(scaled, (130, 110)) == pytest.approx(
            100 * hypervolume(A, (13, 11)), rel=1e-12
        )
        shifted = make_set("A", [(p[0] + 5, p[1] + 5) for p in KNEE_A])
        assert hypervolume(shifted, (18, 16)) == pytest.approx(
            hypervolume(A, (13, 11)), rel=1e-12
        )

    def test_monotone_under_added_nondominated_point(self, boundary_sets):
        A, _ = boundary_sets
        grown = make_set("A", BOUNDARY_A + [(2, 2)])
        assert hypervolume(grown, (6, 6)) > hypervolume(A, (6, 6))


class TestHypervolumeOracles:
    def test_grid_and_monte_carlo_agreement(self):
        rng = np.random.default_rng(2024)
        mc_columns = {
            m: oracles.sample_columns(
                np.random.default_rng(7).uniform(0, 10, size=(1_000_000, m))
            )
            for m in (2, 3, 4)
        }
        for case in range(100):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 11))
            pts = [tuple(float(v) for v in row) for row in rng.integers(0, 5, (n, m))]
            ref = tuple([10.0] * m)
            A = make_set("A", pts)
            exact = hypervolume(A, ref)
            assert exact == oracles.hv_grid(pts, ref), f"case {case}: grid mismatch"
            hit = oracles.mc_hits(mc_columns[m], pts)
            mc = (10.0**m) * float(np.count_nonzero(hit)) / len(hit)
            assert mc == pytest.approx(exact, rel=0.01), f"case {case}: MC off"

    @pytest.mark.parametrize("m, max_n", [(2, 200), (3, 200), (4, 60), (5, 30)])
    def test_matches_slicer_on_real_valued_sets(self, m, max_n):
        # Sizes stop where the slicer gets slow.  Rows start uniform or on
        # the unit sphere (all mutually nondominated); then some are rounded
        # into ties, copied exactly, shifted to strictly worse copies, or
        # pushed onto or past the reference box.
        rng = np.random.default_rng(3000 + m)
        ref = (10.0,) * m
        for case in range(12):
            n = int(rng.integers(1, max_n + 1))
            if case % 2:
                X = rng.uniform(0, 10, size=(n, m))
            else:
                X = np.abs(rng.normal(size=(n, m)))
                X = 9.0 * X / np.linalg.norm(X, axis=1, keepdims=True)
            ties = rng.random((n, m)) < 0.2
            X[ties] = np.round(X[ties])
            twins = rng.random(n) < 0.15
            X[twins] = X[rng.integers(n, size=twins.sum())]
            worse = rng.random(n) < 0.15
            X[worse] = X[rng.integers(n, size=worse.sum())] + rng.random(
                (worse.sum(), m)
            )
            outside = np.flatnonzero(rng.random(n) < 0.1)
            X[outside, rng.integers(m, size=len(outside))] = rng.choice(
                [10.0, 11.5], size=len(outside)
            )
            pts = [tuple(row) for row in X.tolist()]
            inside = [p for p in pts if all(v < r for v, r in zip(p, ref))]
            exact = hypervolume(make_set("A", pts), ref)
            assert exact == pytest.approx(
                oracles.hv_slicer_oracle(inside, ref), rel=1e-12, abs=0
            ), f"m={m} case {case}"

    def test_matches_slicer_on_sphere_front(self):
        # Shaped like one run of the 5-objective benchmark front: the axis
        # corners plus points on the positive unit sphere, scaled by 100.
        rng = np.random.default_rng(25)
        X = np.abs(rng.normal(size=(20, 5)))
        X = np.vstack([np.eye(5), X / np.linalg.norm(X, axis=1, keepdims=True)])
        pts = [tuple(row) for row in (100.0 * X).tolist()]
        ref = (110.0,) * 5
        assert hypervolume(make_set("A", pts), ref) == pytest.approx(
            oracles.hv_slicer_oracle(pts, ref), rel=1e-12, abs=0
        )


@st.composite
def hv_cases(draw):
    """Rows and a reference point for m in 2..6: real rows at three scales
    with rounded ties, a last column made tie-heavy (or every column pushed
    up to one row, the shape of a WFG limit set), exact twins, strictly
    worse copies, zeros of either sign, and rows on or past the box."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, (80, 80, 40, 20, 12)[m - 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, m)) * rng.choice([0.1, 1.0, 100.0])
    ties = rng.random((n, m)) < 0.3
    X[ties] = np.round(X[ties])
    pushed = rng.random(n) < 0.6
    if draw(st.booleans()):
        X[pushed] = np.maximum(X[pushed], X[rng.integers(n)])
    else:
        X[pushed, -1] = np.maximum(X[pushed, -1], X[rng.integers(n), -1])
    twins = rng.random(n) < 0.2
    X[twins] = X[rng.integers(n, size=twins.sum())]
    worse = rng.random(n) < 0.2
    shift = rng.random((worse.sum(), m)) * (rng.random((worse.sum(), m)) < 0.5)
    X[worse] = X[rng.integers(n, size=worse.sum())] + shift
    X[(X == 0) & (rng.random((n, m)) < 0.5)] = -0.0
    ref = np.quantile(X, rng.uniform(0.6, 1.0), axis=0) + rng.choice([0.0, 0.5])
    edge = np.flatnonzero(rng.random(n) < 0.1)
    cols = rng.integers(m, size=len(edge))
    X[edge, cols] = ref[cols] + rng.choice([0.0, 1.0], size=len(edge))
    return X, tuple(ref.tolist())


@kernel_settings
@given(case=hv_cases())
def test_hypervolume_matches_filter_sweep_oracle(block_pairs, case):
    # The sweeps take raw rows and skip what the oracle filters out first;
    # the sums must agree to the bit.
    X, ref = case
    value = hypervolume(make_set("A", X.tolist()), ref)
    assert repr(value) == repr(oracles.hv_filter_sweep_oracle(X, ref))


@st.composite
def real_hv_cases(draw):
    """Up to 13 real rows at m = 2..5 on one scale from 1e-3 to 1e3, with
    rounded ties and exact twins, and a point strictly beyond every row."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    X = rng.random((n, m)) * scale
    ties = rng.random((n, m)) < 0.3
    X[ties] = np.round(X[ties] / scale, 1) * scale
    twins = rng.random(n) < 0.2
    X[twins] = X[rng.integers(n, size=twins.sum())]
    ref = X.max(axis=0) + rng.uniform(0.01, 0.5, m) * scale
    return X, tuple(ref.tolist())


@settings(max_examples=240, deadline=None)
@given(case=real_hv_cases())
def test_hypervolume_is_within_four_epsilon_of_exact(case):
    # The slicer oracle sums Fractions, so it gives the exact measure of the
    # float rows; the float sweeps and WFG stay within 4 machine epsilons of
    # it, relative (2.25 at worst over 15000 such cases).
    X, ref = case
    rows = [tuple(map(Fraction, row)) for row in X.tolist()]
    exact = oracles.hv_slicer_oracle(rows, tuple(map(Fraction, ref)))
    assert isinstance(exact, Fraction)
    value = hypervolume(make_set("A", X.tolist()), ref)
    assert abs(Fraction(value) - exact) <= 4 * Fraction(np.finfo(float).eps) * exact


GROUP_COORD = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]) | st.floats(-1e3, 1e3)


@given(st.lists(st.tuples(GROUP_COORD, GROUP_COORD), min_size=1, max_size=12))
def test_group_front_matches_staircase_oracle(heads):
    # One HV3D group: every row shares its last objective.  Ties and zeros
    # of either sign must keep the same row objects in the same order.
    rows = [[x, y, 1.0] for x, y in heads]
    kept = ind._group_front(rows)
    expected = oracles.group_front_staircase(rows)
    assert len(kept) == len(expected)
    assert all(a is b for a, b in zip(kept, expected))


@st.composite
def sphere_fronts_5d(draw):
    """38 to 60 rows at m=5, more than the tiny block cap holds, so WFG's
    4-column nodes take the batched limit-set masks at the default cap and
    the per-row filter at the tiny one: rows on the positive unit sphere
    with rounded ties, exact twins, zeros of either sign and some rows
    pushed up to another row."""
    n = draw(st.integers(38, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.abs(rng.normal(size=(n, 5)))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    ties = rng.random((n, 5)) < 0.2
    X[ties] = np.round(X[ties], 1)
    twins = rng.random(n) < 0.15
    X[twins] = X[rng.integers(n, size=twins.sum())]
    pushed = rng.random(n) < 0.1
    X[pushed] = np.maximum(X[pushed], X[rng.integers(n)])
    X[(X == 0) & (rng.random((n, 5)) < 0.5)] = -0.0
    return X


@settings(kernel_settings, max_examples=25)
@given(X=sphere_fronts_5d())
def test_hypervolume_matches_filter_sweep_oracle_beyond_tiny_cap(block_pairs, X):
    ref = (1.1,) * 5
    value = hypervolume(make_set("A", X.tolist()), ref)
    assert repr(value) == repr(oracles.hv_filter_sweep_oracle(X, ref))


@settings(kernel_settings, max_examples=25)
@given(X=sphere_fronts_5d())
def test_hypervolume_with_two_row_heads_matches_filter_sweep_oracle(monkeypatch, X):
    # At the tiny cap every node of more than six rows cuts its limit sets
    # by the output-sensitive filter, here in two-row heads; the oracle
    # cuts them by _front_mask.
    monkeypatch.setattr(core, "_BLOCK_PAIRS", 37)
    monkeypatch.setattr(core, "_HEAD_ROWS", 2)
    ref = (1.1,) * 5
    value = hypervolume(make_set("A", X.tolist()), ref)
    assert repr(value) == repr(oracles.hv_filter_sweep_oracle(X, ref))


@pytest.mark.parametrize("n", [300, 420])
def test_hypervolume_of_a_large_node_matches_filter_sweep_oracle(n):
    # A front of more than 256 rows at m=5: at the default cap the top WFG
    # node is too large for the batched masks, so each of its limit sets
    # goes through the output-sensitive filter.  Rounded rows tie in sums.
    rng = np.random.default_rng(n)
    X = np.abs(rng.normal(size=(n, 5)))
    X = np.round(X / np.linalg.norm(X, axis=1, keepdims=True), 2)
    X = np.vstack([X, X[: n // 2] + rng.random((n // 2, 5)) * 0.1])
    ref = (1.2,) * 5
    value = hypervolume(make_set("A", X.tolist()), ref)
    assert repr(value) == repr(oracles.hv_filter_sweep_oracle(X, ref))


@kernel_settings
@given(case=hv_cases())
def test_hypervolume_of_the_unique_front_is_the_run_hypervolume(block_pairs, case):
    # What the evaluate table computes at m >= 4: hv of a run's unique front
    # equals hv of the raw run to the bit.
    X, ref = case
    A = make_set("A", X.tolist())
    front = unique_nondominated_front(A)
    assert repr(hypervolume(front, ref)) == repr(hypervolume(A, ref))


DOMINATED_SHIFT = st.integers(2, 4).flatmap(
    lambda m: st.tuples(
        st.lists(
            st.tuples(*([st.integers(0, 9)] * m)), min_size=1, max_size=20
        ),
        st.lists(
            st.tuples(*([st.integers(0, 3)] * m)), min_size=20, max_size=20
        ),
        st.lists(
            st.tuples(*([st.integers(0, 9)] * m)), min_size=1, max_size=8
        ),
    )
)


def weakly_dominating_pair(raw_a, shifts):
    """A is a nondominated front; B worsens each member componentwise."""
    base = [
        tuple(float(v) for v in p)
        for p in dict.fromkeys(raw_a)
    ]
    front = [base[i] for i in oracles.front_indices(base)]
    shifted = [
        tuple(x + d for x, d in zip(p, s)) for p, s in zip(front, shifts)
    ]
    return front, shifted


class TestParetoCompliance:
    """Weakly dominated sets must never be ranked strictly better."""

    @given(DOMINATED_SHIFT)
    @settings(max_examples=200, deadline=None)
    def test_compliant_indicators_respect_dominance(self, data):
        raw_a, shifts, raw_r = data
        front, shifted = weakly_dominating_pair(raw_a, shifts)
        A = make_set("A", front)
        B = make_set("B", shifted)
        assert oracles.set_weakly_dominates_oracle(A, B)
        R = make_set("R", [raw_r[i] for i in oracles.front_indices(raw_r)])
        tol = 1e-9

        ref = tuple(
            float(v) + 1.0
            for v in np.max(np.vstack([A.values(), B.values()]), axis=0)
        )
        assert hypervolume(A, ref) >= hypervolume(B, ref) - tol
        assert epsilon_additive(A, R) <= epsilon_additive(B, R) + tol
        assert gd_plus(A, R) <= gd_plus(B, R) + tol
        assert igd_plus(A, R) <= igd_plus(B, R) + tol
        union = build_reference_set([A, B])
        assert unfr(A, union) >= unfr(B, union) - tol
        assert contribution(A, B) >= 0.5 - tol

    def test_gd_violation_witness(self):
        # The dominating singleton scores worse against sparse anchors.
        A, B = make_set("A", SINGLE_A), make_set("B", SINGLE_B)
        R = make_set("R", ANCHORS)
        assert oracles.set_weakly_dominates_oracle(A, B)
        assert gd(A, R, p=2) > gd(B, R, p=2)
        assert gd(A, R, p=1) > gd(B, R, p=1)
        # The one-sided replacement restores the correct order.
        assert gd_plus(A, R) < gd_plus(B, R)

    def test_igd_violation_witness(self):
        A = make_set("A", [(0, 0)])
        B = make_set("B", [(4, 4)])
        R = make_set("R", [(5, 5), (0, 10)])
        assert oracles.set_weakly_dominates_oracle(A, B)
        assert igd(A, R) > igd(B, R)
        assert igd_plus(A, R) <= igd_plus(B, R)


class TestEpsilon:
    def test_identity(self, knee_sets):
        A, _ = knee_sets
        assert epsilon_additive(A, A) == 0.0

    def test_dominating_pair_negative(self):
        A = make_set("A", SINGLE_A)
        B = make_set("B", SINGLE_B)
        assert epsilon_additive(A, B) == -1.0

    def test_unit_shift(self):
        A = make_set("A", [(0, 1)])
        B = make_set("B", [(1, 0)])
        assert epsilon_additive(A, B) == 1.0
        assert epsilon_additive(B, A) == 1.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8
        ),
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8
        ),
    )
    def test_matches_oracle(self, pa, pb):
        A, B = make_set("A", pa), make_set("B", pb)
        assert epsilon_additive(A, B) == pytest.approx(
            oracles.epsilon_oracle(pa, pb)
        )

    def test_nonpositive_iff_weak_set_dominance(self):
        A = make_set("A", [(1, 1), (0, 3)])
        B = make_set("B", [(2, 2), (1, 3)])
        assert oracles.set_weakly_dominates_oracle(A, B)
        assert epsilon_additive(A, B) <= 0.0


class TestGridDiversity:
    def test_single_set_is_one(self):
        A = make_set("A", KNEE_B)
        assert grid_diversity([A]) == [1.0]

    def test_identical_sets(self):
        A = make_set("A", KNEE_B)
        B = make_set("B", KNEE_B)
        assert grid_diversity([A, B]) == [1.0, 1.0]

    def test_hand_constructed_cell_counts(self):
        # With 2 divisions the unit square splits into 4 cells; A covers
        # three of them, B two, and together they occupy all four.
        A = make_set("A", [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9)])
        B = make_set("B", [(0.9, 0.9), (0.1, 0.1)])
        values = grid_diversity([A, B], divisions=2)
        assert values == [0.75, 0.5]

    def test_constant_objective_maps_to_cell_zero(self):
        # normalize's rule: a zero-range objective maps to 0, with its warning.
        A = make_set("A", [(1, 5), (1, 5)])
        B = make_set("B", [(1, 7)])
        with pytest.warns(EvaluationWarning, match="degenerate .* range on f1"):
            assert grid_diversity([A, B], divisions=2) == [0.5, 0.5]

    @given(
        st.lists(
            st.lists(
                st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=3,
        ),
        st.floats(-1e3, 1e3),
        st.integers(0, 2),
        st.integers(2, 6),
    )
    def test_constant_column_changes_nothing(self, points, constant, at, divisions):
        plain = [make_set(f"S{i}", p) for i, p in enumerate(points)]
        padded = [
            make_set(f"S{i}", [(*q[:at], constant, *q[at:]) for q in p])
            for i, p in enumerate(points)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvaluationWarning)
            expected = grid_diversity(plain, divisions)
        with pytest.warns(EvaluationWarning, match="degenerate normalization range"):
            assert grid_diversity(padded, divisions) == expected

    def test_scale_invariance(self):
        A = make_set("A", [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9)])
        B = make_set("B", [(0.9, 0.9), (0.1, 0.1)])
        A10 = make_set("A", [(1, 1), (9, 1), (1, 9)])
        B10 = make_set("B", [(9, 9), (1, 1)])
        assert grid_diversity([A, B], 4) == grid_diversity([A10, B10], 4)


class TestScaleInvariances:
    """Dominance-based indicators ignore affine per-objective rescaling."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8
        ),
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8
        ),
    )
    def test_ci_and_coverage(self, pa, pb):
        def rescale(points):
            return [(3.0 * x + 10.0, 0.5 * y - 4.0) for x, y in points]

        A, B = make_set("A", pa), make_set("B", pb)
        A2, B2 = make_set("A", rescale(pa)), make_set("B", rescale(pb))
        assert contribution(A, B) == contribution(A2, B2)
        assert coverage(A, B) == coverage(A2, B2)
        assert unfr(A, build_reference_set([A, B])) == unfr(
            A2, build_reference_set([A2, B2])
        )


class TestTaxonomy:
    def test_aliases(self):
        assert canonical_name("hypervolume") == "hv"
        assert canonical_name("IGD+") == "igd_plus"
        assert canonical_name("delta") == "spread"
        assert canonical_name("pfs") == "nfs"
        with pytest.raises(ValueError):
            canonical_name("no-such-indicator")

    def test_hv_row(self):
        profile = aspects_of("hv")
        assert profile.aspects == {
            "convergence": "+",
            "spread": "+",
            "uniformity": "-",
            "cardinality": "+",
        }
        assert profile.compliant == "+"
        assert profile.better == "higher"

    def test_sp_row(self):
        profile = aspects_of("sp")
        assert set(profile.aspects) == {"uniformity"}
        assert profile.compliant is None

    def test_unfr_row(self):
        profile = aspects_of("unfr")
        assert set(profile.aspects) == {"cardinality"}
        assert profile.compliant == "+"

    def test_compliance_column_matches_taxonomy(self):
        marks = {n: aspects_of(n).compliant for n in (
            "ci", "c", "gd", "gd_plus", "igd", "igd_plus", "spread",
            "sp", "nfs", "unfr", "hv", "epsilon", "grid_diversity",
        )}
        assert marks["gd"] is None and marks["igd"] is None
        assert marks["grid_diversity"] == "-"
        compliant = {k for k, v in marks.items() if v == "+"}
        assert compliant == {
            "ci", "c", "gd_plus", "igd_plus", "unfr", "hv", "epsilon",
        }

    def test_binary_flags(self):
        assert aspects_of("ci").binary
        assert aspects_of("c").binary
        assert not aspects_of("hv").binary

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IndicatorConfig(gd_p=0.5)
        with pytest.raises(ValueError):
            IndicatorConfig(grid_divisions=1)
        with pytest.raises(ValueError):
            IndicatorConfig(normalization="bogus")
        with pytest.raises(ValueError):
            IndicatorConfig(hv_strategy="bogus")


class TestPreferenceScenarioPipeline:
    """Clamp-then-measure flow on the user-capacity scenario."""

    def test_transform_changes_verdict(self, users_sets):
        A, B = (to_minimization(s) for s in users_sets)
        ref = (2500.0, 0.0)
        assert hypervolume(A, ref) == 4_375_000.0
        assert hypervolume(B, ref) == 4_625_000.0

        spec = PreferenceSpec(
            vague=(VagueClamp(objective=1, saturation=3000, hard_floor=1500),)
        )
        A2 = apply_vague_preferences(A, spec)
        B2 = apply_vague_preferences(B, spec)
        assert hypervolume(A2, ref) == 4_375_000.0
        assert hypervolume(B2, ref) == 3_375_000.0
