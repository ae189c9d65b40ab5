"""Descriptive statistics, the ones that contradict set dominance, and run
selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from paretoeval import (
    DimensionMismatchError,
    Direction,
    EmptySetError,
    IndicatorConfig,
    NormalizationBounds,
    ObjectiveMeta,
    SolutionSet,
    build_reference_set,
    contradicting_statistics,
    gd,
    hypervolume,
    normalize,
    per_objective_stats,
    scalarize_best,
    set_dominates,
    spacing,
    to_minimization,
    unique_nondominated_front,
)
from paretoeval import core
from paretoeval import indicators as ind
from paretoeval.doe import _yardsticks, indicator_table
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
        assert stats.objectives == ("cost", "coverage")

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
        empty = make_set("A", [])
        with pytest.raises(EmptySetError):
            per_objective_stats(empty)


def _contradictions(**points):
    return contradicting_statistics({k: make_set(k, p) for k, p in points.items()})


class TestContradictingStatistics:
    def test_mean_median_worst_contradict_dominance(self):
        A, B = make_set("A", WIDE), make_set("B", TIGHT)
        assert set_dominates(A, B)
        assert per_objective_stats(A).mean == (5.0, 5.0)
        assert per_objective_stats(B).mean == (4.0, 4.0)
        assert _contradictions(A=WIDE, B=TIGHT) == [
            ("A", "B", stat, ("f1", "f2")) for stat in ("mean", "median", "worst")
        ]

    def test_order_of_the_sets_only_orders_the_pairs(self):
        assert _contradictions(B=TIGHT, A=WIDE) == _contradictions(A=WIDE, B=TIGHT)

    def test_identical_sets_contradict_nothing(self):
        assert _contradictions(A=TIGHT, B=TIGHT) == []

    def test_nothing_without_dominance(self):
        assert _contradictions(A=[(0, 10)], B=[(1, 1)]) == []

    def test_only_the_dominated_pair_is_named(self):
        # C is incomparable with both; only A over B contradicts.
        found = _contradictions(A=WIDE, B=TIGHT, C=[(-1, 20)])
        assert {(x, y) for x, y, _, _ in found} == {("A", "B")}

    def test_maximized_objective_in_natural_direction(self):
        # X dominates Y (cost 10 < 11, gain 10 > 9), yet Y's gain is higher
        # in every statistic, and its cost in none.
        dirs = [Direction.MINIMIZE, Direction.MAXIMIZE]
        names = ["cost", "gain"]
        X = to_minimization(make_set("X", [(0, 0), (10, 10)], dirs, names))
        Y = to_minimization(make_set("Y", [(11, 9)], dirs, names))
        assert contradicting_statistics({"X": X, "Y": Y}) == [
            ("X", "Y", stat, ("gain",)) for stat in ("mean", "median", "worst")
        ]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            _contradictions(A=[(1, 2)], B=[(1, 2, 3)])

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
        assert set_dominates(make_set("A", front), make_set("B", worse))
        assert all(stat != "best" for _, _, stat, _ in _contradictions(A=front, B=worse))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, data):
        # Two to four sets over two or three objectives, one of them
        # maximized; half the sets are worse copies, in natural units, of a
        # few rows of the first, so set dominance, and statistics that
        # contradict it, are common.
        m = data.draw(st.integers(2, 3))
        dirs = [Direction.MINIMIZE] * m
        dirs[data.draw(st.integers(0, m - 1))] = Direction.MAXIMIZE
        signs = [-1 if d is Direction.MAXIMIZE else 1 for d in dirs]
        row = st.tuples(*[st.integers(0, 6)] * m)
        first = data.draw(st.lists(row, min_size=1, max_size=6))
        sets = {"s0": first}
        for k in range(1, data.draw(st.integers(2, 4))):
            if data.draw(st.booleans()):
                picked = data.draw(st.lists(st.sampled_from(first), min_size=1, max_size=4))
                shifts = data.draw(st.lists(row, min_size=len(picked), max_size=len(picked)))
                sets[f"s{k}"] = [
                    tuple(v + sg * d for v, sg, d in zip(p, signs, s))
                    for p, s in zip(picked, shifts)
                ]
            else:
                sets[f"s{k}"] = data.draw(st.lists(row, min_size=1, max_size=6))
        stored = {k: to_minimization(make_set(k, p, dirs)) for k, p in sets.items()}
        found = contradicting_statistics(stored)
        event(f"{len(found)} contradiction(s)")
        assert found == oracles.contradicting_statistics_oracle(stored)


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
        assert best == A.solutions[0]
        assert score == pytest.approx(0.5)

    def test_builds_only_the_row_it_returns(self):
        meta = make_set("A", self.POINTS).meta
        values = np.array(self.POINTS)
        ids, sources = ["a", "b", "c"], ["run0", None, "run2"]
        for weights, row in (((0.5, 0.5), 0), ((1.0, 0.0), 1), ((0.0, 1.0), 2)):
            A = SolutionSet._from_array("A", meta, values, ids, sources)
            best, _ = scalarize_best(A, weights)
            assert A._rows is None
            assert best == A.solutions[row]
            assert (best.id, best.source) == (ids[row], sources[row])

    def test_weight_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            scalarize_best(make_set("A", self.POINTS), (1.0,))

    def test_empty_set_rejected(self):
        empty = make_set("A", [])
        with pytest.raises(EmptySetError):
            scalarize_best(empty, (0.5, 0.5))


def _staircase_run(name, size):
    """A nondominated staircase with `size` solutions."""
    return make_set(name, [(float(i), float(size - i)) for i in range(size)])


def _representative(runs, config=None):
    """The representative run of one algorithm's runs, ranked by hv."""
    table = indicator_table({"alg": runs}, [], config or IndicatorConfig())
    return table.representative["alg"]


# Single-point runs whose hv against (2, 2) grows with k.
POINT = IndicatorConfig(hv_strategy="explicit", ref_point=(2.0, 2.0))


def _box(k):
    return make_set(f"r{k}", [(1.0 - 0.2 * k, 1.0 - 0.2 * k)])


class TestRepresentativeRun:
    def test_odd_count_picks_median(self):
        runs = [_box(k) for k in (1, 2, 3)]
        assert _representative(runs, POINT) == 1

    def test_even_count_picks_lower_middle(self):
        runs = [_box(k) for k in (1, 2, 3, 4)]
        assert _representative(runs, POINT) == 1

    def test_order_permutation_tracks_same_run(self):
        runs = [_box(k) for k in (3, 1, 2)]
        assert _representative(runs, POINT) == 2

    def test_single_run(self):
        assert _representative([_staircase_run("only", 3)]) == 0

    def test_default_indicator_is_dominated_volume(self):
        boxes = [_box(k) for k in (0, 1, 2)]
        assert _representative(boxes, POINT) == 1

    def test_binary_indicator_rejected(self):
        runs = [_staircase_run("r", 2)]
        for name in ("ci", "c"):
            with pytest.raises(ValueError):
                indicator_table({"alg": runs}, [name], IndicatorConfig())

    def test_gd_p_setting_reaches_indicator(self):
        runs = [
            make_set("r0", [(0.0, 3.0), (4.0, 0.0)]),
            make_set("r1", [(0.0, 0.0)]),
        ]
        # One run each, so no hv is computed to pick a representative.
        algorithms = {"a": runs[:1], "b": runs[1:]}
        table = indicator_table(algorithms, ["gd"], IndicatorConfig(gd_p=2.0))
        normed = normalize(runs, NormalizationBounds.from_sets(runs))
        ref = build_reference_set(normed)
        # r0's two points are each 1 from the front: p=2 gives sqrt(2)/2.
        assert table.values[("a", 0)] == (gd(normed[0], ref, p=2.0),)
        assert table.values[("a", 0)] != (gd(normed[0], ref, p=1.0),)


class TestIndicatorTableInputs:
    def test_spacing_column_reads_normalized_runs(self):
        runs = [
            make_set("r0", [(0, 4), (1, 3), (4, 0)]),
            make_set("r1", [(2, 2), (3, 0)]),
        ]
        table = indicator_table({"alg": runs}, ["sp"], IndicatorConfig())
        normed = normalize(runs, NormalizationBounds.from_sets(runs))
        assert table.values == {
            ("alg", 0): (spacing(normed[0]),),
            ("alg", 1): (spacing(normed[1]),),
        }
        assert table.values[("alg", 1)] == (0.0,)  # two points: one distance

    def test_normalizing_columns_read_the_raw_front(self, monkeypatch):
        # The runs' second rows differ by one float, so both are on the raw
        # union front; normalizing over a range of 3 rounds them together.
        # The columns read that four-row front mapped, so each run's rows
        # lie on it and gd_plus charges neither run anything.
        x1 = 0.10280140070035018
        x2 = float(np.nextafter(x1, 1.0))
        a = make_set("a", [(0.0, 3.0), (x1, 2.0)])
        b = make_set("b", [(x2, 1.0), (3.0, 0.0)])
        read = []
        for name in ("igd", "gd_plus"):

            def counted(run, front, column=getattr(ind, name)):
                read.append(len(front))
                return column(run, front)

            monkeypatch.setattr(ind, name, counted)
        columns = ["igd", "gd_plus"]
        table = indicator_table({"a": [a], "b": [b]}, columns, IndicatorConfig())
        assert len(table.reference) == 4
        assert read == [len(table.reference)] * 4
        assert [gd_plus for _, gd_plus in table.values.values()] == [0.0, 0.0]

    def test_requires_runs(self):
        with pytest.raises(EmptySetError):
            _representative([])

    def test_requires_name(self):
        with pytest.raises(ValueError):
            indicator_table({"": [_staircase_run("r", 1)]}, ["nfs"], IndicatorConfig())

    def test_dimension_agreement(self):
        with pytest.raises(DimensionMismatchError):
            _representative([make_set("a", [(1, 2)]), make_set("b", [(1, 2, 3)])])


@st.composite
def experiment_runs(draw):
    """One to four runs at m in 2..6, each of 0 to 40 rows with ids, some
    with sources: real rows at three scales with rounded ties, exact repeats
    within and across runs, strictly worse copies, and zeros of either
    sign, so equal rows can differ in their sign bits."""
    m = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    meta = tuple(ObjectiveMeta(f"f{j}") for j in range(m))
    pool, runs = np.empty((0, m)), []
    for k in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 40))
        X = rng.normal(size=(n, m)) * rng.choice([0.1, 1.0, 100.0])
        ties = rng.random((n, m)) < 0.3
        X[ties] = np.round(X[ties])
        pool = np.vstack([pool, X])
        repeats = rng.random(n) < 0.25
        X[repeats] = pool[rng.integers(len(pool), size=repeats.sum())]
        worse = rng.random(n) < 0.2
        shift = rng.random((worse.sum(), m)) * (rng.random((worse.sum(), m)) < 0.5)
        X[worse] = pool[rng.integers(len(pool), size=worse.sum())] + shift
        X[(X == 0) & (rng.random((n, m)) < 0.5)] = -0.0
        pool = np.vstack([pool, X])
        ids = [f"r{k}-{i}" for i in range(n)]
        sources = [f"s{k}"] * n if rng.random() < 0.5 else None
        runs.append(SolutionSet._from_array(f"r{k}", meta, X, ids, sources))
    return runs


@settings(max_examples=200, deadline=None)
@given(runs=experiment_runs())
def test_union_front_of_run_fronts_is_union_front_of_runs(runs):
    # A row on the union front lies on its own run's front, at its first
    # occurrence there, so the fronts give the union front of the raw rows:
    # the same bytes, ids and sources, in the same order.
    if not any(len(run) for run in runs):
        return
    expected = build_reference_set(runs)
    got = build_reference_set([unique_nondominated_front(run) for run in runs])
    assert got.values().tobytes() == expected.values().tobytes()
    assert [(s.id, s.source) for s in got] == [(s.id, s.source) for s in expected]


def _front_cuts(monkeypatch):
    """Record each ``_front_mask`` call as (inside hv, rows in, rows kept)."""
    calls, depth = [], [0]
    for module in (core, ind):
        mask = module._front_mask

        def counted(V, unique=False, mask=mask):
            kept = mask(V, unique)
            calls.append((depth[0] > 0, len(V), int(kept.sum())))
            return kept

        monkeypatch.setattr(module, "_front_mask", counted)
    hv = ind.hypervolume

    def inside(*args, **kwargs):
        depth[0] += 1
        try:
            return hv(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ind, "hypervolume", inside)
    return calls


def _hv_experiment(m):
    rng = np.random.default_rng(m)
    meta = tuple(ObjectiveMeta(f"f{j}") for j in range(m))

    def run(name, n):
        return SolutionSet._from_array(name, meta, rng.random((n, m)).round(2))

    return {"a": [run("a0", 30), run("a1", 25)], "b": [run("b0", 0), run("b1", 30)]}


@pytest.mark.parametrize("m", [4, 5])
def test_hv_table_cuts_each_run_front_once(monkeypatch, m):
    # At m >= 4 the table cuts each live run's unique front once and the
    # union from those fronts: one front filter per live run plus one for
    # the union.  hv gets the fronts, so its own cut drops no row.
    algorithms = _hv_experiment(m)
    calls = _front_cuts(monkeypatch)
    table = indicator_table(algorithms, ["hv"], IndicatorConfig())
    outside = [(n, kept) for inner, n, kept in calls if not inner]
    assert [n for n, _ in outside] == [30, 25, 30, sum(kept for _, kept in outside[:3])]
    inner = [(n, kept) for inner, n, kept in calls if inner]
    assert len(inner) <= 3 and all(n == kept for n, kept in inner)
    for (alg, r), (value,) in table.values.items():
        assert repr(value) == repr(hypervolume(algorithms[alg][r], table.point))


@pytest.mark.parametrize("m", [4, 5])
def test_checked_yardsticks_cut_no_run_front(monkeypatch, m):
    # lint only checks the yardsticks: one front filter over the raw rows
    # builds the same union, tags and point, and no run front is kept.
    algorithms = _hv_experiment(m)
    computed = _yardsticks(algorithms, ["hv"], IndicatorConfig())
    calls = _front_cuts(monkeypatch)
    checked = _yardsticks(algorithms, ["hv"], IndicatorConfig(), computed=False)
    assert [(inner, n) for inner, n, _ in calls] == [(False, 85)]
    assert checked.fronts is None and len(computed.fronts) == 3
    assert checked.point == computed.point and not checked.failures
    got, want = checked.reference, computed.reference
    assert got.values().tobytes() == want.values().tobytes()
    assert [(s.id, s.source) for s in got] == [(s.id, s.source) for s in want]
