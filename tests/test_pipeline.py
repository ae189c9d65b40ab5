"""The run x indicator table against the public per-run calls.

Every table value must equal, with ``==``, what the public indicator
function returns for that run on the same yardsticks, built here
independently: the reference set of the non-empty runs, raw and normalized,
the bounds, the hypervolume reference point and the grid over the non-empty
runs.  Inputs have several algorithms and runs, coordinate ties, rows
duplicated across runs, and one run emptied by a screen.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paretoeval
from paretoeval import EvaluationWarning
from paretoeval.doe import indicator_table
from paretoeval.indicators import (
    IndicatorConfig,
    epsilon_additive,
    gd,
    gd_plus,
    grid_diversity,
    hypervolume,
    igd,
    igd_plus,
    nfs,
    spread_delta,
    unfr,
)
from paretoeval.preprocess import (
    ClearConstraint,
    NormalizationBounds,
    build_reference_point,
    build_reference_set,
    normalize,
    screen_trivial,
)
from conftest import make_set
import oracles

SCREEN = (ClearConstraint(objective=0, kind="at_most", threshold=50.0),)


@st.composite
def experiments(draw):
    """{algorithm: [runs]} after a screen that empties exactly one run."""
    m = draw(st.integers(2, 4))
    row = st.tuples(*[st.integers(1, 9).map(float)] * m)
    pool: list = []
    raw: dict[str, list[list[tuple]]] = {}
    for a in range(draw(st.integers(2, 4))):
        runs = []
        for _ in range(draw(st.integers(1, 4))):
            rows = draw(st.lists(row, min_size=1, max_size=8))
            if pool and draw(st.booleans()):
                rows += draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
            pool.extend(rows)
            runs.append(rows)
        raw[f"alg{a}"] = runs
    # Corners on every objective keep each objective's range non-zero.
    raw["alg0"][0] += [
        tuple(0.0 if j == k else 10.0 for j in range(m)) for k in range(m)
    ]
    alg, r = draw(
        st.sampled_from(
            [(a, r) for a, runs in raw.items() for r in range(len(runs))][1:]
        )
    )
    raw[alg][r] = [(60.0 + p[0],) + p[1:] for p in raw[alg][r]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EvaluationWarning)
        return {
            a: [
                screen_trivial(make_set(f"{a}#{i}", rows), SCREEN)
                for i, rows in enumerate(runs)
            ]
            for a, runs in raw.items()
        }


def _lower_median_pick(values: dict[int, float]) -> int:
    ordered = sorted(values.values())
    median = ordered[(len(ordered) - 1) // 2]
    gap = min(abs(v - median) for v in values.values())
    return min(r for r, v in values.items() if abs(v - median) == gap)


@settings(max_examples=60, deadline=None)
@given(experiments(), st.integers(2, 6))
def test_table_equals_public_calls(algorithms, divisions):
    cfg = IndicatorConfig(gd_p=2.0, grid_divisions=divisions)
    raw_cfg = IndicatorConfig(normalization="none")
    m = algorithms["alg0"][0].m
    names = ["nfs", "unfr", "grid_diversity", "hv", "gd", "gd_plus", "igd"]
    names += ["igd_plus", "epsilon"] + (["spread"] if m == 2 else [])
    columns = [(n, cfg) for n in names] + [("gd_plus", raw_cfg)]
    table = indicator_table(algorithms, columns, ("hv", cfg))

    all_sets = [run for runs in algorithms.values() for run in runs]
    slots = [
        (a, r)
        for a, runs in algorithms.items()
        for r, run in enumerate(runs)
        if run.solutions
    ]
    assert len(slots) == len(all_sets) - 1
    live = [algorithms[a][r] for a, r in slots]
    reference = build_reference_set(live)
    normed = normalize(live, NormalizationBounds.from_sets(live))
    ref_norm = build_reference_set(normed)
    point = build_reference_point(reference, cfg.hv_strategy)
    cells = grid_diversity(live, divisions)
    ordered = sorted(ref_norm.vectors())
    extremes = [ordered[0], ordered[-1]]
    for i, (slot, run) in enumerate(zip(slots, live)):
        expected = [
            float(nfs(run)),
            unfr(run, all_sets),
            cells[i],
            hypervolume(run, point),
            gd(normed[i], ref_norm, p=2.0),
            gd_plus(normed[i], ref_norm),
            igd(normed[i], ref_norm),
            igd_plus(normed[i], ref_norm),
            epsilon_additive(normed[i], ref_norm),
        ]
        if m == 2:
            expected.append(spread_delta(normed[i], extremes))
        expected.append(gd_plus(run, reference))
        assert table.values[slot] == tuple(expected)
        assert expected[1] == oracles.unfr_oracle(
            run.vectors(), [s.vectors() for s in all_sets]
        )

    assert table.points == {(cfg.hv_strategy, None): point}
    hv = names.index("hv")
    for alg, runs in algorithms.items():
        values = {
            r: table.values[(alg, r)][hv] for r, run in enumerate(runs) if run.solutions
        }
        if values:
            assert table.representative[alg] == _lower_median_pick(values)
        else:
            assert alg not in table.representative

    # Ranking by an hv column that is not reported picks the same runs and
    # reports no reference point.
    unranked = indicator_table(algorithms, columns[:2], ("hv", cfg))
    assert unranked.representative == table.representative
    assert unranked.points == {}


@pytest.mark.filterwarnings("ignore::paretoeval.EvaluationWarning")
def test_ranking_column_failure_leaves_multi_run_algorithms_unpicked():
    corner = tuple(float(j == 0) for j in range(11))
    other = tuple(float(j == 1) for j in range(11))
    algorithms = {
        "many": [make_set("m0", [corner]), make_set("m1", [other])],
        "one": [make_set("o0", [corner])],
    }
    hv = ("hv", IndicatorConfig())
    table = indicator_table(algorithms, [("nfs", IndicatorConfig())], hv)
    assert table.representative == {"one": 0}
    with pytest.raises(ValueError, match="beyond 10 objectives"):
        indicator_table(algorithms, [hv], hv)


def test_ranking_failure_at_a_supported_count_propagates():
    algorithms = {"a": [make_set("a0", [(1.0, 2.0)]), make_set("a1", [(2.0, 1.0)])]}
    inside = ("hv", IndicatorConfig(hv_strategy="explicit", ref_point=(0.0, 0.0)))
    with pytest.raises(ValueError, match="does not weakly exceed the basis nadir"):
        indicator_table(algorithms, [("nfs", IndicatorConfig())], inside)


def test_binary_indicator_is_not_a_column():
    algorithms = {"a": [make_set("a", [(1.0, 2.0)])]}
    ci, nfs_column = ("ci", IndicatorConfig()), ("nfs", IndicatorConfig())
    with pytest.raises(ValueError, match="binary"):
        indicator_table(algorithms, [ci], nfs_column)


def test_missing_reference_point_raises_without_asserts():
    """With assertions stripped (-O), an hv column whose reference point
    cannot be built still fails loudly."""
    script = (
        "from paretoeval import ObjectiveMeta, Solution, SolutionSet\n"
        "from paretoeval.doe import indicator_table\n"
        "from paretoeval.indicators import IndicatorConfig\n"
        "cfg = IndicatorConfig(hv_strategy='explicit')\n"
        "meta = (ObjectiveMeta('f1'), ObjectiveMeta('f2'))\n"
        "run = SolutionSet('a', meta, (Solution((1.0, 2.0)), Solution((2.0, 1.0))))\n"
        "try:\n"
        "    indicator_table({'a': [run]}, [('hv', cfg)], ('hv', cfg))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(paretoeval.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "explicit strategy requires a point"
