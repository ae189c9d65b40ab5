"""Descriptive statistics over solution sets and runs, and the run x
indicator table every per-run evaluation reads from.

Per-objective summaries (mean/median/best/worst) are the classic way to
report multi-run experiments, but on their own they can invert the verdict
of the dominance relation; :func:`doe_compare` computes them anyway and
raises a flag whenever its verdict contradicts set dominance, so reports can
say so loudly instead of silently misleading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    EmptySetError,
    Solution,
    SolutionSet,
    _lex_sorted,
    set_dominates,
)
from .indicators import IndicatorConfig, aspects_of, canonical_name
from . import indicators as _ind
from .preprocess import (
    NormalizationBounds,
    _maximized,
    build_reference_point,
    build_reference_set,
    normalization_bounds,
    normalize,
)

__all__ = [
    "STATS",
    "ObjectiveStats",
    "DoeComparison",
    "IndicatorTable",
    "per_objective_stats",
    "doe_compare",
    "scalarize_best",
    "indicator_table",
]

STATS = ("mean", "median", "best", "worst")


@dataclass(frozen=True)
class ObjectiveStats:
    """Componentwise summary of a set, in natural units and direction."""

    names: tuple[str, ...]
    mean: tuple[float, ...]
    median: tuple[float, ...]
    best: tuple[float, ...]
    worst: tuple[float, ...]


@dataclass(frozen=True)
class DoeComparison:
    """Outcome of a statistic-by-statistic comparison of two sets.

    ``winners`` holds one entry per objective: +1 when the first set's
    statistic is better, -1 when the second's is, 0 on a tie.
    ``misleading_flag`` is True when one set dominates the other as a set
    yet the statistics hand any objective to the dominated side.
    """

    stat: str
    winners: tuple[int, ...]
    first_stats: ObjectiveStats
    second_stats: ObjectiveStats
    misleading_flag: bool


def per_objective_stats(A: SolutionSet) -> ObjectiveStats:
    """Mean, median, best, and worst per objective, in natural units.

    Best and worst follow each objective's natural direction: for a
    maximized objective the best value is the largest one.
    """
    if not len(A):
        raise EmptySetError(f"set {A.name!r} is empty")
    natural = A.natural_values()
    best, worst = [], []
    for col, maximized in zip(natural.T, _maximized(A)):
        low, high = float(col.min()), float(col.max())
        best.append(high if maximized else low)
        worst.append(low if maximized else high)
    return ObjectiveStats(
        names=tuple(o.name for o in A.meta),
        mean=tuple(float(v) for v in natural.mean(axis=0)),
        median=tuple(float(v) for v in np.median(natural, axis=0)),
        best=tuple(best),
        worst=tuple(worst),
    )


def _direction_aware_winner(
    first: float, second: float, maximize: bool
) -> int:
    if first == second:
        return 0
    if maximize:
        return 1 if first > second else -1
    return 1 if first < second else -1


def doe_compare(A: SolutionSet, B: SolutionSet, stat: str = "mean") -> DoeComparison:
    """Compare two sets objective by objective on one summary statistic.

    The verdict is purely statistical; when it contradicts the dominance
    relation between the sets (one set dominates, yet the other wins at
    least one objective on the statistic) the result carries
    ``misleading_flag=True``.
    """
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}")
    if A.m != B.m:
        raise DimensionMismatchError("sets disagree on objective count")
    sa = per_objective_stats(A)
    sb = per_objective_stats(B)
    va = getattr(sa, stat)
    vb = getattr(sb, stat)
    winners = tuple(
        _direction_aware_winner(x, y, mx) for x, y, mx in zip(va, vb, _maximized(A))
    )
    misleading = False
    if set_dominates(A, B) and any(w < 0 for w in winners):
        misleading = True
    elif set_dominates(B, A) and any(w > 0 for w in winners):
        misleading = True
    return DoeComparison(
        stat=stat,
        winners=winners,
        first_stats=sa,
        second_stats=sb,
        misleading_flag=misleading,
    )


def scalarize_best(
    A: SolutionSet, weights: Sequence[float]
) -> tuple[Solution, float]:
    """Fittest solution under a weighted sum of the stored objectives.

    Stored orientation is minimization, so the fittest solution minimizes
    sum(w_i * f_i).  Ties keep the first occurrence.  Weights are expected
    to be normalized values over comparable (e.g. normalized) objectives.
    """
    if not len(A):
        raise EmptySetError(f"set {A.name!r} is empty")
    w = np.asarray([float(x) for x in weights])
    if w.shape[0] != A.m:
        raise DimensionMismatchError("weights length must match objective count")
    scores = A.values() @ w
    idx = int(np.argmin(scores))
    return A.solutions[idx], float(scores[idx])


@dataclass(frozen=True)
class IndicatorTable:
    """Per-run indicator values of one experiment, from shared yardsticks.

    ``values[(algorithm, run)]`` holds one value per column for each
    non-empty run.  ``reference`` is the union front of the non-empty runs
    (raw units); ``bounds`` maps each normalization mode that has bounds to
    them and ``points`` each ``hv`` column's ``(hv_strategy, ref_point)`` to
    its reference point.
    """

    values: dict[tuple[str, int], tuple[float, ...]]
    reference: SolutionSet
    bounds: dict[str, NormalizationBounds]
    points: dict[tuple[str, tuple[float, ...] | None], tuple[float, ...]]
    representative: dict[str, int]


def _closest_to_median(values: Mapping[int, float]) -> int:
    """Key of the value closest to the lower median; ties keep the lowest key."""
    ordered = sorted(values.values())
    median = ordered[(len(ordered) - 1) // 2]
    return min(values, key=lambda k: (abs(values[k] - median), k))


def indicator_table(
    algorithms: Mapping[str, Sequence[SolutionSet]],
    columns: Sequence[tuple[str, IndicatorConfig]],
    rank_by: tuple[str, IndicatorConfig],
) -> IndicatorTable:
    """Evaluate unary indicator columns on every run, each yardstick built once.

    The yardsticks come from the non-empty runs of all algorithms: the
    reference set, raw and per normalization mode; the bounds, where
    missing hard bounds are an error only for a mode that a normalizing
    column reads; one hv reference point per ``(hv_strategy, ref_point)``;
    the grid cells; the ``spread`` extremes.  Each algorithm's
    representative run is the one whose ``rank_by`` value is closest to the
    median of its runs' values (Knowles, Thiele & Zitzler 2006).  A
    ``rank_by`` that is not a column is computed for the pick only.  When
    its profile does not define it at the objective count, only algorithms
    with one non-empty run get a representative; any other error propagates.
    """
    columns = tuple((canonical_name(n), c) for n, c in columns)
    rank_by = (canonical_name(rank_by[0]), rank_by[1])
    for name, _ in columns + (rank_by,):
        if aspects_of(name).binary:
            raise ValueError(f"{name} is a binary indicator; it cannot rank runs")
    if "" in algorithms:
        raise ValueError("algorithm names must be non-empty")
    slots = [
        (alg, r)
        for alg, runs in algorithms.items()
        for r, run in enumerate(runs)
        if len(run)
    ]
    live = [algorithms[alg][r] for alg, r in slots]
    if not live:
        raise EmptySetError("every set is empty after preprocessing")
    reference = build_reference_set(live)
    read = {
        c.normalization
        for n, c in columns + (rank_by,)
        if aspects_of(n).needs_normalization
    }
    bounds: dict[str, NormalizationBounds] = {}
    for mode in dict.fromkeys(c.normalization for _, c in columns + (rank_by,)):
        try:
            found = normalization_bounds(mode, live)
        except ValueError:
            if mode in read:
                raise
            continue
        if found is not None:
            bounds[mode] = found
    spaces = {"none": (live, reference)}
    points: dict[tuple[str, tuple[float, ...] | None], tuple[float, ...]] = {}

    def space(mode: str) -> tuple[list[SolutionSet], SolutionSet]:
        if mode not in spaces:
            normed = normalize(live, bounds[mode])
            spaces[mode] = (normed, build_reference_set(normed))
        return spaces[mode]

    def point(cfg: IndicatorConfig) -> tuple[float, ...]:
        key = (cfg.hv_strategy, cfg.ref_point)
        if key not in points:
            points[key] = build_reference_point(
                reference, cfg.hv_strategy, explicit=cfg.ref_point
            )
        return points[key]

    def column(name: str, cfg: IndicatorConfig) -> list[float]:
        if name == "nfs":
            return [float(_ind.nfs(run)) for run in live]
        if name == "unfr":
            return [_ind._front_share(run, reference) for run in live]
        if name == "hv":
            ref_point = point(cfg)
            return [_ind.hypervolume(run, ref_point) for run in live]
        if name == "grid_diversity":
            return _ind.grid_diversity(live, cfg.grid_divisions)
        runs, ref = space(cfg.normalization)
        if name == "gd":
            return [_ind.gd(run, ref, p=cfg.gd_p) for run in runs]
        if name == "gd_plus":
            return [_ind.gd_plus(run, ref) for run in runs]
        if name == "igd":
            return [_ind.igd(run, ref) for run in runs]
        if name == "igd_plus":
            return [_ind.igd_plus(run, ref) for run in runs]
        if name == "epsilon":
            return [_ind.epsilon_additive(run, ref) for run in runs]
        if name == "sp":
            return [_ind.spacing(run) for run in runs]
        _, ordered, _ = _lex_sorted(ref.values())  # spread
        return [_ind.spread_delta(run, [ordered[0], ordered[-1]]) for run in runs]

    computed = {col: column(*col) for col in dict.fromkeys(columns)}
    reported = dict(points)  # the hv columns' points, not one built for the pick
    live_runs = {alg: [r for a, r in slots if a == alg] for alg in algorithms}
    rank: dict[tuple[str, int], float] = {}
    defined = reference.m in aspects_of(rank_by[0]).objectives
    if any(len(runs) > 1 for runs in live_runs.values()) and defined:
        rank = dict(zip(slots, computed.get(rank_by) or column(*rank_by)))
    representative: dict[str, int] = {}
    for alg, runs in live_runs.items():
        if len(runs) == 1:
            representative[alg] = runs[0]
        elif runs and rank:
            representative[alg] = _closest_to_median({r: rank[(alg, r)] for r in runs})
    return IndicatorTable(
        values={
            slot: tuple(computed[col][i] for col in columns)
            for i, slot in enumerate(slots)
        },
        reference=reference,
        bounds=bounds,
        points=reported,
        representative=representative,
    )
