"""Descriptive statistics over solution sets and runs, and the run x
indicator table every per-run evaluation reads from.

Per-objective summaries (mean/median/best/worst) are the classic way to
report multi-run experiments, but on their own they can invert the verdict
of the dominance relation (misuse II): :func:`contradicting_statistics`
names each statistic that favours a set another set dominates, so the
``stats`` command can say so instead of silently misleading.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    EmptySetError,
    Solution,
    SolutionSet,
    _lex_sorted,
    set_dominates,
    unique_nondominated_front,
)
from .indicators import IndicatorConfig, aspects_of, canonical_name
from . import indicators as _ind
from .preprocess import (
    NormalizationBounds,
    _explicit_point,
    _maximized,
    build_reference_point,
    build_reference_set,
    normalization_bounds,
    normalize,
)

__all__ = [
    "STATS",
    "ObjectiveStats",
    "IndicatorTable",
    "per_objective_stats",
    "contradicting_statistics",
    "scalarize_best",
    "indicator_table",
]

STATS = ("mean", "median", "best", "worst")


@dataclass(frozen=True)
class ObjectiveStats:
    """Componentwise summary of a set, in natural units and direction."""

    objectives: tuple[str, ...]
    mean: tuple[float, ...]
    median: tuple[float, ...]
    best: tuple[float, ...]
    worst: tuple[float, ...]


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
        objectives=tuple(o.name for o in A.meta),
        mean=tuple(float(v) for v in natural.mean(axis=0)),
        median=tuple(float(v) for v in np.median(natural, axis=0)),
        best=tuple(best),
        worst=tuple(worst),
    )


def contradicting_statistics(
    sets: Mapping[str, SolutionSet],
) -> list[tuple[str, str, str, tuple[str, ...]]]:
    """Misuse II's evidence over named non-empty sets: for each ordered pair
    in which the first set dominates the second (:func:`set_dominates`),
    each statistic on which the dominated set is strictly better, in natural
    direction, as ``(dominating, dominated, statistic, objectives)``.  Best
    never appears: each dominated member has a dominator, so the dominating
    set's best is never worse."""
    stats = {name: per_objective_stats(s) for name, s in sets.items()}
    found = []
    for x, y in permutations(sets, 2):
        if not set_dominates(sets[x], sets[y]):
            continue
        maximized = _maximized(sets[x])
        for stat in STATS:
            pairs = zip(getattr(stats[x], stat), getattr(stats[y], stat), maximized)
            better = tuple(
                name
                for name, (a, b, mx) in zip(stats[y].objectives, pairs)
                if (b > a if mx else b < a)
            )
            if better:
                found.append((x, y, stat, better))
    return found


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
    return A._select([idx]).solutions[0], float(scores[idx])


@dataclass(frozen=True)
class IndicatorTable:
    """Per-run indicator values of one experiment, from shared yardsticks.

    ``values[(algorithm, run)]`` holds one value per column for each
    non-empty run.  ``reference`` is the union front of the non-empty runs in
    raw units, the one front every column reads (mapped by ``bounds`` in the
    normalizing ones); ``bounds`` are the config's normalization bounds, None
    for ``none`` or for missing hard bounds that no column reads; ``point``
    is the hv column's reference point, None without one.
    """

    values: dict[tuple[str, int], tuple[float, ...]]
    reference: SolutionSet
    bounds: NormalizationBounds | None
    point: tuple[float, ...] | None
    representative: dict[str, int]


def _closest_to_median(values: Mapping[int, float]) -> int:
    """Key of the value closest to the lower median; ties keep the lowest key."""
    ordered = sorted(values.values())
    median = ordered[(len(ordered) - 1) // 2]
    return min(values, key=lambda k: (abs(values[k] - median), k))


class _Yardsticks(NamedTuple):
    """The union front (raw units), bounds and hv point of an experiment's
    non-empty runs, each built once (None if failed or unread); whether the
    run ranking reads hv; each failure by lint code, in evaluate's order;
    and, where hv is computed at m >= 4, each non-empty run's unique front."""

    reference: SolutionSet | None
    bounds: NormalizationBounds | None
    point: tuple[float, ...] | None
    ranked: bool
    failures: dict[str, ValueError]
    fronts: list[SolutionSet] | None = None


def _yardsticks(
    algorithms: Mapping[str, Sequence[SolutionSet]],
    columns: Sequence[str],
    config: IndicatorConfig,
    scalarize: bool = False,
    computed: bool = True,
) -> _Yardsticks:
    """The yardsticks ``columns`` and the run ranking read under ``config``.
    Runs are ranked when an algorithm has more than one non-empty run, at an
    objective count hv is defined for.  The bounds are built for the report
    in every mode; their failure counts when a normalizing column or the
    scalarize route reads them.  The hv point is read off the union front,
    which is its own unique front; one :func:`_explicit_point` rejects is
    invalid, any other failure is a point inside the front.  When hv is
    ``computed`` at m >= 4, where WFG reads each run's unique front, those
    fronts are cut once here, and the union front is cut from them: the same
    rows, tags and order as from the raw runs (see
    :func:`build_reference_set`).  At m <= 3 the sweeps read raw rows, and
    lint, which only checks the yardsticks, passes ``computed=False``, so no
    run front is cut for them.  A column whose profile's ``min_size`` some
    non-empty run falls short of fails too, the first such column only."""
    live = [run for runs in algorithms.values() for run in runs if len(run)]
    if not live:
        empty = EmptySetError("every set is empty after preprocessing")
        return _Yardsticks(None, None, None, False, {"L-ALL-EMPTY": empty})
    many = any(sum(len(run) > 0 for run in runs) > 1 for runs in algorithms.values())
    ranked = many and live[0].m in aspects_of("hv").objectives
    hv_read = "hv" in columns or ranked
    fronts = None
    if computed and hv_read and live[0].m >= 4:
        fronts = [unique_nondominated_front(run) for run in live]
    reference = build_reference_set(fronts or live)
    bounds, point, failures = None, None, {}
    try:
        bounds = normalization_bounds(config.normalization, live)
    except ValueError as exc:
        if scalarize or any(aspects_of(n).needs_normalization for n in columns):
            failures["L-NO-HARD-BOUNDS"] = exc
    if hv_read:
        strategy, explicit = config.hv_strategy, config.ref_point
        code = "L-HV-REF-INVALID"
        try:
            if strategy == "explicit":
                _explicit_point(explicit, reference.m)
            code = "L-HV-REF-INSIDE"
            point = build_reference_point(reference, strategy, explicit)
        except ValueError as exc:
            failures[code] = exc
    for name in columns:
        need = aspects_of(name).min_size
        if short := [run.name for run in live if len(run) < need]:
            detail = f"{name} needs {need}; {', '.join(short)} keep fewer"
            failures.setdefault("L-RUN-TOO-SMALL", ValueError(detail))
    return _Yardsticks(reference, bounds, point, ranked, failures, fronts)


def indicator_table(
    algorithms: Mapping[str, Sequence[SolutionSet]],
    columns: Sequence[str],
    config: IndicatorConfig,
) -> IndicatorTable:
    """Evaluate unary indicator columns on every run under one config, each
    yardstick built once.

    The yardsticks come from the non-empty runs of all algorithms, built
    here by :func:`_yardsticks` for what the columns and the run ranking
    read: the reference set, the union front decided on raw values and
    normalized with the runs when a column normalizes; the bounds; the hv
    point; the grid cells; the ``spread`` extremes, the reference set's first
    and last rows in the lexicographic order of its raw values.  The first
    failure that build records raises.  Each algorithm's representative run
    is the one whose hv is closest to the median of its runs' hv values
    (Knowles, Thiele & Zitzler 2006), computed for the pick only when hv is
    not a column.  Where hv is undefined at the objective count, only
    algorithms with one non-empty run get a representative; any other error
    propagates.
    """
    columns = tuple(canonical_name(n) for n in columns)
    for name in columns:
        if aspects_of(name).binary:
            raise ValueError(f"{name} is a binary indicator, not a per-run column")
    if "" in algorithms:
        raise ValueError("algorithm names must be non-empty")
    built = _yardsticks(algorithms, columns, config)
    for error in built.failures.values():
        raise error
    scaled = any(aspects_of(n).needs_normalization for n in columns)
    slots = [
        (alg, r)
        for alg, runs in algorithms.items()
        for r, run in enumerate(runs)
        if len(run)
    ]
    live = [algorithms[alg][r] for alg, r in slots]
    space, front = live, built.reference  # what the normalizing columns read
    if scaled and built.bounds is not None:
        *space, front = normalize([*live, built.reference], built.bounds)

    def column(name: str) -> list[float]:
        if name == "nfs":
            return [float(_ind.nfs(run)) for run in live]
        if name == "unfr":
            return [_ind.unfr(run, built.reference) for run in live]
        if name == "hv":  # a run's unique front has the run's hv
            return [_ind.hypervolume(f, built.point) for f in built.fronts or live]
        if name == "grid_diversity":
            return _ind.grid_diversity(live, config.grid_divisions)
        if name == "gd":
            return [_ind.gd(run, front, p=config.gd_p) for run in space]
        if name == "gd_plus":
            return [_ind.gd_plus(run, front) for run in space]
        if name == "igd":
            return [_ind.igd(run, front) for run in space]
        if name == "igd_plus":
            return [_ind.igd_plus(run, front) for run in space]
        if name == "epsilon":
            return [_ind.epsilon_additive(run, front) for run in space]
        if name == "sp":
            return [_ind.spacing(run) for run in space]
        order, _, _ = _lex_sorted(built.reference.values())  # spread
        ends = front.values()[[order[0], order[-1]]]
        return [_ind.spread_delta(run, ends) for run in space]

    computed = {name: column(name) for name in dict.fromkeys(columns)}
    rank = dict(zip(slots, computed.get("hv") or column("hv"))) if built.ranked else {}
    representative: dict[str, int] = {}
    for alg in algorithms:
        runs = [r for a, r in slots if a == alg]
        if len(runs) == 1:
            representative[alg] = runs[0]
        elif runs and rank:
            representative[alg] = _closest_to_median({r: rank[(alg, r)] for r in runs})
    return IndicatorTable(
        values={
            slot: tuple(computed[name][i] for name in columns)
            for i, slot in enumerate(slots)
        },
        reference=built.reference,
        bounds=built.bounds,
        point=built.point if "hv" in columns else None,
        representative=representative,
    )
