"""Quality indicators for nondominated solution sets.

Every function expects minimization orientation (lower is better on every
objective).  Binary indicators take two sets; unary ones take a set plus a
reference set or reference point.  Nothing here normalizes implicitly:
callers decide the normalization and reference policy (see ``preprocess``)
and the distance-based indicators simply consume what they are given.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from . import core as _core
from .core import (
    DimensionMismatchError,
    EmptySetError,
    SolutionSet,
    _check_sets,
    _dominated_by,
    _front_mask,
    _lex_sorted,
    _nearest,
    _row_counts,
    nondominated_front,
)
from .preprocess import (
    NORMALIZATION_MODES, REF_STRATEGIES, NormalizationBounds, normalize,
)

__all__ = [
    "ASPECTS",
    "IndicatorConfig",
    "IndicatorProfile",
    "canonical_name",
    "aspects_of",
    "contribution",
    "coverage",
    "gd",
    "gd_plus",
    "igd",
    "igd_plus",
    "spread_delta",
    "spacing",
    "nfs",
    "unfr",
    "hypervolume",
    "epsilon_additive",
    "grid_diversity",
]

ASPECTS = ("convergence", "spread", "uniformity", "cardinality")

_HV_MAX_OBJECTIVES = 10


@dataclass(frozen=True)
class IndicatorConfig:
    """Knobs shared by the indicator pipeline.

    ``hv_strategy`` names a reference-point construction strategy (see
    ``preprocess.build_reference_point``); ``ref_point`` carries the vector
    for the explicit strategy.  ``normalization`` selects the bounds source
    used before distance-based indicators: ``combined_front`` (bounds from
    the evaluated data), ``hard_bounds``, or ``none``.
    """

    gd_p: float = 1.0
    hv_strategy: str = "nadir_plus_tenth"
    ref_point: tuple[float, ...] | None = None
    grid_divisions: int = 10
    normalization: str = "combined_front"

    def __post_init__(self) -> None:
        if not 1 <= self.gd_p < math.inf:
            raise ValueError(f"gd_p must be finite and >= 1, got {self.gd_p}")
        if self.grid_divisions < 2:
            raise ValueError("grid_divisions must be >= 2")
        if self.hv_strategy not in REF_STRATEGIES:
            raise ValueError(f"unknown reference strategy {self.hv_strategy!r}")
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(f"unknown normalization mode {self.normalization!r}")
        if self.ref_point is not None:
            point = tuple(float(v) for v in self.ref_point)
            if not point:
                raise ValueError("ref_point must have at least one coordinate")
            if not all(map(math.isfinite, point)):
                raise ValueError(f"ref_point must be finite, got {point}")
            object.__setattr__(self, "ref_point", point)


@dataclass(frozen=True)
class IndicatorProfile:
    """What an indicator can say about a set.

    ``aspects`` maps covered quality aspects to "+" (fully reflected) or "-"
    (partially reflected).  ``compliant`` is "+" when a weakly dominating set
    is never ranked worse, "-" when that holds only conditionally, and None
    when the indicator can contradict set dominance outright.
    ``objectives`` holds the objective counts the indicator is defined for,
    and ``min_size`` the fewest solutions a set needs for it.
    """

    aspects: Mapping[str, str]
    compliant: str | None
    better: str  # "higher" | "lower"
    binary: bool = False
    needs_normalization: bool = False
    objectives: range = range(1, sys.maxsize)
    min_size: int = 1


_PROFILES: dict[str, IndicatorProfile] = {
    "ci": IndicatorProfile(
        {"convergence": "-", "cardinality": "-"},
        compliant="+",
        better="higher",
        binary=True,
    ),
    "c": IndicatorProfile(
        {"convergence": "-", "cardinality": "-"},
        compliant="+",
        better="higher",
        binary=True,
    ),
    "gd": IndicatorProfile(
        {"convergence": "+"}, compliant=None, better="lower",
        needs_normalization=True,
    ),
    "gd_plus": IndicatorProfile(
        {"convergence": "+"}, compliant="+", better="lower",
        needs_normalization=True,
    ),
    "igd": IndicatorProfile(
        {"convergence": "+", "spread": "+", "uniformity": "-", "cardinality": "-"},
        compliant=None,
        better="lower",
        needs_normalization=True,
    ),
    "igd_plus": IndicatorProfile(
        {"convergence": "+", "spread": "+", "uniformity": "-", "cardinality": "-"},
        compliant="+",
        better="lower",
        needs_normalization=True,
    ),
    "spread": IndicatorProfile(
        {"spread": "+", "uniformity": "+"},
        compliant=None,
        better="lower",
        needs_normalization=True,
        objectives=range(2, 3),
    ),
    "sp": IndicatorProfile(
        {"uniformity": "+"}, compliant=None, better="lower",
        needs_normalization=True, min_size=2,
    ),
    "nfs": IndicatorProfile({"cardinality": "+"}, compliant=None, better="higher"),
    "unfr": IndicatorProfile({"cardinality": "+"}, compliant="+", better="higher"),
    "hv": IndicatorProfile(
        {"convergence": "+", "spread": "+", "uniformity": "-", "cardinality": "+"},
        compliant="+",
        better="higher",
        objectives=range(2, _HV_MAX_OBJECTIVES + 1),
    ),
    "epsilon": IndicatorProfile(
        {"convergence": "+", "spread": "+", "uniformity": "-", "cardinality": "-"},
        compliant="+",
        better="lower",
        needs_normalization=True,
    ),
    "grid_diversity": IndicatorProfile(
        {"spread": "+", "uniformity": "-", "cardinality": "-"},
        compliant="-",
        better="higher",
    ),
}

_ALIASES = {
    "contribution": "ci",
    "coverage": "c",
    "cs": "c",
    "gd+": "gd_plus",
    "gdplus": "gd_plus",
    "igd+": "igd_plus",
    "igdplus": "igd_plus",
    "delta": "spread",
    "spacing": "sp",
    "pfs": "nfs",
    "hypervolume": "hv",
    "eps": "epsilon",
    "epsilon_additive": "epsilon",
    "dci": "grid_diversity",
}


def canonical_name(name: str) -> str:
    """Map an indicator name or alias to its canonical key."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _PROFILES:
        raise ValueError(f"unknown indicator {name!r}")
    return key


def aspects_of(name: str) -> IndicatorProfile:
    """Profile (quality aspects, compliance, direction) of an indicator."""
    return _PROFILES[canonical_name(name)]


def _values(A: SolutionSet) -> np.ndarray:
    v = A.values()
    if v.shape[0] == 0:
        raise EmptySetError(f"set {A.name!r} is empty")
    return v


def contribution(A: SolutionSet, B: SolutionSet) -> float:
    """Share of the better solutions contributed by A relative to B.

    Shared vectors are split evenly; each side then gains credit for its
    members that dominate something on the other side or that are
    incomparable to everything there.  Values lie in [0, 1], the two
    orderings sum to 1, and 0.5 means parity.

    The shared vectors and twins come from one lexicographic sort of both
    sets; wins and losses are four ``_dominated_by`` queries: a binary
    search for m <= 2, a staircase sweep for m=3 and a split on the first
    objective for m >= 4.
    """
    return _contributions(A, B)[0]


def _contributions(A: SolutionSet, B: SolutionSet) -> tuple[float, float]:
    """``(contribution(A, B), contribution(B, A))`` from one pass: both
    shares read the same counts over the same integer denominator."""
    _check_sets(A, B)
    if not len(A) and not len(B):
        raise EmptySetError("contribution of two empty sets is undefined")
    va, vb = A.values(), B.values()
    group, count_a, count_b = _row_counts(va, vb)
    shared = int(np.minimum(count_a, count_b).sum())
    # A row dominates some row of the other set exactly when its negation is
    # dominated by the negation of that row.
    a_wins = _dominated_by(-vb, -va)
    b_wins = _dominated_by(-va, -vb)
    a_loses = _dominated_by(vb, va)
    b_loses = _dominated_by(va, vb)
    # A member that dominates nothing weakly dominates an opponent only by
    # equalling it, so "incomparable" means: no win, no loss, no twin.
    a_twin = count_b[group[: len(va)]] > 0
    b_twin = count_a[group[len(va) :]] > 0
    a_dom = int(a_wins.sum())
    b_dom = int(b_wins.sum())
    a_inc = int((~a_wins & ~a_loses & ~a_twin).sum())
    b_inc = int((~b_wins & ~b_loses & ~b_twin).sum())
    # Never zero: each row is shared, a win, incomparable, or lost to a win.
    denom = shared + a_dom + a_inc + b_dom + b_inc
    half = shared / 2.0
    return (half + a_dom + a_inc) / denom, (half + b_dom + b_inc) / denom


def coverage(A: SolutionSet, B: SolutionSet) -> float:
    """Fraction of B's distinct vectors weakly dominated by some member of A.

    The distinct vectors come from one lexicographic sort of B, the covered
    ones from one weak ``_dominated_by`` query: a binary search for m <= 2,
    a staircase sweep for m=3 and a split on the first objective for m >= 4.
    """
    _check_sets(A, B)
    if not len(A) or not len(B):
        raise EmptySetError("coverage needs two non-empty sets")
    _, S, repeat = _lex_sorted(B.values())
    distinct_b = S[~repeat]
    covered = _dominated_by(A.values(), distinct_b, weak=True)
    return int(covered.sum()) / len(distinct_b)


def gd(
    A: SolutionSet, reference: SolutionSet, p: float = IndicatorConfig.gd_p
) -> float:
    """Generational distance of A from a reference set.

    d_i is the Euclidean distance from each member of A to its nearest
    reference point; the result is (sum d_i^p)^(1/p) / n.  The default p=1
    is the plain arithmetic mean of the distances.
    """
    _check_sets(A, reference)
    if p < 1:
        raise ValueError("p must be >= 1")
    d = _nearest(_values(A), _values(reference), "euclidean")
    return float((d**p).sum() ** (1.0 / p) / len(d))


def gd_plus(A: SolutionSet, reference: SolutionSet) -> float:
    """Generational distance with one-sided (dominance-aware) distances.

    Each member of A is charged only for the components where it is worse
    than a reference point, so moving a solution into the region dominating
    the reference costs nothing.  Aggregation is the arithmetic mean.
    """
    _check_sets(A, reference)
    d = _nearest(_values(A), _values(reference), "shortfall")
    return float(d.mean())


def igd(A: SolutionSet, reference: SolutionSet) -> float:
    """Inverted generational distance: mean distance from each reference
    point to its nearest member of A."""
    _check_sets(A, reference)
    a, r = _values(A), _values(reference)
    return float(_nearest(r, a, "euclidean").mean())


def igd_plus(A: SolutionSet, reference: SolutionSet) -> float:
    """Inverted generational distance with one-sided distances: A is charged
    only where it fails to reach each reference point."""
    _check_sets(A, reference)
    # Member a of A is charged where it is worse than reference point r:
    # max(a - r, 0) is the shortfall from -r to -a.
    a, r = _values(A), _values(reference)
    return float(_nearest(-r, -a, "shortfall").mean())


def spread_delta(
    A: SolutionSet, extremes: Sequence[Sequence[float]]
) -> float:
    """Distribution metric for bi-objective sets (lower is better).

    Combines the gaps between consecutive solutions (sorted by the first
    objective) with the distances from the boundary solutions to the two
    extreme reference points.  Only defined for exactly two objectives; any
    other dimension is a hard error.
    """
    if A.m != 2:
        raise ValueError(
            f"spread is only defined for two objectives, set has {A.m}"
        )
    _, arr, _ = _lex_sorted(_values(A))
    ext = sorted([tuple(float(v) for v in e) for e in extremes])
    if len(ext) != 2 or any(len(e) != 2 for e in ext):
        raise ValueError("exactly two bi-objective extreme points are required")
    edge_low = float(np.linalg.norm(arr[0] - np.asarray(ext[0])))
    edge_high = float(np.linalg.norm(arr[-1] - np.asarray(ext[1])))
    if len(arr) == 1:
        return 0.0 if edge_low + edge_high == 0 else 1.0
    gaps = np.linalg.norm(arr[1:] - arr[:-1], axis=1)
    mean_gap = float(gaps.mean())
    numerator = edge_low + edge_high + float(np.abs(gaps - mean_gap).sum())
    denominator = edge_low + edge_high + len(gaps) * mean_gap
    if denominator == 0:
        return 0.0
    return numerator / denominator


def spacing(A: SolutionSet) -> float:
    """Deviation of nearest-neighbour L1 distances (lower is more uniform).

    Uses the sample standard deviation of d_i = min_{j != i} |a_i - a_j|_1.
    Needs at least two solutions.
    """
    v = _values(A)
    need = _PROFILES["sp"].min_size
    if len(v) < need:
        raise ValueError(f"spacing needs at least {need} solutions")
    d = _nearest(v, v, "l1", skip_self=True)
    return float(d.std(ddof=1))


def nfs(A: SolutionSet) -> int:
    """Number of internally nondominated solutions (duplicates count)."""
    return len(nondominated_front(A))


def unfr(A: SolutionSet, union: SolutionSet) -> float:
    """A's unique nondominated vectors that survive in ``union``, the unique
    nondominated front of a union that includes A (as
    :func:`build_reference_set` returns it), as a share of its size.

    A vector of A on the union front is nondominated within A as well, so
    counting A's distinct vectors on that front counts exactly those.
    """
    if not len(union):
        raise EmptySetError("union front is empty")
    _, in_a, in_union = _row_counts(A.values(), union.values())
    return int(np.count_nonzero((in_a > 0) & (in_union > 0))) / len(union)


def _hv2d(points: np.ndarray, ref: tuple[float, ...]) -> float:
    """Exact 2-D hypervolume: sweep left to right, lower y first among equal
    x, each front row adds a rectangle; a dominated or repeated row is never
    below the best y seen and adds nothing."""
    best_y = ref[1]
    vol = 0.0
    ordered = points[np.lexsort((points[:, 1], points[:, 0]))]
    # Only a row at the running minimum of y can lie below every row before it.
    ordered = ordered[ordered[:, 1] <= np.minimum.accumulate(ordered[:, 1])]
    for x, y in ordered.tolist():
        if y < best_y:
            vol += (ref[0] - x) * (best_y - y)
            best_y = y
    return vol


def _hv3d(rows: list[list[float]], ref: tuple[float, ...]) -> float:
    """Exact 3-D hypervolume of a non-empty list of rows by the HV3D
    dimension sweep.

    Rows enter in ascending (stable) order of the last objective.
    ``xs``/``ys`` hold the 2-D staircase of the rows entered so far (x
    ascending, y descending, closed by an ``(-inf, ry)`` and an
    ``(rx, -inf)`` sentinel) and ``area`` its dominated area, updated by the
    region each entering row adds; each slab between the last objectives of
    consecutive entering rows contributes ``area * depth``.  A row the
    staircase weakly dominates is dominated or repeated and skipped.  Rows
    that share their last objective are taken together, and only their
    unique 2-D front enters, so the front rows enter, in the same order and
    with the same sums, as into a sweep of the front alone.  The rows are
    Python lists, so a small call pays for no numpy sort or conversion.
    """
    rx, ry, rz = ref
    rows = sorted(rows, key=itemgetter(2))
    xs, ys = [-math.inf, rx], [ry, -math.inf]
    area = vol = 0.0
    last = rows[0][2]
    end = 0  # rows before ``end`` were taken with their group
    for k, (x, y, z) in enumerate(rows):
        if k < end or ys[bisect_right(xs, x) - 1] <= y:
            continue
        end = k + 1
        while end < len(rows) and rows[end][2] == z:
            end += 1
        group = rows[k:end]
        if len(group) > 1:
            group = _group_front(group)
        for x, y, z in group:
            i = bisect_right(xs, x)
            if ys[i - 1] <= y:
                continue  # a group row the earlier groups already cover
            if xs[i - 1] == x:
                i -= 1
            vol += area * (z - last)
            last = z
            # Staircase points from i to j - 1 are dominated by (x, y).
            j = i
            while ys[j] >= y:
                j += 1
            left, height = x, ys[i - 1]
            for qx, qy in zip(xs[i:j], ys[i:j]):
                area += (qx - left) * (height - y)
                left, height = qx, qy
            area += (xs[j] - left) * (height - y)
            xs[i:j] = [x]
            ys[i:j] = [y]
    return vol + area * (rz - last)


def _group_front(rows: list[list[float]]) -> list[list[float]]:
    """The rows no other row dominates in the first two objectives, only the
    first of equal ones, in input order: in a stable sort on the first two,
    a row is kept when its second lies below every second before it."""
    kept, low = [], math.inf
    for k in sorted(range(len(rows)), key=lambda k: rows[k][:2]):
        if rows[k][1] < low:
            low = rows[k][1]
            kept.append(k)
    return [rows[k] for k in sorted(kept)]


def _hv_wfg(points: np.ndarray, ref: tuple[float, ...]) -> float:
    """Exact hypervolume of the unique nondominated rows of an ``(n, m)``
    array, m >= 4 (WFG).

    The total is the sum of each row's exclusive volume against the rows
    after it: its box minus the hypervolume of its limit set (those rows
    pushed up to it).  Ordering worst-first on the last objective (stably,
    so ties keep their order) gives every limit set that row's last
    coordinate, so the limit set is measured one dimension down, as it
    stands.  The limit sets of a block of rows are built by one
    ``np.maximum`` of shape ``(b, n, m - 1)``, with ``b * n`` at most
    ``_BLOCK_PAIRS``.  HV3D takes a 3-column limit set raw, since it skips
    dominated and repeated rows.  A wider one is cut to its unique front:
    for the whole block by one ``(b, n, n)`` comparison when
    ``b * n * n`` fits ``_BLOCK_PAIRS``, else row by row with
    ``_sparse_front_mask``, whose cost follows the few rows a large node's
    limit set keeps.
    """
    ordered = points[np.argsort(-points[:, -1], kind="stable")]
    heads = ordered[:, :-1]
    head_ref = ref[:-1]
    # Box volumes multiplied one objective at a time, in objective order.
    boxes = np.ones(len(heads))
    for r, column in zip(head_ref, heads.T):
        boxes = boxes * (r - column)
    boxes, depths = boxes.tolist(), (ref[-1] - ordered[:, -1]).tolist()
    n, sweep = len(heads), len(head_ref) == 3
    batched = not sweep and n * n <= _core._BLOCK_PAIRS
    size = max(1, _core._BLOCK_PAIRS // (n * n if batched else n))
    total = 0.0
    for i in range(0, n, size):
        # Row i + t's limit set is limits[t, t:], the rows after it.
        limits = np.maximum(heads[i + 1 :], heads[i : i + size, None])
        keep = _core._limit_front_masks(limits) if batched else None
        for t in range(len(limits)):
            limit = limits[t, t:]
            if not len(limit):
                shadow = 0.0
            elif sweep:
                shadow = _hv3d(limit.tolist(), head_ref)
            else:
                mask = keep[t, t:] if batched else _core._sparse_front_mask(limit)
                shadow = _hv_wfg(limit[mask], head_ref)
            total += (boxes[i + t] - shadow) * depths[i + t]
    return total


def _hv_front(points: np.ndarray, ref: tuple[float, ...]) -> float:
    """Exact hypervolume of the raw rows of an ``(n, m)`` array, each
    strictly better than ``ref`` on every objective.  Duplicated and
    dominated rows are allowed and need no filter first: the 2-D and 3-D
    sweeps skip them inside, and WFG gets the unique front, cut here; it
    cuts its own limit sets."""
    if not len(points):
        return 0.0
    if len(ref) == 2:
        return _hv2d(points, ref)
    if len(ref) == 3:
        return _hv3d(points.tolist(), ref)
    return _hv_wfg(points[_front_mask(points, unique=True)], ref)


def hypervolume(A: SolutionSet, refpoint: Sequence[float]) -> float:
    """Lebesgue measure of the region dominated by A and bounded by refpoint.

    Exact (no sampling).  Solutions that are not strictly better than the
    reference point on every objective contribute nothing and are clipped
    away; duplicates and dominated members never change the value.  The
    algorithm follows the objective count m: a sort-and-sweep staircase for
    m=2, the HV3D dimension sweep for m=3 (Fonseca, Paquete & López-Ibáñez
    2006; Beume et al. 2009) and WFG for m >= 4 (While, Bradstreet & Barone
    2012), whose recursion ends in the m=3 sweep.  The rows go in raw: the
    two sweeps skip repeated and dominated rows as they meet them.  WFG
    works on the unique front: each node builds and cuts the limit sets of
    a block of its rows with one batch of array operations, not one per
    row.  Supports 2..10 objectives; beyond that the exact computation is
    rejected as impractical.
    """
    if A.m < 2:
        raise ValueError("hypervolume needs at least two objectives")
    if A.m > _HV_MAX_OBJECTIVES:
        raise ValueError(
            f"exact hypervolume beyond {_HV_MAX_OBJECTIVES} objectives is not supported"
        )
    ref = tuple(float(v) for v in refpoint)
    if len(ref) != A.m:
        raise DimensionMismatchError("reference point length must match")
    pts = A.values()
    return _hv_front(pts[(pts < ref).all(axis=1)], ref)


def epsilon_additive(A: SolutionSet, B: SolutionSet) -> float:
    """Smallest shift e such that A shifted down by e weakly dominates B.

    max over b of min over a of max_i (a_i - b_i).  Zero for identical sets;
    negative when A strictly exceeds B everywhere.
    """
    _check_sets(A, B)
    # a - b is the epsilon distance from -b to -a.  + 0.0 prints a zero as
    # 0.0 whichever sign its tied terms carried.
    a, b = _values(A), _values(B)
    return float(_nearest(-b, -a, "epsilon").max()) + 0.0


def grid_diversity(
    sets: Sequence[SolutionSet], divisions: int = IndicatorConfig.grid_divisions
) -> list[float]:
    """Fraction of the union's occupied grid cells each set touches.

    The union of all sets fixes shared normalization bounds, and the sets
    are scaled by ``normalize`` (an objective with zero range maps to cell 0,
    with its warning); each objective is split into ``divisions`` equal
    cells.  A set's value is the number of cells it occupies divided by the
    number of cells the union occupies, so identical sets score identically
    and a single set scores 1.0.
    """
    if divisions < 2:
        raise ValueError("divisions must be >= 2")
    for s in sets:
        if not len(s):
            raise EmptySetError(f"set {s.name!r} is empty")
    bounds = NormalizationBounds.from_sets(sets)
    # The union is scaled as one set: normalize builds a set per input set.
    scaled = normalize([SolutionSet._concat(sets, "union")], bounds)[0].values()
    idx = np.minimum((scaled * divisions).astype(int), divisions - 1).tolist()
    ends = np.cumsum([len(s) for s in sets]).tolist()
    per_set = [set(map(tuple, idx[e - len(s) : e])) for s, e in zip(sets, ends)]
    union: set[tuple[int, ...]] = set()
    for cells in per_set:
        union |= cells
    return [len(cells) / len(union) for cells in per_set]
