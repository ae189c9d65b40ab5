"""Quality indicators for nondominated solution sets.

Every function expects minimization orientation (lower is better on every
objective).  Binary indicators take two sets; unary ones take a set plus a
reference set or reference point.  Nothing here normalizes implicitly:
callers decide the normalization and reference policy (see ``preprocess``)
and the distance-based indicators simply consume what they are given.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    EmptySetError,
    SolutionSet,
    _dominance,
    nondominated_front,
    unique_nondominated_front,
)
from .preprocess import NORMALIZATION_MODES, REF_STRATEGIES

__all__ = [
    "ASPECTS",
    "IndicatorConfig",
    "IndicatorProfile",
    "IndicatorResult",
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
        if self.gd_p < 1:
            raise ValueError("gd_p must be >= 1")
        if self.grid_divisions < 2:
            raise ValueError("grid_divisions must be >= 2")
        if self.hv_strategy not in REF_STRATEGIES:
            raise ValueError(f"unknown reference strategy {self.hv_strategy!r}")
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(f"unknown normalization mode {self.normalization!r}")
        if self.ref_point is not None:
            object.__setattr__(
                self, "ref_point", tuple(float(v) for v in self.ref_point)
            )

    def snapshot(self) -> dict:
        return {
            "gd_p": self.gd_p,
            "hv_strategy": self.hv_strategy,
            "ref_point": list(self.ref_point) if self.ref_point else None,
            "grid_divisions": self.grid_divisions,
            "normalization": self.normalization,
        }


@dataclass(frozen=True)
class IndicatorProfile:
    """What an indicator can say about a set.

    ``aspects`` maps covered quality aspects to "+" (fully reflected) or "-"
    (partially reflected).  ``compliant`` is "+" when a weakly dominating set
    is never ranked worse, "-" when that holds only conditionally, and None
    when the indicator can contradict set dominance outright.
    """

    name: str
    aspects: Mapping[str, str]
    compliant: str | None
    better: str  # "higher" | "lower"
    binary: bool = False
    needs_normalization: bool = False


@dataclass(frozen=True)
class IndicatorResult:
    """One computed indicator value plus enough context to reproduce it."""

    indicator: str
    value: float
    better: str
    aspects: tuple[str, ...]
    config_snapshot: Mapping[str, object] = field(default_factory=dict)


_PROFILES: dict[str, IndicatorProfile] = {
    "ci": IndicatorProfile(
        "ci",
        {"convergence": "-", "cardinality": "-"},
        compliant="+",
        better="higher",
        binary=True,
    ),
    "c": IndicatorProfile(
        "c",
        {"convergence": "-", "cardinality": "-"},
        compliant="+",
        better="higher",
        binary=True,
    ),
    "gd": IndicatorProfile(
        "gd", {"convergence": "+"}, compliant=None, better="lower",
        needs_normalization=True,
    ),
    "gd_plus": IndicatorProfile(
        "gd_plus", {"convergence": "+"}, compliant="+", better="lower",
        needs_normalization=True,
    ),
    "igd": IndicatorProfile(
        "igd",
        {"convergence": "+", "spread": "+", "uniformity": "-", "cardinality": "-"},
        compliant=None,
        better="lower",
        needs_normalization=True,
    ),
    "igd_plus": IndicatorProfile(
        "igd_plus",
        {"convergence": "+", "spread": "+", "uniformity": "-", "cardinality": "-"},
        compliant="+",
        better="lower",
        needs_normalization=True,
    ),
    "spread": IndicatorProfile(
        "spread",
        {"spread": "+", "uniformity": "+"},
        compliant=None,
        better="lower",
        needs_normalization=True,
    ),
    "sp": IndicatorProfile(
        "sp", {"uniformity": "+"}, compliant=None, better="lower",
        needs_normalization=True,
    ),
    "nfs": IndicatorProfile(
        "nfs", {"cardinality": "+"}, compliant=None, better="higher",
    ),
    "unfr": IndicatorProfile(
        "unfr", {"cardinality": "+"}, compliant="+", better="higher",
    ),
    "hv": IndicatorProfile(
        "hv",
        {"convergence": "+", "spread": "+", "uniformity": "-", "cardinality": "+"},
        compliant="+",
        better="higher",
    ),
    "epsilon": IndicatorProfile(
        "epsilon",
        {"convergence": "+", "spread": "+", "uniformity": "-", "cardinality": "-"},
        compliant="+",
        better="lower",
        needs_normalization=True,
    ),
    "grid_diversity": IndicatorProfile(
        "grid_diversity",
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


def _values(A: SolutionSet, require_nonempty: bool = True) -> np.ndarray:
    v = A.values()
    if require_nonempty and v.shape[0] == 0:
        raise EmptySetError(f"set {A.name!r} is empty")
    return v


def _check_same_m(A: SolutionSet, B: SolutionSet) -> None:
    if A.m != B.m:
        raise DimensionMismatchError(
            f"sets {A.name!r} and {B.name!r} disagree on objective count"
        )


def _euclidean(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, shape (len(X), len(Y))."""
    diff = X[:, None, :] - Y[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _shortfall(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise one-sided distances: X penalized only where worse than Y."""
    diff = np.maximum(X[:, None, :] - Y[None, :, :], 0.0)
    return np.sqrt((diff * diff).sum(axis=2))


def contribution(A: SolutionSet, B: SolutionSet) -> float:
    """Share of the better solutions contributed by A relative to B.

    Shared vectors are split evenly; each side then gains credit for its
    members that dominate something on the other side or that are
    incomparable to everything there.  Values lie in [0, 1], the two
    orderings sum to 1, and 0.5 means parity.
    """
    _check_same_m(A, B)
    if not A.solutions and not B.solutions:
        raise EmptySetError("contribution of two empty sets is undefined")
    count_a = Counter(A.vectors())
    count_b = Counter(B.vectors())
    shared = sum(min(c, count_b[v]) for v, c in count_a.items() if v in count_b)
    va, vb = A.values(), B.values()
    a_wins, b_loses = _dominance(va, vb)
    b_wins, a_loses = _dominance(vb, va)
    # A member that dominates nothing weakly dominates an opponent only by
    # equalling it, so "incomparable" means: no win, no loss, no twin.
    a_twin = np.array([v in count_b for v in A.vectors()], dtype=bool)
    b_twin = np.array([v in count_a for v in B.vectors()], dtype=bool)
    a_dom = int(a_wins.sum())
    b_dom = int(b_wins.sum())
    a_inc = int((~a_wins & ~a_loses & ~a_twin).sum())
    b_inc = int((~b_wins & ~b_loses & ~b_twin).sum())
    denom = shared + a_dom + a_inc + b_dom + b_inc
    if denom == 0:
        raise EmptySetError("contribution denominator is empty")
    return (shared / 2.0 + a_dom + a_inc) / denom


def coverage(A: SolutionSet, B: SolutionSet) -> float:
    """Fraction of B's distinct vectors weakly dominated by some member of A."""
    _check_same_m(A, B)
    if not A.solutions or not B.solutions:
        raise EmptySetError("coverage needs two non-empty sets")
    distinct_b = np.array(list(dict.fromkeys(B.vectors())))
    _, covered = _dominance(A.values(), distinct_b, weak=True)
    return int(covered.sum()) / len(distinct_b)


def gd(A: SolutionSet, reference: SolutionSet, p: float = 1.0) -> float:
    """Generational distance of A from a reference set.

    d_i is the Euclidean distance from each member of A to its nearest
    reference point; the result is (sum d_i^p)^(1/p) / n.  The default p=1
    is the plain arithmetic mean of the distances.
    """
    _check_same_m(A, reference)
    if p < 1:
        raise ValueError("p must be >= 1")
    d = _euclidean(_values(A), _values(reference)).min(axis=1)
    return float((d**p).sum() ** (1.0 / p) / len(d))


def gd_plus(A: SolutionSet, reference: SolutionSet) -> float:
    """Generational distance with one-sided (dominance-aware) distances.

    Each member of A is charged only for the components where it is worse
    than a reference point, so moving a solution into the region dominating
    the reference costs nothing.  Aggregation is the arithmetic mean.
    """
    _check_same_m(A, reference)
    d = _shortfall(_values(A), _values(reference)).min(axis=1)
    return float(d.mean())


def igd(A: SolutionSet, reference: SolutionSet) -> float:
    """Inverted generational distance: mean distance from each reference
    point to its nearest member of A."""
    _check_same_m(A, reference)
    d = _euclidean(_values(reference), _values(A)).min(axis=1)
    return float(d.mean())


def igd_plus(A: SolutionSet, reference: SolutionSet) -> float:
    """Inverted generational distance with one-sided distances: A is charged
    only where it fails to reach each reference point."""
    _check_same_m(A, reference)
    # shortfall[i, j]: member i of A penalized where worse than reference j
    d = _shortfall(_values(A), _values(reference)).min(axis=0)
    return float(d.mean())


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
    pts = sorted(_values(A).tolist())
    if not pts:
        raise EmptySetError(f"set {A.name!r} is empty")
    ext = sorted([tuple(float(v) for v in e) for e in extremes])
    if len(ext) != 2 or any(len(e) != 2 for e in ext):
        raise ValueError("exactly two bi-objective extreme points are required")
    arr = np.asarray(pts)
    edge_low = float(np.linalg.norm(arr[0] - np.asarray(ext[0])))
    edge_high = float(np.linalg.norm(arr[-1] - np.asarray(ext[1])))
    if len(pts) == 1:
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
    if len(v) < 2:
        raise ValueError("spacing needs at least two solutions")
    l1 = np.abs(v[:, None, :] - v[None, :, :]).sum(axis=2)
    np.fill_diagonal(l1, np.inf)
    d = l1.min(axis=1)
    return float(d.std(ddof=1))


def nfs(A: SolutionSet) -> int:
    """Number of internally nondominated solutions (duplicates count)."""
    return len(nondominated_front(A))


def unfr(A: SolutionSet, sets: Sequence[SolutionSet]) -> float:
    """A's share of the union nondominated front.

    The reference front is the unique nondominated front of the union of
    ``sets`` (with A joined in when not already among them); the value is the
    fraction of that front's size contributed by A's own unique nondominated
    vectors that survive against the union.
    """
    basis = list(sets)
    if not any(s is A for s in basis):
        basis.append(A)
    merged: list = []
    m = A.m
    for s in basis:
        if s.m != m:
            raise DimensionMismatchError("sets disagree on objective count")
        merged.extend(s.solutions)
    if not merged:
        raise EmptySetError("union of sets is empty")
    union = unique_nondominated_front(
        A.with_solutions(tuple(merged), name="union")
    )
    return _front_share(A, union)


def _front_share(A: SolutionSet, union: SolutionSet) -> float:
    """A's unique nondominated vectors that survive in ``union``, the unique
    nondominated front of a union that includes A, as a share of its size.

    A vector of A on the union front is nondominated within A as well, so
    counting A's distinct vectors on that front counts exactly those.
    """
    return len(set(A.vectors()) & set(union.vectors())) / len(union)


def _front_points(points: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """Prune exact duplicates and dominated points (plain tuples)."""
    unique = list(dict.fromkeys(points))
    arr = np.array(unique)
    _, dominated = _dominance(arr, arr)
    return [p for p, d in zip(unique, dominated) if not d]


def _hv2d(points: list[tuple[float, ...]], ref: tuple[float, ...]) -> float:
    """Exact 2-D hypervolume: sweep left to right, each front point adds a
    rectangle."""
    best_y = ref[1]
    vol = 0.0
    for x, y in sorted(points):
        if y < best_y:
            vol += (ref[0] - x) * (best_y - y)
            best_y = y
    return vol


def _hv3d(points: list[tuple[float, ...]], ref: tuple[float, ...]) -> float:
    """Exact 3-D hypervolume by the HV3D dimension sweep.

    Points enter in ascending order of the last objective.  ``xs``/``ys`` hold
    the 2-D staircase of the points seen so far (x ascending, y descending)
    and ``area`` its dominated area, updated by the region each entering
    point adds; each slab between consecutive last-objective values
    contributes ``area * depth``.
    """
    rx, ry, rz = ref
    xs: list[float] = []
    ys: list[float] = []
    area = vol = 0.0
    ordered = sorted(points, key=lambda p: p[2])
    for k, (x, y, z) in enumerate(ordered):
        i = bisect_left(xs, x)
        top = ys[i - 1] if i else ry  # height of the staircase just left of x
        if top > y and not (i < len(xs) and xs[i] == x and ys[i] <= y):
            # Staircase points from i to j - 1 are dominated by (x, y).
            j = i
            while j < len(ys) and ys[j] >= y:
                j += 1
            left, height = x, top
            for qx, qy in zip(xs[i:j], ys[i:j]):
                area += (qx - left) * (height - y)
                left, height = qx, qy
            area += ((xs[j] if j < len(xs) else rx) - left) * (height - y)
            xs[i:j] = [x]
            ys[i:j] = [y]
        vol += area * ((ordered[k + 1][2] if k + 1 < len(ordered) else rz) - z)
    return vol


def _hv_wfg(points: list[tuple[float, ...]], ref: tuple[float, ...]) -> float:
    """Exact hypervolume for four or more objectives (WFG).

    The total is the sum of each point's exclusive volume against the
    points after it: its box minus the hypervolume of its limit set (those
    points pushed up to it).  Ordering worst-first on the last objective
    gives every limit set that point's last coordinate, so the limit set is
    measured one dimension down.
    """
    ordered = sorted(points, key=lambda p: p[-1], reverse=True)
    head_ref = ref[:-1]
    total = 0.0
    for i, p in enumerate(ordered):
        head = p[:-1]
        box = math.prod(r - v for r, v in zip(head_ref, head))
        limit = [tuple(map(max, head, q[:-1])) for q in ordered[i + 1 :]]
        shadow = _hv_front(_front_points(limit), head_ref)
        total += (box - shadow) * (ref[-1] - p[-1])
    return total


def _hv_front(points: list[tuple[float, ...]], ref: tuple[float, ...]) -> float:
    """Exact hypervolume of distinct, mutually nondominated points that are
    strictly better than ``ref`` on every objective."""
    if not points:
        return 0.0
    if len(ref) == 2:
        return _hv2d(points, ref)
    if len(ref) == 3:
        return _hv3d(points, ref)
    return _hv_wfg(points, ref)


def hypervolume(A: SolutionSet, refpoint: Sequence[float]) -> float:
    """Lebesgue measure of the region dominated by A and bounded by refpoint.

    Exact (no sampling).  Solutions that are not strictly better than the
    reference point on every objective contribute nothing and are clipped
    away; duplicates and dominated members never change the value.  The
    algorithm follows the objective count m: a sort-and-sweep staircase for
    m=2, the HV3D dimension sweep for m=3 (Fonseca, Paquete & López-Ibáñez
    2006; Beume et al. 2009) and WFG for m >= 4 (While, Bradstreet & Barone
    2012), whose recursion ends in the m=3 sweep.  Supports 2..10 objectives;
    beyond that the exact computation is rejected as impractical.
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
    pts = [
        p for p in A.vectors() if all(v < r for v, r in zip(p, ref))
    ]
    return _hv_front(_front_points(pts), ref)


def epsilon_additive(A: SolutionSet, B: SolutionSet) -> float:
    """Smallest shift e such that A shifted down by e weakly dominates B.

    max over b of min over a of max_i (a_i - b_i).  Zero for identical sets;
    negative when A strictly exceeds B everywhere.
    """
    _check_same_m(A, B)
    diff = _values(A)[:, None, :] - _values(B)[None, :, :]
    return float(diff.max(axis=2).min(axis=0).max())


def grid_diversity(
    sets: Sequence[SolutionSet], divisions: int = 10
) -> list[float]:
    """Fraction of the union's occupied grid cells each set touches.

    The union of all sets fixes shared normalization bounds; each objective
    is split into ``divisions`` equal cells.  A set's value is the number of
    cells it occupies divided by the number of cells the union occupies, so
    identical sets score identically and a single set scores 1.0.
    """
    if not sets:
        raise EmptySetError("need at least one solution set")
    if divisions < 2:
        raise ValueError("divisions must be >= 2")
    m = sets[0].m
    rows = []
    for s in sets:
        if s.m != m:
            raise DimensionMismatchError("sets disagree on objective count")
        if not s.solutions:
            raise EmptySetError(f"set {s.name!r} is empty")
        rows.append(s.values())
    stacked = np.vstack(rows)
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    if (hi == lo).any():
        raise ValueError("degenerate bounds: an objective has zero range")

    def _cells(v: np.ndarray) -> set[tuple[int, ...]]:
        scaled = (v - lo) / (hi - lo) * divisions
        idx = np.minimum(scaled.astype(int), divisions - 1)
        return {tuple(int(c) for c in row) for row in idx}

    per_set = [_cells(v) for v in rows]
    union: set[tuple[int, ...]] = set()
    for cells in per_set:
        union |= cells
    return [len(cells) / len(union) for cells in per_set]
