"""Independent reference implementations used to validate the package.

Everything here is written with plain loops and a deliberately different
algorithmic approach from the library (cell counting and Monte-Carlo
sampling instead of dimension sweep, pairwise scans instead of vectorized
masks) so agreement between the two is meaningful evidence.  The slicer is
the slower exact hypervolume the library's sweeps and WFG replaced, the
filter-then-sweep hypervolume is the one the raw-row sweeps replaced (a
bit-exact reference), the kernel front is the quadratic front the
sort-based routine replaced, the ``*_matrix`` distance indicators are the
``(n, k, m)`` array versions the blocked nearest-distance kernel replaced
(bit-exact references), and the
``*_oracle`` preprocessing transforms are the per-row versions the array
transforms replaced: each rebuilds every surviving row as a new ``Solution``.
The run-file oracle is the per-line CSV walk that one numpy parse of the
body replaced: each cell goes through ``float()`` on its own.  The
grid-diversity oracle finds each solution's cell on its own.  The group
staircase is the bisect-based 2-D front of one HV3D group that a stable
sort with a running minimum replaced, and the list-sorted spread the one
whose Python sort of the rows the kernel's lexicographic sort replaced.  The report text is the one-shot
``json.dumps`` that the streaming report writer replaced.
"""

from __future__ import annotations

import json
import math
import warnings
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np

from paretoeval.core import (
    DimensionMismatchError,
    Direction,
    EmptySetError,
    EvaluationWarning,
    ObjectiveMeta,
    Solution,
    SolutionSet,
    _front_mask,
)
from paretoeval.cli import SolutionFileError
from paretoeval.preprocess import (
    AT_LEAST,
    AT_MOST,
    EXACTLY_BEST,
    ClearConstraint,
    NormalizationBounds,
    PreferenceSpec,
    Removal,
)


def weakly_dom(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def strictly_dom(a, b) -> bool:
    return weakly_dom(a, b) and any(x < y for x, y in zip(a, b))


def dominated_by_oracle(F, X, weak=False) -> list[bool]:
    """Pairwise scan: whether each row of X is dominated (weakly, with
    ``weak``) by some row of F."""
    dom = weakly_dom if weak else strictly_dom
    return [any(dom(f, x) for f in F) for x in X]


def set_weakly_dominates_oracle(A: SolutionSet, B: SolutionSet) -> bool:
    """Every row of B is weakly dominated by some row of A, pair by pair."""
    return all(dominated_by_oracle(A.values().tolist(), B.values().tolist(), weak=True))


def contradicting_statistics_oracle(sets) -> list:
    """For each ordered pair of named sets in which every row of the second
    is dominated by a row of the first (pair by pair), each of mean, median
    and worst (numpy, on natural values) that is strictly better for the
    second set, with the names of the objectives it is better on."""
    found = []
    for x, X in sets.items():
        for y, Y in sets.items():
            dominated = dominated_by_oracle(X.values().tolist(), Y.values().tolist())
            if x == y or not all(dominated):
                continue
            maximized = np.array([s < 0 for s in _signs(X)])
            nx, ny = X.natural_values(), Y.natural_values()
            for stat in ("mean", "median", "worst"):
                if stat == "worst":
                    a = np.where(maximized, nx.min(axis=0), nx.max(axis=0))
                    b = np.where(maximized, ny.min(axis=0), ny.max(axis=0))
                else:
                    a, b = getattr(np, stat)(nx, axis=0), getattr(np, stat)(ny, axis=0)
                better = np.where(maximized, b > a, b < a)
                names = tuple(o.name for o, hit in zip(X.meta, better) if hit)
                if names:
                    found.append((x, y, stat, names))
    return found


def front_indices(points) -> list[int]:
    """O(n^2) pairwise filter: indices of members no other member dominates."""
    keep = []
    for i, p in enumerate(points):
        dominated = False
        for j, q in enumerate(points):
            if i != j and strictly_dom(q, p):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


def kernel_front_mask(V: np.ndarray) -> np.ndarray:
    """Front mask from one ``(n, n, m)`` comparison of every row with every
    row: the quadratic step the sort-based front routine replaced, whatever
    the block cap."""
    le = (V[:, None, :] <= V[None, :, :]).all(axis=2)
    lt = (V[:, None, :] < V[None, :, :]).any(axis=2)
    return ~(le & lt).any(axis=0)


def front_points_oracle(points) -> list[tuple[float, ...]]:
    """Exact duplicates and dominated points pruned from a list of tuples,
    first occurrences kept in input order (the list-based filter the array
    one replaced)."""
    unique = list(dict.fromkeys(points))
    if not unique:
        return []
    return [p for p, keep in zip(unique, kernel_front_mask(np.array(unique))) if keep]


def contribution_oracle(A, B) -> float:
    """Contribution by pairwise scans: A's share of the better solutions."""
    count_a, count_b = Counter(A), Counter(B)
    shared = sum(min(c, count_b[v]) for v, c in count_a.items() if v in count_b)

    def tally(xs, others):
        dominating = incomparable = 0
        for x in xs:
            if any(strictly_dom(x, o) for o in others):
                dominating += 1
            elif not any(weakly_dom(x, o) for o in others) and not any(
                strictly_dom(o, x) for o in others
            ):
                incomparable += 1
        return dominating, incomparable

    a_dom, a_inc = tally(A, B)
    b_dom, b_inc = tally(B, A)
    return (shared / 2.0 + a_dom + a_inc) / (shared + a_dom + a_inc + b_dom + b_inc)


def coverage_oracle(A, B) -> float:
    """Fraction of B's distinct vectors weakly dominated by some member of A."""
    distinct_b = list(dict.fromkeys(B))
    covered = sum(1 for b in distinct_b if any(weakly_dom(a, b) for a in A))
    return covered / len(distinct_b)


def hv_grid(points, ref) -> float:
    """Hypervolume by unit-cell counting.

    Valid for non-negative integer coordinates and an integer reference
    point: a unit cell with lower corner c lies inside the dominated
    region iff some point weakly dominates c.
    """
    m = len(ref)
    assert all(float(v).is_integer() for p in points for v in p)
    assert all(float(v).is_integer() for v in ref)
    covered = 0
    for corner in product(*(range(int(r)) for r in ref)):
        if any(weakly_dom(p, corner) for p in points):
            covered += 1
    return float(covered)


def hv_slicer_oracle(points, ref) -> float:
    """Exact hypervolume by sweeping the last objective and slicing.

    Every point must lie strictly inside the reference box; duplicates and
    dominated points are allowed.
    """
    if not points:
        return 0.0
    if len(ref) == 2:
        # Sweep left to right; each front point adds a rectangle.
        best_y = ref[1]
        vol = 0
        for x, y in sorted(points):
            if y < best_y:
                vol += (ref[0] - x) * (best_y - y)
                best_y = y
        return vol
    ordered = sorted(points, key=lambda p: p[-1])
    total = 0
    for i, p in enumerate(ordered):
        depth = (ordered[i + 1][-1] if i + 1 < len(ordered) else ref[-1]) - p[-1]
        if depth == 0:
            continue
        slab = list(dict.fromkeys(q[:-1] for q in ordered[: i + 1]))
        slab = [slab[k] for k in front_indices(slab)]
        total += hv_slicer_oracle(slab, ref[:-1]) * depth
    return total


def _hv2d_front(points: np.ndarray, ref) -> float:
    best_y = ref[1]
    vol = 0.0
    for x, y in points[np.argsort(points[:, 0])].tolist():
        if y < best_y:
            vol += (ref[0] - x) * (best_y - y)
            best_y = y
    return vol


def _hv3d_front(points: np.ndarray, ref) -> float:
    rx, ry, rz = ref
    xs: list[float] = []
    ys: list[float] = []
    area = vol = 0.0
    ordered = points[np.argsort(points[:, 2], kind="stable")].tolist()
    for k, (x, y, z) in enumerate(ordered):
        i = bisect_left(xs, x)
        top = ys[i - 1] if i else ry
        if top > y and not (i < len(xs) and xs[i] == x and ys[i] <= y):
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


def group_front_staircase(rows: list) -> list:
    """The rows no other row dominates in the first two objectives, only the
    first of equal ones, in input order, the way ``_group_front`` found them
    before: a staircase holds the rows kept so far with their positions; a
    row it weakly dominates is dropped, and a row that enters drops the
    steps it weakly dominates."""
    xs, ys, kept = [-math.inf, math.inf], [math.inf, -math.inf], [-1, -1]
    for k, (x, y, _) in enumerate(rows):
        i = bisect_right(xs, x)
        if ys[i - 1] > y:
            if xs[i - 1] == x:
                i -= 1
            j = i
            while ys[j] >= y:
                j += 1
            xs[i:j], ys[i:j], kept[i:j] = [x], [y], [k]
    return [rows[k] for k in sorted(kept[1:-1])]


def _hv_wfg_front(points: np.ndarray, ref) -> float:
    ordered = points[np.argsort(-points[:, -1], kind="stable")]
    heads = ordered[:, :-1]
    head_ref = ref[:-1]
    boxes = np.ones(len(heads))
    for r, column in zip(head_ref, heads.T):
        boxes = boxes * (r - column)
    depths = ref[-1] - ordered[:, -1]
    total = 0.0
    for i, (box, depth) in enumerate(zip(boxes.tolist(), depths.tolist())):
        limit = np.maximum(heads[i + 1 :], heads[i])
        shadow = _hv_filtered(limit[_front_mask(limit, unique=True)], head_ref)
        total += (box - shadow) * depth
    return total


def _hv_filtered(points: np.ndarray, ref) -> float:
    if not len(points):
        return 0.0
    if len(ref) == 2:
        return _hv2d_front(points, ref)
    if len(ref) == 3:
        return _hv3d_front(points, ref)
    return _hv_wfg_front(points, ref)


def hv_filter_sweep_oracle(points: np.ndarray, ref) -> float:
    """Exact hypervolume of an ``(n, m)`` array the filter-then-sweep way
    the raw-row sweeps replaced: the rows strictly inside ``ref`` are cut to
    their unique nondominated front, in input order, before the 2-D sweep,
    the HV3D sweep or WFG runs, and every WFG limit set is cut the same way.
    The arithmetic is the library's, so values must agree bit for bit."""
    ref = tuple(float(v) for v in ref)
    inside = points[(points < ref).all(axis=1)]
    return _hv_filtered(inside[_front_mask(inside, unique=True)], ref)


def sample_columns(samples) -> np.ndarray:
    """Samples of shape (N, m) as m contiguous columns, shape (m, N)."""
    return np.ascontiguousarray(np.asarray(samples).T)


def mc_hits(columns, points) -> np.ndarray:
    """Which samples some point weakly dominates, one column at a time.

    ``columns`` comes from :func:`sample_columns`; comparing whole contiguous
    columns keeps every temporary one-dimensional.
    """
    hit = np.zeros(columns.shape[1], dtype=bool)
    for p in points:
        inside = columns[0] >= p[0]
        for column, v in zip(columns[1:], p[1:]):
            inside &= column >= v
        hit |= inside
    return hit


def hv_monte_carlo(points, ref, n_samples=1_000_000, seed=0, lows=None) -> float:
    """Hypervolume by uniform sampling over [lows, ref]."""
    rng = np.random.default_rng(seed)
    ref = np.asarray(ref, dtype=float)
    lows = np.zeros_like(ref) if lows is None else np.asarray(lows, dtype=float)
    samples = rng.uniform(lows, ref, size=(n_samples, len(ref)))
    hit = mc_hits(sample_columns(samples), points)
    box = float(np.prod(ref - lows))
    return box * float(np.count_nonzero(hit)) / n_samples


def gd_oracle(A, R, p=1.0) -> float:
    total = 0.0
    for a in A:
        d = min(math.dist(a, r) for r in R)
        total += d**p
    return total ** (1.0 / p) / len(A)


def igd_oracle(A, R) -> float:
    return sum(min(math.dist(r, a) for a in A) for r in R) / len(R)


def shortfall(a, r) -> float:
    return math.sqrt(sum(max(x - y, 0.0) ** 2 for x, y in zip(a, r)))


def gd_plus_oracle(A, R) -> float:
    return sum(min(shortfall(a, r) for r in R) for a in A) / len(A)


def igd_plus_oracle(A, R) -> float:
    return sum(min(shortfall(a, r) for a in A) for r in R) / len(R)


def epsilon_oracle(A, B) -> float:
    return max(
        min(max(x - y for x, y in zip(a, b)) for a in A) for b in B
    )


def spread_oracle(points, extreme_low, extreme_high) -> float:
    """Direct transcription of the bi-objective spread formula."""
    pts = sorted(points)
    d_upper = math.dist(pts[0], extreme_low)
    d_bottom = math.dist(pts[-1], extreme_high)
    gaps = [math.dist(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]
    if not gaps:
        if d_upper == 0.0 and d_bottom == 0.0:
            return 0.0
        denom = d_upper + d_bottom
        return (d_upper + d_bottom) / denom if denom else 0.0
    mean_gap = sum(gaps) / len(gaps)
    num = d_upper + d_bottom + sum(abs(g - mean_gap) for g in gaps)
    den = d_upper + d_bottom + len(gaps) * mean_gap
    return num / den if den else 0.0


def spread_list_sorted(V: np.ndarray, extremes) -> float:
    """Spread with the rows in the order Python's ``sorted`` gives their
    lists, then the library's arithmetic: the route the stable lexicographic
    row sort replaced (a bit-exact reference)."""
    pts = sorted(V.tolist())
    ext = sorted([tuple(float(v) for v in e) for e in extremes])
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


def spacing_oracle(points) -> float:
    """Sample standard deviation of nearest-neighbor L1 distances."""
    n = len(points)
    assert n >= 2
    dists = []
    for i, p in enumerate(points):
        best = math.inf
        for j, q in enumerate(points):
            if i != j:
                best = min(best, sum(abs(x - y) for x, y in zip(p, q)))
        dists.append(best)
    mean = sum(dists) / n
    return math.sqrt(sum((d - mean) ** 2 for d in dists) / (n - 1))


def euclidean_matrix(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, shape (len(X), len(Y))."""
    diff = X[:, None, :] - Y[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def shortfall_matrix(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise one-sided distances: X penalized only where worse than Y."""
    diff = np.maximum(X[:, None, :] - Y[None, :, :], 0.0)
    return np.sqrt((diff * diff).sum(axis=2))


def gd_matrix(A: np.ndarray, R: np.ndarray, p: float = 1.0) -> float:
    d = euclidean_matrix(A, R).min(axis=1)
    return float((d**p).sum() ** (1.0 / p) / len(d))


def gd_plus_matrix(A: np.ndarray, R: np.ndarray) -> float:
    d = shortfall_matrix(A, R).min(axis=1)
    return float(d.mean())


def igd_matrix(A: np.ndarray, R: np.ndarray) -> float:
    d = euclidean_matrix(R, A).min(axis=1)
    return float(d.mean())


def igd_plus_matrix(A: np.ndarray, R: np.ndarray) -> float:
    # shortfall[i, j]: member i of A penalized where worse than reference j
    d = shortfall_matrix(A, R).min(axis=0)
    return float(d.mean())


def epsilon_matrix(A: np.ndarray, B: np.ndarray) -> float:
    diff = A[:, None, :] - B[None, :, :]
    return float(diff.max(axis=2).min(axis=0).max())


def spacing_matrix(v: np.ndarray) -> float:
    l1 = np.abs(v[:, None, :] - v[None, :, :]).sum(axis=2)
    np.fill_diagonal(l1, np.inf)
    d = l1.min(axis=1)
    return float(d.std(ddof=1))


def h_oracle(n, m) -> int:
    """Largest h >= 1 with C(h+m-1, m-1) <= n, by exhaustive scan; 1 if none."""
    feasible = [h for h in range(1, n + m + 2) if math.comb(h + m - 1, m - 1) <= n]
    return max(feasible) if feasible else 1


def unfr_oracle(A, sets) -> float:
    """Share of the union's unique front held by A's own unique front, with
    both fronts taken by the pairwise filter.  ``sets`` must include A."""
    union = [p for s in sets for p in s]
    union_front = {union[i] for i in front_indices(union)}
    mine = {A[i] for i in front_indices(A)}
    return len(mine & union_front) / len(union_front)


def grid_diversity_oracle(sets, divisions=10) -> list[float]:
    """Share of the union's occupied grid cells each set of tuples occupies,
    cell by cell: each objective's range over the union is split into
    ``divisions`` equal cells, its top edge in the last one and a zero range
    in cell 0."""
    union = [p for s in sets for p in s]
    lows = [min(column) for column in zip(*union)]
    highs = [max(column) for column in zip(*union)]

    def cell(point):
        index = []
        for v, lo, hi in zip(point, lows, highs):
            k = 0 if hi == lo else int((v - lo) / (hi - lo) * divisions)
            index.append(min(k, divisions - 1))
        return tuple(index)

    per_set = [{cell(p) for p in s} for s in sets]
    occupied = set().union(*per_set)
    return [len(cells) / len(occupied) for cells in per_set]


def _signs(A: SolutionSet) -> tuple[float, ...]:
    return A.signs if A.signs is not None else (1.0,) * A.m


def to_minimization_oracle(A: SolutionSet) -> SolutionSet:
    """Negate maximized objectives, row by row."""
    if A.signs is not None:
        raise ValueError(f"set {A.name!r} already carries an orientation transform")
    signs = tuple(
        -1.0 if o.direction is Direction.MAXIMIZE else 1.0 for o in A.meta
    )
    meta = tuple(
        ObjectiveMeta(o.name, Direction.MINIMIZE, o.units, o.hard_bounds)
        for o in A.meta
    )
    sols = tuple(
        Solution(
            tuple(s * v for s, v in zip(signs, sol.objectives)),
            id=sol.id,
            source=sol.source,
        )
        for sol in A.solutions
    )
    return SolutionSet(A.name, meta, sols, signs=signs)


def natural_values_oracle(A: SolutionSet) -> np.ndarray:
    """Invert :func:`to_minimization_oracle` row by row: each stored value
    times its objective's sign."""
    signs = _signs(A)
    rows = [[s * v for s, v in zip(signs, sol.objectives)] for sol in A.solutions]
    return np.array(rows, dtype=float).reshape(len(A), A.m)


def _satisfies(
    sol: Solution,
    rule: ClearConstraint,
    signs: Sequence[float],
    best_stored: float | None,
) -> bool:
    stored = sol.objectives[rule.objective]
    natural = signs[rule.objective] * stored
    if rule.kind == AT_LEAST:
        return natural >= rule.threshold  # type: ignore[operator]
    if rule.kind == AT_MOST:
        return natural <= rule.threshold  # type: ignore[operator]
    return stored == best_stored


def filter_by_rules_oracle(
    A: SolutionSet,
    rules: Sequence[ClearConstraint],
    log: list[Removal] | None,
) -> SolutionSet:
    """Rows passing every rule; each other row is logged with the first rule
    it violates."""
    signs = _signs(A)
    # Best stored value per exactly_best rule; stored orientation is
    # minimization, so "best" is always the minimum.
    best: dict[int, float | None] = {}
    for rule in rules:
        if rule.kind == EXACTLY_BEST:
            col = [s.objectives[rule.objective] for s in A.solutions]
            best[rule.objective] = min(col) if col else None
    keep: list[Solution] = []
    for idx, sol in enumerate(A.solutions):
        violated = None
        for rule in rules:
            if not _satisfies(sol, rule, signs, best.get(rule.objective)):
                violated = rule
                break
        if violated is None:
            keep.append(sol)
        elif log is not None:
            log.append(Removal(idx, sol, violated.describe(A.meta)))
    return SolutionSet(A.name, A.meta, keep, A.signs)


def apply_vague_preferences_oracle(
    A: SolutionSet,
    spec: PreferenceSpec,
    log: list[Removal] | None = None,
) -> SolutionSet:
    """Saturation clamps and hard floors, row by row and clamp by clamp."""
    if not spec.vague:
        return A
    signs = _signs(A)
    keep: list[Solution] = []
    for idx, sol in enumerate(A.solutions):
        vals = list(sol.objectives)
        discarded_by = None
        for clamp in spec.vague:
            j = clamp.objective
            natural = signs[j] * vals[j]
            maximize = signs[j] < 0
            floor = clamp.hard_floor
            short_of_floor = floor is not None and (
                natural < floor if maximize else natural > floor
            )
            if short_of_floor:
                discarded_by = clamp
                break
            beyond_saturation = (
                natural > clamp.saturation if maximize else natural < clamp.saturation
            )
            if beyond_saturation:
                vals[j] = signs[j] * clamp.saturation
        if discarded_by is None:
            keep.append(Solution(tuple(vals), id=sol.id, source=sol.source))
        elif log is not None:
            name = A.meta[discarded_by.objective].name
            log.append(
                Removal(idx, sol, f"{name} short of hard floor {discarded_by.hard_floor}")
            )
    if not keep and A.solutions:
        warnings.warn(
            f"vague clamps removed every solution of set {A.name!r}",
            EvaluationWarning,
            stacklevel=2,
        )
    return SolutionSet(A.name, A.meta, keep, A.signs)


def normalize_oracle(
    sets: Sequence[SolutionSet], bounds: NormalizationBounds
) -> list[SolutionSet]:
    """``(v - ideal) / (nadir - ideal)`` per objective, one row at a time."""
    if not sets:
        return []
    m = sets[0].m
    if len(bounds.ideal) != m:
        raise DimensionMismatchError("bounds do not match objective count")
    ideal = np.asarray(bounds.ideal)
    span = np.asarray(bounds.nadir) - ideal
    degenerate = span == 0
    if degenerate.any():
        names = [sets[0].meta[i].name for i in np.nonzero(degenerate)[0]]
        warnings.warn(
            f"degenerate normalization range on {', '.join(names)}; mapping to 0",
            EvaluationWarning,
            stacklevel=2,
        )
    out: list[SolutionSet] = []
    for s in sets:
        if s.m != m:
            raise DimensionMismatchError("sets disagree on objective count")
        vals = s.values()
        if len(s):
            scaled = np.where(degenerate, 0.0, (vals - ideal) / np.where(degenerate, 1.0, span))
            if ((scaled < 0) | (scaled > 1)).any():
                warnings.warn(
                    f"set {s.name!r} has values outside the normalization bounds",
                    EvaluationWarning,
                    stacklevel=2,
                )
        else:
            scaled = vals
        sols = tuple(
            Solution(tuple(row), id=orig.id, source=orig.source)
            for row, orig in zip(scaled.tolist(), s.solutions)
        )
        meta = tuple(
            ObjectiveMeta(o.name, Direction.MINIMIZE, units=None, hard_bounds=None)
            for o in s.meta
        )
        out.append(SolutionSet(s.name, meta, sols, signs=None))
    return out


def unique_front_oracle(A: SolutionSet) -> SolutionSet:
    """Pairwise front of ``A`` with the first occurrence of each vector kept."""
    sols = A.solutions
    front = [sols[i] for i in front_indices([s.objectives for s in sols])]
    seen: set[tuple[float, ...]] = set()
    keep: list[Solution] = []
    for s in front:
        if s.objectives not in seen:
            seen.add(s.objectives)
            keep.append(s)
    return SolutionSet(A.name, A.meta, keep, A.signs)


def build_reference_set_oracle(sets: Sequence[SolutionSet]) -> SolutionSet:
    """Unique front of the union, each row rebuilt with its source tag."""
    if not sets:
        raise EmptySetError("need at least one solution set")
    m = sets[0].m
    merged: list[Solution] = []
    for s in sets:
        if s.m != m:
            raise DimensionMismatchError("sets disagree on objective count")
        for sol in s.solutions:
            merged.append(
                Solution(
                    sol.objectives,
                    id=sol.id,
                    source=sol.source if sol.source is not None else s.name,
                )
            )
    if not merged:
        raise EmptySetError("cannot build a reference set from empty sets")
    union = SolutionSet("reference", sets[0].meta, tuple(merged), signs=sets[0].signs)
    return unique_front_oracle(union)


def load_solution_set_oracle(
    path, meta: Sequence[ObjectiveMeta], name: str | None = None
) -> SolutionSet:
    """One run file, line by line: the header names the objectives, with a
    leading ``id`` column only when ``id`` is followed by exactly the
    objective names; blank lines are skipped, every other line needs one
    cell per column, and each cell is read by ``float()`` and must be
    finite; a leading byte-order mark is not part of the header.  The first
    bad line in file order raises."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise SolutionFileError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise SolutionFileError(f"{path}:1: missing header row")
    header = [h.strip() for h in lines[0].split(",")]
    names = [o.name for o in meta]
    has_id = header == ["id", *names]
    if not has_id and header != names:
        shown = header[1:] if header[0] == "id" else header
        raise SolutionFileError(
            f"{path}:1: header {shown} does not match objectives {names}"
        )
    solutions = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise SolutionFileError(
                f"{path}:{lineno}: expected {len(header)} columns, found {len(cells)}"
            )
        values = []
        for col, cell in zip(names, cells[1:] if has_id else cells):
            try:
                values.append(float(cell))
            except ValueError:
                raise SolutionFileError(
                    f"{path}:{lineno}: column {col!r} has non-numeric value {cell!r}"
                ) from None
        for v in values:
            if not math.isfinite(v):
                raise SolutionFileError(
                    f"{path}:{lineno}: objective values must be finite, got {v!r}"
                )
        solutions.append(Solution(tuple(values), id=cells[0] if has_id else None))
    if not solutions:
        message = f"{path} contains a header but no solutions"
        warnings.warn(message, EvaluationWarning, stacklevel=2)
    return SolutionSet(name or path.stem, tuple(meta), tuple(solutions))


def report_text(value) -> str:
    """A report's file text: the whole value rendered in one call, keys
    sorted, two-space indent, and a final newline."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"
