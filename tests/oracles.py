"""Independent reference implementations used to validate the package.

Everything here is written with plain loops and a deliberately different
algorithmic approach from the library (cell counting and Monte-Carlo
sampling instead of dimension sweep, pairwise scans instead of vectorized
masks) so agreement between the two is meaningful evidence.  The slicer is
the slower exact hypervolume the library's sweeps and WFG replaced.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import product

import numpy as np

from paretoeval.indicators import _front_points


def weakly_dom(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def strictly_dom(a, b) -> bool:
    return weakly_dom(a, b) and any(x < y for x, y in zip(a, b))


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
        vol = 0.0
        for x, y in sorted(points):
            if y < best_y:
                vol += (ref[0] - x) * (best_y - y)
                best_y = y
        return vol
    ordered = sorted(points, key=lambda p: p[-1])
    total = 0.0
    for i, p in enumerate(ordered):
        depth = (ordered[i + 1][-1] if i + 1 < len(ordered) else ref[-1]) - p[-1]
        if depth == 0:
            continue
        slab = _front_points([q[:-1] for q in ordered[: i + 1]])
        total += hv_slicer_oracle(slab, ref[:-1]) * depth
    return total


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
