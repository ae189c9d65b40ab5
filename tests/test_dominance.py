"""Every dominance consumer against its pairwise-loop oracle.

Inputs are real-valued, of random size and dimension, with exact duplicates
(within and across sets), coordinate ties and shifted copies that are
strictly dominated.  Each property also runs with a tiny block cap, so the
kernel splits both operands into many blocks and the sort-based front takes
its m >= 4 rows in many chunks.  The dominated-by query and the front also
run with a tiny recursion cutoff, so the m >= 4 split recurses on small
inputs.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from paretoeval import (
    ObjectiveMeta,
    Solution,
    SolutionSet,
    contribution,
    coverage,
    nondominated_front,
    set_dominates,
    set_weakly_dominates,
)
from paretoeval import core
from conftest import kernel_settings, make_set
import oracles


def _points(rng, m, n, pool):
    """n rows: random, then some rows replaced by exact copies of, or strictly
    worse shifts of, rows from ``pool`` or from the new rows themselves."""
    X = rng.normal(size=(n, m)) * rng.choice([0.1, 1.0, 100.0])
    ties = rng.random((n, m)) < 0.3
    X[ties] = np.round(X[ties])
    pool = np.vstack([pool, X])
    if n:
        twins = rng.random(n) < 0.2
        X[twins] = pool[rng.integers(len(pool), size=twins.sum())]
        worse = rng.random(n) < 0.2
        shift = rng.random((worse.sum(), m)) * (rng.random((worse.sum(), m)) < 0.5)
        X[worse] = pool[rng.integers(len(pool), size=worse.sum())] + shift
    return [tuple(row) for row in X.tolist()]


@st.composite
def point_lists(draw, count, min_size=1):
    """``count`` lists of m-vectors, sharing duplicates and ties between them."""
    m = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lists: list[list[tuple[float, ...]]] = []
    for _ in range(count):
        pool = np.array([p for ps in lists for p in ps]).reshape(-1, m)
        lists.append(_points(rng, m, draw(st.integers(min_size, 200)), pool))
    return [_set(name, points, m) for name, points in zip("AB", lists)], lists


def _set(name, points, m):
    meta = tuple(ObjectiveMeta(f"f{i + 1}") for i in range(m))
    return SolutionSet(name, meta, tuple(Solution(p) for p in points))


@kernel_settings
@given(drawn=point_lists(1))
def test_front_matches_oracle(block_pairs, drawn):
    (A,), (points,) = drawn
    kept = [s.objectives for s in nondominated_front(A).solutions]
    assert kept == [points[i] for i in oracles.front_indices(points)]


@st.composite
def front_arrays(draw):
    """One ``(n, m)`` array, m in 2..6, built to stress the sort-based front:
    integer-grid or real rows, or rows on a plane (all mutually
    nondominated); a coarse first objective, so rows share it in groups;
    duplicated rows; and zeros of either sign, so equal rows can differ in
    their sign bits."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "real", "plane"]))
    if kind == "grid":
        V = rng.integers(-2, 3, size=(n, m)).astype(float)
    else:
        V = rng.normal(size=(n, m))
        if kind == "plane":
            V[:, -1] = -V[:, :-1].sum(axis=1)
        ties = rng.random((n, m)) < 0.2
        V[ties] = np.round(V[ties])
    V[:, 0] = np.round(V[:, 0] * draw(st.sampled_from([1.0, 4.0])))
    if n:
        twins = rng.random(n) < 0.2
        V[twins] = V[rng.integers(n, size=twins.sum())]
    V[(V == 0) & (rng.random((n, m)) < 0.5)] = -0.0
    return V


@kernel_settings
@given(V=front_arrays(), data=st.data())
def test_dominated_by_matches_oracle(block_pairs, split_rows, V, data):
    # F and X split one drawn array, so twins, ties and zeros of either sign
    # fall across them; either may be empty.
    cut = data.draw(st.integers(0, len(V)))
    F, X = V[:cut], V[cut:]
    for weak in (False, True):
        expected = oracles.dominated_by_oracle(F.tolist(), X.tolist(), weak)
        assert core._dominated_by(F, X, weak).tolist() == expected
    assert (core._front_mask(V) == oracles.kernel_front_mask(V)).all()


@kernel_settings
@given(V=front_arrays())
def test_front_mask_matches_kernel_oracle(block_pairs, V):
    assert (core._front_mask(V) == oracles.kernel_front_mask(V)).all()


@kernel_settings
@given(V=st.one_of(point_lists(1).map(lambda d: np.array(d[1][0])), front_arrays()))
def test_front_points_match_oracle(block_pairs, V):
    points = [tuple(row) for row in V.tolist()]
    # Bytes, not values: the first occurrence of each duplicate is kept, sign
    # bits of zeros included, in input order.
    expected = np.array(oracles.front_points_oracle(points)).reshape(-1, V.shape[1])
    assert V[core._front_mask(V, unique=True)].tobytes() == expected.tobytes()


@kernel_settings
@given(drawn=point_lists(2, min_size=0))
def test_set_dominance_matches_oracle(block_pairs, drawn):
    (A, B), (a, b) = drawn
    if b:
        assert set_dominates(A, B) == all(
            any(oracles.strictly_dom(x, y) for x in a) for y in b
        )
        assert set_weakly_dominates(A, B) == all(
            any(oracles.weakly_dom(x, y) for x in a) for y in b
        )
    if a:
        assert set_weakly_dominates(B, A) == all(
            any(oracles.weakly_dom(y, x) for y in b) for x in a
        )


@kernel_settings
@given(drawn=point_lists(2, min_size=0))
def test_contribution_matches_oracle(block_pairs, drawn):
    (A, B), (a, b) = drawn
    if a or b:
        assert contribution(A, B) == oracles.contribution_oracle(a, b)
        assert contribution(B, A) == oracles.contribution_oracle(b, a)


@kernel_settings
@given(drawn=point_lists(2))
def test_coverage_matches_oracle(block_pairs, drawn):
    (A, B), (a, b) = drawn
    assert coverage(A, B) == oracles.coverage_oracle(a, b)
    assert coverage(B, A) == oracles.coverage_oracle(b, a)


def test_front_memory_is_bounded():
    # The peak stays within 16 MB, about 200 bytes a row at 8e4 rows: the
    # sweeps for m=2 and m=3 hold a few columns and lists, never a mask of
    # row pairs.
    for n, m in [(4000, 3), (80_000, 2), (80_000, 3)]:
        A = make_set("A", np.random.default_rng(0).random((n, m)).tolist())
        tracemalloc.start()
        try:
            front = nondominated_front(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < len(front) < len(A)
        assert peak < 16e6, (n, m)


def test_dominated_by_memory_is_bounded():
    # The same 16 MB at 8e4 rows for m=4 and m=5: the chunked front and the
    # split hold a few copies of the rows, never a mask of row pairs (one
    # over all 8e4 x 8e4 pairs would take 6.4 GB).
    for m in (4, 5):
        V = np.random.default_rng(0).random((80_000, m))
        F, X = V[:40_000], V[40_000:]
        for query in (lambda: core._front_mask(V), lambda: core._dominated_by(F, X)):
            tracemalloc.start()
            try:
                mask = query()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert 0 < mask.sum() < len(mask)
            assert peak < 16e6, m
