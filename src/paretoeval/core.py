"""Domain types, set dominance and nondominated fronts over objective vectors.

All comparisons in this module assume minimization orientation: lower is
better on every objective.  Data recorded for maximization objectives is
converted upstream (see ``preprocess.to_minimization``); the conversion is
recorded on the set so reports can restore natural units.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Direction",
    "DimensionMismatchError",
    "EmptySetError",
    "EvaluationWarning",
    "ObjectiveMeta",
    "Solution",
    "SolutionSet",
    "set_dominates",
    "nondominated_front",
    "unique_nondominated_front",
]


class Direction(str, Enum):
    """Natural optimization direction of one objective."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class DimensionMismatchError(ValueError):
    """Raised when vectors or sets disagree on objective count."""


class EmptySetError(ValueError):
    """Raised when an operation is undefined over an empty solution set."""


class EvaluationWarning(UserWarning):
    """Non-fatal data or configuration condition worth surfacing."""


@dataclass(frozen=True)
class ObjectiveMeta:
    """Name, direction, and optional units/bounds of one objective.

    ``hard_bounds`` are stated in natural units, ``(lower, upper)`` with
    ``lower < upper``, regardless of direction.
    """

    name: str
    direction: Direction = Direction.MINIMIZE
    units: str | None = None
    hard_bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("objective name must be non-empty")
        object.__setattr__(self, "direction", Direction(self.direction))
        if self.hard_bounds is not None:
            lo, hi = (float(self.hard_bounds[0]), float(self.hard_bounds[1]))
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"hard_bounds of {self.name!r} must be finite")
            if not lo < hi:
                raise ValueError(
                    f"hard_bounds of {self.name!r} need lower < upper, got ({lo}, {hi})"
                )
            object.__setattr__(self, "hard_bounds", (lo, hi))


@dataclass(frozen=True)
class Solution:
    """One objective vector with an optional identifier and source tag."""

    objectives: tuple[float, ...]
    id: str | None = None
    source: str | None = None

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.objectives)
        if not vals:
            raise ValueError("a solution needs at least one objective value")
        for v in vals:
            if not math.isfinite(v):
                raise ValueError(f"objective values must be finite, got {v!r}")
        object.__setattr__(self, "objectives", vals)

    def __len__(self) -> int:
        return len(self.objectives)


@dataclass(frozen=True, eq=False, init=False)
class SolutionSet:
    """A named multiset of solutions sharing one objective space.

    The stored (minimization-oriented) values are kept once, as one read-only
    float array of shape ``(n, m)``, with one id and one source per row;
    ``solutions`` is a row view built on first read.  Sets compare by
    identity.  ``signs`` records an orientation transform applied to the
    stored values: ``natural_value = signs[i] * stored_value`` per objective.
    ``None`` means the stored values are already natural (all-minimize data).
    """

    name: str
    meta: tuple[ObjectiveMeta, ...]
    signs: tuple[float, ...] | None

    def __init__(
        self,
        name: str,
        meta: Sequence[ObjectiveMeta],
        solutions: Sequence[Solution] = (),
        signs: Sequence[float] | None = None,
    ) -> None:
        rows = tuple(solutions)
        for s in rows:
            if len(s) != len(meta):
                raise DimensionMismatchError(
                    f"set {name!r} declares {len(meta)} objectives but a solution has {len(s)}"
                )
        values = [s.objectives for s in rows]
        ids, sources = [s.id for s in rows], [s.source for s in rows]
        self._store(name, meta, values, ids, sources, signs)
        self.__dict__["_rows"] = rows

    def _store(self, name, meta, values, ids, sources, signs) -> None:
        """Check and set the whole state; the dataclass is frozen, so the
        writes go through ``__dict__``."""
        if not name:
            raise ValueError("solution set name must be non-empty")
        meta = tuple(meta)
        if not meta:
            raise ValueError("solution set needs at least one objective")
        values = np.array(values, dtype=float).reshape(len(values), len(meta))
        if not np.isfinite(values).all():
            raise ValueError("objective values must be finite")
        if signs is not None:
            signs = tuple(float(s) for s in signs)
            if len(signs) != len(meta):
                raise DimensionMismatchError("signs length must match objective count")
            if any(s not in (1.0, -1.0) for s in signs):
                raise ValueError("signs entries must be +1 or -1")
        values.flags.writeable = False
        n = len(values)
        ids = tuple(ids) if ids is not None else (None,) * n
        sources = tuple(sources) if sources is not None else (None,) * n
        if len(ids) != n or len(sources) != n:
            raise ValueError(f"{n} rows, {len(ids)} ids and {len(sources)} sources")
        self.__dict__.update(
            name=name,
            meta=meta,
            signs=signs,
            _values=values,
            _ids=ids,
            _sources=sources,
            _rows=None,
        )

    @classmethod
    def _from_array(
        cls, name, meta, values, ids=None, sources=None, signs=None
    ) -> "SolutionSet":
        """A set over a copy of the ``(n, m)`` array ``values``; ids and
        sources default to ``None`` on every row."""
        out = cls.__new__(cls)
        out._store(name, meta, values, ids, sources, signs)
        return out

    def _select(self, rows=None, values=None, meta=None, signs=None) -> "SolutionSet":
        """The rows picked by a mask, index list or slice, in their order;
        every row, its tags passed through, without ``rows``.

        ``values`` replaces the stored values (same row count) before the
        pick.  ``meta`` and ``signs`` travel together: without ``meta`` both
        are kept, with it ``signs`` is taken as given.
        """
        values = self._values if values is None else values
        ids, sources = self._ids, self._sources
        if rows is not None:
            picked = np.arange(len(self))[rows].tolist()
            values = values[rows]
            ids = [ids[i] for i in picked]
            sources = [sources[i] for i in picked]
        if meta is None:
            meta, signs = self.meta, self.signs
        return SolutionSet._from_array(self.name, meta, values, ids, sources, signs)

    @classmethod
    def _concat(cls, sets: Sequence["SolutionSet"], name: str) -> "SolutionSet":
        """All rows of ``sets`` in order, under the first set's metadata and
        orientation; rows without a source are tagged with their set's name."""
        if any(s.m != sets[0].m for s in sets):
            raise DimensionMismatchError("sets disagree on objective count")
        return cls._from_array(
            name,
            sets[0].meta,
            np.concatenate([s._values for s in sets]),
            [i for s in sets for i in s._ids],
            [src if src is not None else s.name for s in sets for src in s._sources],
            sets[0].signs,
        )

    @property
    def solutions(self) -> tuple[Solution, ...]:
        if self._rows is None:
            self.__dict__["_rows"] = tuple(
                Solution(tuple(v), id=i, source=src)
                for v, i, src in zip(self._values.tolist(), self._ids, self._sources)
            )
        return self._rows

    @property
    def m(self) -> int:
        return len(self.meta)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)

    def values(self) -> np.ndarray:
        """Stored (minimization-oriented) values, shape ``(n, m)``, read-only."""
        return self._values

    def natural_values(self) -> np.ndarray:
        """Values in natural units/direction, shape ``(n, m)``."""
        return self._values if self.signs is None else self._values * self.signs


# Cap on the row pairs one block of ``_dominance`` or ``_nearest`` compares,
# which bounds their temporaries to a few times ``_BLOCK_PAIRS * m`` bytes at
# any input size.
_BLOCK_PAIRS = 1 << 16


def _dominance(X: np.ndarray, Y: np.ndarray, weak: bool = False) -> np.ndarray:
    """Which rows of the ``(k, m)`` array ``Y`` some row of the ``(n, m)``
    array ``X`` dominates, by comparing every pair, ``_BLOCK_PAIRS`` at a
    time.  ``weak`` asks for weak dominance; otherwise equal rows do not
    dominate."""
    y_any = np.zeros(len(Y), dtype=bool)
    cols = max(1, min(len(Y), _BLOCK_PAIRS))
    rows = max(1, _BLOCK_PAIRS // cols)
    for i in range(0, len(X), rows):
        xs = X[i : i + rows]
        for j in range(0, len(Y), cols):
            ys = Y[j : j + cols]
            # One objective at a time: 2-D temporaries only, no (rows, cols, m).
            le = np.ones((len(xs), len(ys)), dtype=bool)
            lt = np.full_like(le, weak)
            for a, b in zip(xs.T, ys.T):
                le &= a[:, None] <= b
                if not weak:
                    lt |= a[:, None] < b
            y_any[j : j + cols] |= (le & lt).any(axis=0)
    return y_any


def _chain(first, terms):
    """``first`` followed by ``terms``, combined one at a time, in order."""
    for k in terms:
        first = (first, k)
    return first


def _sum_order(lo: int, n: int):
    """The order in which numpy's ``add.reduce`` sums the ``n`` terms from
    index ``lo`` of a contiguous axis (its ``pairwise_sum``): a term index,
    or a pair ``(left, right)`` summed as ``left + right``.

    Fewer than 8 terms are summed in sequence.  Up to 128 go to eight
    interleaved accumulators, combined as a tree, then the leftover terms
    follow in sequence.  More are split in halves of a multiple of 8.
    """
    if n < 8:
        return _chain(lo, range(lo + 1, lo + n))
    if n <= 128:
        full = lo + n - n % 8
        r = [_chain(j, range(j + 8, full, 8)) for j in range(lo, lo + 8)]
        tree = ((r[0], r[1]), (r[2], r[3])), ((r[4], r[5]), (r[6], r[7]))
        return _chain(tree, range(full, lo + n))
    half = n // 2 - n // 2 % 8
    return _sum_order(lo, half), _sum_order(lo + half, n - half)


def _steps(order, reg: int = 0) -> list[tuple[int | None, int]]:
    """``order`` as steps on numbered buffers that leave its value in buffer
    ``reg``: ``(k, r)`` writes term k to buffer r and ``(None, r)`` combines
    buffer r + 1 into buffer r."""
    if isinstance(order, int):
        return [(order, reg)]
    left, right = order
    return _steps(left, reg) + _steps(right, reg + 1) + [(None, reg)]


def _nearest(
    X: np.ndarray, Y: np.ndarray, metric: str, skip_self: bool = False
) -> np.ndarray:
    """For each row of an ``(n, m)`` array, its least distance to the rows
    of a ``(k, m)`` array, without holding all ``n * k`` distances.

    ``metric`` names the distance from a row x to a row y: ``"euclidean"``,
    the 2-norm of x - y; ``"shortfall"``, the 2-norm of max(x - y, 0);
    ``"l1"``, the 1-norm of x - y; and ``"epsilon"``, max_i (x_i - y_i).
    ``skip_self`` leaves out the pair of each row with itself, for ``Y`` the
    same array as ``X``.

    Blocks of at most ``_BLOCK_PAIRS`` pairs are filled one objective at a
    time into preallocated 2-D buffers, so no ``(rows, cols, m)`` array
    exists.  The results equal, bit for bit, those of the ``(n, k, m)``
    array of differences: a pair's terms are summed in the order numpy's
    ``sum`` over a last axis of length m uses, and the square root is taken
    of the minima.  Only the sign of a zero epsilon may differ.
    """
    n, k, m = len(X), len(Y), X.shape[1]
    epsilon = metric == "epsilon"
    fold = np.maximum if epsilon else np.add
    steps = _steps(_chain(0, range(1, m)) if epsilon else _sum_order(0, m))
    cols = max(1, min(k, _BLOCK_PAIRS))
    rows = max(1, min(n, _BLOCK_PAIRS // cols))
    buffers = [np.empty(rows * cols) for _ in range(max(r for _, r in steps) + 1)]
    row_min = np.full(n, np.inf)
    # Each objective as one contiguous row, which every block reads from.
    XT, YT = np.ascontiguousarray(X.T), np.ascontiguousarray(Y.T)
    for i in range(0, n, rows):
        xs = XT[:, i : i + rows]
        for j in range(0, k, cols):
            ys = YT[:, j : j + cols]
            shape = (xs.shape[1], ys.shape[1])
            buf = [b[: shape[0] * shape[1]].reshape(shape) for b in buffers]
            for t, r in steps:
                if t is None:
                    fold(buf[r], buf[r + 1], out=buf[r])
                    continue
                np.subtract.outer(xs[t], ys[t], out=buf[r])
                if metric == "shortfall":
                    np.maximum(buf[r], 0.0, out=buf[r])
                if metric == "l1":
                    np.abs(buf[r], out=buf[r])
                elif not epsilon:
                    np.multiply(buf[r], buf[r], out=buf[r])
            d = buf[0]
            if skip_self:
                p = np.arange(max(i, j), min(i + shape[0], j + shape[1]))
                d[p - i, p - j] = np.inf
            np.minimum(row_min[i : i + rows], d.min(axis=1), out=row_min[i : i + rows])
    if metric in ("euclidean", "shortfall"):
        np.sqrt(row_min, out=row_min)
    return row_min


# Rows up to which ``_split`` compares every pair through ``_dominance``
# instead of splitting them further.  Of 64 to 1024, 256 was within 20% of
# the fastest on m=4 and m=5 fronts and set comparisons of 850 to 5000 rows.
_SPLIT_ROWS = 256


def _dominated_by(F: np.ndarray, X: np.ndarray, weak: bool = False) -> np.ndarray:
    """Which rows of the ``(k, m)`` array ``X`` some row of the ``(n, m)``
    array ``F`` dominates; ``weak`` asks for weak dominance, under which an
    equal row counts.

    The method follows ``m``: for m <= 2 a binary search in ``F`` sorted on
    its first objective, with a running minimum of the last; for m >= 3 one
    lexicographic sort of both arrays, in which an ``F`` row equal to an
    ``X`` row goes first only when it counts, so that a row of ``X`` is
    dominated exactly when an earlier row of ``F`` weakly dominates it.
    Then a staircase sweep (m=3) or a split on the first objective (m >= 4,
    see ``_split``, which compares every pair up to ``_SPLIT_ROWS`` rows)
    finds those rows.
    """
    m = X.shape[1]
    if not len(F) or not len(X):
        return np.zeros(len(X), dtype=bool)
    if m <= 2:
        return _dominated_by2(F, X, weak)
    is_x = np.arange(len(F) + len(X)) >= len(F)
    V = np.concatenate([F, X])
    order = np.lexsort((is_x == weak, *V.T[::-1]))
    S, is_x = V[order], is_x[order]
    mask = np.empty(len(X), dtype=bool)
    mask[order[is_x] - len(F)] = (
        _sweep3(S, ~is_x)[is_x] if m == 3 else _split(S, is_x, weak)
    )
    return mask


def _dominated_by2(F: np.ndarray, X: np.ndarray, weak: bool) -> np.ndarray:
    """``_dominated_by`` for m <= 2.  A row (x, y) is weakly dominated when
    the rows of ``F`` with first objective at most x reach y or below in the
    last objective; strictly, when they reach below y, or those below x
    reach y.  With one objective, x and y are the same column."""
    order = np.argsort(F[:, 0])
    first = F[order, 0]
    low = np.empty(len(F) + 1)  # low[i]: least last objective of the i first rows
    low[0] = math.inf
    np.minimum.accumulate(F[order, -1], out=low[1:])
    x, y = X[:, 0], X[:, -1]
    upto = low[np.searchsorted(first, x, side="right")]
    if weak:
        return upto <= y
    return (upto < y) | (low[np.searchsorted(first, x, side="left")] <= y)


def _sweep3(S: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Which of the lexicographically sorted 3-column rows an earlier
    ``src`` row weakly dominates.

    ``ys``/``zs`` hold the staircase of the ``src`` rows so far in the last
    two objectives (y ascending, z descending), closed by an ``(inf, -inf)``
    sentinel.  An earlier row is no greater in the first objective, so it
    weakly dominates the current row exactly when some step lies weakly
    below it in the other two (Kung, Luccio & Preparata 1975).
    """
    hit: list[bool] = []
    ys, zs = [math.inf], [-math.inf]
    for y, z, s in zip(S[:, 1].tolist(), S[:, 2].tolist(), src.tolist()):
        i = bisect_right(ys, y)
        covered = i > 0 and zs[i - 1] <= z
        hit.append(covered)
        if s and not covered:
            # Steps j to k - 1 lie weakly above (y, z) and leave the staircase.
            j = k = bisect_left(ys, y, 0, i)
            while zs[k] >= z:
                k += 1
            ys[j:k] = [y]
            zs[j:k] = [z]
    return np.array(hit, dtype=bool)


def _split(S: np.ndarray, is_x: np.ndarray, weak: bool) -> np.ndarray:
    """``_dominated_by`` for m >= 4 over its sorted rows, by divide and
    conquer (Kung, Luccio & Preparata 1975; Jensen 2003): the mask over the
    ``is_x`` rows of ``S``, in their order.

    Up to ``_SPLIT_ROWS`` rows, every pair is compared.  Otherwise each half
    of the rows is solved alone, then the open ``X`` rows of the second half
    against the ``F`` rows of the first.  Those lie weakly below them in the
    first objective, and an ``F`` row that must not count sorts after its
    twin, so that step is a weak query on the other objectives, one column
    fewer (ties as in Fortin, Grenier & Parizeau 2013).
    """
    if len(S) <= _SPLIT_ROWS:
        return _dominance(S[~is_x], S[is_x], weak)
    h = len(S) // 2
    low, high = _split(S[:h], is_x[:h], weak), _split(S[h:], is_x[h:], weak)
    open_ = np.flatnonzero(~high)
    X = S[h:][is_x[h:]]
    high[open_] = _dominated_by(S[:h][~is_x[:h], 1:], X[open_, 1:], weak=True)
    return np.concatenate([low, high])


def _front_hits(S: np.ndarray) -> np.ndarray:
    """Which of the lexicographically sorted rows of ``S`` (m >= 4) another
    row dominates.

    Only an earlier row can, so the rows go in chunks: each chunk against
    the front of the chunks before it by ``_dominated_by``, then its open
    rows against each other.  A chunk is as long as that front, and at
    least ``isqrt(_BLOCK_PAIRS // 4)`` rows, whose self-comparison a quarter
    of ``_BLOCK_PAIRS`` bounds: a short front costs one pass of
    ``_dominance`` per chunk, a long one few chunks.
    """
    least = max(1, math.isqrt(_BLOCK_PAIRS // 4))
    if len(S) <= least:
        return _dominance(S, S)
    hit = np.zeros(len(S), dtype=bool)
    front = S[:0]
    i = 0
    while i < len(S):
        chunk = S[i : i + max(least, len(front))]
        alive = ~_dominated_by(front, chunk)
        alive[alive] = ~_front_hits(chunk[alive])
        hit[i : i + len(chunk)] = ~alive
        front = np.concatenate([front, chunk[alive]])
        i += len(chunk)
    return hit


def _lex_sorted(V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, V[order], repeat)``: the stable lexicographic order of the
    rows, so tied rows (``-0.0`` against ``0.0`` included) keep their input
    order, the sorted rows, and which sorted rows equal the row before."""
    order = np.lexsort(V.T[::-1])
    S = V[order]
    repeat = np.zeros(len(S), dtype=bool)
    repeat[1:] = (S[1:] == S[:-1]).all(axis=1)
    return order, S, repeat


def _row_counts(
    first: np.ndarray, second: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(group, in_first, in_second)`` for the distinct rows of two
    ``(n, m)`` arrays taken together, ``-0.0`` equal to ``0.0``: the
    distinct row of each row of ``first`` then ``second``, numbered in
    lexicographic order, and how often each distinct row occurs in each."""
    order, _, repeat = _lex_sorted(np.concatenate([first, second]))
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(~repeat) - 1
    distinct, n = int(np.count_nonzero(~repeat)), len(first)
    return (
        group,
        np.bincount(group[:n], minlength=distinct),
        np.bincount(group[n:], minlength=distinct),
    )


def _front_mask(V: np.ndarray, unique: bool = False) -> np.ndarray:
    """Which rows of the ``(n, m)`` array ``V`` no other row dominates.

    The mask is in input order and keeps exact duplicates, which do not
    dominate each other; ``unique`` keeps only the first occurrence of each.
    A row can be dominated only by a row before it in lexicographic order,
    so the rows are sorted once and the method follows ``m``: the m <= 2
    query of ``_dominated_by`` of the rows against themselves, its
    staircase sweep for m=3, and for m >= 4 chunks of rows, each checked
    against the front before it by ``_dominated_by`` (see ``_front_hits``).
    """
    order, S, repeat = _lex_sorted(V)
    if V.shape[1] <= 2:
        keep = ~_dominated_by2(S, S, weak=False)
    elif V.shape[1] == 3:
        # Only the last of equal rows joins the staircase, so none counts
        # against its twins.
        last = np.ones(len(S), dtype=bool)
        last[:-1] = ~repeat[1:]
        keep = ~_sweep3(S, last)
    else:
        keep = ~_front_hits(S)
    if unique:
        keep &= ~repeat
    mask = np.empty(len(V), dtype=bool)
    mask[order] = keep
    return mask


def _limit_front_masks(L: np.ndarray) -> np.ndarray:
    """Unique-front masks of a stack of sets, the limit sets of one block of
    WFG rows, in one pass.

    Set t of the ``(b, n, m)`` array ``L`` is the rows ``L[t, t:]``.  Entry
    ``[t, j]`` of the ``(b, n)`` result, for j >= t, equals
    ``_front_mask(L[t, t:], unique=True)[j - t]``: row j is kept when no row
    p >= t dominates it and no earlier row t <= p < j equals it.  Entries
    j < t are False.  Temporaries are ``(b, n, n)``, one objective at a time.
    """
    b, n, _ = L.shape
    le = np.ones((b, n, n), dtype=bool)  # [t, p, j]: row p <= row j everywhere
    lt = np.zeros_like(le)  # and < somewhere
    for col in np.moveaxis(L, 2, 0):
        le &= col[:, :, None] <= col[:, None, :]
        lt |= col[:, :, None] < col[:, None, :]
    p = np.arange(n)
    member = p >= np.arange(b)[:, None]
    # Row p knocks out row j when it dominates j or is an earlier equal row.
    knocked = le & (lt | (p[:, None] < p)) & member[:, :, None]
    return member & ~knocked.any(axis=1)


# Rows per head of ``_sparse_front_mask``, and the share of the rows decided
# past which its heads stop.
_HEAD_ROWS = 32
_HANDOFF_SHARE = 0.25


def _sparse_front_mask(V: np.ndarray) -> np.ndarray:
    """``_front_mask(V, unique=True)`` at a cost that follows the front, for
    sets that keep few of their rows, such as large WFG limit sets.

    A row never has a larger float sum than a row it weakly dominates, and
    equal rows have equal sums, so the rows are taken in a stable order by
    sum, ``_HEAD_ROWS`` at a time.  Each head drops every later row that one
    of its rows weakly dominates: such a row is dominated, or repeats an
    earlier row.  The heads and the rows left standing then hold the whole
    unique front, and ``_front_mask`` cuts it from them.  The heads stop
    once they pass ``_HANDOFF_SHARE`` of the rows decided, so a set that is
    mostly front costs about one head more than ``_front_mask``.
    """
    order = np.argsort(V.sum(axis=1), kind="stable")
    S = V[order]
    heads, rest = order[:0], np.arange(len(S))  # positions in S
    while len(rest) and len(heads) <= _HANDOFF_SHARE * (len(S) - len(rest)):
        head, rest = rest[:_HEAD_ROWS], rest[_HEAD_ROWS:]
        heads = np.concatenate([heads, head])
        rest = rest[~_dominance(S[head], S[rest], weak=True)]
    # Positions stay ascending, so equal rows keep their input order.
    rows = order[np.concatenate([heads, rest])]
    mask = np.zeros(len(V), dtype=bool)
    mask[rows[_front_mask(V[rows], unique=True)]] = True
    return mask


def _check_sets(first: SolutionSet, second: SolutionSet) -> None:
    if first.m != second.m:
        raise DimensionMismatchError(
            f"sets {first.name!r} and {second.name!r} disagree on objective count "
            f"({first.m} vs {second.m})"
        )


def set_dominates(first: SolutionSet, second: SolutionSet) -> bool:
    """True if every member of ``second`` is dominated by some member of ``first``.

    One ``_dominated_by`` query: a binary search for m <= 2, a staircase
    sweep for m=3 and a split on the first objective for m >= 4.
    """
    _check_sets(first, second)
    if not len(second):
        raise EmptySetError("set dominance against an empty set is undefined")
    return bool(_dominated_by(first.values(), second.values()).all())


def nondominated_front(A: SolutionSet) -> SolutionSet:
    """Members of ``A`` not dominated by any other member.

    Input order is preserved and exact duplicates are retained (duplicates do
    not dominate each other).
    """
    return A._select(_front_mask(A.values()))


def unique_nondominated_front(A: SolutionSet) -> SolutionSet:
    """Nondominated front with exact duplicate vectors collapsed.

    The first occurrence of each duplicated vector is kept.
    """
    return A._select(_front_mask(A.values(), unique=True))
