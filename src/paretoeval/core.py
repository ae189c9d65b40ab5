"""Domain types and Pareto dominance relations over objective vectors.

All comparisons in this module assume minimization orientation: lower is
better on every objective.  Data recorded for maximization objectives is
converted upstream (see ``preprocess.to_minimization``); the conversion is
recorded on the set so reports can restore natural units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence, Union

import numpy as np

__all__ = [
    "Direction",
    "DominanceOutcome",
    "SetRelation",
    "DimensionMismatchError",
    "EmptySetError",
    "EvaluationWarning",
    "ObjectiveMeta",
    "Solution",
    "SolutionSet",
    "weakly_dominates",
    "dominates",
    "compare",
    "set_dominates",
    "set_weakly_dominates",
    "better_relation",
    "nondominated_front",
    "unique_nondominated_front",
]


class Direction(str, Enum):
    """Natural optimization direction of one objective."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class DominanceOutcome(Enum):
    """Pairwise dominance verdict for two equal-length vectors."""

    FIRST_DOMINATES = "first_dominates"
    SECOND_DOMINATES = "second_dominates"
    INCOMPARABLE = "incomparable"
    EQUAL = "equal"


class SetRelation(Enum):
    """Set-level verdict derived from mutual weak set-dominance."""

    FIRST_BETTER = "first_better"
    SECOND_BETTER = "second_better"
    INCOMPARABLE = "incomparable"
    EQUIVALENT = "equivalent"


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


# Anything accepted where a point is expected: a Solution or a plain vector.
Vector = Union[Solution, Sequence[float]]


def _vec(x: Vector) -> tuple[float, ...]:
    if isinstance(x, Solution):
        return x.objectives
    return tuple(float(v) for v in x)


@dataclass(frozen=True)
class SolutionSet:
    """A named multiset of solutions sharing one objective space.

    ``signs`` records an orientation transform applied to the stored values:
    ``natural_value = signs[i] * stored_value`` per objective.  ``None`` means
    the stored values are already natural (all-minimize data).
    """

    name: str
    meta: tuple[ObjectiveMeta, ...]
    solutions: tuple[Solution, ...] = ()
    signs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("solution set name must be non-empty")
        meta = tuple(self.meta)
        if not meta:
            raise ValueError("solution set needs at least one objective")
        sols = tuple(self.solutions)
        m = len(meta)
        for s in sols:
            if len(s) != m:
                raise DimensionMismatchError(
                    f"set {self.name!r} declares {m} objectives but a solution has {len(s)}"
                )
        object.__setattr__(self, "meta", meta)
        object.__setattr__(self, "solutions", sols)
        if self.signs is not None:
            signs = tuple(float(s) for s in self.signs)
            if len(signs) != m:
                raise DimensionMismatchError("signs length must match objective count")
            if any(s not in (1.0, -1.0) for s in signs):
                raise ValueError("signs entries must be +1 or -1")
            object.__setattr__(self, "signs", signs)

    @property
    def m(self) -> int:
        return len(self.meta)

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)

    def values(self) -> np.ndarray:
        """Stored (minimization-oriented) values, shape ``(n, m)``."""
        if not self.solutions:
            return np.empty((0, self.m))
        return np.array([s.objectives for s in self.solutions], dtype=float)

    def natural_values(self) -> np.ndarray:
        """Values in natural units/direction, shape ``(n, m)``."""
        v = self.values()
        if self.signs is None:
            return v
        return v * np.asarray(self.signs)

    def vectors(self) -> list[tuple[float, ...]]:
        return [s.objectives for s in self.solutions]

    def with_solutions(
        self, solutions: Sequence[Solution], name: str | None = None
    ) -> "SolutionSet":
        """Same metadata and orientation, different members."""
        return SolutionSet(
            name=name if name is not None else self.name,
            meta=self.meta,
            solutions=tuple(solutions),
            signs=self.signs,
        )


def _check_pair(a: Vector, b: Vector) -> tuple[tuple[float, ...], tuple[float, ...]]:
    va, vb = _vec(a), _vec(b)
    if len(va) != len(vb):
        raise DimensionMismatchError(
            f"cannot compare vectors of length {len(va)} and {len(vb)}"
        )
    return va, vb


def weakly_dominates(a: Vector, b: Vector) -> bool:
    """True if ``a`` is at least as good as ``b`` on every objective."""
    va, vb = _check_pair(a, b)
    return all(x <= y for x, y in zip(va, vb))


def dominates(a: Vector, b: Vector) -> bool:
    """True if ``a`` weakly dominates ``b`` and improves somewhere."""
    va, vb = _check_pair(a, b)
    return va != vb and all(x <= y for x, y in zip(va, vb))


def compare(a: Vector, b: Vector) -> DominanceOutcome:
    """Classify the dominance relation between two vectors."""
    va, vb = _check_pair(a, b)
    if va == vb:
        return DominanceOutcome.EQUAL
    a_le = all(x <= y for x, y in zip(va, vb))
    b_le = all(y <= x for x, y in zip(va, vb))
    if a_le:
        return DominanceOutcome.FIRST_DOMINATES
    if b_le:
        return DominanceOutcome.SECOND_DOMINATES
    return DominanceOutcome.INCOMPARABLE


# Cap on the row pairs one block of ``_dominance`` compares, which bounds its
# temporaries to a few times ``_BLOCK_PAIRS * m`` bytes at any input size.
_BLOCK_PAIRS = 1 << 16


def _dominance(
    X: np.ndarray, Y: np.ndarray, weak: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Dominance between the rows of two ``(n, m)`` arrays, in one pass.

    Returns ``(x_any, y_any)``: which rows of ``X`` dominate some row of
    ``Y``, and which rows of ``Y`` some row of ``X`` dominates.  ``weak``
    asks for weak dominance; otherwise equal rows do not dominate.
    """
    x_any = np.zeros(len(X), dtype=bool)
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
            rel = le & lt
            x_any[i : i + rows] |= rel.any(axis=1)
            y_any[j : j + cols] |= rel.any(axis=0)
    return x_any, y_any


def _check_sets(first: SolutionSet, second: SolutionSet) -> None:
    if first.m != second.m:
        raise DimensionMismatchError(
            f"sets {first.name!r} and {second.name!r} disagree on objective count "
            f"({first.m} vs {second.m})"
        )


def set_dominates(first: SolutionSet, second: SolutionSet) -> bool:
    """True if every member of ``second`` is dominated by some member of ``first``."""
    _check_sets(first, second)
    if not second.solutions:
        raise EmptySetError("set dominance against an empty set is undefined")
    return bool(_dominance(first.values(), second.values())[1].all())


def set_weakly_dominates(first: SolutionSet, second: SolutionSet) -> bool:
    """True if every member of ``second`` is weakly dominated by some member of ``first``."""
    _check_sets(first, second)
    if not second.solutions:
        raise EmptySetError("weak set dominance against an empty set is undefined")
    return bool(_dominance(first.values(), second.values(), weak=True)[1].all())


def better_relation(first: SolutionSet, second: SolutionSet) -> SetRelation:
    """Classify two sets by mutual weak set-dominance.

    ``FIRST_BETTER`` means ``first`` weakly set-dominates ``second`` while at
    least one of its members is not weakly dominated back; ``EQUIVALENT``
    means mutual weak set-dominance.
    """
    _check_sets(first, second)
    if not first.solutions or not second.solutions:
        raise EmptySetError("better relation needs two non-empty sets")
    fw = set_weakly_dominates(first, second)
    bw = set_weakly_dominates(second, first)
    if fw and bw:
        return SetRelation.EQUIVALENT
    if fw:
        return SetRelation.FIRST_BETTER
    if bw:
        return SetRelation.SECOND_BETTER
    return SetRelation.INCOMPARABLE


def nondominated_front(A: SolutionSet) -> SolutionSet:
    """Members of ``A`` not dominated by any other member.

    Input order is preserved and exact duplicates are retained (duplicates do
    not dominate each other).
    """
    _, dominated = _dominance(A.values(), A.values())
    keep = [s for s, d in zip(A.solutions, dominated) if not d]
    return A.with_solutions(keep)


def unique_nondominated_front(A: SolutionSet) -> SolutionSet:
    """Nondominated front with exact duplicate vectors collapsed.

    The first occurrence of each duplicated vector is kept.
    """
    front = nondominated_front(A)
    seen: set[tuple[float, ...]] = set()
    keep: list[Solution] = []
    for s in front.solutions:
        if s.objectives not in seen:
            seen.add(s.objectives)
            keep.append(s)
    return A.with_solutions(keep)
