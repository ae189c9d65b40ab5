"""Preparation of solution sets before indicator computation.

Covers orientation conversion, screening of trivially useless solutions,
transfer of decision-maker preferences onto the data (threshold filters and
saturation clamps), normalization, and construction of reference sets and
reference points.

Thresholds, clamps, and hard bounds are always expressed in an objective's
natural units and direction; the functions here translate them onto the
stored minimization-oriented values using the set's recorded signs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    Direction,
    EmptySetError,
    EvaluationWarning,
    ObjectiveMeta,
    Solution,
    SolutionSet,
    _front_mask,
    unique_nondominated_front,
)

__all__ = [
    "AT_LEAST",
    "AT_MOST",
    "EXACTLY_BEST",
    "REF_STRATEGIES",
    "NORMALIZATION_MODES",
    "ClearConstraint",
    "VagueClamp",
    "RegionOfInterest",
    "PreferenceSpec",
    "NormalizationBounds",
    "Removal",
    "to_minimization",
    "restore_orientation",
    "screen_trivial",
    "apply_clear_preferences",
    "apply_vague_preferences",
    "normalization_bounds",
    "normalize",
    "build_reference_set",
    "build_reference_point",
    "compute_h",
]

AT_LEAST = "at_least"
AT_MOST = "at_most"
EXACTLY_BEST = "exactly_best"
_CONSTRAINT_KINDS = (AT_LEAST, AT_MOST, EXACTLY_BEST)

REF_STRATEGIES = (
    "worst_values",
    "nadir_plus_tenth",
    "nadir_plus_l_over_h",
    "doubled_range",
    "explicit",
)

NORMALIZATION_MODES = ("combined_front", "hard_bounds", "none")


@dataclass(frozen=True)
class ClearConstraint:
    """A threshold or best-value requirement on one objective.

    ``threshold`` is stated in the objective's natural units and direction:
    ``at_least`` keeps natural values >= threshold, ``at_most`` keeps natural
    values <= threshold (both inclusive).  ``exactly_best`` keeps only the
    solutions attaining the set's best natural value on the objective and
    needs no threshold.
    """

    objective: int
    kind: str
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.objective < 0:
            raise ValueError("objective index must be non-negative")
        if self.kind == EXACTLY_BEST:
            if self.threshold is not None:
                raise ValueError("exactly_best takes no threshold")
        else:
            if self.threshold is None:
                raise ValueError(f"{self.kind} requires a threshold")
            object.__setattr__(self, "threshold", float(self.threshold))

    def describe(self, meta: Sequence[ObjectiveMeta] | None = None) -> str:
        name = (
            meta[self.objective].name
            if meta is not None and self.objective < len(meta)
            else f"objective[{self.objective}]"
        )
        if self.kind == EXACTLY_BEST:
            return f"{name} exactly best"
        op = ">=" if self.kind == AT_LEAST else "<="
        return f"{name} {op} {self.threshold}"


@dataclass(frozen=True)
class VagueClamp:
    """Saturation clamp for an 'ideally reach X, need at least Y' preference.

    Both values are in natural units and direction.  Values beyond
    ``saturation`` (better than it) are treated as equivalent to it; values
    falling short of ``hard_floor`` (worse than it) disqualify the solution.
    For a maximized objective ``hard_floor < saturation``; for a minimized
    objective the relation is mirrored (``hard_floor > saturation``).
    """

    objective: int
    saturation: float
    hard_floor: float | None = None

    def __post_init__(self) -> None:
        if self.objective < 0:
            raise ValueError("objective index must be non-negative")
        object.__setattr__(self, "saturation", float(self.saturation))
        if self.hard_floor is not None:
            object.__setattr__(self, "hard_floor", float(self.hard_floor))
            if self.hard_floor == self.saturation:
                raise ValueError("hard_floor must differ from saturation")


@dataclass(frozen=True)
class RegionOfInterest:
    """Preferred region of the front: knee solutions or extreme solutions.
    An extreme region names its objectives by index, each once: the doe
    step reports each algorithm's best value on those objectives only."""

    kind: str
    objectives: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("knee", "extreme"):
            raise ValueError(f"unknown region of interest {self.kind!r}")
        objectives = tuple(int(i) for i in self.objectives)
        if self.kind == "extreme" and not objectives:
            raise ValueError("an extreme region needs at least one objective")
        twice = [j for k, j in enumerate(objectives) if j in objectives[:k]]
        if twice:
            raise ValueError(f"objective index {twice[0]} named twice")
        object.__setattr__(self, "objectives", objectives)


@dataclass(frozen=True)
class PreferenceSpec:
    """Machine-readable decision-maker preferences.

    ``screen`` holds trivial-solution screening rules (applied before any
    preference transfer and never dropping objectives); ``clear`` holds hard
    constraints transferred onto the data; ``vague`` holds saturation clamps.
    ``untransferable`` marks qualitative preference statements that cannot be
    encoded; planning then falls back to the no-preference route.  A clamp
    that saturates an objective beyond what its clear threshold allows is
    rejected: every clamped solution would violate the threshold.
    """

    clear: tuple[ClearConstraint, ...] = ()
    vague: tuple[VagueClamp, ...] = ()
    roi: RegionOfInterest | None = None
    weights: tuple[float, ...] | None = None
    screen: tuple[ClearConstraint, ...] = ()
    untransferable: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "clear", tuple(self.clear))
        object.__setattr__(self, "vague", tuple(self.vague))
        object.__setattr__(self, "screen", tuple(self.screen))
        named = (("clear constraints", self.clear), ("vague clamps", self.vague))
        for what, parts in named:
            seen: set[int] = set()
            for part in parts:
                if part.objective in seen:
                    raise ValueError(f"multiple {what} on objective {part.objective}")
                seen.add(part.objective)
        clear = {c.objective: c for c in self.clear}
        for clamp in self.vague:
            c, s = clear.get(clamp.objective), clamp.saturation
            if c is not None and c.kind == AT_LEAST and s < c.threshold:
                side = "below"
            elif c is not None and c.kind == AT_MOST and s > c.threshold:
                side = "above"
            else:
                continue
            raise ValueError(
                f"vague clamp saturates objective {clamp.objective} at {s}, "
                f"{side} the clear {c.kind} threshold {c.threshold}; every "
                "clamped solution would violate it"
            )
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if any(x < 0 for x in w):
                raise ValueError("weights must be non-negative")
            if abs(sum(w) - 1.0) > 1e-9:
                raise ValueError("weights must sum to 1")
            object.__setattr__(self, "weights", w)

    @property
    def best_value_objectives(self) -> tuple[int, ...]:
        """The objectives with an ``exactly_best`` constraint, ascending: the
        transfer leaves every survivor equal on each of them."""
        return tuple(sorted(c.objective for c in self.clear if c.kind == EXACTLY_BEST))


@dataclass(frozen=True)
class Removal:
    """Record of one solution removed by a screening rule or constraint.
    ``index`` is the row's position in the set the step was given, which
    is not its row in the run file once an earlier step has removed rows."""

    index: int
    solution: Solution
    rule: str


def _signs(A: SolutionSet) -> tuple[float, ...]:
    return A.signs if A.signs is not None else (1.0,) * A.m


def _maximized(A: SolutionSet) -> tuple[bool, ...]:
    """Which objectives are maximized in natural units: by the signs once
    the set is converted, otherwise by the declared directions."""
    if A.signs is not None:
        return tuple(s < 0 for s in A.signs)
    return tuple(o.direction is Direction.MAXIMIZE for o in A.meta)


def _check_indices(A: SolutionSet, items: Iterable[int], what: str) -> None:
    for i in items:
        if not 0 <= i < A.m:
            raise IndexError(f"{what} references objective {i}, set has {A.m}")


def to_minimization(A: SolutionSet) -> SolutionSet:
    """Negate maximized objectives so that lower is better everywhere.

    The returned set's metadata is all-minimize and its ``signs`` record the
    conversion (natural value = sign * stored value), making the transform
    losslessly reversible.
    """
    if A.signs is not None:
        raise ValueError(f"set {A.name!r} already carries an orientation transform")
    signs = tuple(-1.0 if mx else 1.0 for mx in _maximized(A))
    meta = tuple(
        ObjectiveMeta(o.name, Direction.MINIMIZE, o.units, o.hard_bounds)
        for o in A.meta
    )
    return A._select(values=A.values() * signs, meta=meta, signs=signs)


def restore_orientation(A: SolutionSet, original_meta: Sequence[ObjectiveMeta]) -> SolutionSet:
    """Invert :func:`to_minimization` using the recorded signs (bit-exact)."""
    if A.signs is None:
        raise ValueError("set carries no orientation transform to undo")
    if len(original_meta) != A.m:
        raise DimensionMismatchError("original metadata length must match")
    return A._select(values=A.values() * A.signs, meta=original_meta, signs=None)


def _drop(
    A: SolutionSet,
    failed: Iterable[np.ndarray],
    reasons: Sequence[str],
    log: list[Removal] | None,
    values: np.ndarray | None = None,
) -> SolutionSet:
    """The rows of ``A`` that no mask in ``failed`` flags, with ``values``
    if given.  Each dropped row is logged in row order, with its stored
    vector and the reason of the first mask that flags it."""
    culprit = np.full(len(A), -1)
    for k, mask in enumerate(failed):
        culprit[(culprit < 0) & mask] = k
    gone = np.flatnonzero(culprit >= 0)
    if log is not None:
        for idx, sol in zip(gone.tolist(), A._select(gone).solutions):
            log.append(Removal(idx, sol, reasons[culprit[idx]]))
    return A._select(culprit < 0, values=values)


def _warn_if_emptied(A: SolutionSet, out: SolutionSet, what: str) -> SolutionSet:
    """``out``; when ``what`` removed every solution of the non-empty ``A``,
    a warning that names the caller of the public function."""
    if not len(out) and len(A):
        warnings.warn(
            f"{what} removed every solution of set {A.name!r}",
            EvaluationWarning,
            stacklevel=3,
        )
    return out


def _filter_by_rules(
    A: SolutionSet,
    rules: Sequence[ClearConstraint],
    log: list[Removal] | None,
) -> SolutionSet:
    signs = _signs(A)

    def fails(rule: ClearConstraint) -> np.ndarray:
        stored = A.values()[:, rule.objective]
        natural = signs[rule.objective] * stored
        if rule.kind == AT_LEAST:
            return natural < rule.threshold
        if rule.kind == AT_MOST:
            return natural > rule.threshold
        # Stored orientation is minimization, so "best" is the minimum.
        return stored != stored.min(initial=np.inf)

    return _drop(A, map(fails, rules), [r.describe(A.meta) for r in rules], log)


def screen_trivial(
    A: SolutionSet,
    rules: Sequence[ClearConstraint],
    log: list[Removal] | None = None,
) -> SolutionSet:
    """Drop solutions that fail any screening rule.

    Screening never drops objectives; it only removes degenerate solutions
    (e.g. a zero-cost, zero-value configuration) that would otherwise distort
    set-level judgments.  Pass ``log`` to collect the removals.
    """
    if not rules:
        return A
    _check_indices(A, (r.objective for r in rules), "screening rule")
    return _warn_if_emptied(A, _filter_by_rules(A, rules, log), "screening")


def apply_clear_preferences(
    A: SolutionSet,
    spec: PreferenceSpec,
    log: list[Removal] | None = None,
) -> SolutionSet:
    """Transfer hard constraints onto the set: the solutions that meet every
    one of them.  An ``exactly_best`` constraint leaves every survivor equal
    on its objective; whether that objective is then dropped is decided
    across all sets, not here.
    """
    _check_indices(A, (c.objective for c in spec.clear), "clear constraint")
    if not spec.clear:
        return A
    out = _filter_by_rules(A, spec.clear, log)
    return _warn_if_emptied(A, out, "clear constraints")


def apply_vague_preferences(
    A: SolutionSet,
    spec: PreferenceSpec,
    log: list[Removal] | None = None,
) -> SolutionSet:
    """Transfer saturation clamps onto the set.

    Values beyond a clamp's saturation point are replaced by the saturation
    value (gains past it are not rewarded); solutions falling short of the
    clamp's hard floor are discarded.  Comparisons at the boundaries are
    inclusive: a value exactly at the floor survives, a value exactly at
    saturation is unchanged.
    """
    _check_indices(A, (v.objective for v in spec.vague), "vague clamp")
    if not spec.vague:
        return A
    signs = _signs(A)
    clamped = A.values().copy()
    short, reasons = [], []
    for clamp in spec.vague:
        # In stored (minimization) orientation lower is better in both
        # directions, and the sign flip is exact.
        j = clamp.objective
        stored = A.values()[:, j]
        floor = np.inf if clamp.hard_floor is None else signs[j] * clamp.hard_floor
        short.append(stored > floor)
        reasons.append(f"{A.meta[j].name} short of hard floor {clamp.hard_floor}")
        saturation = signs[j] * clamp.saturation
        clamped[stored < saturation, j] = saturation
    out = _drop(A, short, reasons, log, values=clamped)
    return _warn_if_emptied(A, out, "vague clamps")


@dataclass(frozen=True)
class NormalizationBounds:
    """Per-objective ideal and nadir proxies, minimization orientation."""

    ideal: tuple[float, ...]
    nadir: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ideal", tuple(float(v) for v in self.ideal))
        object.__setattr__(self, "nadir", tuple(float(v) for v in self.nadir))
        if len(self.ideal) != len(self.nadir):
            raise DimensionMismatchError("ideal and nadir must have equal length")
        for lo, hi in zip(self.ideal, self.nadir):
            if lo > hi:
                raise ValueError("ideal must not exceed nadir componentwise")

    @classmethod
    def from_sets(cls, sets: Sequence[SolutionSet]) -> "NormalizationBounds":
        """Componentwise min/max over every solution of every set."""
        if not sets:
            raise EmptySetError("need at least one solution set")
        stacked = SolutionSet._concat(sets, "union").values()
        if not len(stacked):
            raise EmptySetError("all sets are empty")
        return cls(ideal=tuple(stacked.min(axis=0)), nadir=tuple(stacked.max(axis=0)))

    @classmethod
    def from_hard_bounds(cls, A: SolutionSet) -> "NormalizationBounds":
        """Bounds from declared objective hard bounds, in stored orientation."""
        signs = _signs(A)
        ideal: list[float] = []
        nadir: list[float] = []
        for sign, o in zip(signs, A.meta):
            if o.hard_bounds is None:
                raise ValueError(f"objective {o.name!r} declares no hard bounds")
            lo, hi = sorted((sign * o.hard_bounds[0], sign * o.hard_bounds[1]))
            ideal.append(lo)
            nadir.append(hi)
        return cls(ideal=tuple(ideal), nadir=tuple(nadir))


def normalization_bounds(
    mode: str, sets: Sequence[SolutionSet]
) -> NormalizationBounds | None:
    """The bounds normalization ``mode`` maps ``sets`` with: the objectives'
    declared hard bounds, the sets' componentwise min and max
    (``combined_front``), or None for ``none``."""
    if mode == "none":
        return None
    if mode == "hard_bounds":
        return NormalizationBounds.from_hard_bounds(sets[0])
    return NormalizationBounds.from_sets(sets)


def normalize(
    sets: Sequence[SolutionSet], bounds: NormalizationBounds
) -> list[SolutionSet]:
    """Map stored values to ``(v - ideal) / (nadir - ideal)`` per objective.

    A degenerate objective (zero range) maps to 0 with a warning.  Values
    outside ``[0, 1]`` (possible when bounds come from hard bounds or a user)
    are kept as-is but flagged with a warning, never clamped.
    """
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
        scaled = np.where(degenerate, 0.0, (vals - ideal) / np.where(degenerate, 1.0, span))
        if ((scaled < 0) | (scaled > 1)).any():
            warnings.warn(
                f"set {s.name!r} has values outside the normalization bounds",
                EvaluationWarning,
                stacklevel=2,
            )
        meta = tuple(
            ObjectiveMeta(o.name, Direction.MINIMIZE, units=None, hard_bounds=None)
            for o in s.meta
        )
        out.append(s._select(values=scaled, meta=meta, signs=None))
    return out


def build_reference_set(sets: Sequence[SolutionSet]) -> SolutionSet:
    """Unique nondominated front of the union of the given sets.

    Each retained point remembers which set it came from via its ``source``
    tag (pre-existing tags are preserved).  The result is order-insensitive
    as a set of vectors; duplicated vectors keep their first occurrence.
    The sets may be replaced by their own unique fronts without changing
    the result: the same rows, ids, sources and order.  A row on the union
    front is nondominated within its own set and the first occurrence of
    its vector there, so it is on that set's front; and every other row of
    a set is dominated by, or repeats, a row of the set's front, so the
    fronts knock out of their union what the raw rows knock out of theirs.
    """
    if not sets:
        raise EmptySetError("need at least one solution set")
    union = SolutionSet._concat(sets, "reference")
    if not len(union):
        raise EmptySetError("cannot build a reference set from empty sets")
    return unique_nondominated_front(union)


def compute_h(n: int, m: int) -> int:
    """Largest lattice resolution h with C(h+m-1, m-1) <= n < C(h+m, m-1).

    ``n`` is the reference size the point budget must cover and ``m`` the
    objective count.  When even h=1 needs more points than ``n`` provides
    (``n < m``), falls back to 1 with a warning.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if m < 2:
        raise ValueError("m must be at least 2")
    if n < math.comb(m, m - 1):
        warnings.warn(
            f"reference size {n} cannot support any lattice resolution for m={m};"
            " falling back to h=1",
            EvaluationWarning,
            stacklevel=2,
        )
        return 1
    h = 1
    while not (math.comb(h + m - 1, m - 1) <= n < math.comb(h + m, m - 1)):
        h += 1
    return h


def _explicit_point(explicit: Sequence[float] | None, m: int) -> tuple[float, ...]:
    """The explicit strategy's point for ``m`` objectives; there must be one,
    with one coordinate per objective."""
    if explicit is None:
        raise ValueError("explicit strategy requires a point")
    point = tuple(float(v) for v in explicit)
    if len(point) != m:
        raise DimensionMismatchError("explicit point length must match")
    return point


def build_reference_point(
    basis: SolutionSet,
    strategy: str,
    explicit: Sequence[float] | None = None,
) -> tuple[float, ...]:
    """Construct a hypervolume reference point from a basis set.

    Strategies other than ``worst_values`` and ``explicit`` derive the nadir
    and range from the unique nondominated front of the basis, then step
    beyond the nadir: ``nadir_plus_tenth`` by a tenth of the range,
    ``nadir_plus_l_over_h`` by range/h (see :func:`compute_h`), and
    ``doubled_range`` by the full range.  ``worst_values`` takes the
    componentwise maximum over all raw basis solutions.  A degenerate range
    component falls back to nadir + 1 with a warning.  The result always
    weakly exceeds the basis front's nadir; an explicit point that does not
    is rejected.
    """
    if strategy not in REF_STRATEGIES:
        raise ValueError(f"unknown reference strategy {strategy!r}")
    if not len(basis):
        raise EmptySetError("cannot derive a reference point from an empty basis")
    # Only the front's values are needed, so no front set is built.
    fv = basis.values()
    if strategy != "worst_values":
        fv = fv[_front_mask(fv, unique=True)]
    return _point_beyond(fv, strategy, explicit)


def _point_beyond(
    fv: np.ndarray, strategy: str, explicit: Sequence[float] | None
) -> tuple[float, ...]:
    """:func:`build_reference_point`'s point for a known ``strategy``, read
    off the non-empty rows ``fv``: the raw basis for ``worst_values``, else
    its unique front.  A basis that is its own unique front serves as it is
    for every strategy."""
    nadir = fv.max(axis=0)
    if strategy == "worst_values":
        return tuple(float(v) for v in nadir)
    if strategy == "explicit":
        point = _explicit_point(explicit, fv.shape[1])
        if any(p < nv for p, nv in zip(point, nadir)):
            raise ValueError(
                f"reference point {point} does not weakly exceed the basis nadir "
                f"{tuple(float(v) for v in nadir)}"
            )
        return point
    span = nadir - fv.min(axis=0)
    degenerate = span == 0
    if degenerate.any():
        warnings.warn(
            "degenerate objective range in reference basis; stepping by 1",
            EvaluationWarning,
            stacklevel=3,
        )
    if strategy == "nadir_plus_tenth":
        step = span / 10.0
    elif strategy == "doubled_range":
        step = span.copy()
    else:  # nadir_plus_l_over_h
        h = compute_h(len(fv), fv.shape[1])
        step = span / float(h)
    step = np.where(degenerate, 1.0, step)
    return tuple(float(v) for v in (nadir + step))
