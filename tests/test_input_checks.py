"""Constructors and builders reject malformed input with a named error."""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import pytest

from paretoeval import (
    ClearConstraint,
    DimensionMismatchError,
    EmptySetError,
    NormalizationBounds,
    ObjectiveMeta,
    PreferenceSpec,
    RegionOfInterest,
    Solution,
    SolutionSet,
    VagueClamp,
    apply_clear_preferences,
    apply_vague_preferences,
    better_relation,
    build_reference_point,
    build_reference_set,
    compute_h,
    contribution,
    coverage,
    gd,
    grid_diversity,
    normalize,
    recommend,
    restore_orientation,
    screen_trivial,
    set_weakly_dominates,
    spread_delta,
    to_minimization,
    unfr,
)
from paretoeval.cli import ManifestError, load_manifest
from conftest import KNEE_A, make_set

META_2D = (ObjectiveMeta("f1"), ObjectiveMeta("f2"))
UNIT_10 = NormalizationBounds((0.0, 0.0), (10.0, 10.0))


def _knee():
    return make_set("knee", KNEE_A)


def _empty():
    return make_set("none", [])


def _cube():
    return make_set("cube", [(1, 2, 3)])


def _load(doc):
    """Load ``doc`` as a manifest file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_text(json.dumps(doc))
        return load_manifest(path)


CASES = {
    "clear-unknown-kind": (
        lambda: ClearConstraint(0, "between", 1.0),
        ValueError,
        "unknown constraint kind 'between'",
    ),
    "clear-negative-index": (
        lambda: ClearConstraint(-1, "at_most", 1.0),
        ValueError,
        "objective index must be non-negative",
    ),
    "clear-exactly-best-threshold": (
        lambda: ClearConstraint(0, "exactly_best", 1.0),
        ValueError,
        "exactly_best takes no threshold",
    ),
    "clear-missing-threshold": (
        lambda: ClearConstraint(0, "at_least"),
        ValueError,
        "at_least requires a threshold",
    ),
    "clamp-negative-index": (
        lambda: VagueClamp(-1, 1.0),
        ValueError,
        "objective index must be non-negative",
    ),
    "clamp-duplicate": (
        lambda: PreferenceSpec(vague=(VagueClamp(0, 1.0), VagueClamp(0, 2.0))),
        ValueError,
        "multiple vague clamps on objective 0",
    ),
    "roi-unknown-kind": (
        lambda: RegionOfInterest("middle"),
        ValueError,
        "unknown region of interest 'middle'",
    ),
    "roi-extreme-empty": (
        lambda: RegionOfInterest("extreme"),
        ValueError,
        "an extreme region needs at least one objective",
    ),
    "roi-extreme-repeated": (
        lambda: RegionOfInterest("extreme", (1, 0, 1)),
        ValueError,
        "objective index 1 named twice",
    ),
    "screen-index-out-of-range": (
        lambda: screen_trivial(_knee(), (ClearConstraint(2, "at_most", 1.0),)),
        IndexError,
        "screening rule references objective 2, set has 2",
    ),
    "clear-index-out-of-range": (
        lambda: apply_clear_preferences(
            _knee(), PreferenceSpec(clear=(ClearConstraint(5, "at_most", 1.0),))
        ),
        IndexError,
        "clear constraint references objective 5, set has 2",
    ),
    "clamp-index-out-of-range": (
        lambda: apply_vague_preferences(
            _knee(), PreferenceSpec(vague=(VagueClamp(3, 1.0),))
        ),
        IndexError,
        "vague clamp references objective 3, set has 2",
    ),
    "compute-h-no-points": (
        lambda: compute_h(0, 3),
        ValueError,
        "n must be positive",
    ),
    "compute-h-one-objective": (
        lambda: compute_h(10, 1),
        ValueError,
        "m must be at least 2",
    ),
    "ref-point-unknown-strategy": (
        lambda: build_reference_point(_knee(), "far_away"),
        ValueError,
        "unknown reference strategy 'far_away'",
    ),
    "ref-point-empty-basis": (
        lambda: build_reference_point(make_set("none", []), "nadir_plus_tenth"),
        EmptySetError,
        "cannot derive a reference point from an empty basis",
    ),
    "bounds-length": (
        lambda: NormalizationBounds((0.0,), (1.0, 2.0)),
        DimensionMismatchError,
        "ideal and nadir must have equal length",
    ),
    "bounds-ideal-above-nadir": (
        lambda: NormalizationBounds((0.0, 3.0), (1.0, 2.0)),
        ValueError,
        "ideal must not exceed nadir componentwise",
    ),
    "set-empty-name": (
        lambda: SolutionSet("", META_2D),
        ValueError,
        "solution set name must be non-empty",
    ),
    "set-no-objectives": (
        lambda: SolutionSet("a", ()),
        ValueError,
        "solution set needs at least one objective",
    ),
    "set-signs-length": (
        lambda: SolutionSet("a", META_2D, signs=(1.0,)),
        DimensionMismatchError,
        "signs length must match objective count",
    ),
    "set-signs-values": (
        lambda: SolutionSet("a", META_2D, signs=(1.0, 2.0)),
        ValueError,
        "signs entries must be +1 or -1",
    ),
    "objective-empty-name": (
        lambda: ObjectiveMeta(""),
        ValueError,
        "objective name must be non-empty",
    ),
    "objective-bounds-infinite": (
        lambda: ObjectiveMeta("f1", hard_bounds=(0.0, math.inf)),
        ValueError,
        "hard_bounds of 'f1' must be finite",
    ),
    "objective-bounds-unordered": (
        lambda: ObjectiveMeta("f1", hard_bounds=(1.0, 0.0)),
        ValueError,
        "hard_bounds of 'f1' need lower < upper, got (1.0, 0.0)",
    ),
    "solution-no-values": (
        lambda: Solution(()),
        ValueError,
        "a solution needs at least one objective value",
    ),
    "sets-objective-count": (
        lambda: gd(_knee(), _cube()),
        DimensionMismatchError,
        "sets 'knee' and 'cube' disagree on objective count (2 vs 3)",
    ),
    "weak-dominance-empty": (
        lambda: set_weakly_dominates(_knee(), _empty()),
        EmptySetError,
        "weak set dominance against an empty set is undefined",
    ),
    "better-relation-empty": (
        lambda: better_relation(_empty(), _knee()),
        EmptySetError,
        "better relation needs two non-empty sets",
    ),
    "gd-power-below-one": (
        lambda: gd(_knee(), _knee(), p=0.5),
        ValueError,
        "p must be >= 1",
    ),
    "gd-empty": (
        lambda: gd(_empty(), _knee()),
        EmptySetError,
        "set 'none' is empty",
    ),
    "contribution-both-empty": (
        lambda: contribution(_empty(), _empty()),
        EmptySetError,
        "contribution of two empty sets is undefined",
    ),
    "coverage-empty": (
        lambda: coverage(_knee(), _empty()),
        EmptySetError,
        "coverage needs two non-empty sets",
    ),
    "spread-extremes": (
        lambda: spread_delta(_knee(), [(0.0, 0.0)]),
        ValueError,
        "exactly two bi-objective extreme points are required",
    ),
    "unfr-empty": (
        lambda: unfr(_empty(), [_empty()]),
        EmptySetError,
        "union of sets is empty",
    ),
    "grid-no-sets": (
        lambda: grid_diversity([]),
        EmptySetError,
        "need at least one solution set",
    ),
    "grid-one-division": (
        lambda: grid_diversity([_knee()], 1),
        ValueError,
        "divisions must be >= 2",
    ),
    "grid-empty-set": (
        lambda: grid_diversity([_knee(), _empty()]),
        EmptySetError,
        "set 'none' is empty",
    ),
    "restore-unconverted": (
        lambda: restore_orientation(_knee(), META_2D),
        ValueError,
        "set carries no orientation transform to undo",
    ),
    "restore-meta-length": (
        lambda: restore_orientation(to_minimization(_knee()), META_2D[:1]),
        DimensionMismatchError,
        "original metadata length must match",
    ),
    "bounds-no-sets": (
        lambda: NormalizationBounds.from_sets([]),
        EmptySetError,
        "need at least one solution set",
    ),
    "bounds-empty-sets": (
        lambda: NormalizationBounds.from_sets([_empty()]),
        EmptySetError,
        "all sets are empty",
    ),
    "normalize-bounds-length": (
        lambda: normalize([_knee()], NormalizationBounds((0.0,), (1.0,))),
        DimensionMismatchError,
        "bounds do not match objective count",
    ),
    "normalize-objective-count": (
        lambda: normalize([_knee(), _cube()], UNIT_10),
        DimensionMismatchError,
        "sets disagree on objective count",
    ),
    "reference-set-no-sets": (
        lambda: build_reference_set([]),
        EmptySetError,
        "need at least one solution set",
    ),
    "ref-point-explicit-length": (
        lambda: build_reference_point(_knee(), "explicit", explicit=(20.0,)),
        DimensionMismatchError,
        "explicit point length must match",
    ),
    "context-no-sets": (
        lambda: recommend(PreferenceSpec(), 2, set_count=0),
        ValueError,
        "set_count must be at least 1",
    ),
    "manifest-no-objectives": (
        lambda: _load({"objectives": [], "algorithms": []}),
        ManifestError,
        "manifest needs a non-empty 'objectives' list",
    ),
}


@pytest.mark.parametrize("build, error, message", CASES.values(), ids=list(CASES))
def test_malformed_input_is_rejected(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
