"""Constructors and builders reject malformed input with a named error."""

from __future__ import annotations

import pytest

from paretoeval import (
    ClearConstraint,
    DimensionMismatchError,
    EmptySetError,
    NormalizationBounds,
    ObjectiveMeta,
    PreferenceSpec,
    RegionOfInterest,
    SolutionSet,
    VagueClamp,
    apply_clear_preferences,
    apply_vague_preferences,
    build_reference_point,
    compute_h,
    screen_trivial,
)
from conftest import KNEE_A, make_set

META_2D = (ObjectiveMeta("f1"), ObjectiveMeta("f2"))


def _knee():
    return make_set("knee", KNEE_A)


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
    "bounds-source": (
        lambda: NormalizationBounds((0.0,), (1.0,), source="data"),
        ValueError,
        "unknown bounds source 'data'",
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
}


@pytest.mark.parametrize("build, error, message", CASES.values(), ids=list(CASES))
def test_malformed_input_is_rejected(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
