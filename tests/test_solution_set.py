"""Array-backed solution sets, and the array transforms against the per-row
versions they replaced (``oracles.*_oracle``)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretoeval import (
    ClearConstraint,
    Direction,
    EmptySetError,
    NormalizationBounds,
    ObjectiveMeta,
    PreferenceSpec,
    Solution,
    SolutionSet,
    VagueClamp,
    apply_vague_preferences,
    build_reference_set,
    normalize,
    restore_orientation,
    to_minimization,
    unique_nondominated_front,
)
from paretoeval.preprocess import _filter_by_rules
from conftest import COVERAGE_A, KNEE_A, make_set
import oracles

META_2D = (ObjectiveMeta("f1"), ObjectiveMeta("f2"))


class TestStorage:
    def test_values_is_one_read_only_array(self):
        A = make_set("A", KNEE_A)
        values = A.values()
        assert values is A.values()
        with pytest.raises(ValueError):
            values[0, 0] = 99.0
        assert A.vectors() == [(2.0, 6.0), (9.0, 2.0)]

    def test_transformed_sets_are_read_only(self):
        dirs = [Direction.MINIMIZE, Direction.MAXIMIZE]
        converted = to_minimization(make_set("A", COVERAGE_A, dirs))
        assert converted.values() is converted.values()
        with pytest.raises(ValueError):
            converted.values()[0, 1] = 0.0

    def test_constructor_keeps_the_given_rows(self):
        rows = (Solution((1.0, 2.0), id="a"), Solution((2.0, 1.0), source="x"))
        A = SolutionSet("A", META_2D, rows)
        assert all(a is b for a, b in zip(A.solutions, rows))
        assert len(A) == 2

    def test_row_view_built_once(self):
        A = to_minimization(make_set("A", KNEE_A))
        assert A.solutions is A.solutions
        assert [s.objectives for s in A] == A.vectors()

    def test_array_constructor_checks_finiteness_and_shape(self):
        with pytest.raises(ValueError, match="finite"):
            SolutionSet._from_array("A", META_2D, np.array([[1.0, np.inf]]))
        with pytest.raises(ValueError):
            SolutionSet._from_array("A", META_2D, np.zeros((1, 3)))
        with pytest.raises(ValueError, match="declares 2 objectives"):
            SolutionSet("A", META_2D, (Solution((1.0, 2.0, 3.0)),))

    def test_array_constructor_copies_its_input(self):
        raw = np.array([[1.0, 2.0]])
        A = SolutionSet._from_array("A", META_2D, raw, ids=["s"])
        raw[0, 0] = 5.0
        assert A.vectors() == [(1.0, 2.0)]
        assert A.solutions[0].id == "s"


# Cells drawn from a small pool so that duplicate rows, ties and -0.0/0.0
# pairs are common, mixed with arbitrary real values.
_POOL = [-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]
_cell = st.one_of(
    st.sampled_from(_POOL),
    st.floats(-5, 5, allow_nan=False, allow_infinity=False, allow_subnormal=False),
)
_tag = st.one_of(st.none(), st.sampled_from(["a", "b", "s1"]))


@st.composite
def _raw_sets(draw):
    m = draw(st.integers(2, 5))
    rows = draw(st.lists(st.tuples(*[_cell] * m), max_size=20))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=5))
    n = len(rows)
    ids = draw(st.lists(_tag, min_size=n, max_size=n))
    sources = draw(st.lists(st.one_of(st.none(), st.just("src")), min_size=n, max_size=n))
    meta = tuple(
        ObjectiveMeta(f"f{j}", Direction.MAXIMIZE if mx else Direction.MINIMIZE)
        for j, mx in enumerate(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    )
    solutions = tuple(
        Solution(r, id=i, source=s) for r, i, s in zip(rows, ids, sources)
    )
    return SolutionSet("run", meta, solutions)


def _rules(m):
    threshold_rule = st.builds(
        ClearConstraint,
        objective=st.integers(0, m - 1),
        kind=st.sampled_from(["at_least", "at_most"]),
        threshold=_cell,
    )
    best_rule = st.builds(
        ClearConstraint, objective=st.integers(0, m - 1), kind=st.just("exactly_best")
    )
    return st.lists(st.one_of(threshold_rule, best_rule), max_size=3)


def _vague(m):
    clamp = st.tuples(_cell, st.one_of(st.none(), _cell)).filter(lambda c: c[0] != c[1])
    return st.lists(st.one_of(st.none(), clamp), min_size=m, max_size=m).map(
        lambda cs: PreferenceSpec(
            vague=tuple(
                VagueClamp(j, saturation=c[0], hard_floor=c[1])
                for j, c in enumerate(cs)
                if c is not None
            )
        )
    )


def _bounds(m):
    pairs = st.tuples(_cell, st.floats(0, 4, allow_subnormal=False))
    return st.lists(pairs, min_size=m, max_size=m).map(
        lambda ps: NormalizationBounds(
            ideal=[lo for lo, _ in ps], nadir=[lo + span for lo, span in ps]
        )
    )


def _run(fn, *args):
    """``fn(*args)``, or the type of the error it raised, with its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except (ValueError, EmptySetError) as exc:
            out = type(exc)
    return out, [str(w.message) for w in caught]


def _assert_same(new, old):
    assert (new.name, new.meta, new.signs) == (old.name, old.meta, old.signs)
    assert new.vectors() == old.vectors()
    assert np.signbit(new.values()).tolist() == np.signbit(old.values()).tolist()
    assert [(s.id, s.source) for s in new.solutions] == [
        (s.id, s.source) for s in old.solutions
    ]


def _log(log):
    return [(r.index, r.rule, r.solution.objectives, r.solution.id) for r in log]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_array_transforms_match_per_row_oracles(data):
    A = data.draw(_raw_sets())
    new, old = to_minimization(A), oracles.to_minimization_oracle(A)
    _assert_same(new, old)
    _assert_same(
        restore_orientation(new, A.meta), oracles.restore_orientation_oracle(old, A.meta)
    )

    rules = data.draw(_rules(A.m))
    log_new, log_old = [], []
    screened = _filter_by_rules(new, rules, log_new)
    _assert_same(screened, oracles.filter_by_rules_oracle(old, rules, log_old))
    assert _log(log_new) == _log(log_old)

    spec = data.draw(_vague(A.m))
    (clamped, said), (clamped_old, said_old) = (
        _run(apply_vague_preferences, screened, spec, log_new),
        _run(oracles.apply_vague_preferences_oracle, screened, spec, log_old),
    )
    _assert_same(clamped, clamped_old)
    assert _log(log_new) == _log(log_old)
    assert said == said_old

    bounds = data.draw(_bounds(A.m))
    (normed, said), (normed_old, said_old) = (
        _run(normalize, [new, clamped], bounds),
        _run(oracles.normalize_oracle, [old, clamped_old], bounds),
    )
    assert said == said_old
    if normed is ValueError:  # a row overflowed: both refuse it
        assert normed_old is ValueError
    else:
        for a, b in zip(normed, normed_old, strict=True):
            _assert_same(a, b)

    _assert_same(unique_nondominated_front(new), oracles.unique_front_oracle(old))
    groups = [new.with_solutions(new.solutions, name="g0"), screened, clamped]
    reference, reference_old = (
        _run(build_reference_set, groups)[0],
        _run(oracles.build_reference_set_oracle, groups)[0],
    )
    if reference is EmptySetError:
        assert reference_old is EmptySetError
    else:
        _assert_same(reference, reference_old)
