"""Shared fixtures: the worked example sets used across the test modules."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from paretoeval import Direction, ObjectiveMeta, Solution, SolutionSet, core

# Settings for properties that take ``block_pairs`` or ``split_rows``: the
# cap or cutoff is patched once per test, not per example.
kernel_settings = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(params=[None, 37], ids=["default-block", "tiny-block"])
def block_pairs(request, monkeypatch):
    """Run at the default block cap and at a tiny one, so the block kernels
    split both operands into many blocks."""
    if request.param is not None:
        monkeypatch.setattr(core, "_BLOCK_PAIRS", request.param)


@pytest.fixture(params=[None, 4], ids=["default-split", "tiny-split"])
def split_rows(request, monkeypatch):
    """Run at the default cutoff of the dominated-by query and at a tiny one,
    so its m >= 4 recursion splits small inputs down to a few rows."""
    if request.param is not None:
        monkeypatch.setattr(core, "_SPLIT_ROWS", request.param)


@pytest.fixture(params=[None, 2], ids=["default-head", "tiny-head"])
def head_rows(request, monkeypatch):
    """Run the output-sensitive front filter with its default head and with
    a two-row one, so it takes many heads before it stops or hands off."""
    if request.param is not None:
        monkeypatch.setattr(core, "_HEAD_ROWS", request.param)


def make_set(name, points, directions=None, names=None, signs=None):
    """Build a SolutionSet from plain tuples with minimal ceremony."""
    m = len(points[0]) if points else 2
    if directions is None:
        directions = [Direction.MINIMIZE] * m
    if names is None:
        names = [f"f{i + 1}" for i in range(m)]
    meta = tuple(
        ObjectiveMeta(name=n, direction=d) for n, d in zip(names, directions)
    )
    sols = tuple(Solution(tuple(float(v) for v in p)) for p in points)
    return SolutionSet(name=name, meta=meta, solutions=sols, signs=signs)


def rows(A):
    """A set's stored values as a list of tuples, one per row."""
    return [tuple(row) for row in A.values().tolist()]


# Bi-objective minimization: two knee points vs three well-spread points.
KNEE_A = [(2, 6), (9, 2)]
KNEE_B = [(1, 10), (7, 5), (12, 1.5)]

# Three tight points vs a wide, mostly dominated triple.
REFSET_A = [(1, 3), (2, 2), (3, 1)]
REFSET_B = [(0.75, 10), (3, 3), (10, 0.75)]

# Diagonal front thirds vs two interior pairs with similar spacing patterns.
DIAG_A = [(0, 10), (5, 5), (10, 0)]
DIAG_B = [(2.5, 7.5), (7.5, 2.5)]
DIAG_C = [(2, 8), (7, 3)]

# Two boundary solutions vs four uniformly distributed inner solutions.
BOUNDARY_A = [(0, 5), (5, 0)]
INNER_B = [(1, 4), (2, 3), (3, 2), (4, 1)]

# Test-generation scenario: minimize cost, maximize coverage.
COVERAGE_A = [(200, 0.2), (350, 0.4), (400, 0.6), (450, 1.0)]
COVERAGE_B = [(0, 0), (100, 0.4), (200, 0.7), (350, 0.9), (500, 1.0)]

# Product scenario: minimize cost, maximize supported users.
USERS_A = [(750, 1500), (1000, 2000), (1500, 3000)]
USERS_B = [(500, 1000), (1250, 2500), (2000, 4000)]


@pytest.fixture
def knee_sets():
    return make_set("A", KNEE_A), make_set("B", KNEE_B)


@pytest.fixture
def refset_sets():
    return make_set("A", REFSET_A), make_set("B", REFSET_B)


@pytest.fixture
def diag_sets():
    return make_set("A", DIAG_A), make_set("B", DIAG_B), make_set("C", DIAG_C)


@pytest.fixture
def boundary_sets():
    return make_set("A", BOUNDARY_A), make_set("B", INNER_B)


@pytest.fixture
def coverage_sets():
    dirs = [Direction.MINIMIZE, Direction.MAXIMIZE]
    names = ["cost", "coverage"]
    return (
        make_set("A", COVERAGE_A, dirs, names),
        make_set("B", COVERAGE_B, dirs, names),
    )


@pytest.fixture
def users_sets():
    dirs = [Direction.MINIMIZE, Direction.MAXIMIZE]
    names = ["cost", "users"]
    return (
        make_set("A", USERS_A, dirs, names),
        make_set("B", USERS_B, dirs, names),
    )
