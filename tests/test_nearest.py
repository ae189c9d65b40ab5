"""The distance indicators against the ``(n, k, m)`` array versions they
replaced, and the memory bound of the blocked nearest-distance kernel.

GD, GD+, IGD, IGD+, epsilon and SP all take their nearest distances from
``core._nearest``.  Its values must equal the old arrays' bit for bit, so the
properties compare with ``==`` and ``repr`` (``-0.0`` prints differently in a
report) over m = 2..10, where m >= 8 is where numpy sums with eight
accumulators, at the default block cap and with a tiny one.  The one
exception is a zero epsilon, which is always ``0.0``.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paretoeval import core
from paretoeval.indicators import (
    epsilon_additive,
    gd,
    gd_plus,
    igd,
    igd_plus,
    spacing,
)
from conftest import kernel_settings, make_set
import oracles


def _rows(rng, kind, n, m):
    if kind == "grid":
        return rng.integers(-2, 3, size=(n, m)).astype(float)
    V = rng.normal(size=(n, m)) * rng.choice([0.1, 1.0, 100.0])
    if kind == "plane":
        # Mutually nondominated rows, so a twin is each row's nearest one.
        V[:, -1] = -V[:, :-1].sum(axis=1)
    ties = rng.random((n, m)) < 0.3
    V[ties] = np.round(V[ties])
    return V


@st.composite
def distance_arrays(draw):
    """Two arrays of m in 2..10 columns, with 1 to 40 rows each: integer-grid,
    real or on-a-plane rows with rounded ties, duplicated rows within and
    across the two, and zeros of either sign, drawn after the copying so
    twins can differ in their sign bits."""
    m = draw(st.integers(2, 10))
    n, k = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "real", "plane"]))
    X = _rows(rng, kind, n, m)
    Y = _rows(rng, kind, k, m)
    pool = np.vstack([X, Y])
    for V in (X, Y):
        twins = rng.random(len(V)) < 0.3
        V[twins] = pool[rng.integers(len(pool), size=twins.sum())]
        V[(V == 0) & (rng.random(V.shape) < 0.5)] = -0.0
    return X, Y


def _same(value, reference):
    return value == reference and repr(value) == repr(reference)


@kernel_settings
@given(arrays=distance_arrays(), p=st.sampled_from([1.0, 2.0, 3.5]))
def test_distance_indicators_match_matrix_references(block_pairs, arrays, p):
    X, Y = arrays
    A, B = make_set("A", X.tolist()), make_set("B", Y.tolist())
    assert _same(gd(A, B, p=p), oracles.gd_matrix(X, Y, p))
    assert _same(gd_plus(A, B), oracles.gd_plus_matrix(X, Y))
    assert _same(igd(A, B), oracles.igd_matrix(X, Y))
    assert _same(igd_plus(A, B), oracles.igd_plus_matrix(X, Y))
    assert _same(epsilon_additive(A, B), oracles.epsilon_matrix(X, Y) + 0.0)
    assert _same(epsilon_additive(B, A), oracles.epsilon_matrix(Y, X) + 0.0)
    for S, V in ((A, X), (B, Y)):
        if len(V) > 1:
            assert _same(spacing(S), oracles.spacing_matrix(V))


@pytest.mark.parametrize("m", [17, 129, 300])
def test_many_objectives_match_matrix_references(block_pairs, m):
    # Beyond 128 terms numpy splits the sum in halves.
    rng = np.random.default_rng(m)
    X, Y = rng.normal(size=(6, m)), rng.normal(size=(9, m))
    A, B = make_set("A", X.tolist()), make_set("B", Y.tolist())
    assert _same(gd(A, B, p=2.0), oracles.gd_matrix(X, Y, 2.0))
    assert _same(gd_plus(A, B), oracles.gd_plus_matrix(X, Y))
    assert _same(igd(A, B), oracles.igd_matrix(X, Y))
    assert _same(igd_plus(A, B), oracles.igd_plus_matrix(X, Y))
    assert _same(epsilon_additive(A, B), oracles.epsilon_matrix(X, Y) + 0.0)
    assert _same(spacing(A), oracles.spacing_matrix(X))


@pytest.mark.parametrize("m", [2, 5, 8, 9, 10])
def test_epsilon_sign_of_a_zero_matches_reference(m):
    # Every pattern of 0.0 and -0.0 differences: which tied zero numpy's max
    # keeps depends on the CPU's vector width from m = 5 or 9 up, so a zero
    # epsilon is reported as 0.0 on every CPU.
    zero = make_set("B", [(0.0,) * m])
    for signs in itertools.product([0.0, -0.0], repeat=m):
        value = epsilon_additive(make_set("A", [signs]), zero)
        assert _same(value, 0.0), signs


def test_nearest_memory_is_bounded():
    # 2000 rows against 10000 took 1.1 GB in (n, k, m) arrays.  The kernel
    # holds two block buffers for m < 8 plus a vector of the row minima, and
    # IGD+ and epsilon negate both operands first: within four buffers of
    # _BLOCK_PAIRS floats (2.1 MB).
    bound = 4 * core._BLOCK_PAIRS * 8
    rng = np.random.default_rng(0)
    A = make_set("A", rng.random((2000, 3)).tolist())
    R = make_set("R", rng.random((10_000, 3)).tolist())
    S = make_set("S", rng.random((4000, 3)).tolist())
    cases = {
        "gd": lambda: gd(A, R),
        "gd_plus": lambda: gd_plus(A, R),
        "igd": lambda: igd(A, R),
        "igd_plus": lambda: igd_plus(A, R),
        "epsilon": lambda: epsilon_additive(A, R),
        "spacing": lambda: spacing(S),
    }
    for name, indicator in cases.items():
        tracemalloc.start()
        try:
            value = indicator()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(value)
        assert peak < bound, (name, peak)
