"""The report writer against the one-shot ``json.dumps`` it replaced.

Every JSON report goes out through ``cli._write_report``: the same encoder's
tokens, written as ``json.dump`` encodes them, into a file beside the target
that then replaces it.  Its bytes must equal ``oracles.report_text`` for any
report-shaped value, and its memory must follow the file's buffer, not the
report.
"""

from __future__ import annotations

import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paretoeval import IndicatorConfig, cli
import oracles

# What JSON escapes or spells its own way.
TRICKY = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "é", "\U0001f600"]
texts = st.text(max_size=6) | st.lists(
    st.sampled_from(TRICKY) | st.text(max_size=2), max_size=4
).map("".join)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]),
    st.sampled_from([2**64, -(2**100)]),
    texts,
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=2),
    ),
    max_leaves=12,
)


@st.composite
def results(draw):
    """Result rows that share one column dict, as ``cmd_evaluate`` builds
    them, each with its own algorithm, run or opponent, and value."""
    column = {
        "aspects": draw(st.lists(texts, max_size=3)),
        "better": draw(texts),
        "config": draw(st.dictionaries(texts, values, max_size=4)),
        "indicator": draw(texts),
    }
    own = st.fixed_dictionaries(
        {"algorithm": texts, "value": values},
        optional={"against": texts, "run": st.integers(0, 9)},
    )
    return [{**column, **fields} for fields in draw(st.lists(own, max_size=4))]


# Reports hold their rows two levels deep; the rows here sit at any depth.
reports = st.recursive(
    values | results(),
    lambda inner: st.one_of(
        st.dictionaries(texts, inner, max_size=4), st.lists(inner, max_size=3)
    ),
    max_leaves=6,
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(report=reports)
def test_writer_matches_the_one_shot_dump(tmp_path, report):
    target = tmp_path / "out" / "report.json"
    cli._write_report(report, target)
    assert target.read_bytes() == oracles.report_text(report).encode("ascii")
    assert os.listdir(target.parent) == ["report.json"]


def test_report_memory_follows_a_batch(tmp_path):
    # 5 columns x 2000 rows, each row repeating its column's config as the
    # runs-3d report does.  The one-shot json.dumps held about six times the
    # text it wrote; the writer holds one token at a time and the file's
    # buffers.
    rng = np.random.default_rng(0)
    table = SimpleNamespace(
        reference=range(500),
        point=tuple(rng.random(3).tolist()),
        bounds=SimpleNamespace(
            ideal=tuple(rng.random(3).tolist()), nadir=tuple(rng.random(3).tolist())
        ),
    )
    names = ["hv", "igd_plus", "gd_plus", "sp", "grid_diversity"]
    columns = [cli._column(n, IndicatorConfig(), table) for n in names]
    results = [
        {**column, "algorithm": f"alg{a}", "run": r, "value": float(v)}
        for a in range(4)
        for r in range(500)
        for column, v in zip(columns, rng.random(len(columns)))
    ]
    report = {"schema": "solution-set-report/1", "results": results}
    target = tmp_path / "report.json"
    tracemalloc.start()
    try:
        cli._write_report(report, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    text = target.read_bytes()
    assert text == oracles.report_text(report).encode("ascii")
    assert peak < len(text) / 10, (peak, len(text))
