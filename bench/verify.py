"""Checks on one `evaluate` report, made outside the timed region.

:func:`check_report` returns the reasons a report is wrong; an empty list
means the op passed.  The hypervolume of bi-objective runs without
preferences is recomputed here by an independent vertical-strip sweep.
"""

from __future__ import annotations

import json
import math

from inputs import Inputs

UNIT_INTERVAL = ("ci", "unfr", "grid_diversity")
HV_RTOL = 1e-12
CI_ATOL = 1e-12


def hv2d(points, ref) -> float:
    """Area dominated by ``points`` inside ``ref``: staircase, then strips."""
    stair = []
    for x, y in sorted(p for p in points if p[0] < ref[0] and p[1] < ref[1]):
        if not stair or y < stair[-1][1]:
            stair.append((x, y))
    edges = [x for x, _ in stair[1:]] + [ref[0]]
    return math.fsum((right - x) * (ref[1] - y) for (x, y), right in zip(stair, edges))


def expected_rows(inputs: Inputs) -> set[tuple]:
    w = inputs.workload
    rows = {
        (alg, r, name)
        for alg, runs in inputs.runs.items()
        for r in range(len(runs))
        for name in w.indicators
    }
    algs = list(inputs.runs)
    for name in w.pairwise:
        rows |= {(algs[0], algs[1], name), (algs[1], algs[0], name)}
    return rows


def check_report(
    data: bytes, status: int, inputs: Inputs, first: bytes | None = None
) -> list[str]:
    """Reasons the report ``data`` of one op is wrong."""
    problems = []
    if status != 0:
        problems.append(f"exit status {status}")
    if first is not None and data != first:
        problems.append("report differs from the run's first report")
    try:
        report = json.loads(data)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    results = report.get("results", [])
    keys = [
        (row["algorithm"], row.get("run", row.get("against")), row["indicator"])
        for row in results
    ]
    if len(keys) != len(set(keys)) or set(keys) != expected_rows(inputs):
        problems.append(f"result rows {sorted(keys)} do not match the plan")

    ideal = inputs.ideal()
    ci = []
    for row, key in zip(results, keys):
        name, value = row["indicator"], row["value"]
        if name in UNIT_INTERVAL and not 0.0 <= value <= 1.0:
            problems.append(f"{key}: {name}={value} outside [0, 1]")
        if name == "ci":
            ci.append(value)
        if name != "hv":
            continue
        ref = row["config"]["reference_point"]
        box = math.prod(max(r - lo, 0.0) for r, lo in zip(ref, ideal))
        if not 0.0 <= value <= box:
            problems.append(f"{key}: hv={value} outside [0, {box}]")
        if inputs.workload.m == 2 and not inputs.workload.preferences:
            alg, r, _ = key
            want = hv2d(inputs.runs[alg][r], ref)
            if not math.isclose(value, want, rel_tol=HV_RTOL, abs_tol=0.0):
                problems.append(f"{key}: hv={value!r}, sweep gives {want!r}")
    if inputs.workload.pairwise and abs(sum(ci) - 1.0) > CI_ATOL:
        problems.append(f"ci values {ci} do not sum to 1")
    return problems
