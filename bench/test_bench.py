"""Tests of the benchmark itself: inputs, verifier and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import tracing
import verify

_, cli, EvaluationWarning = run.load_program()


def small(name: str) -> inputs.Workload:
    return dataclasses.replace(inputs.WORKLOADS[name], runs=2, front_rows=8, filler_rows=8)


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, name):
    w = inputs.WORKLOADS[name]
    a = inputs.generate(w, 7, tmp_path / "a")
    b = inputs.generate(w, 7, tmp_path / "b")
    c = inputs.generate(w, 8, tmp_path / "c")
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert a.sha256 == b.sha256
    assert a.runs == b.runs
    csvs = [f for f in a.sha256 if f.endswith(".csv")]
    assert all(a.sha256[f] != c.sha256[f] for f in csvs)


def first_report(tmp_path, w: inputs.Workload) -> tuple[run.Runner, bytes]:
    runner = run.Runner(
        cli, EvaluationWarning, inputs.generate(w, 3, tmp_path), tmp_path / "report.json"
    )
    assert runner.op("first")["problems"] == []
    return runner, runner.first


def rewrite(data: bytes, edit) -> bytes:
    report = json.loads(data)
    edit(report["results"])
    return json.dumps(report, sort_keys=True, indent=2).encode() + b"\n"


def test_verifier_accepts_identical_report(tmp_path):
    runner, data = first_report(tmp_path, small("pair-2d"))
    assert runner.op("second")["problems"] == []
    assert verify.check_report(data, 0, runner.inputs) == []


def test_verifier_rejects_hv_perturbed_by_1e9(tmp_path):
    runner, data = first_report(tmp_path, small("pair-2d"))

    def perturb(rows):
        row = next(r for r in rows if r["indicator"] == "hv")
        row["value"] *= 1 + 1e-9

    problems = verify.check_report(rewrite(data, perturb), 0, runner.inputs)
    assert len(problems) == 1 and "sweep gives" in problems[0]
    assert any("differs" in p for p in verify.check_report(rewrite(data, perturb), 0, runner.inputs, data))


def test_verifier_rejects_missing_row(tmp_path):
    runner, data = first_report(tmp_path, small("runs-3d"))

    def drop(rows):
        rows.remove(next(r for r in rows if r["indicator"] == "unfr"))

    problems = verify.check_report(rewrite(data, drop), 0, runner.inputs)
    assert len(problems) == 1 and "do not match the plan" in problems[0]


def test_verifier_rejects_failed_status_and_ci_sum(tmp_path):
    runner, data = first_report(tmp_path, small("pair-2d"))

    def shift_ci(rows):
        next(r for r in rows if r["indicator"] == "ci")["value"] += 1e-9

    assert verify.check_report(data, 1, runner.inputs) == ["exit status 1"]
    problems = verify.check_report(rewrite(data, shift_ci), 0, runner.inputs)
    assert len(problems) == 1 and "sum to 1" in problems[0]


def test_hv2d_matches_rectangle_union():
    points = [(1.0, 5.0), (2.0, 3.0), (2.0, 4.0), (4.0, 1.0), (5.0, 5.0), (7.0, 0.5)]
    # Staircase (1,5), (2,3), (4,1) inside ref (6, 6): strips of width 1, 2, 2.
    assert verify.hv2d(points, (6.0, 6.0)) == 1 * 1 + 2 * 3 + 2 * 5
    assert verify.hv2d([], (1.0, 1.0)) == 0.0


@pytest.mark.parametrize("name", ["pair-2d", "runs-3d", "prefs-5d"])
def test_two_traced_ops_give_equal_counts(tmp_path, name):
    runner, _ = first_report(tmp_path, small(name))
    tracer = tracing.Tracer()
    with tracer:
        a = runner.op("traced", tracer)
        b = runner.op("traced", tracer)
    assert a["problems"] == b["problems"] == []
    counts_a, counts_b = tracer.op_counts(a["op"]), tracer.op_counts(b["op"])
    assert counts_a == counts_b
    assert counts_a["cli.rows_read"] == sum(len(r) for rs in runner.inputs.runs.values() for r in rs)
    assert counts_a["indicators.hypervolume_calls"] > 0
    if name == "pair-2d":
        assert counts_a["core.pair_checks"] > 0


def test_tracer_restores_every_binding(tmp_path):
    before = {
        (mod, attr): value
        for mod, module in sys.modules.items()
        if mod.startswith("paretoeval")
        for attr, value in vars(module).items()
        if callable(value)
    }
    runner, _ = first_report(tmp_path, small("pair-2d"))
    with tracing.Tracer() as tracer:
        runner.op("traced", tracer)
        assert cli.main is not before[("paretoeval.cli", "main")]
    after = {key: getattr(sys.modules[key[0]], key[1]) for key in before}
    assert all(after[key] is before[key] for key in before)


def test_self_times_and_remainder_add_up_to_wall(tmp_path):
    runner, _ = first_report(tmp_path, small("runs-3d"))
    tracer = tracing.Tracer()
    with tracer:
        op = runner.op("traced", tracer)
    metrics = tracing.layer_metrics(tracer, op["op"], op["seconds"])
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total > 0 and metrics["trace.unattributed_s"] >= 0
    assert math.isclose(total + metrics["trace.unattributed_s"], op["seconds"], rel_tol=1e-9)
    nested = [s for s in tracer.spans if s.parent >= 0]
    assert nested, "spans must nest"
    assert metrics["cli.main_incl_s"] <= op["seconds"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pair-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
