"""Benchmark of `paretoeval evaluate`, end to end and per layer.

One op is an in-process call to
``paretoeval.cli.main(["evaluate", "--manifest", M, "--out", R])`` on inputs
generated from ``--seed``.  Ops run in a closed loop: one client, one
process, no threads, stdout sent to a buffer and every ``EvaluationWarning``
captured under the "always" filter, so each op does the same work.  One
warm-up op precedes any timing, and every op's report is checked outside
the timed region.

    python3 bench/run.py --workload pair-2d --seed 1 --seconds 25 --trace 0

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics from one traced op with ``--trace 1``).  The line before it holds
the provenance, which is also written with per-op details (and the spans,
when traced) under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import inputs
import tracing
import verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_ROUNDS = 5
MIN_TIMED_OPS = 5

PER_LAYER = (
    "indicators.contribution_s",
    "core.pair_checks",
    "indicators.hypervolume_s",
    "indicators.hypervolume_calls",
    "indicators.unfr_s",
    "indicators.unfr_calls",
    "indicators.unfr_incl_s",
    "indicators.grid_diversity_s",
    "core.front_rows_in",
    "core.nondominated_front_s",
    "core.nondominated_front_calls",
    "core.front_rows_kept",
    "preprocess.build_reference_set_s",
    "preprocess.build_reference_set_incl_s",
    "preprocess.build_reference_set_calls",
    "preprocess.build_reference_point_calls",
    "doe.select_representative_run_s",
    "doe.select_representative_run_incl_s",
    "cli.load_manifest_s",
    "cli.load_solution_set_s",
    "cli.rows_read",
    "cli.prepare_s",
    "preprocess.to_minimization_s",
    "preprocess.screen_trivial_s",
    "preprocess.apply_clear_preferences_s",
    "preprocess.apply_vague_preferences_s",
    "preprocess.normalize_s",
    "preprocess.build_reference_point_s",
    "indicators.gd_plus_s",
    "indicators.spread_delta_s",
    "guidance.recommend_s",
    "guidance.lint_s",
    *(f"{layer}.self_s" for layer in tracing.LAYERS),
    "trace.unattributed_s",
    "trace.overhead_ratio",
)


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import ``paretoeval`` from the checkout's ``src`` directory."""
    if not (SRC / "paretoeval" / "__init__.py").is_file():
        raise ProgramMissing(f"no paretoeval package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import paretoeval
    from paretoeval import cli
    from paretoeval.core import EvaluationWarning

    return paretoeval, cli, EvaluationWarning


def setup_round(w: inputs.Workload, seed: int, directory: Path) -> tuple[float, inputs.Inputs]:
    """Generate and write the inputs, then import the package in a fresh
    interpreter; returns the seconds taken and the inputs."""
    shutil.rmtree(directory, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    generated = inputs.generate(w, seed, directory)
    subprocess.run(
        [sys.executable, "-c", "import paretoeval"], env=env, cwd=ROOT, check=True
    )
    return time.perf_counter() - t0, generated


class Runner:
    """Runs and checks evaluate ops on one set of inputs."""

    def __init__(self, cli, warning_cls, generated: inputs.Inputs, out: Path):
        self.cli = cli
        self.warning_cls = warning_cls
        self.inputs = generated
        self.out = out
        self.first: bytes | None = None
        self.ops: list[dict] = []

    def op(self, kind: str, tracer: tracing.Tracer | None = None) -> dict:
        """One op; the timed region is the ``cli.main`` call alone."""
        argv = ["evaluate", "--manifest", str(self.inputs.manifest), "--out", str(self.out)]
        record = {"op": len(self.ops), "kind": kind}
        self.out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        status, error = None, None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
            stderr
        ), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", self.warning_cls)
            if tracer is not None:
                tracer.begin_op(record["op"])
            t0 = time.perf_counter()
            try:
                status = self.cli.main(argv)
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            record["seconds"] = time.perf_counter() - t0
        record["warnings"] = sum(
            issubclass(c.category, self.warning_cls) for c in caught
        )
        if error is None:
            data = self.out.read_bytes() if self.out.is_file() else b""
            problems = verify.check_report(data, status, self.inputs, self.first)
            if self.first is None:
                self.first = data
            if stderr.getvalue():
                problems.append(f"stderr: {stderr.getvalue().strip()}")
        else:
            problems = [error]
        record["problems"] = problems
        self.ops.append(record)
        return record


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    with contextlib.suppress(OSError):
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                info["caches"][f"L{level}"] = (index / "size").read_text().strip()
    return info


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    w = inputs.WORKLOADS[workload]
    paretoeval, cli, warning_cls = load_program()
    import numpy

    base = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    setup = []
    for k in range(SETUP_ROUNDS):
        took, generated = setup_round(w, seed, base / f"inputs{k}")
        setup.append(took)

    runner = Runner(cli, warning_cls, generated, base / "report.json")
    runner.op("warm-up")
    timed = []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or len(timed) < MIN_TIMED_OPS:
        timed.append(runner.op("timed")["seconds"])
    p50 = statistics.median(timed)

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        with tracer:
            traced = runner.op("traced", tracer)
        layer = tracing.layer_metrics(tracer, traced["op"], traced["seconds"])
        layer["trace.overhead_ratio"] = traced["seconds"] / p50
        metrics = {name: layer.get(name, 0) for name in PER_LAYER}
    else:
        tracemalloc.start()
        try:
            runner.op("peak-memory")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        metrics = {
            "evaluate_p50_s": p50,
            "peak_mem_mb": peak / 1e6,
            "setup_s": statistics.median(setup),
        }

    failed = sum(1 for op in runner.ops if op["problems"])
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "timed_ops": len(timed),
        "error_rate": failed / len(runner.ops),
        "inputs_sha256": generated.sha256,
        "report_sha256": hashlib.sha256(runner.first or b"").hexdigest(),
        "git_commit": git_commit(),
        "machine": machine(),
        "numpy": numpy.__version__,
        "paretoeval": paretoeval.__version__,
    }
    details = {
        "provenance": provenance,
        "setup_s": setup,
        "ops": runner.ops,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n")
    if tracer is not None:
        spans = [vars(s) for s in tracer.spans]
        (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    shutil.rmtree(base, ignore_errors=True)
    print(json.dumps(provenance, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
