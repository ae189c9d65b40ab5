"""Golden reports: ``evaluate`` on the benchmark's three workloads writes
the same bytes as before.

The inputs come from ``bench/inputs.py``, loaded by path and only read, at
seed 1.  The hashes were recorded before the hypervolume sweeps took raw
rows and the nearest-distance kernel dropped its column minima, both of
which promise unchanged values; a report byte that moves, the last bit of a
value included, fails here.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from paretoeval import cli

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"

GOLDEN_SHA256 = {
    "pair-2d": "dac5cd0d625518f9148f642bd31fb394942504162aa8c51d398a83b4a1774d8d",
    "runs-3d": "cad444edcca84c07d8a97cdd6d5115b22f9cb24a915d61893e53918fa32a583f",
    "prefs-5d": "0c04ddf3c60a6e2cc6adc1aaf8b5a2d9a1ac54b273aa7a5246d4f0ce834c83d5",
}


@pytest.fixture(scope="module")
def bench_inputs():
    spec = importlib.util.spec_from_file_location("golden_bench_inputs", BENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class is built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", list(GOLDEN_SHA256))
def test_report_bytes_unchanged(bench_inputs, tmp_path, name):
    generated = bench_inputs.generate(
        bench_inputs.WORKLOADS[name], 1, tmp_path / "inputs"
    )
    report = tmp_path / "report.json"
    argv = ["evaluate", "--manifest", str(generated.manifest), "--out", str(report)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN_SHA256[name]
