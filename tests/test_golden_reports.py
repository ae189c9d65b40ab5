"""Golden reports: ``evaluate``, ``lint``, ``recommend`` and ``stats`` on
the benchmark's three workloads write the same bytes as before.

The inputs come from ``bench/inputs.py``, loaded by path and only read, at
seed 1.  The ``evaluate`` hashes were recorded before the hypervolume
sweeps took raw rows and the nearest-distance kernel dropped its column
minima, both of which promise unchanged values; the others before the
reports were serialized from their dataclasses.  A report byte that moves,
the last bit of a value included, fails here.
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
    "pair-2d": {
        "evaluate": "dac5cd0d625518f9148f642bd31fb394942504162aa8c51d398a83b4a1774d8d",
        "lint": "f03383a7255b47e98f2060185ccb5cbbf443a49ad8c5262f8a9d3a681ce7f1ed",
        "recommend": "b9dbda4bab080878b3baf89270bb86a576fb7c8b8ec80d8e6e5a94458bb02df2",
        "stats": "c753156a9a15c6e7c3d035026d1f5b4d98247d4a15eb4b9249695468bbf78777",
    },
    "runs-3d": {
        "evaluate": "cad444edcca84c07d8a97cdd6d5115b22f9cb24a915d61893e53918fa32a583f",
        "lint": "9321ce69735f059f1a7aaf7a61c9e623de887457d8d630b790e1e5907f56e310",
        "recommend": "53b7209493264809cc858020b404a9f3c2e6b7fa2d67324a7423971262d4fa06",
        "stats": "d8276fb3137a432507b3165e6d77d04441ccf99a370e32d831b95bb417d4c0ec",
    },
    "prefs-5d": {
        "evaluate": "0c04ddf3c60a6e2cc6adc1aaf8b5a2d9a1ac54b273aa7a5246d4f0ce834c83d5",
        "lint": "ae17bea7abae9ae9fbe8102e2eb169b9c7770869cc871866f2a439e1da50f779",
        "recommend": "6729248a0628787a56440ebaa727847bebd8249b854a484f4c88c7077b57caa5",
        "stats": "f8e8b470a314d330fbb6f29b89fab1f19149df0b4cad924ee948bb559e183fba",
    },
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


@pytest.fixture(scope="module")
def manifests(bench_inputs, tmp_path_factory):
    """Each workload's manifest at seed 1, generated on first use."""
    made = {}

    def manifest(name):
        if name not in made:
            spec = bench_inputs.WORKLOADS[name]
            made[name] = bench_inputs.generate(spec, 1, tmp_path_factory.mktemp(name))
        return made[name].manifest

    return manifest


@pytest.mark.parametrize(
    "name, command",
    [
        # An evaluate report keeps the bare workload id it has always had.
        pytest.param(
            name, command, id=name if command == "evaluate" else f"{name}-{command}"
        )
        for name, hashes in GOLDEN_SHA256.items()
        for command in hashes
    ],
)
def test_report_bytes_unchanged(manifests, tmp_path, name, command):
    report = tmp_path / "report.json"
    argv = [command, "--manifest", str(manifests(name)), "--out", str(report)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name][command]
