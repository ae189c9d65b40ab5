"""Golden reports: ``evaluate``, ``lint``, ``recommend`` and ``stats``,
the files ``plot-data`` writes and ``compare alg0 alg1`` with each pairwise
indicator, on the benchmark's three workloads, write the same bytes as
before.

The inputs come from ``bench/inputs.py``, loaded by path and only read, at
seed 1.  The ``evaluate`` hashes were recorded before the hypervolume
sweeps took raw rows and the nearest-distance kernel dropped its column
minima, both of which promise unchanged values (``prefs-5d``'s again when
its removed rows turned to natural units: only the signs of its maximised
f4 and f5 in ``preprocessing.removals`` moved); the others before the
reports were serialized from their dataclasses; the ``plot-data`` and
``compare`` ones before the preprocessing rules moved into ``preprocess``
and ``compare`` read the pooled runs.  A report byte that moves,
the last bit of a value included, fails here.

On the same workloads, ``evaluate``'s reference-set size, hv reference
point, hv values and representative runs match the ones rebuilt from
``tests/oracles.py`` and plain numpy; and on them and on two small manifests
that once split them, ``lint`` exits with the status ``evaluate`` reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from paretoeval import EvaluationWarning, cli

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
        "evaluate": "2c45acc17b198b64e7234892868305a14b74495945a2eb80709be7508f9394a9",
        "lint": "ae17bea7abae9ae9fbe8102e2eb169b9c7770869cc871866f2a439e1da50f779",
        "recommend": "6729248a0628787a56440ebaa727847bebd8249b854a484f4c88c7077b57caa5",
        "stats": "f8e8b470a314d330fbb6f29b89fab1f19149df0b4cad924ee948bb559e183fba",
    },
}

# plot-data: each written file's name and hash.
GOLDEN_PLOT_SHA256 = {
    "pair-2d": {
        "alg0.csv": "e34772117a0c94cfb9a5390192002860f5c64b3cd974ba1bc452cfa894b37c4d",
        "alg1.csv": "0fdf04f0131920a38dc028112482f175c23d226af8361a9a9a146cba4dd6983f",
    },
    "runs-3d": {
        "alg0.csv": "c3f4fb07013aa131078e901fc90a14ab6c6b448898dd6ad40d7d41c102e19ae1",
        "alg1.csv": "67cad7106fbfe485467796fbdb40a12be9db172875c56dfb3536466f821c12a1",
        "alg2.csv": "6f1a86cb11bc6297b6412ad2a9aec8d4e638e4aa8d3735327b49ed667b55376e",
        "alg3.csv": "f0f909fcedeb3fab26296c7a46e13f90583b448a47489e3c9d70d56b87d3f725",
    },
    "prefs-5d": {
        "parallel-coordinates.csv": (
            "c7c8f52dee9b2f830b9abb51e84b12c033e7aa3e6a1700214d76a58458ea6de6"
        ),
    },
}

# compare alg0 alg1: the report per pairwise indicator.
GOLDEN_COMPARE_SHA256 = {
    "pair-2d": {
        "ci": "f3f7d3b4a788841b8609fb16f46753453de67b160b31d8945b096ab222d99e61",
        "c": "a8315d1a5791cb18b1724a14b41400e1e85acdec41b296f103aad0e3bd899ddd",
        "epsilon": "7eaf653f0916e85d5a32ebd1be81bd2a8ffe555fcf8d7554e08e832cde5f0d10",
    },
    "runs-3d": {
        "ci": "3386a9e5f44ac49b8b4794b3624035a72599db2c54585c90e7f08d402709e333",
        "c": "2728bf66b4e46e83acaebe26165ae0c649d90e26ecb06454fe624bbf423f1fe2",
        "epsilon": "490f4d34724a271b4a63f6389a40ceb39637a9b6c9dbac940302567ee3487e38",
    },
    "prefs-5d": {
        "ci": "6521dd2d4eaee46ac717270e58c1da595839b39fe9b904c63c317ae71f9c4ce6",
        "c": "249aacd3d7f046188f76ea8bf5368cdbd36d57789bef303c0c8a5a9ca0b8eb2a",
        "epsilon": "574a51ba7ec8975a2f0c39a38a907f921ce89817fc991878befae4b4a49982bf",
    },
}


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    _run([command, "--manifest", str(manifests(name)), "--out", str(report)])
    assert _sha256(report) == GOLDEN_SHA256[name][command]


@pytest.mark.parametrize("name", list(GOLDEN_PLOT_SHA256))
def test_plot_data_bytes_unchanged(manifests, tmp_path, name):
    plots = tmp_path / "plots"
    _run(["plot-data", "--manifest", str(manifests(name)), "--out", str(plots)])
    written = {p.name: _sha256(p) for p in sorted(plots.iterdir())}
    assert written == GOLDEN_PLOT_SHA256[name]


@pytest.mark.parametrize(
    "name, indicator",
    [
        pytest.param(name, indicator, id=f"{name}-{indicator}")
        for name, hashes in GOLDEN_COMPARE_SHA256.items()
        for indicator in hashes
    ],
)
def test_compare_bytes_unchanged(manifests, tmp_path, name, indicator):
    report = tmp_path / "report.json"
    manifest = str(manifests(name))
    argv = ["compare", "--manifest", manifest, "--indicator", indicator]
    _run([*argv, "--out", str(report), "alg0", "alg1"])
    assert _sha256(report) == GOLDEN_COMPARE_SHA256[name][indicator]


@pytest.mark.parametrize("name", list(GOLDEN_SHA256))
def test_evaluate_yardsticks_match_oracles(manifests, tmp_path, name):
    path = manifests(name)
    report = tmp_path / "report.json"
    _run(["evaluate", "--manifest", str(path), "--out", str(report)])
    results = json.loads(report.read_text())
    runs = cli.prepare(cli.load_manifest(path)).algorithms
    live = {
        (alg, r): run.values()
        for alg, alg_runs in runs.items()
        for r, run in enumerate(alg_runs)
        if len(run)
    }
    union = np.vstack(list(live.values()))
    front = np.unique(union[oracles.kernel_front_mask(union)], axis=0)
    nadir = front.max(axis=0)
    point = [float(v) for v in nadir + (nadir - front.min(axis=0)) / 10.0]
    per_run = [row for row in results["results"] if "run" in row]
    assert {row["config"]["reference_set_size"] for row in per_run} == {len(front)}
    hv = {
        (row["algorithm"], row["run"]): row
        for row in per_run
        if row["indicator"] == "hv"
    }
    assert hv.keys() == live.keys()
    for slot, row in hv.items():
        assert row["config"]["reference_point"] == point
        expected = oracles.hv_filter_sweep_oracle(live[slot], point)
        assert repr(row["value"]) == repr(expected)
    # Each algorithm's run closest to the lower median of its hv values,
    # the lowest run on a tie.
    picked = {}
    for alg in runs:
        values = {r: row["value"] for (a, r), row in hv.items() if a == alg}
        median = sorted(values.values())[(len(values) - 1) // 2]
        picked[alg] = min(values, key=lambda r: (abs(values[r] - median), r))
    assert results["representative_runs"] == picked


# Three objectives, f3 constant: a grid_diversity column once failed
# evaluate while lint found nothing.  Weights of the wrong length once
# passed every command but evaluate.
PROBES = {
    "constant-f3": {},
    "short-weights": {"preferences": {"weights": [0.5, 0.5]}},
}


def _probe(directory, extra):
    runs = {"alg0": "1,5,2\n2,3,2\n", "alg1": "1.5,4,2\n3,1,2\n"}
    for alg, rows in runs.items():
        (directory / f"{alg}.csv").write_text("f1,f2,f3\n" + rows, encoding="utf-8")
    doc = {
        "objectives": [{"name": f"f{j}"} for j in (1, 2, 3)],
        "algorithms": [{"name": alg, "runs": [f"{alg}.csv"]} for alg in runs],
        **extra,
    }
    path = directory / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", [*GOLDEN_SHA256, *PROBES])
def test_lint_exits_as_evaluate_reports(manifests, tmp_path, capsys, name):
    """``lint`` exits with the ``exit_status`` of ``evaluate``'s report; a
    manifest ``evaluate`` writes no report for makes both exit 2."""
    path = manifests(name) if name in GOLDEN_SHA256 else _probe(tmp_path, PROBES[name])
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EvaluationWarning)
        argv = ["--manifest", str(path)]
        evaluated = cli.main(["evaluate", *argv, "--out", str(report)])
        linted = cli.main(["lint", *argv])
    capsys.readouterr()
    if report.exists():
        assert linted == evaluated == json.loads(report.read_text())["exit_status"]
    else:
        assert linted == evaluated == cli.EXIT_ERROR
