"""Golden reports: ``evaluate``, ``lint``, ``recommend`` and ``stats``,
the files ``plot-data`` writes and ``compare alg0 alg1`` with each pairwise
indicator, on the benchmark's three workloads, write the same bytes as
before.

The inputs come from ``bench/inputs.py``, loaded by path and only read, at
seed 1.  The ``evaluate`` hashes were recorded before the hypervolume
sweeps took raw rows and the nearest-distance kernel dropped its column
minima, both of which promise unchanged values (``prefs-5d``'s again when
its removed rows turned to natural units: only the signs of its maximised
f4 and f5 in ``preprocessing.removals`` moved, and again when each
removal's ``index`` came to name its row in the run file rather than in
the set its step was given); the others before the
reports were serialized from their dataclasses; the ``plot-data`` and
``compare`` ones before the preprocessing rules moved into ``preprocess``
and ``compare`` read the pooled runs; the ``stats`` ones when its report
gained its ``L-DOE-SOLE`` finding and exit status.  A report byte that moves,
the last bit of a value included, fails here.  Two real-size experiments
from the same generator at seed 7, m=3 with 2 x 10 runs and m=5 with 2 x 2
runs of 2000 rows each, pin their ``evaluate`` reports, and the m=3 one its
``plot-data`` files; those hashes were recorded before reports were written
by ``json.dump`` and spread took the kernel's row sort.

On the same workloads and a mid-size m=3 experiment (2 x 3 runs of 300
rows) at seeds 1-3, ``evaluate``'s removed rows, results, aggregates,
representative runs and exit status match the ones rebuilt from
``tests/oracles.py``, plain numpy and ``statistics``; on the workloads and
on two small manifests that once split them,
``lint`` exits with the status ``evaluate`` reports.  Reversing the order of
the algorithms and of each algorithm's runs keeps every value, pick,
finding and exit status (metamorphic relation R3); scaling every value and
preference by a power of two scales only hv (R1), flipping one
objective's sign and direction turns over only its natural values in the
removed rows (R2), and shuffling each run file's rows moves only
``gd_plus`` and hv at m >= 4, within stated bounds (R4).  ``evaluate
--indicator c`` matches ``coverage_oracle`` on the pooled survivors.  On
a generated m=4 run front, ``hypervolume`` stays within four machine
epsilons of the exact value.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import statistics
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import make_set
from paretoeval import EvaluationWarning, NormalizationBounds, cli
from paretoeval.indicators import hypervolume

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"

GOLDEN_SHA256 = {
    "pair-2d": {
        "evaluate": "dac5cd0d625518f9148f642bd31fb394942504162aa8c51d398a83b4a1774d8d",
        "lint": "f03383a7255b47e98f2060185ccb5cbbf443a49ad8c5262f8a9d3a681ce7f1ed",
        "recommend": "b9dbda4bab080878b3baf89270bb86a576fb7c8b8ec80d8e6e5a94458bb02df2",
        "stats": "c6559dee8d1d9a6182673f2cf708873cc066addae69122a26d8201cb3fe6ad79",
    },
    "runs-3d": {
        "evaluate": "cad444edcca84c07d8a97cdd6d5115b22f9cb24a915d61893e53918fa32a583f",
        "lint": "9321ce69735f059f1a7aaf7a61c9e623de887457d8d630b790e1e5907f56e310",
        "recommend": "53b7209493264809cc858020b404a9f3c2e6b7fa2d67324a7423971262d4fa06",
        "stats": "210d03a695b1d07a66090e2ce666ef40199531b4e8bb30fbbf408ab5d689b006",
    },
    "prefs-5d": {
        "evaluate": "54a5d80a4cf639d1dba632b0e46b04f40abc741829a2c02d8f53dcd987b475d7",
        "lint": "ae17bea7abae9ae9fbe8102e2eb169b9c7770869cc871866f2a439e1da50f779",
        "recommend": "6729248a0628787a56440ebaa727847bebd8249b854a484f4c88c7077b57caa5",
        "stats": "f42cfe80563c0497a15ab4f448307d0f5985e06899c2576bccc7116f07121fa0",
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


# Real-size experiments from the same generator at seed 7: two algorithms
# with runs of 1000 front and 1000 filler rows each, and the default plan.
# The m=5 one reaches the sparse front kernel inside hypervolume's WFG
# nodes, which no workload above does.
REAL_WORKLOADS = {
    "real-3d": {"m": 3, "runs": 10},
    "real-5d": {"m": 5, "runs": 2},
}

REAL_SHA256 = {
    "real-3d": {
        "evaluate": "f5013425cd78341b9d8f93b6aaa5dcbfee2e795fd0aa94b165412620dbecd2e4",
        "plot-data": {
            "alg0.csv": "bf1630602754dc7a68b21ef6bcb03d4b917917b192d6598bee9a1076e92a274c",
            "alg1.csv": "4808b0b492cd0c33ff38c67c08f775855d55eb16f84a90ac52cfc59387342416",
        },
    },
    "real-5d": {
        "evaluate": "24f1298d42931cd80135e02f9cfc2d452eafe6c8c5d0389a4e6c9bce87e916b8",
    },
}


# A mid-size experiment from the same generator, checked against the
# oracles only: m=3 with 2 x 3 runs of 150 front and 150 filler rows each,
# and the default plan.
MID_WORKLOADS = {
    "mid-3d": {
        "m": 3, "algorithms": 2, "runs": 3, "front_rows": 150, "filler_rows": 150,
        "indicators": (),
    },
}


def _run(argv, status=cli.EXIT_OK):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == status


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
    """Each workload's manifest at a seed, 1 unless named, generated on
    first use."""
    made = {}

    def manifest(name, seed=1):
        if (name, seed) not in made:
            spec = bench_inputs.WORKLOADS.get(name) or bench_inputs.Workload(
                name=name, **MID_WORKLOADS[name]
            )
            directory = tmp_path_factory.mktemp(f"{name}-{seed}")
            made[name, seed] = bench_inputs.generate(spec, seed, directory)
        return made[name, seed].manifest

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
    # stats flags its own statistics as the sole comparison: exit 1.
    status = cli.EXIT_WARNINGS if command == "stats" else cli.EXIT_OK
    _run([command, "--manifest", str(manifests(name)), "--out", str(report)], status)
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


@pytest.fixture(scope="module")
def real_manifest(bench_inputs, tmp_path_factory):
    """A real-size experiment's manifest, generated on first use."""
    made = {}

    def manifest(name):
        if name not in made:
            spec = bench_inputs.Workload(
                name=name, algorithms=2, front_rows=1000, filler_rows=1000,
                indicators=(), **REAL_WORKLOADS[name],
            )
            made[name] = bench_inputs.generate(spec, 7, tmp_path_factory.mktemp(name))
        return str(made[name].manifest)

    return manifest


@pytest.mark.parametrize("name", list(REAL_SHA256))
def test_real_size_report_bytes_unchanged(real_manifest, tmp_path, name):
    report = tmp_path / "report.json"
    _run(["evaluate", "--manifest", real_manifest(name), "--out", str(report)])
    assert _sha256(report) == REAL_SHA256[name]["evaluate"]


def test_real_size_plot_data_bytes_unchanged(real_manifest, tmp_path):
    plots = tmp_path / "plots"
    _run(["plot-data", "--manifest", real_manifest("real-3d"), "--out", str(plots)])
    written = {p.name: _sha256(p) for p in sorted(plots.iterdir())}
    assert written == REAL_SHA256["real-3d"]["plot-data"]


def _tuples(V):
    return [tuple(row) for row in V.tolist()]


# The exit status each finding severity asks for without --strict.
EXIT_BY_SEVERITY = {
    "info": cli.EXIT_OK, "warning": cli.EXIT_WARNINGS, "error": cli.EXIT_ERROR
}


def _preprocessed_by_oracles(manifest):
    """``(removals, runs)``: each run file read, oriented, screened, cleared
    and clamped by ``tests/oracles.py`` row by row, as ``cli.prepare`` runs
    those steps; the removals in report form, each with its row in the run
    file, the runs by algorithm."""
    prefs, removals, runs = manifest.preferences, [], {}
    steps = (
        lambda A, log: oracles.filter_by_rules_oracle(A, prefs.screen, log),
        lambda A, log: oracles.filter_by_rules_oracle(A, prefs.clear, log),
        lambda A, log: oracles.apply_vague_preferences_oracle(A, prefs, log),
    )
    for alg, files in manifest.algorithms.items():
        for r, rel in enumerate(files):
            name = alg if len(files) == 1 else f"{alg}#{r}"
            path = manifest.resolve(rel)
            raw = oracles.load_solution_set_oracle(path, manifest.objectives, name)
            work = oracles.to_minimization_oracle(raw)
            file_rows = list(range(len(raw)))  # the file row of each row of work
            for step in steps:
                log = []
                work = step(work, log)
                gone = set()
                for rm in log:
                    natural = [k * v for k, v in zip(work.signs, rm.solution.objectives)]
                    removals.append(
                        {"set": name, "index": file_rows[rm.index], "rule": rm.rule,
                         "objectives": natural}
                    )
                    gone.add(rm.index)
                file_rows = [row for k, row in enumerate(file_rows) if k not in gone]
            runs.setdefault(alg, []).append(_tuples(work.values()))
    return removals, runs


@pytest.mark.parametrize(
    "name, seed",
    [
        # Seed 1 keeps the bare workload id it has always had.
        pytest.param(name, seed, id=name if seed == 1 else f"{name}-seed{seed}")
        for name in [*GOLDEN_SHA256, *MID_WORKLOADS]
        for seed in (1, 2, 3)
    ],
)
def test_evaluate_yardsticks_match_oracles(manifests, tmp_path, name, seed):
    """Each removal, result, aggregate and pick of an ``evaluate`` report and
    its exit status, rebuilt with ``tests/oracles.py``, plain numpy and
    ``statistics``: the removals and ``cli.prepare``'s runs from the files,
    the rest from those runs.  Bit for bit where the code promises bits,
    within a relative 1e-12 for spread and the aggregates, whose sums run in
    another order."""
    path = manifests(name, seed)
    report = tmp_path / "report.json"
    _run(["evaluate", "--manifest", str(path), "--out", str(report)])
    results = json.loads(report.read_text())
    prepared = cli.prepare(cli.load_manifest(path))
    runs = prepared.algorithms
    removals, oracle_runs = _preprocessed_by_oracles(prepared.manifest)
    assert results["preprocessing"]["removals"] == removals
    assert bool(removals) == (name == "prefs-5d")  # the one workload with rules
    assert {alg: [_tuples(run.values()) for run in rs] for alg, rs in runs.items()} == (
        oracle_runs
    )
    live = {
        (alg, r): run
        for alg, alg_runs in runs.items()
        for r, run in enumerate(alg_runs)
        if len(run)
    }
    union = np.vstack([run.values() for run in live.values()])
    # Unique rows in lexicographic order: spread's ends are the first and last.
    front = np.unique(union[oracles.kernel_front_mask(union)], axis=0)
    nadir = front.max(axis=0)
    point = [float(v) for v in nadir + (nadir - front.min(axis=0)) / 10.0]
    bounds = NormalizationBounds(union.min(axis=0), union.max(axis=0))
    *scaled, scaled_front = oracles.normalize_oracle(
        [*live.values(), make_set("front", _tuples(front))], bounds
    )
    scaled = dict(zip(live, (s.values() for s in scaled)))
    ends = _tuples(scaled_front.values()[[0, -1]])
    cells = oracles.grid_diversity_oracle([_tuples(r.values()) for r in live.values()])
    shares = dict(zip(live, cells))
    union_front = set(_tuples(front))

    def expected(indicator, slot):
        values = live[slot].values()
        if indicator == "hv":
            return oracles.hv_filter_sweep_oracle(values, point)
        if indicator == "gd_plus":
            return oracles.gd_plus_matrix(scaled[slot], scaled_front.values())
        if indicator == "unfr":
            return len(set(_tuples(values)) & union_front) / len(front)
        if indicator == "grid_diversity":
            return shares[slot]
        assert indicator == "spread"
        return oracles.spread_oracle(_tuples(scaled[slot]), *ends)

    per_run, pairwise = {}, {}
    for row in results["results"]:
        if "run" in row:
            slot = row["algorithm"], row["run"]
            per_run.setdefault(row["indicator"], {})[slot] = row
        else:
            pairwise[row["indicator"], row["algorithm"], row["against"]] = row
    for indicator, column in per_run.items():
        assert column.keys() == live.keys()
        for slot, row in column.items():
            config = row["config"]
            assert config["reference_set_size"] == len(front)
            assert config["reference_point"] == point
            assert config["bounds_ideal"] == list(bounds.ideal)
            assert config["bounds_nadir"] == list(bounds.nadir)
            value = expected(indicator, slot)
            if indicator == "spread":
                assert row["value"] == pytest.approx(value, rel=1e-12)
            else:
                assert repr(row["value"]) == repr(value)
    # ci, the one pairwise column a plan picks, reads the pooled runs.
    expected_pairs = {}
    if "ci" in (p["name"] for p in results["plan"]["indicators"]):
        pooled = {alg: _tuples(s.values()) for alg, s in prepared.pooled().items()}
        first, second = pooled
        for a, b in ((first, second), (second, first)):
            expected_pairs["ci", a, b] = oracles.contribution_oracle(pooled[a], pooled[b])
    assert {key: row["value"] for key, row in pairwise.items()} == expected_pairs
    # Each algorithm's mean and median per column, in column order.
    aggregates = []
    for alg in runs:
        for indicator, column in per_run.items():
            values = [row["value"] for (a, _), row in column.items() if a == alg]
            mean, median = statistics.mean(values), statistics.median(values)
            aggregates.append(
                {
                    "algorithm": alg,
                    "indicator": indicator,
                    "mean": pytest.approx(mean, rel=1e-12),
                    "median": pytest.approx(median, rel=1e-12),
                    "runs": len(values),
                }
            )
    assert results["aggregates"] == aggregates
    # Each algorithm's run closest to the lower median of its hv values,
    # the lowest run on a tie.
    picked, hv = {}, per_run["hv"]
    for alg in runs:
        values = {r: row["value"] for (a, r), row in hv.items() if a == alg}
        median = sorted(values.values())[(len(values) - 1) // 2]
        picked[alg] = min(values, key=lambda r: (abs(values[r] - median), r))
    assert results["representative_runs"] == picked
    severities = [EXIT_BY_SEVERITY[f["severity"]] for f in results["findings"]]
    assert results["exit_status"] == max(severities, default=cli.EXIT_OK)


def _by_file(report, doc):
    """An ``evaluate`` report's per-run rows and representative runs with
    each run named by its file, its pairwise rows keyed by opponent, and its
    aggregates keyed by algorithm and indicator."""
    files = {a["name"]: a["runs"] for a in doc["algorithms"]}
    rows = {}
    for row in report["results"]:
        alg = row["algorithm"]
        slot = files[alg][row["run"]] if "run" in row else row["against"]
        rows[alg, slot, row["indicator"]] = {**row, "run": slot}
    picks = {alg: files[alg][r] for alg, r in report["representative_runs"].items()}
    aggregates = {(a["algorithm"], a["indicator"]): a for a in report["aggregates"]}
    return rows, picks, aggregates


@pytest.mark.parametrize("name", list(GOLDEN_SHA256))
def test_reversed_algorithms_and_runs_keep_every_value(manifests, tmp_path, name):
    """Metamorphic relation R3: reversing the order of the algorithms, and of
    each algorithm's runs, changes no value a run or a pair gets, nor the run
    each algorithm's pick names, the findings or the exit status.  An
    aggregate's median and run count are equal too; its mean sums in run
    order, so it may move by a few ulp."""
    path = manifests(name)
    doc = json.loads(path.read_text())
    flipped = {
        **doc,
        "algorithms": [
            {**a, "runs": a["runs"][::-1]} for a in doc["algorithms"][::-1]
        ],
    }
    flipped_path = path.with_name("reversed.json")
    flipped_path.write_text(json.dumps(flipped), encoding="utf-8")
    reports = []
    for manifest in (path, flipped_path):
        out = tmp_path / f"{manifest.stem}-report.json"
        _run(["evaluate", "--manifest", str(manifest), "--out", str(out)])
        reports.append(json.loads(out.read_text()))
    (rows, picks, aggregates), (rows_r, picks_r, aggregates_r) = (
        _by_file(report, d) for report, d in zip(reports, (doc, flipped))
    )
    assert rows.keys() == rows_r.keys()
    for key, row in rows.items():
        assert repr(rows_r[key]) == repr(row), key
    assert picks_r == picks
    for key in ("findings", "exit_status"):
        assert reports[1][key] == reports[0][key]
    assert aggregates.keys() == aggregates_r.keys()
    for key, agg in aggregates.items():
        flip = aggregates_r[key]
        assert (repr(flip["median"]), flip["runs"]) == (repr(agg["median"]), agg["runs"])
        ulp = math.ulp(max(abs(agg["mean"]), abs(flip["mean"])))
        assert abs(flip["mean"] - agg["mean"]) <= 4 * ulp, key


@pytest.mark.parametrize("repeated", [False, True], ids=["runs", "first-run-twice"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_coverage_column_matches_its_oracle(manifests, tmp_path, seed, repeated):
    """Each ``c`` row of ``evaluate --indicator c`` on ``pair-2d`` is
    ``coverage_oracle`` of its algorithm's pooled survivors against its
    opponent's, bit for bit.  Listing each algorithm's first run twice puts
    every row of that run twice in the pooled sets, which ``c`` counts once."""
    path = manifests("pair-2d", seed)
    if repeated:
        doc = json.loads(path.read_text())
        for entry in doc["algorithms"]:
            entry["runs"] = [*entry["runs"], entry["runs"][0]]
        path = path.with_name("repeated.json")
        path.write_text(json.dumps(doc), encoding="utf-8")
    report = tmp_path / "report.json"
    argv = ["evaluate", "--manifest", str(path), "--indicator", "c"]
    with contextlib.redirect_stdout(io.StringIO()):
        # c alone leaves aspects uncovered: a warning, exit 1.
        assert cli.main([*argv, "--out", str(report)]) == cli.EXIT_WARNINGS
    rows = json.loads(report.read_text())["results"]
    pooled = cli.prepare(cli.load_manifest(path)).pooled()
    assert [(r["algorithm"], r["against"]) for r in rows] == [
        ("alg0", "alg1"), ("alg1", "alg0")
    ]
    for row in rows:
        first, second = (pooled[row[key]].values() for key in ("algorithm", "against"))
        expected = oracles.coverage_oracle(_tuples(first), _tuples(second))
        assert repr(row["value"]) == repr(expected)


def _mapped(path, directory, factors):
    """The experiment at ``path`` with objective j's natural values, and its
    preference thresholds, saturations and floors, times ``factors[j]``,
    written under ``directory``.  A negative factor also flips the
    objective's direction and its screen and clear kinds."""
    doc = json.loads(path.read_text())
    flip = {"at_most": "at_least", "at_least": "at_most", "min": "max", "max": "min"}
    column = {o["name"]: j for j, o in enumerate(doc["objectives"])}
    for j, objective in enumerate(doc["objectives"]):
        if factors[j] < 0:
            objective["direction"] = flip[objective["direction"]]
    prefs = doc.get("preferences", {})
    for rule in (*prefs.get("screen", ()), *prefs.get("clear", ())):
        f = factors[column[rule["objective"]]]
        rule["threshold"] *= f
        rule["kind"] = flip[rule["kind"]] if f < 0 else rule["kind"]
    for clamp in prefs.get("vague", ()):
        f = factors[column[clamp["objective"]]]
        for key in ("saturation", "hard_floor"):
            if key in clamp:
                clamp[key] *= f

    def scaled(line):
        row = zip(factors, map(float, line.split(",")))
        return ",".join(repr(f * x) for f, x in row)

    return _rewritten(path, doc, directory, lambda body: map(scaled, body))


def _rewritten(path, doc, directory, rows):
    """The manifest ``doc`` of the experiment at ``path`` and its run files,
    each file's body lines passed through ``rows``, written under
    ``directory``."""
    directory.mkdir()
    for entry in doc["algorithms"]:
        for rel in entry["runs"]:
            header, *body = (path.parent / rel).read_text().splitlines()
            lines = [header, *rows(body)]
            (directory / rel).write_text("\n".join(lines) + "\n", encoding="utf-8")
    written = directory / "manifest.json"
    written.write_text(json.dumps(doc), encoding="utf-8")
    return written


def _run_files(doc):
    """Each run's set name in the reports of the manifest ``doc``, mapped to
    its run file, in manifest order."""
    return {
        entry["name"] if len(entry["runs"]) == 1 else f"{entry['name']}#{r}": rel
        for entry in doc["algorithms"]
        for r, rel in enumerate(entry["runs"])
    }


def _evaluated(manifest, out):
    _run(["evaluate", "--manifest", str(manifest), "--out", str(out)])
    return json.loads(out.read_text())


def _same_removed_rows(report, mapped):
    """Both reports remove the same rows of the same sets; the removed rows'
    natural values in each, row by row."""
    old, new = (r["preprocessing"]["removals"] for r in (report, mapped))
    assert [(r["set"], r["index"]) for r in new] == [
        (r["set"], r["index"]) for r in old
    ]
    return [(r["objectives"], m["objectives"]) for r, m in zip(old, new)]


def _same_apart_from(report, mapped, *keys):
    """Every top-level field but the results, aggregates, preprocessing and
    ``keys`` is equal in both reports."""
    for key in report.keys() - {"results", "aggregates", "preprocessing", *keys}:
        assert mapped[key] == report[key], key


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", list(GOLDEN_SHA256))
def test_removed_rows_are_their_file_rows(manifests, tmp_path, name, seed):
    """Each removed row of an ``evaluate`` report holds, in natural units,
    the values of the run file's solution row that its ``index`` names,
    counting from 0 and skipping blank lines."""
    path = manifests(name, seed)
    files = _run_files(json.loads(path.read_text()))
    report = _evaluated(path, tmp_path / "report.json")
    for x in report["preprocessing"]["removals"]:
        _, *body = (path.parent / files[x["set"]]).read_text().splitlines()
        row = [line for line in body if line.strip()][x["index"]]
        assert [float(v) for v in row.split(",")] == x["objectives"], x


@pytest.mark.parametrize("k", [3, -2])
@pytest.mark.parametrize("name", list(GOLDEN_SHA256))
def test_power_of_two_scaling_scales_only_hv(manifests, tmp_path, name, k):
    """Metamorphic relation R1: every value, threshold, saturation and floor
    times 2**k leaves every indicator value bit-equal but hv, which is
    exactly 2**(k*m) times its value, scales the report's points, bounds
    and removed rows by 2**k, and keeps every pick, finding and removal."""
    path = manifests(name)
    m = len(json.loads(path.read_text())["objectives"])
    scale = 2.0**k
    report = _evaluated(path, tmp_path / "report.json")
    scaled = _mapped(path, tmp_path / "scaled", [scale] * m)
    mapped = _evaluated(scaled, tmp_path / "r1.json")
    _same_apart_from(report, mapped)
    for old, new in _same_removed_rows(report, mapped):
        assert new == [scale * v for v in old]
    for row, moved in zip(report["results"], mapped["results"], strict=True):
        factor = scale**m if row["indicator"] == "hv" else 1.0
        config = dict(row["config"])
        for key in ("reference_point", "bounds_ideal", "bounds_nadir"):
            if key in config:
                config[key] = [scale * v for v in config[key]]
        expected = {**row, "config": config, "value": factor * row["value"]}
        assert repr(moved) == repr(expected)
    for agg, moved in zip(report["aggregates"], mapped["aggregates"], strict=True):
        factor = scale**m if agg["indicator"] == "hv" else 1.0
        scaled_stats = {key: factor * agg[key] for key in ("mean", "median")}
        assert repr(moved) == repr({**agg, **scaled_stats})


@pytest.mark.parametrize(
    "name, objective",
    [("pair-2d", 0), ("runs-3d", 2), ("prefs-5d", 0), ("prefs-5d", 1), ("prefs-5d", 3)],
)
def test_direction_flip_keeps_every_value(manifests, tmp_path, name, objective):
    """Metamorphic relation R2: negating one objective's column and flipping
    its direction, its screen and clear kinds and its vague values leaves
    the minimised data as it was, so every value, pick and finding is
    bit-equal; only that objective's natural values in the removed rows,
    and its declared direction, turn over.  On ``prefs-5d`` the flipped
    objective carries the screen (f1), clear (f2) or vague (f4) rule."""
    path = manifests(name)
    m = len(json.loads(path.read_text())["objectives"])
    factors = [-1.0 if j == objective else 1.0 for j in range(m)]
    report = _evaluated(path, tmp_path / "report.json")
    flipped_path = _mapped(path, tmp_path / "flipped", factors)
    mapped = _evaluated(flipped_path, tmp_path / "r2.json")
    _same_apart_from(report, mapped, "objectives")
    for key in ("results", "aggregates"):
        assert repr(mapped[key]) == repr(report[key])
    directions = [o["direction"] for o in report["objectives"]]
    directions[objective] = {"min": "max", "max": "min"}[directions[objective]]
    assert [o["direction"] for o in mapped["objectives"]] == directions
    removed = _same_removed_rows(report, mapped)
    assert bool(removed) == (name == "prefs-5d")
    for old, new in removed:
        assert new == [f * v for f, v in zip(factors, old)]


@pytest.mark.parametrize(
    "name, seed",
    [
        pytest.param(name, seed, id=f"{name}-seed{seed}")
        for name in GOLDEN_SHA256
        for seed in (1, 2, 3)
    ],
)
def test_shuffled_rows_keep_every_value(manifests, tmp_path, name, seed):
    """Metamorphic relation R4: shuffling the rows of every run file keeps
    every value bit-equal but two that sum in row order, every pick, finding
    and exit status, and the removed rows as a multiset, each named by its
    row in the unshuffled file.  ``gd_plus`` is a mean of up to n terms,
    within pairwise summation's ceil(log2 n) eps of the exact mean; hv at
    m >= 4 is within 4 eps of exact, as WFG's stable sort keeps the order of
    tied rows.  Two values each within e of exact differ by at most 2e, and
    an aggregate of r such values by 2e plus 2r eps of its own rounding."""
    path = manifests(name, seed)
    doc = json.loads(path.read_text())
    runs = [path.parent / rel for entry in doc["algorithms"] for rel in entry["runs"]]
    n = max(len(run.read_text().splitlines()) - 1 for run in runs)
    eps = float(np.finfo(float).eps)
    error = {"gd_plus": math.ceil(math.log2(n)) * eps}
    if len(doc["objectives"]) >= 4:
        error["hv"] = 4 * eps
    report = _evaluated(path, tmp_path / "report.json")
    rng = np.random.default_rng(seed)
    perms = []  # line k of a shuffled body is line perms[i][k] of the file's

    def shuffle(body):
        perms.append(rng.permutation(len(body)))
        return [body[k] for k in perms[-1]]

    shuffled_path = _rewritten(path, doc, tmp_path / "shuffled", shuffle)
    shuffled = _evaluated(shuffled_path, tmp_path / "r4.json")
    _same_apart_from(report, shuffled)
    origin = dict(zip(_run_files(doc), perms, strict=True))

    def removed(r, row):
        return sorted(
            repr((x["set"], x["rule"], x["objectives"], row(x)))
            for x in r["preprocessing"].pop("removals")
        )

    original = removed(report, lambda x: x["index"])
    assert removed(shuffled, lambda x: int(origin[x["set"]][x["index"]])) == original
    assert shuffled["preprocessing"] == report["preprocessing"]

    def close(moved, value, bound):
        return abs(moved - value) <= bound * abs(value)

    for row, moved in zip(report["results"], shuffled["results"], strict=True):
        assert repr({**moved, "value": 0}) == repr({**row, "value": 0})
        if row["indicator"] in error:
            assert close(moved["value"], row["value"], 2 * error[row["indicator"]])
        else:
            assert repr(moved["value"]) == repr(row["value"]), row
    for agg, moved in zip(report["aggregates"], shuffled["aggregates"], strict=True):
        if agg["indicator"] not in error:
            assert repr(moved) == repr(agg)
            continue
        bound = 2 * error[agg["indicator"]] + 2 * agg["runs"] * eps
        assert moved["runs"] == agg["runs"]
        for key in ("mean", "median"):
            assert close(moved[key], agg[key], bound), (agg, moved)


@pytest.fixture(scope="module")
def real_front_4d(bench_inputs, tmp_path_factory):
    """The first 80 front rows, in file order, of one generated m=4 run of
    1000 front and 1000 filler rows at seed 7; the point a tenth of their
    range beyond their nadir; and their exact hypervolume, from the slicer
    summing Fractions (about 3 s; the whole front would take minutes)."""
    spec = bench_inputs.Workload(
        name="real-4d", m=4, algorithms=1, runs=1,
        front_rows=1000, filler_rows=1000, indicators=("hv",),
    )
    made = bench_inputs.generate(spec, 7, tmp_path_factory.mktemp("real-4d"))
    run = np.array(made.runs["alg0"][0])
    rows = run[oracles.kernel_front_mask(run)][:80]
    nadir = rows.max(axis=0)
    point = tuple((nadir + (nadir - rows.min(axis=0)) / 10.0).tolist())
    exact = oracles.hv_slicer_oracle(
        [tuple(map(Fraction, row)) for row in rows.tolist()],
        tuple(map(Fraction, point)),
    )
    return rows, point, exact


def test_real_run_front_hypervolume_is_within_four_epsilon_of_exact(
    block_pairs, real_front_4d
):
    # At the tiny block cap WFG's 4-column nodes also filter their limit
    # sets row by row; both paths stay within the property test's bound.
    rows, point, exact = real_front_4d
    value = hypervolume(make_set("A", rows.tolist()), point)
    assert abs(Fraction(value) - exact) <= 4 * Fraction(np.finfo(float).eps) * exact


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
