"""Command-line interface: manifests, CSV I/O, commands, exit codes."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from paretoeval import EvaluationWarning, ObjectiveMeta, Direction
from paretoeval.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_WARNINGS,
    ManifestError,
    SolutionFileError,
    load_manifest,
    load_solution_set,
    main,
    write_solution_set,
)
from conftest import COVERAGE_A, COVERAGE_B, KNEE_A, KNEE_B, make_set


def write_runs(directory, columns, algorithms):
    """Write one CSV per run and return {algorithm: [relative paths]}."""
    header = ",".join(columns)
    entries = {}
    for alg, runs in algorithms.items():
        paths = []
        for r, points in enumerate(runs):
            rel = f"{alg}_{r}.csv"
            rows = [header] + [",".join(repr(float(v)) for v in p) for p in points]
            (directory / rel).write_text("\n".join(rows) + "\n", encoding="utf-8")
            paths.append(rel)
        entries[alg] = paths
    return entries


def write_manifest(
    directory,
    objectives,
    algorithms,
    preferences=None,
    overrides=None,
    output=None,
    filename="manifest.json",
):
    """Assemble a manifest plus its run files under `directory`."""
    columns = [o["name"] for o in objectives]
    runs = write_runs(directory, columns, algorithms)
    doc = {
        "objectives": objectives,
        "algorithms": [{"name": a, "runs": rel} for a, rel in runs.items()],
    }
    if preferences is not None:
        doc["preferences"] = preferences
    if overrides is not None:
        doc["indicator_overrides"] = overrides
    if output is not None:
        doc["output"] = output
    path = directory / filename
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


MIN_2D = [{"name": "f1", "direction": "min"}, {"name": "f2", "direction": "min"}]
COST_COVERAGE = [
    {"name": "cost", "direction": "min"},
    {"name": "coverage", "direction": "max"},
]


@pytest.fixture
def knee_manifest(tmp_path):
    return write_manifest(
        tmp_path,
        MIN_2D,
        {"alpha": [KNEE_A], "beta": [KNEE_B]},
        overrides={
            "indicators": ["hv", "ci", "igd"],
            "ref_point": [13, 11],
            "normalization": "none",
        },
        output={"report": str(tmp_path / "report.json")},
    )


class TestManifestLoading:
    def test_round_trip(self, tmp_path):
        path = write_manifest(
            tmp_path,
            COST_COVERAGE,
            {"alpha": [COVERAGE_A], "beta": [COVERAGE_B]},
            preferences={
                "screen": [
                    {"objective": "coverage", "kind": "at_least", "threshold": 0.4}
                ],
                "clear": [
                    {"objective": "cost", "kind": "at_most", "threshold": 400}
                ],
                "vague": [
                    {"objective": "coverage", "saturation": 0.9, "hard_floor": 0.5}
                ],
            },
            overrides={"indicators": ["hv"], "gd_p": 2.0},
            output={"report": "out/report.json", "plot_data": "out/plots"},
        )
        manifest = load_manifest(path)
        assert [o.name for o in manifest.objectives] == ["cost", "coverage"]
        assert manifest.objectives[1].direction is Direction.MAXIMIZE
        assert [a.name for a in manifest.algorithms] == ["alpha", "beta"]
        assert manifest.preferences.screen[0].threshold == 0.4
        assert manifest.preferences.clear[0].objective == 0
        assert manifest.preferences.vague[0].saturation == 0.9
        assert manifest.overrides.indicators == ("hv",)
        assert manifest.overrides.config.gd_p == 2.0
        assert manifest.output.plot_data == "out/plots"
        assert manifest.base_dir == str(tmp_path)

    def test_unknown_root_field(self, tmp_path):
        path = write_manifest(tmp_path, MIN_2D, {"a": [KNEE_A]})
        doc = json.loads(path.read_text())
        doc["solvers"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="solvers"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["objectives"][0].update(sense="min"), "sense"),
            (lambda d: d["algorithms"][0].update(seed=1), "seed"),
            (
                lambda d: d.update(preferences={"goal": "knee"}),
                "goal",
            ),
            (
                lambda d: d.update(
                    preferences={
                        "clear": [
                            {
                                "objective": 0,
                                "kind": "at_most",
                                "threshold": 1,
                                "units": "s",
                            }
                        ]
                    }
                ),
                "units",
            ),
            (
                lambda d: d.update(
                    preferences={"vague": [{"objective": 0, "saturation": 1, "lo": 2}]}
                ),
                "lo",
            ),
            (lambda d: d.update(indicator_overrides={"power": 2}), "power"),
            (lambda d: d.update(output={"plots": "x"}), "plots"),
        ],
    )
    def test_unknown_nested_fields(self, tmp_path, mutate, message):
        path = write_manifest(tmp_path, MIN_2D, {"a": [KNEE_A]})
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match=message):
            load_manifest(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = write_manifest(
            tmp_path,
            [{"name": "f", "direction": "min"}, {"name": "f", "direction": "min"}],
            {"a": [KNEE_A]},
        )
        with pytest.raises(ManifestError, match="unique"):
            load_manifest(path)

    def test_missing_run_file(self, tmp_path):
        path = write_manifest(tmp_path, MIN_2D, {"a": [KNEE_A]})
        doc = json.loads(path.read_text())
        doc["algorithms"][0]["runs"] = ["nowhere.csv"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="nowhere.csv"):
            load_manifest(path)

    def test_runs_must_be_a_list_of_strings(self, tmp_path):
        path = write_manifest(tmp_path, MIN_2D, {"a": [KNEE_A]})
        doc = json.loads(path.read_text())
        for bad in ("a_0.csv", ["a_0.csv", 3]):
            doc["algorithms"][0]["runs"] = bad
            path.write_text(json.dumps(doc))
            with pytest.raises(
                ManifestError,
                match=r"algorithms\[0\]\.runs: expected a non-empty list of strings",
            ):
                load_manifest(path)

    def test_roi_forms(self, tmp_path):
        path = write_manifest(
            tmp_path, MIN_2D, {"a": [KNEE_A]}, preferences={"roi": "knee"}
        )
        assert load_manifest(path).preferences.roi.kind == "knee"
        path2 = write_manifest(
            tmp_path,
            MIN_2D,
            {"a": [KNEE_A]},
            preferences={"roi": {"extreme": ["f2", 0]}},
            filename="m2.json",
        )
        roi = load_manifest(path2).preferences.roi
        assert roi.kind == "extreme"
        assert roi.objectives == (1, 0)
        path3 = write_manifest(
            tmp_path,
            MIN_2D,
            {"a": [KNEE_A]},
            preferences={"roi": "edges"},
            filename="m3.json",
        )
        with pytest.raises(ManifestError, match="roi"):
            load_manifest(path3)

    def test_reference_point_implies_explicit_strategy(self, tmp_path):
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"a": [KNEE_A]},
            overrides={"ref_point": [13, 11]},
        )
        config = load_manifest(path).overrides.config
        assert config.hv_strategy == "explicit"
        assert config.ref_point == (13.0, 11.0)

    def test_objective_reference_validation(self, tmp_path):
        for bad in (True, 7, "f9"):
            path = write_manifest(
                tmp_path,
                MIN_2D,
                {"a": [KNEE_A]},
                preferences={
                    "clear": [{"objective": bad, "kind": "at_most", "threshold": 1}]
                },
                filename=f"m_{bad}.json",
            )
            with pytest.raises(ManifestError):
                load_manifest(path)

    def test_unknown_indicator_rejected(self, tmp_path):
        path = write_manifest(
            tmp_path, MIN_2D, {"a": [KNEE_A]}, overrides={"indicators": ["ig"]}
        )
        with pytest.raises(ManifestError, match="ig"):
            load_manifest(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ManifestError, match="JSON"):
            load_manifest(path)
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ManifestError, match="object"):
            load_manifest(path)

    def test_bad_weights_reported_as_manifest_error(self, tmp_path):
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"a": [KNEE_A]},
            preferences={"weights": [0.9, 0.9]},
        )
        with pytest.raises(ManifestError, match="sum"):
            load_manifest(path)


META_2D = tuple(ObjectiveMeta(n, Direction.MINIMIZE) for n in ("f1", "f2"))


class TestSolutionFiles:
    def test_header_must_match(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("f1,cost\n1,2\n", encoding="utf-8")
        with pytest.raises(SolutionFileError, match=r"run\.csv:1"):
            load_solution_set(path, META_2D)

    def test_optional_id_column(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("id,f1,f2\ns1,1,2\ns2,3,4\n", encoding="utf-8")
        loaded = load_solution_set(path, META_2D)
        assert [s.id for s in loaded.solutions] == ["s1", "s2"]
        assert loaded.vectors() == [(1.0, 2.0), (3.0, 4.0)]

    def test_non_numeric_cell_line_number(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("f1,f2\n1,2\n3,oops\n", encoding="utf-8")
        with pytest.raises(SolutionFileError, match=r"run\.csv:3.*oops"):
            load_solution_set(path, META_2D)

    def test_column_count_line_number(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("f1,f2\n1,2\n3\n", encoding="utf-8")
        with pytest.raises(SolutionFileError, match=r"run\.csv:3"):
            load_solution_set(path, META_2D)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("f1,f2\nnan,2\n", encoding="utf-8")
        with pytest.raises(SolutionFileError, match=r"run\.csv:2"):
            load_solution_set(path, META_2D)

    def test_header_only_warns(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("f1,f2\n", encoding="utf-8")
        with pytest.warns(EvaluationWarning, match="no solutions"):
            loaded = load_solution_set(path, META_2D)
        assert loaded.solutions == ()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("f1,f2\n1,2\n\n3,4\n", encoding="utf-8")
        assert len(load_solution_set(path, META_2D).solutions) == 2

    def test_write_load_round_trip_exact(self, tmp_path):
        points = [(0.1, 1 / 3), (math.pi, 2.5e-9), (1e20, -7.0)]
        original = make_set("run", points)
        path = tmp_path / "out.csv"
        write_solution_set(path, original)
        loaded = load_solution_set(path, original.meta)
        assert loaded.vectors() == original.vectors()

    def test_round_trip_keeps_ids(self, tmp_path):
        original = make_set("run", [(1, 2)]).with_solutions(
            tuple(
                s.__class__(s.objectives, id="keep-me")
                for s in make_set("run", [(1, 2)]).solutions
            )
        )
        path = tmp_path / "out.csv"
        write_solution_set(path, original)
        loaded = load_solution_set(path, original.meta)
        assert loaded.solutions[0].id == "keep-me"


class TestEvaluate:
    def test_worked_example_report(self, knee_manifest, tmp_path, capsys):
        assert main(["evaluate", "--manifest", str(knee_manifest)]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema"] == "solution-set-report/1"

        def value(alg, indicator):
            rows = [
                r
                for r in report["results"]
                if r["algorithm"] == alg and r["indicator"] == indicator
            ]
            assert len(rows) == 1
            return rows[0]["value"]

        assert value("alpha", "hv") == pytest.approx(71.0, abs=1e-9)
        assert value("beta", "hv") == pytest.approx(45.5, abs=1e-9)
        assert value("alpha", "igd") == pytest.approx(2.154, abs=1e-3)
        assert value("beta", "igd") == pytest.approx(1.433, abs=1e-3)
        ci_rows = {
            (r["algorithm"], r["against"]): r["value"]
            for r in report["results"]
            if r["indicator"] == "ci"
        }
        assert ci_rows[("alpha", "beta")] == pytest.approx(0.4)
        assert ci_rows[("beta", "alpha")] == pytest.approx(0.6)
        assert report["representative_runs"] == {"alpha": 0, "beta": 0}
        codes = {f["code"] for f in report["findings"]}
        assert "L-IGD-REFSET" in codes
        assert report["exit_status"] == EXIT_OK
        assert "evaluated 2 algorithm(s)" in capsys.readouterr().out

    def test_reports_are_byte_stable(self, knee_manifest, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        main(["evaluate", "--manifest", str(knee_manifest), "--out", str(out1)])
        main(["evaluate", "--manifest", str(knee_manifest), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_default_plan_is_clean(self, tmp_path):
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"alpha": [KNEE_A], "beta": [KNEE_B]},
            output={"report": str(tmp_path / "r.json")},
        )
        assert main(["evaluate", "--manifest", str(path)]) == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        executed = {r["indicator"] for r in report["results"]}
        assert executed == {"gd_plus", "spread", "unfr", "hv", "ci"}
        worst = {
            f["code"] for f in report["findings"] if f["severity"] != "info"
        }
        assert worst == set()

    def test_aspect_gap_exit_and_strict(self, tmp_path):
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"alpha": [KNEE_A], "beta": [KNEE_B]},
            overrides={"indicators": ["gd_plus"]},
        )
        assert main(["evaluate", "--manifest", str(path)]) == EXIT_WARNINGS
        assert (
            main(["evaluate", "--manifest", str(path), "--strict"]) == EXIT_ERROR
        )

    def test_spread_blocked_beyond_two_objectives(self, tmp_path):
        objectives = [
            {"name": "f1", "direction": "min"},
            {"name": "f2", "direction": "min"},
            {"name": "f3", "direction": "min"},
        ]
        path = write_manifest(
            tmp_path,
            objectives,
            {"alpha": [[(1, 2, 3), (3, 2, 1)]], "beta": [[(2, 2, 2)]]},
            preferences={
                "vague": [{"objective": 0, "saturation": 1, "hard_floor": 5}]
            },
            overrides={"indicators": ["spread", "hv"], "normalization": "none"},
            output={"report": str(tmp_path / "r.json")},
        )
        # the combined front is constant in f2, so the reference-point
        # builder legitimately warns about the degenerate range
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvaluationWarning)
            assert main(["evaluate", "--manifest", str(path)]) == EXIT_ERROR
        report = json.loads((tmp_path / "r.json").read_text())
        executed = {r["indicator"] for r in report["results"]}
        assert "spread" not in executed
        assert "hv" in executed
        worst = {
            f["code"] for f in report["findings"] if f["severity"] != "info"
        }
        assert worst == {"L-SPREAD-DIM"}

    def test_best_value_route(self, tmp_path):
        path = write_manifest(
            tmp_path,
            COST_COVERAGE,
            {"alpha": [COVERAGE_A], "beta": [COVERAGE_B]},
            preferences={
                "clear": [{"objective": "coverage", "kind": "exactly_best"}]
            },
            output={"report": str(tmp_path / "r.json")},
        )
        code = main(["evaluate", "--manifest", str(path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["doe"]["kind"] == "best-value"
        assert report["doe"]["objective"] == "cost"
        assert report["doe"]["best"] == {"alpha": 450.0, "beta": 500.0}
        assert report["doe"]["winner"] == "alpha"
        assert report["preprocessing"]["dropped_objectives"] == ["coverage"]

    def test_best_value_survivors_disagree(self, tmp_path):
        trimmed_b = [p for p in COVERAGE_B if p != (500, 1.0)]
        path = write_manifest(
            tmp_path,
            COST_COVERAGE,
            {"alpha": [COVERAGE_A], "beta": [trimmed_b]},
            preferences={
                "clear": [{"objective": "coverage", "kind": "exactly_best"}]
            },
            output={"report": str(tmp_path / "r.json")},
        )
        assert main(["evaluate", "--manifest", str(path)]) == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["preprocessing"]["dropped_objectives"] == []
        assert any(
            "survivors disagree" in note
            for note in report["preprocessing"]["notes"]
        )
        codes = {f["code"] for f in report["findings"]}
        assert "N-RENORM-SURVIVORS" in codes

    def test_weights_route_reports_winner(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"alpha": [KNEE_A], "beta": [KNEE_B]},
            preferences={"weights": [0.5, 0.5]},
            output={"report": str(tmp_path / "r.json")},
        )
        assert main(["evaluate", "--manifest", str(path)]) == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["doe"]["kind"] == "scalarize"
        assert report["doe"]["winner"] in ("alpha", "beta")
        assert "winner by scalarize" in capsys.readouterr().out

    def test_cli_indicator_flag_overrides_manifest(self, knee_manifest, tmp_path):
        out = tmp_path / "only-hv.json"
        main(
            [
                "evaluate",
                "--manifest",
                str(knee_manifest),
                "--indicator",
                "hv",
                "--out",
                str(out),
            ]
        )
        report = json.loads(out.read_text())
        assert {r["indicator"] for r in report["results"]} == {"hv"}

    def test_ref_point_flag(self, tmp_path):
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"alpha": [KNEE_A], "beta": [KNEE_B]},
            output={"report": str(tmp_path / "r.json")},
        )
        main(
            [
                "evaluate",
                "--manifest",
                str(path),
                "--indicator",
                "hv",
                "--ref-point",
                "13,11",
            ]
        )
        report = json.loads((tmp_path / "r.json").read_text())
        values = {
            r["algorithm"]: r["value"]
            for r in report["results"]
            if r["indicator"] == "hv"
        }
        assert values == {"alpha": 71.0, "beta": 45.5}


    # Front (1, 2), (2, 1), (3, 0.5): nadir (3, 2), range (2, 1.5), so
    # doubled_range gives (5, 3.5) and nadir_plus_tenth (3.2, 2.15).
    SMALL = {"alpha": [[(1, 2), (3, 0.5)]], "beta": [[(2, 1)]]}

    def _hv_rows(self, tmp_path, **manifest):
        out = {"report": str(tmp_path / "r.json")}
        path = write_manifest(tmp_path, MIN_2D, self.SMALL, output=out, **manifest)
        assert main(["evaluate", "--manifest", str(path)]) != EXIT_ERROR
        report = json.loads((tmp_path / "r.json").read_text())
        return [r for r in report["results"] if r["indicator"] == "hv"]

    def test_hv_point_follows_the_planned_strategy(self, tmp_path):
        rows = self._hv_rows(tmp_path, preferences={"roi": {"extreme": ["f1"]}})
        assert [r["config"]["hv_strategy"] for r in rows] == ["doubled_range"] * 2
        assert [r["config"]["reference_point"] for r in rows] == [[5.0, 3.5]] * 2
        assert rows[0]["value"] == (5 - 1) * (3.5 - 2) + (5 - 3) * (2 - 0.5)

    def test_manifest_strategy_reaches_planned_configs(self, tmp_path):
        rows = self._hv_rows(tmp_path, overrides={"hv_strategy": "doubled_range"})
        assert [r["config"]["hv_strategy"] for r in rows] == ["doubled_range"] * 2
        assert [r["config"]["reference_point"] for r in rows] == [[5.0, 3.5]] * 2

    def test_representative_run_read_from_reported_hv(self, tmp_path):
        # Against alg's own front (nadir (3, 3)) the median hv run is 0; the
        # shared front also holds ref's far points, so the shared reference
        # point is (33.1, 33.1) and the median hv run is 2.
        runs = [[(1, 1)], [(0, 3), (3, 0)], [(0.5, 2), (2, 0.5)]]
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"alg": runs, "ref": [[(-1, 30), (30, -1)]]},
            overrides={"indicators": ["hv"]},
            output={"report": str(tmp_path / "r.json")},
        )
        assert main(["evaluate", "--manifest", str(path)]) != EXIT_ERROR
        report = json.loads((tmp_path / "r.json").read_text())
        hv = {
            r["run"]: r["value"] for r in report["results"] if r["algorithm"] == "alg"
        }
        assert report["results"][0]["config"]["reference_point"] == [
            pytest.approx(33.1),
            pytest.approx(33.1),
        ]
        median = sorted(hv.values())[1]
        assert min(hv, key=lambda r: abs(hv[r] - median)) == 2
        assert report["representative_runs"] == {"alg": 2, "ref": 0}

        out_dir = tmp_path / "plots"
        code = main(["plot-data", "--manifest", str(path), "--out", str(out_dir)])
        assert code == EXIT_OK
        plotted = load_solution_set(out_dir / "alg.csv", META_2D)
        assert plotted.vectors() == [tuple(map(float, p)) for p in runs[2]]

    def test_multi_run_reports_are_byte_stable(self, tmp_path):
        rng = np.random.default_rng(20240611)
        objectives = [{"name": f"f{j}", "direction": "min"} for j in range(3)]
        algorithms = {}
        for a in range(3):
            runs = []
            for r in range(4):
                front = rng.dirichlet(np.ones(3), size=12) * 10 + a + 0.5 * r
                filler = front + rng.uniform(0.1, 2.0, size=front.shape)
                runs.append(np.round(np.vstack([front, filler]), 3).tolist())
            algorithms[f"alg{a}"] = runs
        # One run lies wholly beyond the screen.
        algorithms["alg1"][0] = [[p[0] + 100, *p[1:]] for p in algorithms["alg1"][0]]
        path = write_manifest(
            tmp_path,
            objectives,
            algorithms,
            preferences={
                "screen": [{"objective": "f0", "kind": "at_most", "threshold": 50}]
            },
        )
        outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for out in outs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EvaluationWarning)
                main(["evaluate", "--manifest", str(path), "--out", str(out)])
        assert outs[0].read_bytes() == outs[1].read_bytes()
        report = json.loads(outs[0].read_text())
        planned = {r["indicator"] for r in report["results"]}
        assert {"unfr", "grid_diversity", "hv"} <= planned
        alg1_runs = {r["run"] for r in report["results"] if r["algorithm"] == "alg1"}
        assert alg1_runs == {1, 2, 3}
        assert report["representative_runs"]["alg1"] in alg1_runs


class TestCompare:
    def test_contribution_both_directions(self, knee_manifest, capsys):
        assert (
            main(["compare", "--manifest", str(knee_manifest), "alpha", "beta"])
            == EXIT_OK
        )
        out = capsys.readouterr().out
        assert "ci(alpha, beta) = 0.4" in out
        assert "ci(beta, alpha) = 0.6" in out

    def test_epsilon_identical_sets(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path, MIN_2D, {"a": [KNEE_A], "b": [KNEE_A]}
        )
        main(
            [
                "compare",
                "--manifest",
                str(path),
                "--indicator",
                "epsilon",
                "a",
                "b",
            ]
        )
        out = capsys.readouterr().out
        assert "epsilon(a, b) = 0" in out
        assert "epsilon(b, a) = 0" in out

    def test_epsilon_raw_units(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path, MIN_2D, {"a": [KNEE_A], "b": [KNEE_B]}
        )
        main(
            [
                "compare",
                "--manifest",
                str(path),
                "--indicator",
                "epsilon",
                "--no-normalize",
                "a",
                "b",
            ]
        )
        out = capsys.readouterr().out
        assert "epsilon(a, b) = 1" in out

    def test_coverage_of_dominated_set(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"good": [[(0, 0)]], "bad": [[(1, 1), (2, 2)]]},
        )
        main(
            ["compare", "--manifest", str(path), "--indicator", "c", "good", "bad"]
        )
        out = capsys.readouterr().out
        assert "c(good, bad) = 1" in out
        assert "c(bad, good) = 0" in out

    def test_report_file(self, knee_manifest, tmp_path):
        out = tmp_path / "cmp.json"
        main(
            [
                "compare",
                "--manifest",
                str(knee_manifest),
                "--out",
                str(out),
                "alpha",
                "beta",
            ]
        )
        report = json.loads(out.read_text())
        assert report["schema"] == "solution-set-compare/1"
        assert report["forward"] == pytest.approx(0.4)
        assert report["backward"] == pytest.approx(0.6)

    def test_unknown_algorithm(self, knee_manifest, capsys):
        code = main(["compare", "--manifest", str(knee_manifest), "alpha", "zeta"])
        assert code == EXIT_ERROR
        assert "zeta" in capsys.readouterr().err

    def test_unary_indicator_rejected(self, knee_manifest, capsys):
        code = main(
            [
                "compare",
                "--manifest",
                str(knee_manifest),
                "--indicator",
                "hv",
                "alpha",
                "beta",
            ]
        )
        assert code == EXIT_ERROR
        assert "pairwise" in capsys.readouterr().err


class TestRecommend:
    def test_knee_plan(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"alpha": [KNEE_A], "beta": [KNEE_B]},
            preferences={"roi": "knee"},
        )
        out = tmp_path / "plan.json"
        assert (
            main(["recommend", "--manifest", str(path), "--out", str(out)])
            == EXIT_OK
        )
        text = capsys.readouterr().out
        assert "hv" in text
        assert "plotting: scatter" in text
        plan = json.loads(out.read_text())["plan"]
        assert [p["name"] for p in plan["indicators"]] == ["hv"]
        assert plan["indicators"][0]["config"]["hv_strategy"] == "nadir_plus_tenth"
        assert "N-IGD-EXCLUDED" in {w["code"] for w in plan["warnings"]}


class TestLint:
    def test_spread_dimension_manifest(self, tmp_path, capsys):
        objectives = [
            {"name": "f1", "direction": "min"},
            {"name": "f2", "direction": "min"},
            {"name": "f3", "direction": "min"},
        ]
        path = write_manifest(
            tmp_path,
            objectives,
            {"a": [[(1, 2, 3)]]},
            preferences={
                "vague": [{"objective": 0, "saturation": 1, "hard_floor": 5}]
            },
            overrides={"indicators": ["spread", "hv"]},
        )
        assert main(["lint", "--manifest", str(path)]) == EXIT_ERROR
        out = capsys.readouterr().out
        assert "L-SPREAD-DIM" in out
        assert "misuse III" in out

    def test_knee_igd_manifest(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"a": [KNEE_A], "b": [KNEE_B]},
            preferences={"roi": "knee"},
            overrides={"indicators": ["igd", "hv"]},
        )
        assert main(["lint", "--manifest", str(path)]) == EXIT_WARNINGS
        out = capsys.readouterr().out
        assert "L-KNEE-MISMATCH" in out
        warning_plus = [
            ln for ln in out.splitlines() if ln.startswith(("[warning]", "[error]"))
        ]
        assert len(warning_plus) == 1

    def test_reference_point_at_nadir_detected(self, tmp_path):
        path = write_manifest(
            tmp_path, MIN_2D, {"a": [KNEE_A], "b": [KNEE_B]}
        )
        at_nadir = main(
            [
                "lint",
                "--manifest",
                str(path),
                "--indicator",
                "hv",
                "--ref-point",
                "12,10",
            ]
        )
        beyond = main(
            [
                "lint",
                "--manifest",
                str(path),
                "--indicator",
                "hv",
                "--ref-point",
                "13,11",
            ]
        )
        assert at_nadir == EXIT_WARNINGS
        assert beyond == EXIT_OK

    def test_clean_setup(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path, MIN_2D, {"a": [KNEE_A], "b": [KNEE_B]}
        )
        code = main(
            ["lint", "--manifest", str(path), "--indicator", "hv",
             "--indicator", "gd_plus"]
        )
        assert code == EXIT_OK
        assert "no findings" in capsys.readouterr().out

    def test_lint_report_file(self, tmp_path):
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"a": [KNEE_A], "b": [KNEE_B]},
            preferences={"roi": "knee"},
            overrides={"indicators": ["igd"]},
        )
        out = tmp_path / "lint.json"
        main(["lint", "--manifest", str(path), "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["schema"] == "solution-set-lint/1"
        assert report["chosen"] == ["igd"]
        assert report["exit_status"] == EXIT_WARNINGS


class TestStats:
    def test_natural_units_and_caveat(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path, COST_COVERAGE, {"alpha": [COVERAGE_A]}
        )
        assert main(["stats", "--manifest", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "alpha run 0:" in out
        assert "cost" in out and "coverage" in out
        assert "contradict the dominance relation" in out

    def test_stats_report_values(self, tmp_path):
        path = write_manifest(
            tmp_path, COST_COVERAGE, {"alpha": [COVERAGE_A]}
        )
        out = tmp_path / "stats.json"
        main(["stats", "--manifest", str(path), "--out", str(out)])
        block = json.loads(out.read_text())["stats"][0]
        assert block["best"] == [200.0, 1.0]
        assert block["worst"] == [450.0, 0.2]


class TestPlotData:
    def test_scatter_csvs(self, tmp_path):
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"alpha": [KNEE_A], "beta": [KNEE_B]},
        )
        out_dir = tmp_path / "plots"
        assert (
            main(["plot-data", "--manifest", str(path), "--out", str(out_dir)])
            == EXIT_OK
        )
        alpha = load_solution_set(out_dir / "alpha.csv", META_2D)
        assert alpha.vectors() == [tuple(map(float, p)) for p in KNEE_A]

    def test_parallel_coordinates_beyond_three(self, tmp_path):
        objectives = [{"name": f"o{i}", "direction": "min"} for i in range(5)]
        points = [[i + j for j in range(5)] for i in range(3)]
        other = [[2 * i + j for j in range(5)] for i in range(2)]
        path = write_manifest(
            tmp_path, objectives, {"a": [points], "b": [other]}
        )
        out_dir = tmp_path / "plots"
        main(["plot-data", "--manifest", str(path), "--out", str(out_dir)])
        lines = (out_dir / "parallel-coordinates.csv").read_text().splitlines()
        assert lines[0] == "set,solution,objective,value"
        assert len(lines) == 1 + (3 + 2) * 5
        values = [float(ln.rsplit(",", 1)[1]) for ln in lines[1:]]
        assert min(values) >= 0.0 and max(values) <= 1.0


class TestMainErrors:
    def test_missing_manifest(self, tmp_path, capsys):
        code = main(["evaluate", "--manifest", str(tmp_path / "none.json")])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_surfaces_line(self, tmp_path, capsys):
        path = write_manifest(tmp_path, MIN_2D, {"a": [KNEE_A]})
        (tmp_path / "a_0.csv").write_text("f1,f2\n1,x\n", encoding="utf-8")
        code = main(["evaluate", "--manifest", str(path)])
        assert code == EXIT_ERROR
        assert ":2:" in capsys.readouterr().err

    def test_unknown_indicator_flag(self, knee_manifest, capsys):
        code = main(
            ["evaluate", "--manifest", str(knee_manifest), "--indicator", "xyz"]
        )
        assert code == EXIT_ERROR
        assert "xyz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("grid_divisions", "10", 'grid_divisions: expected an integer, got "10"'),
            ("grid_divisions", 10.5, "grid_divisions: expected an integer, got 10.5"),
            ("gd_p", True, "gd_p: expected a number, got true"),
            ("ref_point", [13, "11"], 'ref_point: expected a list of numbers, got [13, "11"]'),
            ("ref_point", 13, "ref_point: expected a list of numbers, got 13"),
            ("hv_strategy", 1, "hv_strategy: expected a string, got 1"),
            ("normalization", None, "normalization: expected a string, got null"),
        ],
    )
    def test_mistyped_override_exits_2(self, tmp_path, capsys, key, value, message):
        path = write_manifest(tmp_path, MIN_2D, {"a": [KNEE_A]}, overrides={key: value})
        code = main(["evaluate", "--manifest", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert f"indicator_overrides.{message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda d: d.update(indicator_overrides={"indicators": "hv"}),
                'indicator_overrides.indicators: expected a list of strings, got "hv"',
            ),
            (
                lambda d: d.update(objectives="ab"),
                'objectives: expected a list, got "ab"',
            ),
            (
                lambda d: d.update(algorithms="AB"),
                'algorithms: expected a list, got "AB"',
            ),
            (
                lambda d: d.update(objectives=["f1", "f2"]),
                'objectives[0]: expected an object, got "f1"',
            ),
            (
                lambda d: d["objectives"][0].update(name=5),
                "objectives[0].name: expected a string, got 5",
            ),
            (
                lambda d: d.update(
                    preferences={
                        "clear": [
                            {"objective": "f1", "kind": "exactly_best"},
                            {"objective": "f2", "kind": "exactly_best"},
                        ]
                    }
                ),
                "preferences.clear: exactly_best on every objective leaves no "
                "objective to compare the sets on",
            ),
        ],
        ids=[
            "indicators-string",
            "objectives-string",
            "algorithms-string",
            "objectives-of-strings",
            "objective-name-number",
            "exactly-best-everywhere",
        ],
    )
    def test_misshapen_manifest_exits_2(self, tmp_path, capsys, mutate, message):
        path = write_manifest(tmp_path, MIN_2D, {"a": [KNEE_A]})
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        code = main(["evaluate", "--manifest", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err == f"error: {message}\n"
