"""Command-line interface: manifests, CSV I/O, commands, exit codes."""

from __future__ import annotations

import codecs
import copy
import csv
import dataclasses
import importlib.util
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from paretoeval import (
    WARNING_CODES,
    ClearConstraint,
    Direction,
    EvaluationWarning,
    IndicatorConfig,
    NormalizationBounds,
    ObjectiveMeta,
    PreferenceSpec,
    VagueClamp,
    build_reference_point,
    normalize,
    per_objective_stats,
    screen_trivial,
    to_minimization,
)
from paretoeval import cli, preprocess
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
import oracles
from conftest import (
    COVERAGE_A,
    COVERAGE_B,
    DIAG_A,
    DIAG_B,
    DIAG_C,
    KNEE_A,
    KNEE_B,
    make_set,
)


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
MIN_3D = [*MIN_2D, {"name": "f3", "direction": "min"}]
# f2 <= 5.5 removes every alpha solution and keeps two of beta's.
EMPTIED_ALPHA = {"alpha": [[(6, 6), (8, 7)]], "beta": [KNEE_B]}
F2_AT_MOST = {"clear": [{"objective": "f2", "kind": "at_most", "threshold": 5.5}]}
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
    def test_field_tables_match_their_dataclasses(self):
        # Each object is built from its walked fields, so a field declared
        # in a table and not in its dataclass would fail, and one the other
        # way round would never be read; the two must list the same names.
        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert set(cli._OBJECTIVE) == names(ObjectiveMeta)
        assert set(cli._CONSTRAINT) == names(ClearConstraint)
        assert set(cli._CLAMP) == names(VagueClamp)
        assert set(cli._PREFERENCES) == names(PreferenceSpec)
        assert set(cli._OVERRIDES) - {"indicators"} == names(IndicatorConfig)
        assert set(cli._OUTPUT) <= names(cli.Manifest)

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
        assert list(manifest.algorithms) == ["alpha", "beta"]
        assert manifest.preferences.screen[0].threshold == 0.4
        assert manifest.preferences.clear[0].objective == 0
        assert manifest.preferences.vague[0].saturation == 0.9
        assert manifest.indicators == ("hv",)
        assert manifest.overrides == {"gd_p": 2.0}
        assert manifest.report == "out/report.json"
        assert manifest.plot_data == "out/plots"
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
        overrides = load_manifest(path).overrides
        assert overrides == {"hv_strategy": "explicit", "ref_point": (13.0, 11.0)}

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

    def test_manifest_with_a_byte_order_mark(self, knee_manifest, tmp_path):
        # Some editors save JSON as UTF-8 that starts with U+FEFF.
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        args = ["evaluate", "--manifest", str(knee_manifest), "--out"]
        status = main([*args, str(plain)])
        knee_manifest.write_bytes(codecs.BOM_UTF8 + knee_manifest.read_bytes())
        assert main([*args, str(marked)]) == status != EXIT_ERROR
        assert marked.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "command", ["evaluate", "lint", "recommend", "stats", "plot-data", "compare"]
    )
    def test_weights_of_the_wrong_length_exit_2(self, tmp_path, capsys, command):
        path = write_manifest(
            tmp_path,
            MIN_3D,
            {"alpha": [[(1, 2, 3)]], "beta": [[(3, 2, 1)]]},
            preferences={"weights": [0.5, 0.5]},
        )
        extra = {
            "plot-data": ["--out", str(tmp_path / "plots")],
            "compare": ["alpha", "beta"],
        }.get(command, [])
        assert main([command, "--manifest", str(path), *extra]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: preferences.weights: expected one weight per objective (3), got 2\n"
        )

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

# Run-file cells numpy's parse of a body may read differently from float():
# underscores and non-ASCII digits (float() reads them), a comment or quote
# character, empty and non-numeric cells, and values that are not finite.
ODD_CELLS = [
    "1_0", "1_000.5", "\u0663", "\uff11\uff12", "\u0663.5", "#1", "1#2", "#", '"1"', "",
    "x", "nan", "-inf", "inf", "Infinity", "1e400", "-1e400", "0x10", "1e5j",
]
PADS = ["", " ", "\t", "  ", "\xa0", "\u3000"]
BLANKS = ["", " ", "\t", "\u3000"]
IDS = ["s1", " a ", "#x", '"q"', "", "id", "\u0663"]


@st.composite
def run_files(draw):
    """``(text, meta)`` of a run file: cells in any of three formats with
    padding, odd cells, short and long rows, blank lines, an ``id`` column,
    CRLF endings, a missing final newline and a byte-order mark, or a header
    alone."""
    names = draw(
        st.sampled_from([("f1", "f2"), ("id", "f2"), ("f1",), ("f1", "f2", "f3")])
    )
    meta = tuple(ObjectiveMeta(n) for n in names)
    with_ids = draw(st.booleans())
    header = ["id", *names] if with_ids else list(names)
    odd, ragged = draw(st.booleans()), draw(st.booleans())
    # Non-finite values come from the odd cells.
    value = st.floats(allow_nan=False, allow_infinity=False)
    number = value.map(repr) | st.builds(
        lambda fmt, v: fmt % v, st.sampled_from(["%.17g", "%.6g"]), value
    )
    lines = [",".join(draw(st.sampled_from(["", " "])) + h for h in header)]
    for _ in range(draw(st.integers(0, 6))):
        width = len(names) + (draw(st.sampled_from([0, 0, -1, 1])) if ragged else 0)
        cells = []
        for _ in range(max(width, 0)):
            # Mostly numbers, so a lone odd cell is often the only one.
            rare = odd and draw(st.integers(0, 5)) == 0
            text = draw(st.sampled_from(ODD_CELLS) if rare else number)
            pad = st.sampled_from(PADS)
            cells.append(draw(pad) + text + draw(pad))
        if with_ids:
            cells.insert(0, draw(st.sampled_from(IDS)))
        lines.append(",".join(cells))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(BLANKS)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return draw(st.sampled_from(["", "\ufeff"])) + text, meta


def _outcome(loader, path, meta):
    """What ``loader`` makes of a file: the values' bytes and shape and the
    ids, or the error message; and every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            loaded = loader(path, meta)
        except SolutionFileError as exc:
            result = ("error", str(exc))
        else:
            values = loaded.values()
            ids = [s.id for s in loaded.solutions]
            result = (values.tobytes(), values.shape, ids)
    return result, [(w.category, str(w.message)) for w in caught]


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
        path.write_text("f1,f2\n1,2\n\n3,inf\n", encoding="utf-8")
        with pytest.raises(SolutionFileError, match=r"run\.csv:4: .*finite, got inf"):
            load_solution_set(path, META_2D)

    def test_ids_survive_preprocessing(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("id,f1,f2\ns1,1,9\ns2,0,0\ns3,5,2\n", encoding="utf-8")
        meta = (ObjectiveMeta("f1"), ObjectiveMeta("f2", Direction.MAXIMIZE))
        run = to_minimization(load_solution_set(path, meta))
        screened = screen_trivial(run, [ClearConstraint(1, "at_least", 1.0)])
        (normed,) = normalize([screened], NormalizationBounds.from_sets([screened]))
        assert [s.id for s in normed.solutions] == ["s1", "s3"]
        assert normed.vectors() == [(0.0, 0.0), (1.0, 1.0)]

    def test_empty_header_line_exits_2(self, tmp_path, capsys):
        path = write_manifest(tmp_path, MIN_2D, {"a": [KNEE_A]})
        (tmp_path / "a_0.csv").write_text("\n1,2\n", encoding="utf-8")
        assert main(["evaluate", "--manifest", str(path)]) == EXIT_ERROR
        line = f"error: {tmp_path / 'a_0.csv'}:1: missing header row"
        assert capsys.readouterr().err.splitlines() == [line]

    def test_unreadable_run_file_exits_2(self, tmp_path, capsys, monkeypatch):
        path = write_manifest(tmp_path, MIN_2D, {"a": [KNEE_A]})
        run = tmp_path / "a_0.csv"
        checked = cli.load_manifest

        def replaced_after_check(manifest_path):
            # The file passes the manifest check, then turns into a directory.
            manifest = checked(manifest_path)
            run.unlink()
            run.mkdir()
            return manifest

        monkeypatch.setattr(cli, "load_manifest", replaced_after_check)
        assert main(["evaluate", "--manifest", str(path)]) == EXIT_ERROR
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot read {run}: ")

    def test_run_file_with_a_byte_order_mark(self, knee_manifest, tmp_path):
        # Excel's "CSV UTF-8" starts the file with U+FEFF.
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        args = ["evaluate", "--manifest", str(knee_manifest), "--out"]
        status = main([*args, str(plain)])
        run = tmp_path / "alpha_0.csv"
        run.write_bytes(codecs.BOM_UTF8 + run.read_bytes())
        assert main([*args, str(marked)]) == status != EXIT_ERROR
        assert marked.read_bytes() == plain.read_bytes()

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

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40
        ),
        formats=st.lists(
            st.tuples(
                st.sampled_from([repr, "%.17g".__mod__, "%.6g".__mod__]),
                st.sampled_from(["", " ", "\t", "  "]),
                st.sampled_from(["", " ", "  "]),
                st.booleans(),
            ),
            min_size=1,
        ),
    )
    def test_cells_load_as_float_reads_them(self, tmp_path, values, formats):
        # Every cell must load to the bits Python's float() gives it: any
        # formatting, padding, or an underscore between two digits.
        cells = []
        for k, value in enumerate(values[: len(values) // 2 * 2]):
            fmt, left, right, underscore = formats[k % len(formats)]
            text = fmt(value)
            digits = [i for i in range(1, len(text)) if text[i - 1 : i + 1].isdigit()]
            if underscore and digits:
                text = text[: digits[0]] + "_" + text[digits[0] :]
            cells.append(left + text + right)
        path = tmp_path / "run.csv"
        rows = [",".join(cells[i : i + 2]) for i in range(0, len(cells), 2)]
        path.write_text("\n".join(["f1,f2", *rows]) + "\n", encoding="utf-8")
        loaded = load_solution_set(path, META_2D).values()
        expected = np.array([float(c) for c in cells]).reshape(-1, 2)
        assert loaded.tobytes() == expected.tobytes()

    def test_first_bad_line_in_file_order(self, tmp_path):
        # The first failing line is named, whatever fails on later lines.
        path = tmp_path / "run.csv"
        for text, where in [
            ("f1,f2\n1,2\n3,1e400\nx,4\n5\n", r":3: .*finite, got inf$"),
            ("f1,f2\n1,2\ninf,x\n-inf,4\n", r":3: column 'f2' has non-numeric value 'x'"),
            ("f1,f2\n1,2\n5\nx,4\n", r":3: expected 2 columns, found 1"),
            ("f1,f2\n1_0,-0.0\n3,nan\n", r":3: .*finite, got nan$"),
        ]:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(SolutionFileError, match=where):
                load_solution_set(path, META_2D)

    META_ID = (ObjectiveMeta("id"), ObjectiveMeta("f2"))

    def test_objective_named_id_is_not_an_id_column(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("id,f2\n1,2\n3,4\n", encoding="utf-8")
        loaded = load_solution_set(path, self.META_ID)
        assert [s.id for s in loaded.solutions] == [None, None]
        assert loaded.vectors() == [(1.0, 2.0), (3.0, 4.0)]

    def test_id_column_before_an_objective_named_id(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("id,id,f2\ns1,1,2\ns2,3,4\n", encoding="utf-8")
        loaded = load_solution_set(path, self.META_ID)
        assert [s.id for s in loaded.solutions] == ["s1", "s2"]
        assert loaded.vectors() == [(1.0, 2.0), (3.0, 4.0)]

    @pytest.mark.parametrize("ids", [None, ("a", "b")], ids=["no-ids", "ids"])
    def test_round_trip_with_an_objective_named_id(self, tmp_path, ids):
        original = make_set("run", [(1, 2), (0.1, 1 / 3)], names=["id", "f2"])
        if ids is not None:
            original = original.with_solutions(
                tuple(
                    s.__class__(s.objectives, id=i)
                    for s, i in zip(original.solutions, ids)
                )
            )
        path = tmp_path / "out.csv"
        write_solution_set(path, original)
        loaded = load_solution_set(path, original.meta)
        assert loaded.values().tobytes() == original.values().tobytes()
        assert [s.id for s in loaded.solutions] == [s.id for s in original.solutions]

    def test_evaluate_with_an_objective_named_id(self, tmp_path):
        objectives = [{"name": "id"}, {"name": "f2"}]
        path = write_manifest(tmp_path, objectives, {"a": [KNEE_A], "b": [KNEE_B]})
        assert main(["evaluate", "--manifest", str(path)]) != EXIT_ERROR

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(run=run_files())
    # A "#" loadtxt would read as a comment, bodies with no rows (loadtxt
    # warns on them), an id with no cells after it, cells only float()
    # reads, rows one cell short throughout, and values numpy reads but that
    # are not finite.
    @example(run=("f1,f2\n1,2#3\n#4,5\n", META_2D))
    @example(run=("f1,f2\n\n \t\n", META_2D))
    @example(run=("id,f1,f2\r\n\r\n", META_2D))
    @example(run=("id,f1,f2\ns1,\n", META_2D))
    @example(run=("id,f1,f2\r\ns1,1_0,\u0663\r\n \r\ns2,3,4", META_2D))
    @example(run=("f1,f2\n1\n2\n", META_2D))
    @example(run=("f1,f2\n1,1e400\nnan,2\n", META_2D))
    def test_loader_matches_the_per_line_oracle(self, tmp_path, run):
        # The same values to the bit and the same ids, or the same error, and
        # the same warnings: numpy's parse of the body adds none.
        text, meta = run
        path = tmp_path / "run.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = _outcome(load_solution_set, path, meta)
        assert fast == _outcome(oracles.load_solution_set_oracle, path, meta)
        event("error" if fast[0][0] == "error" else f"{fast[0][1][0]} row(s)")

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


    @pytest.mark.parametrize("where", ["id", "objective"])
    @pytest.mark.parametrize("cell", ["a,b", "p\nq", " x "])
    def test_unreadable_cell_rejected_before_writing(self, tmp_path, cell, where):
        names = [cell, "f2"] if where == "objective" else None
        original = make_set("run", [(1, 2), (3, 4)], names=names)
        if where == "id":
            first, second = original.solutions
            original = original.with_solutions(
                (first.__class__(first.objectives, id=cell), second)
            )
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=re.escape(repr(cell))):
            write_solution_set(path, original)
        assert not path.exists()

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

    def test_removed_rows_are_in_natural_units(self, tmp_path):
        # coverage is maximised, so it is stored negated; the screen drops
        # one row of each algorithm, and the report shows it as the run file
        # holds it.
        screen = {"objective": "coverage", "kind": "at_least", "threshold": 0.4}
        path = write_manifest(
            tmp_path,
            COST_COVERAGE,
            {
                "alpha": [[(100, 0.2), (200, 0.8), (300, 0.9)]],
                "beta": [[(150, 0.6), (250, 0.3), (350, 0.95)]],
            },
            preferences={"screen": [screen]},
        )
        out = tmp_path / "r.json"
        main(["evaluate", "--manifest", str(path), "--out", str(out)])
        removals = json.loads(out.read_text())["preprocessing"]["removals"]
        rule = "coverage >= 0.4"
        assert removals == [
            {"set": "alpha", "index": 0, "rule": rule, "objectives": [100.0, 0.2]},
            {"set": "beta", "index": 1, "rule": rule, "objectives": [250.0, 0.3]},
        ]

    def test_removed_rows_are_named_by_their_file_row(self, tmp_path):
        # The screen removes file row 1, so the clear step is given file
        # row 3 at position 2; the report names the file row.
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"alpha": [[(1, 5), (10, 1), (2, 4), (3, 20), (4, 2)]]},
            preferences={
                "screen": [{"objective": "f1", "kind": "at_most", "threshold": 9}],
                "clear": [{"objective": "f2", "kind": "at_most", "threshold": 9}],
            },
        )
        out = tmp_path / "r.json"
        main(["evaluate", "--manifest", str(path), "--out", str(out)])
        removals = json.loads(out.read_text())["preprocessing"]["removals"]
        assert removals == [
            {"set": "alpha", "index": 1, "rule": "f1 <= 9.0", "objectives": [10.0, 1.0]},
            {"set": "alpha", "index": 3, "rule": "f2 <= 9.0", "objectives": [3.0, 20.0]},
        ]

    def test_reports_are_byte_stable(self, knee_manifest, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        main(["evaluate", "--manifest", str(knee_manifest), "--out", str(out1)])
        main(["evaluate", "--manifest", str(knee_manifest), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_failed_render_leaves_no_partial_report(
        self, tmp_path, capsys, monkeypatch
    ):
        # A numpy scalar in the last result row is not JSON, so the write
        # fails after the fields that sort before results have gone out.
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"alpha": [KNEE_A], "beta": [KNEE_B]},
            overrides={"indicators": ["hv", "igd"]},
        )
        built = cli.indicator_table

        def leaky(*args, **kwargs):
            table = built(*args, **kwargs)
            *_, last = table.values
            *head, value = table.values[last]
            table.values[last] = (*head, np.float32(value))
            return table

        monkeypatch.setattr(cli, "indicator_table", leaky)
        out = tmp_path / "report.json"
        out.write_bytes(b"the previous report\n")
        before = sorted(os.listdir(tmp_path))
        args = ["evaluate", "--manifest", str(path), "--out", str(out)]
        assert main(args) == EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            "error: TypeError: Object of type float32 is not JSON serializable"
        ]
        assert out.read_bytes() == b"the previous report\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_report_through_a_symlink_replaces_the_file_it_names(
        self, knee_manifest, tmp_path
    ):
        plain = tmp_path / "plain.json"
        args = ["evaluate", "--manifest", str(knee_manifest), "--out"]
        main([*args, str(plain)])
        real, link = tmp_path / "kept" / "report.json", tmp_path / "link.json"
        real.parent.mkdir()
        real.write_bytes(b"the previous report\n")
        real.chmod(0o640)
        link.symlink_to(real)
        main([*args, str(link)])
        assert link.is_symlink() and link.resolve() == real
        assert real.read_bytes() == plain.read_bytes()
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert os.listdir(real.parent) == ["report.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_report_to_a_pipe_is_written_through(self, knee_manifest, tmp_path):
        # As ``--out /dev/stdout`` or ``--out >(jq .)`` are: the pipe stays a
        # pipe and nothing is written beside it.
        plain, pipe = tmp_path / "plain.json", tmp_path / "pipe"
        args = ["evaluate", "--manifest", str(knee_manifest), "--out"]
        main([*args, str(plain)])
        before = sorted(os.listdir(tmp_path))
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            main([*args, str(pipe)])
            received = b""
            while chunk := os.read(reader, 1 << 16):
                received += chunk
        finally:
            os.close(reader)
        assert received == plain.read_bytes()
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert sorted(os.listdir(tmp_path)) == sorted([*before, "pipe"])

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

    def test_constant_objective_gets_grid_diversity(self, tmp_path, capsys):
        # grid_diversity scales as normalize does: the constant f3 falls in
        # cell 0 instead of failing the run, so evaluate exits as lint does.
        path = write_manifest(
            tmp_path,
            MIN_3D,
            {"alpha": [[(1, 5, 2), (2, 3, 2)]], "beta": [[(1.5, 4, 2), (3, 1, 2)]]},
            output={"report": str(tmp_path / "r.json")},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvaluationWarning)
            code = main(["evaluate", "--manifest", str(path)])
            assert code == main(["lint", "--manifest", str(path)]) == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        rows = report["results"]
        grid = [r["value"] for r in rows if r["indicator"] == "grid_diversity"]
        assert grid == [0.5, 0.5]

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

    def test_unread_hard_bounds_mode_does_not_fail(self, tmp_path, capsys):
        # hv is computed in raw units, so objectives without hard bounds fail
        # a hard_bounds plan only when a normalizing column or the weights
        # read the bounds.
        def manifest(name, indicators, preferences=None):
            return str(
                write_manifest(
                    tmp_path,
                    MIN_2D,
                    {"alpha": [KNEE_A], "beta": [KNEE_B]},
                    preferences=preferences,
                    overrides={
                        "indicators": indicators,
                        "normalization": "hard_bounds",
                    },
                    output={"report": str(tmp_path / f"{name}.json")},
                    filename=f"{name}-manifest.json",
                )
            )

        hv_only = manifest("hv", ["hv"], {"roi": "knee"})
        assert main(["evaluate", "--manifest", hv_only]) == EXIT_OK
        report = json.loads((tmp_path / "hv.json").read_text())
        assert [r["indicator"] for r in report["results"]] == ["hv", "hv"]
        plots = str(tmp_path / "plots")
        assert main(["plot-data", "--manifest", hv_only, "--out", plots]) == EXIT_OK
        capsys.readouterr()
        for read in (
            manifest("igd", ["hv", "igd"]),
            manifest("weights", ["hv"], {"weights": [0.5, 0.5]}),
        ):
            assert main(["evaluate", "--manifest", read]) == EXIT_ERROR
            assert "'f1' declares no hard bounds" in capsys.readouterr().err

    def test_hard_bounds_flag_a_reference_set_outside_them(self, tmp_path):
        # The union front is normalized in the runs' own call, so when it
        # lies outside the declared bounds it is flagged beside them.
        objectives = [{**o, "hard_bounds": [0, 2]} for o in MIN_2D]
        path = write_manifest(
            tmp_path,
            objectives,
            {"a": [[(1, 4), (4, 1)]], "b": [[(2, 5), (5, 2)]]},
            overrides={"indicators": ["igd"], "normalization": "hard_bounds"},
        )
        argv = ["evaluate", "--manifest", str(path), "--out", str(tmp_path / "r.json")]
        with pytest.warns(EvaluationWarning) as caught:
            main(argv)
        assert [str(w.message) for w in caught] == [
            f"set {name!r} has values outside the normalization bounds"
            for name in ("a", "b", "reference")
        ]

    @pytest.mark.parametrize(
        "preferences, indicators, dropped, kept",
        [
            ({"roi": "knee"}, ["igd"], "N-IGD-EXCLUDED", "L-KNEE-MISMATCH"),
            ({"roi": "knee"}, ["hv", "unfr"], "N-IGD-EXCLUDED", "N-PLOT"),
            (None, ["hv"], "N-EXTREMES-SUBSTITUTED", "N-PSI"),
        ],
        ids=["knee-igd", "knee-hv-unfr", "hv-without-spread"],
    )
    def test_plan_notes_follow_the_columns(
        self, tmp_path, preferences, indicators, dropped, kept
    ):
        # A plan note on columns that did not run stays in the plan block
        # and out of the findings.
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"alpha": [KNEE_A], "beta": [KNEE_B]},
            preferences=preferences,
            overrides={"indicators": indicators},
        )
        out = tmp_path / "r.json"
        main(["evaluate", "--manifest", str(path), "--out", str(out)])
        report = json.loads(out.read_text())
        assert dropped in [w["code"] for w in report["plan"]["warnings"]]
        found = [f["code"] for f in report["findings"]]
        assert dropped not in found and kept in found

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


class TestDoeRoutes:
    """evaluate's doe block follows the plan's route."""

    @staticmethod
    def _evaluate(tmp_path, objectives, runs, preferences, *flags):
        path = write_manifest(tmp_path, objectives, runs, preferences=preferences)
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvaluationWarning)
            code = main(
                ["evaluate", "--manifest", str(path), "--out", str(out), *flags]
            )
        return code, json.loads(out.read_text())

    def test_untransferable_weights_take_the_general_route(self, tmp_path):
        code, report = self._evaluate(
            tmp_path,
            MIN_2D,
            {"alpha": [KNEE_A], "beta": [KNEE_B]},
            {"weights": [0.5, 0.5], "untransferable": True},
        )
        assert code == EXIT_OK
        assert report["plan"]["doe_steps"] == []
        assert report["doe"] == {}
        executed = {r["indicator"] for r in report["results"]}
        assert executed == {"gd_plus", "ci", "spread", "unfr", "hv"}

    def test_extreme_route_reports_per_objective_best(self, tmp_path):
        # cost <= 400 empties alpha's second run; best values are natural units.
        code, report = self._evaluate(
            tmp_path,
            COST_COVERAGE,
            {"alpha": [COVERAGE_A, [(600, 0.5)]], "beta": [COVERAGE_B]},
            {
                "clear": [{"objective": "cost", "kind": "at_most", "threshold": 400}],
                "roi": {"extreme": ["cost", "coverage"]},
            },
        )
        assert code == EXIT_OK
        assert report["plan"]["doe_steps"] == ["best: report per-objective best values"]
        assert report["doe"] == {
            "kind": "per-objective-best",
            "objectives": ["cost", "coverage"],
            "best": {"alpha": [200.0, 0.6], "beta": [0.0, 0.9]},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvaluationWarning)
            prepared = cli.prepare(load_manifest(tmp_path / "manifest.json"))
        for alg, runs in prepared.algorithms.items():
            # The best over the pooled runs is the best of each run's best.
            bests = zip(*(per_objective_stats(r).best for r in runs if len(r)))
            pick = (min, max)  # cost is minimized, coverage maximized
            expected = [f(values) for f, values in zip(pick, bests)]
            assert report["doe"]["best"][alg] == expected

    @pytest.mark.parametrize(
        "clear, objectives",
        [([], ["f3", "f1"]), ([{"objective": "f3", "kind": "exactly_best"}], ["f1"])],
        ids=["named-order", "dropped-left-out"],
    )
    def test_extreme_route_reads_the_objectives_it_names(
        self, tmp_path, clear, objectives
    ):
        # Only the named objectives, in the order named; f3 is 0 on every
        # survivor, so an agreed exactly_best drops it from the block.
        runs = {
            "alpha": [[(1, 4, 0), (2, 3, 0)], [(4, 1, 0)]],
            "beta": [[(2.5, 5, 0), (3, 2, 0)]],
        }
        preferences = {"clear": clear, "roi": {"extreme": ["f3", "f1"]}}
        code, report = self._evaluate(tmp_path, F123, runs, preferences)
        best = {"f1": {"alpha": 1.0, "beta": 2.5}, "f3": {"alpha": 0.0, "beta": 0.0}}
        assert code == EXIT_OK
        assert report["doe"] == {
            "kind": "per-objective-best",
            "objectives": objectives,
            "best": {a: [best[o][a] for o in objectives] for a in runs},
        }

    def test_scalarize_skips_an_emptied_algorithm(self, tmp_path):
        code, report = self._evaluate(
            tmp_path, MIN_2D, EMPTIED_ALPHA, {**F2_AT_MOST, "weights": [0.5, 0.5]}
        )
        assert code == EXIT_OK
        assert list(report["doe"]["by_algorithm"]) == ["beta"]
        assert report["doe"]["winner"] == "beta"

    def test_scalarize_weighs_the_objectives_left(self, tmp_path):
        # f3 is exactly_best and every survivor has it at 0, so it is dropped
        # and its weight with it.
        preferences = {
            "clear": [{"objective": "f3", "kind": "exactly_best"}],
            "weights": [0.5, 0.25, 0.25],
        }
        runs = {
            "alpha": [[(1, 4, 0), (2, 3, 0), (4, 1, 5)]],
            "beta": [[(2.5, 5, 0), (3, 2, 0)]],
        }
        code, report = self._evaluate(tmp_path, F123, runs, preferences)
        linted = main(["lint", "--manifest", str(tmp_path / "manifest.json")])
        assert code == linted == EXIT_OK
        assert report["preprocessing"]["dropped_objectives"] == ["f3"]
        assert report["plan"]["doe_steps"] == [
            "scalarize: rank sets by their best weighted-sum solution"
        ]
        doe = report["doe"]
        assert (doe["kind"], doe["weights"]) == ("scalarize", [0.5, 0.25])
        # Normalized on the survivors' bounds, f1 in [1, 3] and f2 in [2, 5]:
        # alpha's (1, 4) scores 0.25 * 2/3 and beta's (3, 2) scores 0.5.
        alpha, beta = doe["by_algorithm"]["alpha"], doe["by_algorithm"]["beta"]
        assert alpha["solution"] == [0.0, 2 / 3]
        assert alpha["score"] == pytest.approx(1 / 6)
        assert (beta["solution"], beta["score"]) == ([1.0, 0.0], 0.5)
        assert doe["winner"] == "alpha"

    def test_skipped_pairwise_columns_are_noted(self, tmp_path):
        code, report = self._evaluate(
            tmp_path,
            MIN_2D,
            {"a": [DIAG_A], "b": [DIAG_B], "c": [DIAG_C]},
            None,
            "--indicator",
            "ci",
            "--indicator",
            "hv",
        )
        assert code == EXIT_OK
        assert {r["indicator"] for r in report["results"]} == {"hv"}
        (note,) = [f for f in report["findings"] if f["code"] == "N-BINARY-SKIPPED"]
        assert note["severity"] == "info"
        assert note["message"].endswith("(ci: 3 algorithm(s), 3 with survivors)")

    def test_pairwise_against_an_emptied_algorithm_is_noted(self, tmp_path):
        code, report = self._evaluate(tmp_path, MIN_2D, EMPTIED_ALPHA, F2_AT_MOST)
        assert code == EXIT_OK
        assert "ci" in [p["name"] for p in report["plan"]["indicators"]]
        assert "ci" not in {r["indicator"] for r in report["results"]}
        (note,) = [f for f in report["findings"] if f["code"] == "N-BINARY-SKIPPED"]
        assert note["message"].endswith("(ci: 2 algorithm(s), 1 with survivors)")


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

    def test_epsilon_under_hard_bounds(self, tmp_path, capsys):
        # Raw epsilon(a, b) is 1 on f1.  The hard bounds scale f1 by 1/100;
        # the two sets' own range (f1 in [0, 1]) would give 1.
        objectives = [
            {"name": "f1", "direction": "min", "hard_bounds": [0, 100]},
            {"name": "f2", "direction": "min", "hard_bounds": [0, 10]},
        ]
        path = write_manifest(
            tmp_path,
            objectives,
            {"a": [[(1, 0)]], "b": [[(0, 0)]]},
            overrides={"normalization": "hard_bounds"},
        )
        argv = ["compare", "--manifest", str(path), "--indicator", "epsilon", "a", "b"]
        assert main(argv) == EXIT_OK
        assert "epsilon(a, b) = 0.01\n" in capsys.readouterr().out

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

    def test_one_indicator_only(self, knee_manifest, capsys):
        argv = ["compare", "--manifest", str(knee_manifest), "alpha", "beta"]
        code = main(argv + ["--indicator", "ci", "--indicator", "c"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: compare takes exactly one indicator\n"

    def test_emptied_side_exits_2(self, tmp_path, capsys):
        path = write_manifest(tmp_path, MIN_2D, EMPTIED_ALPHA, preferences=F2_AT_MOST)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvaluationWarning)
            code = main(["compare", "--manifest", str(path), "alpha", "beta"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: cannot compare empty sets\n"

    def test_pairwise_check_precedes_the_runs(self, tmp_path, capsys):
        # hv is rejected from the manifest alone, before an emptied
        # algorithm could be found.
        path = write_manifest(tmp_path, MIN_2D, EMPTIED_ALPHA, preferences=F2_AT_MOST)
        argv = ["compare", "--manifest", str(path), "--indicator", "hv"]
        assert main([*argv, "alpha", "beta"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: hv is not a pairwise indicator; use ci, c, or epsilon\n"
        )

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


    def test_plan_prints_preprocessing_and_doe_steps(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"alpha": [KNEE_A], "beta": [KNEE_B]},
            preferences={**F2_AT_MOST, "weights": [0.5, 0.5]},
        )
        assert main(["recommend", "--manifest", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            "preprocessing:",
            "  clear-transfer: P2: filter by the hard constraints, then judge survivors",
        ]
        assert "  doe scalarize: rank sets by their best weighted-sum solution" in lines


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
        # A one-row union front has zero range: the hv point steps by 1.
        with pytest.warns(EvaluationWarning, match="degenerate objective range"):
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

    @staticmethod
    def _evaluate_then_lint(tmp_path, path, *flags):
        """(evaluate's exit, its report, lint's exit, its report) on one
        command line."""
        runs = []
        for command in ("evaluate", "lint"):
            out = tmp_path / f"{command}.json"
            code = main([command, "--manifest", str(path), "--out", str(out), *flags])
            runs += [code, json.loads(out.read_text())]
        return runs

    def test_objective_count_after_preprocessing(self, tmp_path):
        # Every survivor has f3 = 0, so f3 is dropped and spread runs at m=2.
        objectives = [{"name": f"f{i}", "direction": "min"} for i in (1, 2, 3)]
        path = write_manifest(
            tmp_path,
            objectives,
            {
                "a": [[(1, 4, 0), (2, 3, 0), (4, 1, 0), (0.5, 0.5, 2)]],
                "b": [[(2, 5, 0), (3, 2, 0), (5, 1, 0), (1, 1, 3)]],
            },
            preferences={"clear": [{"objective": "f3", "kind": "exactly_best"}]},
        )
        code, report, lint_code, lint_report = self._evaluate_then_lint(tmp_path, path)
        assert report["preprocessing"]["dropped_objectives"] == ["f3"]
        assert "spread" in {r["indicator"] for r in report["results"]}
        assert code == lint_code == EXIT_OK
        assert "L-SPREAD-DIM" not in [f["code"] for f in lint_report["findings"]]
        assert [f for f in report["findings"] if f["code"].startswith("L-")] == (
            lint_report["findings"]
        )

    def test_evaluate_reports_reference_point_at_nadir(self, tmp_path):
        path = write_manifest(tmp_path, MIN_2D, {"a": [KNEE_A], "b": [KNEE_B]})
        code, report, lint_code, lint_report = self._evaluate_then_lint(
            tmp_path, path, "--indicator", "hv", "--ref-point", "12,10"
        )
        assert code == lint_code == EXIT_WARNINGS
        assert [f["code"] for f in lint_report["findings"]] == ["L-HV-REFPOINT"]
        assert [f for f in report["findings"] if f["code"].startswith("L-")] == (
            lint_report["findings"]
        )

    def test_reference_point_inside_the_front_is_an_error(self, tmp_path, capsys):
        # evaluate rejects a point short of the nadir (4, 4); lint must too.
        path = write_manifest(tmp_path, MIN_2D, {"a": [[(1, 4), (4, 1)]]})
        flags = ["--manifest", str(path), "--indicator", "hv", "--ref-point", "3,3"]
        assert main(["evaluate", *flags]) == EXIT_ERROR
        assert "does not weakly exceed the basis nadir (4.0, 4.0)" in (
            capsys.readouterr().err
        )
        out = tmp_path / "lint.json"
        assert main(["lint", *flags, "--out", str(out)]) == EXIT_ERROR
        assert "[error] L-HV-REF-INSIDE" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert [f["code"] for f in report["findings"]] == ["L-HV-REF-INSIDE"]
        assert report["exit_status"] == EXIT_ERROR

    HARD_BOUNDS = {"normalization": "hard_bounds"}
    # The codes of evaluate's yardstick build, whose errors lint reports.
    YARDSTICK_CODES = (
        "L-ALL-EMPTY", "L-NO-HARD-BOUNDS", "L-HV-REF-INVALID", "L-HV-REF-INSIDE",
        "L-RUN-TOO-SMALL",
    )

    @pytest.mark.filterwarnings("ignore::paretoeval.EvaluationWarning")
    @pytest.mark.parametrize(
        "algorithms, preferences, overrides, flags, code, error",
        [
            pytest.param(
                {"a": [KNEE_A], "b": [KNEE_B]}, None, HARD_BOUNDS, [],
                "L-NO-HARD-BOUNDS", "objective 'f1' declares no hard bounds",
                id="hard-bounds-column",
            ),
            pytest.param(
                {"a": [KNEE_A], "b": [KNEE_B]}, {"weights": [0.5, 0.5]},
                HARD_BOUNDS, [],
                "L-NO-HARD-BOUNDS", "objective 'f1' declares no hard bounds",
                id="hard-bounds-scalarize",
            ),
            pytest.param(
                {"a": [KNEE_A], "b": [[(5, 5)]]}, None, None, ["--indicator", "sp"],
                "L-RUN-TOO-SMALL", "sp needs 2; b keep fewer",
                id="spacing-one-solution",
            ),
            pytest.param(
                {"a": [KNEE_A], "b": [KNEE_B]}, None, None,
                ["--ref-point", "10,10,10"],
                "L-HV-REF-INVALID", "explicit point length must match",
                id="point-length",
            ),
            pytest.param(
                {"a": [KNEE_A, KNEE_B]}, None, None, ["--ref-strategy", "explicit"],
                "L-HV-REF-INVALID", "explicit strategy requires a point",
                id="point-missing",
            ),
            pytest.param(
                {"a": [KNEE_A, KNEE_B]}, None, None,
                ["--indicator", "gd_plus", "--ref-point", "2,2"],
                "L-HV-REF-INSIDE", "does not weakly exceed the basis nadir",
                id="ranking-point-inside",
            ),
            pytest.param(
                {"a": [[(6, 6), (8, 7)]], "b": [[(7, 6)]]}, F2_AT_MOST, None, [],
                "L-ALL-EMPTY", "every set is empty after preprocessing",
                id="all-emptied",
            ),
        ],
    )
    def test_lint_refuses_what_evaluate_rejects(
        self, tmp_path, capsys, algorithms, preferences, overrides, flags, code, error
    ):
        path = write_manifest(
            tmp_path, MIN_2D, algorithms, preferences=preferences, overrides=overrides
        )
        argv = ["--manifest", str(path), *flags]
        assert main(["evaluate", *argv]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert error in err
        out = tmp_path / "lint.json"
        assert main(["lint", *argv, "--out", str(out)]) == EXIT_ERROR
        assert f"[error] {code}" in capsys.readouterr().out
        findings = json.loads(out.read_text())["findings"]
        assert code in [f["code"] for f in findings]
        if code in self.YARDSTICK_CODES:  # evaluate's own error, not a copy
            message = err.strip().splitlines()[-1].removeprefix("error: ")
            (finding,) = [f for f in findings if f["code"] == code]
            assert finding["message"].endswith(f"({message})")

    def test_malformed_run_file_exits_2(self, tmp_path, capsys):
        path = write_manifest(tmp_path, MIN_2D, {"a": [KNEE_A]})
        (tmp_path / "a_0.csv").write_text("f1,f2\n1,x\n", encoding="utf-8")
        assert main(["lint", "--manifest", str(path)]) == EXIT_ERROR
        assert ":2:" in capsys.readouterr().err

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

    def test_indicator_named_twice_is_one_column(self, tmp_path):
        # f2 <= 5.5 empties b's second run, so a has two live runs and b one.
        algorithms = {"a": [KNEE_A, KNEE_B], "b": [KNEE_B, [(6, 6), (8, 7)]]}
        path = write_manifest(tmp_path, MIN_2D, algorithms, preferences=F2_AT_MOST)
        with pytest.warns(EvaluationWarning, match="every solution of set 'b#1'"):
            code, report, _, lint_report = self._evaluate_then_lint(
                tmp_path, path, "--indicator", "hv", "--indicator", "hypervolume"
            )
        assert code == EXIT_OK
        hv_runs = [(r["algorithm"], r["run"]) for r in report["results"]]
        assert hv_runs == [("a", 0), ("a", 1), ("b", 0)]
        aggregates = report["aggregates"]
        runs = {(g["algorithm"], g["indicator"]): g["runs"] for g in aggregates}
        assert runs == {("a", "hv"): 2, ("b", "hv"): 1}
        assert lint_report["chosen"] == ["hv"]

    def test_manifest_alias_of_a_named_indicator_is_judged_once(self, tmp_path):
        path = write_manifest(
            tmp_path, MIN_2D, {"a": [KNEE_A], "b": [[(5, 5)]]},
            overrides={"indicators": ["sp", "spacing"]},
        )
        out = tmp_path / "lint.json"
        assert main(["lint", "--manifest", str(path), "--out", str(out)]) == EXIT_ERROR
        report = json.loads(out.read_text())
        assert report["chosen"] == ["sp"]
        codes = [f["code"] for f in report["findings"]]
        assert codes.count("L-RUN-TOO-SMALL") == 1


F123 = [{"name": f"f{i}", "direction": "min"} for i in (1, 2, 3)]


class TestPlannedOnLiveObjectives:
    """evaluate, lint and plot-data plan on the objectives left after
    preprocessing, not on the declared count less the exactly_best ones."""

    @staticmethod
    def _run(tmp_path, path, command, *flags):
        """(exit status, report) of one command writing its report."""
        out = tmp_path / f"{command}.json"
        code = main([command, "--manifest", str(path), "--out", str(out), *flags])
        return code, json.loads(out.read_text())

    def test_disputed_third_objective_keeps_three(self, tmp_path):
        # Each set agrees on its own best f3, but the sets disagree, so f3 stays.
        path = write_manifest(
            tmp_path,
            F123,
            {
                "a": [[(1, 4, 0), (2, 3, 0), (4, 1, 0)]],
                "b": [[(2, 5, 1), (3, 2, 1), (5, 1, 1)]],
            },
            preferences={"clear": [{"objective": "f3", "kind": "exactly_best"}]},
        )
        code, report = self._run(tmp_path, path, "evaluate")
        lint_code, lint_report = self._run(tmp_path, path, "lint")
        assert code == lint_code == EXIT_OK
        assert report["preprocessing"]["dropped_objectives"] == []
        planned = [p["name"] for p in report["plan"]["indicators"]]
        assert "grid_diversity" in planned and "spread" not in planned
        executed = {r["indicator"] for r in report["results"]}
        assert executed == {"gd_plus", "ci", "grid_diversity", "unfr", "hv"}
        (plot,) = [f for f in report["findings"] if f["code"] == "N-PLOT"]
        assert "scatter for m=3" in plot["message"]
        assert "L-SPREAD-DIM" not in {f["code"] for f in lint_report["findings"]}

    def test_disputed_second_objective_takes_the_general_route(self, tmp_path):
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"a": [[(1, 0), (2, 0), (4, 0)]], "b": [[(0.5, 1), (3, 1)]]},
            preferences={"clear": [{"objective": "f2", "kind": "exactly_best"}]},
        )
        code, report = self._run(tmp_path, path, "evaluate")
        assert code == EXIT_OK
        executed = {r["indicator"] for r in report["results"]}
        assert executed == {"gd_plus", "ci", "spread", "unfr", "hv"}
        assert report["doe"] == {}

    @pytest.mark.parametrize(
        "flags", [("--indicator", "spread"), ("--indicator", "hv"), ()],
        ids=["spread", "hv", "planned"],
    )
    def test_best_value_route_judges_no_column(self, tmp_path, flags):
        # f2 is exactly_best and every survivor has it at 0: one objective is
        # left, so no indicator column runs and none is linted.
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"a": [[(1, 0), (2, 0), (4, 1)]], "b": [[(0.5, 0), (3, 2)]]},
            preferences={"clear": [{"objective": "f2", "kind": "exactly_best"}]},
        )
        code, report = self._run(tmp_path, path, "evaluate", *flags)
        lint_code, lint_report = self._run(tmp_path, path, "lint", *flags)
        assert code == lint_code == report["exit_status"] == EXIT_OK
        assert lint_report["chosen"] == list(flags[1:])
        assert lint_report["findings"] == []
        assert report["results"] == report["aggregates"] == []
        assert (report["doe"]["kind"], report["doe"]["winner"]) == ("best-value", "b")
        notes = [f for f in report["findings"] if f["code"] == "N-BEST-VALUE-SKIPPED"]
        if flags:
            (note,) = notes
            assert note["severity"] == "info"
            assert note["message"].endswith(f"({flags[1]})")
        else:
            assert notes == []

    @pytest.mark.parametrize(
        "argv",
        [["evaluate"], ["lint", "--indicator", "hv"], ["plot-data"]],
        ids=lambda argv: argv[0],
    )
    def test_one_objective_cannot_be_planned(self, tmp_path, capsys, argv):
        path = write_manifest(
            tmp_path,
            [{"name": "f1", "direction": "min"}],
            {"a": [[(1,), (2,)]], "b": [[(3,)]]},
        )
        out = str(tmp_path / "out")
        code = main([argv[0], "--manifest", str(path), "--out", out, *argv[1:]])
        assert code == EXIT_ERROR
        assert "planning needs at least two objectives" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "runs, dropped, disputed",
        [
            # A zero's sign does not make survivors disagree.
            ({"a": [[(1, 4, 0.0), (4, 1, 0.0)]], "b": [[(2, 2, -0.0)]]}, (2,), ()),
            # No survivor at all: nothing is disputed.
            ({"a": [[(9, 4, 0.0)]], "b": [[(9, 2, 1.0)]]}, (2,), ()),
        ],
        ids=["signed-zeros", "all-empty"],
    )
    def test_best_value_objective_dropped_when_survivors_agree(
        self, tmp_path, runs, dropped, disputed
    ):
        path = write_manifest(
            tmp_path,
            F123,
            runs,
            preferences={
                "screen": [{"objective": "f1", "kind": "at_most", "threshold": 5}],
                "clear": [{"objective": "f3", "kind": "exactly_best"}],
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvaluationWarning)
            prepared = cli.prepare(load_manifest(path))
        assert (prepared.dropped, prepared.disputed) == (dropped, disputed)
        assert prepared.live_m == 3 - len(dropped)


class TestManifestOutputPaths:
    def test_relative_outputs_resolve_against_the_manifest(
        self, tmp_path, monkeypatch
    ):
        exp, elsewhere = tmp_path / "exp", tmp_path / "elsewhere"
        exp.mkdir()
        elsewhere.mkdir()
        path = write_manifest(
            exp,
            MIN_2D,
            {"alpha": [KNEE_A], "beta": [KNEE_B]},
            output={"report": "out/report.json", "plot_data": "plots"},
        )
        monkeypatch.chdir(elsewhere)
        assert main(["evaluate", "--manifest", str(path)]) == EXIT_OK
        assert main(["plot-data", "--manifest", str(path)]) == EXIT_OK
        assert (exp / "out" / "report.json").is_file()
        assert sorted(p.name for p in (exp / "plots").iterdir()) == [
            "alpha.csv",
            "beta.csv",
        ]
        assert list(elsewhere.iterdir()) == []
        # --out stays relative to the current directory.
        argv = ["--manifest", str(path), "--out"]
        assert main(["evaluate", *argv, "mine.json"]) == EXIT_OK
        assert main(["plot-data", *argv, "my-plots"]) == EXIT_OK
        assert sorted(p.name for p in elsewhere.iterdir()) == ["mine.json", "my-plots"]


class TestStats:
    def test_natural_units_and_caveat(self, tmp_path, capsys):
        path = write_manifest(
            tmp_path, COST_COVERAGE, {"alpha": [COVERAGE_A]}
        )
        assert main(["stats", "--manifest", str(path)]) == EXIT_WARNINGS
        out = capsys.readouterr().out
        assert "alpha run 0:" in out
        assert "cost" in out and "coverage" in out
        assert out.splitlines()[-1] == (
            "[warning] L-DOE-SOLE (misuse II): mean/median/worst per-objective "
            "statistics are the sole comparison; they can contradict the "
            "dominance relation between sets (mean, median, worst)"
        )

    def test_stats_report_values(self, tmp_path):
        path = write_manifest(
            tmp_path, COST_COVERAGE, {"alpha": [COVERAGE_A]}
        )
        out = tmp_path / "stats.json"
        main(["stats", "--manifest", str(path), "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["schema"] == "solution-set-stats/2"
        block = report["stats"][0]
        assert block["best"] == [200.0, 1.0]
        assert block["worst"] == [450.0, 0.2]
        assert [f["code"] for f in report["findings"]] == ["L-DOE-SOLE"]
        assert report["exit_status"] == EXIT_WARNINGS

    def test_emptied_algorithm_skipped(self, tmp_path):
        path = write_manifest(tmp_path, MIN_2D, EMPTIED_ALPHA, preferences=F2_AT_MOST)
        out = tmp_path / "stats.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvaluationWarning)
            code = main(["stats", "--manifest", str(path), "--out", str(out)])
        assert code == EXIT_WARNINGS
        blocks = json.loads(out.read_text())["stats"]
        assert [(b["algorithm"], b["run"]) for b in blocks] == [("beta", 0)]
        assert blocks[0]["best"] == [7.0, 1.5]

    def test_no_statistics_no_finding(self, tmp_path, capsys):
        # Preprocessing empties the one run: nothing is compared.
        path = write_manifest(
            tmp_path, MIN_2D, {"alpha": EMPTIED_ALPHA["alpha"]}, preferences=F2_AT_MOST
        )
        out = tmp_path / "stats.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvaluationWarning)
            code = main(["stats", "--manifest", str(path), "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert (report["stats"], report["findings"], report["exit_status"]) == (
            [], [], EXIT_OK
        )
        assert capsys.readouterr().out == ""


TWO_KNEES = {"a": [KNEE_A], "b": [KNEE_B]}
# f2 is exactly_best; beta's best coverage is 0.9, below alpha's 1.0.
DISPUTED = {
    "objectives": COST_COVERAGE,
    "algorithms": {"alpha": [COVERAGE_A], "beta": [COVERAGE_B[:-1]]},
    "preferences": {"clear": [{"objective": "coverage", "kind": "exactly_best"}]},
}


class TestEveryCodeIsRaised:
    """Each code of ``WARNING_CODES`` reaches a report: the command that
    raises it, a manifest (``MIN_2D`` and ``TWO_KNEES`` unless named) and
    flags."""

    CASES = {
        "L-DOE-SOLE": ("stats", {}, []),
        "L-ASPECT-GAP": ("lint", {}, ["--indicator", "gd_plus"]),
        "L-SPREAD-DIM": (
            "lint",
            {"objectives": MIN_3D, "algorithms": {"a": [[(1, 2, 3), (3, 1, 2)]]}},
            ["--indicator", "spread"],
        ),
        "L-HV-DIM": (
            "lint",
            {
                "objectives": [{"name": f"f{j}"} for j in range(11)],
                "algorithms": {"a": [[tuple(range(11)), tuple(range(11))[::-1]]]},
            },
            ["--indicator", "hv"],
        ),
        "L-IGD-REFSET": ("lint", {}, ["--indicator", "igd"]),
        "L-HV-REFPOINT": ("lint", {}, ["--ref-strategy", "worst_values"]),
        "L-HV-REF-INSIDE": (
            "lint",
            {"algorithms": {"a": [[(1, 4), (4, 1)]]}},
            ["--indicator", "hv", "--ref-point", "3,3"],
        ),
        "L-HV-REF-INVALID": ("lint", {}, ["--ref-strategy", "explicit"]),
        "L-NO-HARD-BOUNDS": (
            "lint", {"overrides": {"normalization": "hard_bounds"}}, []
        ),
        "L-RUN-TOO-SMALL": (
            "lint",
            {"algorithms": {"a": [KNEE_A], "b": [[(5, 5)]]}},
            ["--indicator", "sp"],
        ),
        "L-ALL-EMPTY": (
            "lint",
            {"algorithms": {"a": [[(6, 6)]]}, "preferences": F2_AT_MOST},
            [],
        ),
        "L-KNEE-MISMATCH": (
            "lint", {"preferences": {"roi": "knee"}}, ["--indicator", "igd"]
        ),
        "L-EXTREME-MISMATCH": (
            "lint",
            {"preferences": {"roi": {"extreme": ["f1"]}}},
            ["--indicator", "igd"],
        ),
        "N-PSI": ("evaluate", {}, []),
        "N-IGD-EXCLUDED": ("evaluate", {"preferences": {"roi": "knee"}}, []),
        "N-PLOT": ("evaluate", {}, []),
        "N-EXTREMES-SUBSTITUTED": ("evaluate", {}, []),
        "N-RENORM-SURVIVORS": ("evaluate", DISPUTED, []),
        "N-BINARY-SKIPPED": (
            "evaluate",
            {"algorithms": {"a": [DIAG_A], "b": [DIAG_B], "c": [DIAG_C]}},
            ["--indicator", "ci", "--indicator", "hv"],
        ),
        "N-BEST-VALUE-SKIPPED": (
            "evaluate",
            {
                "algorithms": {"a": [[(1, 0), (4, 1)]], "b": [[(0.5, 0), (3, 2)]]},
                "preferences": {"clear": [{"objective": "f2", "kind": "exactly_best"}]},
            },
            ["--indicator", "hv"],
        ),
    }

    def test_the_cases_name_every_code(self):
        assert self.CASES.keys() == WARNING_CODES.keys()

    @pytest.mark.filterwarnings("ignore::paretoeval.EvaluationWarning")
    @pytest.mark.parametrize("code", list(CASES))
    def test_code_reaches_the_report(self, tmp_path, capsys, code):
        command, manifest, flags = self.CASES[code]
        path = write_manifest(
            tmp_path,
            manifest.get("objectives", MIN_2D),
            manifest.get("algorithms", TWO_KNEES),
            preferences=manifest.get("preferences"),
            overrides=manifest.get("overrides"),
        )
        out = tmp_path / "report.json"
        status = main([command, "--manifest", str(path), *flags, "--out", str(out)])
        report = json.loads(out.read_text())
        assert code in [f["code"] for f in report["findings"]]
        assert status == report["exit_status"]



def _simplex_runs(m, algorithms=2):
    """One run per algorithm of six rows on a simplex, so no row of a run
    dominates another; each algorithm is shifted half a unit past the last."""
    rows = np.random.default_rng(m).dirichlet(np.ones(m), size=6) * 10
    return {f"alg{k}": [(rows + k / 2).tolist()] for k in range(algorithms)}


def _objectives(m):
    return [{"name": f"f{j + 1}", "direction": "min"} for j in range(m)]


# The notes evaluate decides itself, beside those of its columns.
CLI_NOTES = {"N-BEST-VALUE-SKIPPED", "N-BINARY-SKIPPED", "N-RENORM-SURVIVORS"}
EXTREME_F1 = {"roi": {"extreme": ["f1"]}}


class TestNotesFollowTheColumns:
    """One rule decides each note, for the plan's indicators and for the
    columns ``evaluate`` computes."""

    @staticmethod
    def _evaluate(tmp_path, path, *flags):
        out = tmp_path / "report.json"
        status = main(["evaluate", "--manifest", str(path), *flags, "--out", str(out)])
        report = json.loads(out.read_text())
        assert status == report["exit_status"]
        return report

    @pytest.mark.parametrize(
        "preferences",
        [{"roi": "knee"}, EXTREME_F1, {"weights": [0.5, 0.5]}],
        ids=["knee", "extreme", "scalarize"],
    )
    def test_named_spread_notes_the_substituted_extremes(self, tmp_path, preferences):
        # None of these plans computes spread, so only the column bears the
        # note out.
        path = write_manifest(tmp_path, MIN_2D, TWO_KNEES, preferences=preferences)
        report = self._evaluate(tmp_path, path, "--indicator", "spread")
        assert "spread" in [r["indicator"] for r in report["results"]]
        assert "N-EXTREMES-SUBSTITUTED" not in [
            w["code"] for w in report["plan"]["warnings"]
        ]
        assert "N-EXTREMES-SUBSTITUTED" in [f["code"] for f in report["findings"]]

    def test_spread_beyond_two_objectives_notes_nothing(self, tmp_path):
        # spread is defined at m=2 only: at m=3 lint rejects it, and it is
        # not a column.
        path = write_manifest(tmp_path, MIN_3D, _simplex_runs(3))
        report = self._evaluate(tmp_path, path, "--indicator", "spread")
        assert report["results"] == []
        assert "N-EXTREMES-SUBSTITUTED" not in [f["code"] for f in report["findings"]]

    def test_extreme_plan_notes_the_excluded_distance_indicators(self, tmp_path):
        runs = _simplex_runs(3)
        path = write_manifest(tmp_path, MIN_3D, runs, preferences=EXTREME_F1)
        summary = WARNING_CODES["N-IGD-EXCLUDED"][2]
        excluded = {
            "code": "N-IGD-EXCLUDED",
            "severity": "info",
            "message": f"{summary} (extreme preference)",
            "issue": "V",
        }
        out = tmp_path / "plan.json"
        status = main(["recommend", "--manifest", str(path), "--out", str(out)])
        assert status == EXIT_OK
        assert excluded in json.loads(out.read_text())["plan"]["warnings"]
        report = self._evaluate(tmp_path, path)
        assert [r["indicator"] for r in report["results"]] == ["hv", "hv"]
        assert excluded in report["findings"]

    @pytest.mark.parametrize(
        "m, preferences, runs",
        [
            pytest.param(2, None, None, id="general-m2"),
            pytest.param(3, None, None, id="general-m3"),
            pytest.param(2, {"roi": "knee"}, None, id="knee-m2"),
            pytest.param(5, {"roi": "knee"}, None, id="knee-m5"),
            pytest.param(2, EXTREME_F1, None, id="extreme-m2"),
            pytest.param(3, EXTREME_F1, None, id="extreme-m3"),
            pytest.param(2, {"weights": [0.5, 0.5]}, None, id="scalarize"),
            pytest.param(
                2,
                {"clear": [{"objective": "f2", "kind": "exactly_best"}]},
                {"a": [[(1, 0), (4, 1)]], "b": [[(0.5, 0), (3, 2)]]},
                id="best-value",
            ),
        ],
    )
    def test_findings_carry_the_plan_notes_in_order(
        self, tmp_path, m, preferences, runs
    ):
        # No manifest here provokes an EvaluationWarning: tier-1 turns one
        # into an error.
        path = write_manifest(
            tmp_path, _objectives(m), runs or _simplex_runs(m), preferences=preferences
        )
        report = self._evaluate(tmp_path, path)
        planned = [w for w in report["plan"]["warnings"] if w["code"].startswith("N-")]
        found = [f for f in report["findings"] if f["code"].startswith("N-")]
        assert found[: len(planned)] == planned
        assert {f["code"] for f in found[len(planned):]} <= CLI_NOTES


class TestPlotData:
    def test_algorithm_without_survivors_warns_and_writes(self, tmp_path, capsys):
        path = write_manifest(tmp_path, MIN_2D, EMPTIED_ALPHA, preferences=F2_AT_MOST)
        out_dir = tmp_path / "plots"
        argv = ["plot-data", "--manifest", str(path), "--out", str(out_dir)]
        with pytest.warns(EvaluationWarning) as caught:
            assert main(argv) == EXIT_OK
        messages = [str(w.message) for w in caught]
        assert "algorithm 'alpha' has no surviving solutions to plot" in messages
        assert (out_dir / "alpha.csv").read_text() == "f1,f2\n"
        beta = load_solution_set(out_dir / "beta.csv", META_2D)
        assert beta.vectors() == [(7.0, 5.0), (12.0, 1.5)]
        assert "wrote scatter data for 2 set(s)" in capsys.readouterr().out

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
        argv = ["plot-data", "--manifest", str(path), "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        lines = (out_dir / "parallel-coordinates.csv").read_text().splitlines()
        assert lines[0] == "set,solution,objective,value"
        assert len(lines) == 1 + (3 + 2) * 5
        values = [float(ln.rsplit(",", 1)[1]) for ln in lines[1:]]
        assert min(values) >= 0.0 and max(values) <= 1.0

    @staticmethod
    def _named(directory, objectives, runs, names):
        """A manifest whose algorithms run ``runs`` under ``names``, which
        need not be usable as run file names."""
        path = write_manifest(directory, objectives, dict(zip("abcd", runs)))
        doc = json.loads(path.read_text())
        for entry, name in zip(doc["algorithms"], names):
            entry["name"] = name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_scatter_file_names_escape_separators(self, tmp_path):
        names = ["MOEA/D", "50%\\x"]
        path = self._named(tmp_path, MIN_2D, [[KNEE_A], [KNEE_B]], names)
        out_dir = tmp_path / "plots"
        argv = ["plot-data", "--manifest", str(path), "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        written = sorted(p.name for p in out_dir.iterdir())
        assert written == ["50%25%5Cx.csv", "MOEA%2FD.csv"]
        moead = load_solution_set(out_dir / "MOEA%2FD.csv", META_2D)
        assert moead.vectors() == [tuple(map(float, p)) for p in KNEE_A]

    def test_scatter_files_stay_in_the_output_directory(self, tmp_path):
        path = self._named(tmp_path, MIN_2D, [[KNEE_A], [KNEE_B]], ["../escape", "b"])
        out_dir = tmp_path / "plots"
        argv = ["plot-data", "--manifest", str(path), "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        assert sorted(p.name for p in out_dir.iterdir()) == ["..%2Fescape.csv", "b.csv"]
        assert not (tmp_path / "escape.csv").exists()

    @pytest.mark.parametrize("m", [2, 4])
    def test_an_empty_id_stays_empty(self, tmp_path, m):
        # An id cell that is present but empty once became the row index, so
        # ids 1,,x were written 1,1,x.
        objectives = [{"name": f"f{j}", "direction": "min"} for j in range(m)]
        rows = [[1, 3, 1, 3][:m], [2, 2, 2, 2][:m], [3, 1, 3, 1][:m]]
        path = write_manifest(tmp_path, objectives, {"a": [rows], "b": [rows[:1]]})
        header = ",".join(["id", *(o["name"] for o in objectives)])
        body = [f"{i},{','.join(map(str, r))}" for i, r in zip(["1", "", "x"], rows)]
        (tmp_path / "a_0.csv").write_text("\n".join([header, *body]) + "\n")
        out_dir = tmp_path / "plots"
        argv = ["plot-data", "--manifest", str(path), "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        if m == 2:
            lines = (out_dir / "a.csv").read_text().splitlines()
            assert [line.split(",")[0] for line in lines] == ["id", "1", "", "x"]
        else:
            text = (out_dir / "parallel-coordinates.csv").read_text()
            labels = [row[1] for row in csv.reader(text.splitlines()) if row[0] == "a"]
            assert labels == ["1"] * m + [""] * m + ["x"] * m

    def test_parallel_coordinates_quote_a_comma_in_a_name(self, tmp_path):
        objectives = [{"name": f"o{i}", "direction": "min"} for i in range(4)]
        runs = [[[[1, 2, 3, 4], [4, 3, 2, 1]]], [[[2, 2, 2, 2]]]]
        path = self._named(tmp_path, objectives, runs, ["NSGA-II, tuned", "b"])
        out_dir = tmp_path / "plots"
        argv = ["plot-data", "--manifest", str(path), "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        text = (out_dir / "parallel-coordinates.csv").read_text(encoding="utf-8")
        assert '\n"NSGA-II, tuned",0,o0,0.0\n' in text
        rows = list(csv.reader(text.splitlines()))
        assert {len(row) for row in rows} == {4}
        assert [row[0] for row in rows[1:]] == ["NSGA-II, tuned"] * 8 + ["b"] * 4

    @pytest.mark.parametrize("m", [2, 4])
    def test_all_emptied_exits_2_as_evaluate_does(self, tmp_path, capsys, m):
        # f0 <= 1 keeps no row: plot-data refuses with evaluate's error
        # before it makes the output directory.
        objectives = [{"name": f"f{j}", "direction": "min"} for j in range(m)]
        runs = {"A": [[[2 + j for j in range(m)]]], "B": [[[3] * m, [5] * m]]}
        at_most = {"objective": "f0", "kind": "at_most", "threshold": 1}
        path = write_manifest(tmp_path, objectives, runs, {"clear": [at_most]})
        out_dir = tmp_path / "plots"
        for command in ("evaluate", "plot-data"):
            argv = [command, "--manifest", str(path), "--out", str(out_dir)]
            with pytest.warns(EvaluationWarning, match="removed every solution"):
                assert main(argv) == EXIT_ERROR
            err = capsys.readouterr().err
            assert err == "error: every set is empty after preprocessing\n"
            assert not out_dir.exists()


# Two algorithms of three runs each, whose hv pick differs between the
# extreme route's doubled_range point and the default nadir_plus_tenth one.
PICKED_RUNS = {
    "A": [[(3, 4), (1, 6), (7, 2)], [(1, 1), (0, 6), (8, 4)], [(0, 3), (8, 8), (5, 4)]],
    "B": [[(2, 1), (4, 3), (0, 4)], [(4, 3), (2, 4), (4, 5)], [(1, 9), (5, 6), (8, 3)]],
}
ROUTES = {
    "extreme": {"roi": {"extreme": ["f1"]}},
    "general": None,
    "knee": {"roi": "knee"},
}


@pytest.mark.parametrize("route", list(ROUTES))
class TestNamedColumnsKeepThePick:
    """Naming indicators picks the columns and nothing else: the runs are
    ranked, and hv computed, under the plan's config whichever are named."""

    def test_evaluate_picks_the_same_runs(self, tmp_path, capsys, route):
        path = write_manifest(tmp_path, MIN_2D, PICKED_RUNS, ROUTES[route])
        out = tmp_path / "report.json"
        picks, hv = [], []
        for named in ([], ["--indicator", "hv"], ["--indicator", "gd_plus"]):
            argv = ["evaluate", "--manifest", str(path), "--out", str(out), *named]
            assert main(argv) != EXIT_ERROR
            report = json.loads(out.read_text())
            picks.append(report["representative_runs"])
            rows = [row for row in report["results"] if row["indicator"] == "hv"]
            if rows:
                hv.append(rows)
        capsys.readouterr()
        assert picks[0] == picks[1] == picks[2]
        # No names and --indicator hv run hv; --indicator gd_plus does not.
        assert len(hv) == 2 and hv[0] == hv[1]

    def test_plot_data_writes_the_same_runs(self, tmp_path, capsys, route):
        files = {}
        for overrides in (None, {"indicators": ["gd_plus"]}):
            path = write_manifest(
                tmp_path, MIN_2D, PICKED_RUNS, ROUTES[route], overrides
            )
            out_dir = tmp_path / f"plots-{overrides is None}"
            argv = ["plot-data", "--manifest", str(path), "--out", str(out_dir)]
            assert main(argv) == EXIT_OK
            files[overrides is None] = {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            }
        capsys.readouterr()
        assert files[True] == files[False]


class TestYardsticksBuiltOnce:
    """evaluate, lint and plot-data each build the union front of the runs
    once, on raw values, in the command that reads it; evaluate's distance
    columns read that front normalized, not one cut again from the
    normalized runs."""

    @pytest.mark.parametrize(
        "command, builds", [("evaluate", 1), ("lint", 1), ("plot-data", 1)]
    )
    def test_union_front_builds_per_command(
        self, tmp_path, monkeypatch, command, builds
    ):
        path = write_manifest(
            tmp_path, MIN_2D, {"a": [[(1, 4), (4, 1)]], "b": [[(2, 5), (5, 2)]]}
        )
        calls = []
        for name, module in list(sys.modules.items()):
            build = getattr(module, "build_reference_set", None)
            if name.startswith("paretoeval") and build is not None:

                def counted(sets, build=build):
                    calls.append(len(sets))
                    return build(sets)

                monkeypatch.setattr(module, "build_reference_set", counted)
        out = str(tmp_path / "out")
        argv = ["--manifest", str(path), "--ref-point", "10,10", "--out", out]
        assert main([command, *argv]) in (EXIT_OK, EXIT_WARNINGS)
        assert len(calls) == builds

    def test_point_is_read_off_the_built_front(self, tmp_path, monkeypatch):
        # The hv point comes from the union front the stage already holds,
        # so the point build filters no front of its own.
        a, b = [(1, 4), (4, 1), (5, 5)], [(2, 5), (5, 2), (6, 6)]
        path = write_manifest(
            tmp_path, MIN_2D, {"a": [a], "b": [b]}, overrides={"indicators": ["hv"]}
        )
        calls = []

        def counted(V, unique=False, mask=preprocess._front_mask):
            calls.append(len(V))
            return mask(V, unique)

        monkeypatch.setattr(preprocess, "_front_mask", counted)
        out = tmp_path / "r.json"
        assert main(["evaluate", "--manifest", str(path), "--out", str(out)]) == EXIT_OK
        assert calls == []
        point = json.loads(out.read_text())["results"][0]["config"]["reference_point"]
        # The public builder filters its raw basis, and agrees.
        assert tuple(point) == build_reference_point(
            make_set("union", a + b), "nadir_plus_tenth"
        )
        assert calls == [6]

    def test_plot_data_ignores_a_yardstick_it_does_not_read(self, tmp_path, capsys):
        # igd reads the hard bounds that no objective declares; plot-data
        # reads only the ranking's hv point.
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"alpha": [KNEE_A, KNEE_B], "beta": [KNEE_B]},
            overrides={"indicators": ["hv", "igd"], "normalization": "hard_bounds"},
        )
        assert main(["evaluate", "--manifest", str(path)]) == EXIT_ERROR
        assert "'f1' declares no hard bounds" in capsys.readouterr().err
        plots = str(tmp_path / "plots")
        assert main(["plot-data", "--manifest", str(path), "--out", plots]) == EXIT_OK


class TestBeyondTenObjectives:
    """At m = 11 hv is undefined: the general plan takes additive ε as its
    comprehensive indicator, and no run ranking picks a representative."""

    OBJECTIVES = [{"name": f"f{j}", "direction": "min"} for j in range(11)]

    def manifest(self, tmp_path, rows=(6, 6), preferences=None):
        rng = np.random.default_rng(11)
        runs = {
            alg: [rng.random((n, 11)).round(3).tolist() for n in rows]
            for alg in ("a", "b")
        }
        return write_manifest(tmp_path, self.OBJECTIVES, runs, preferences)

    def test_evaluate_and_lint_pass_their_own_plan(self, tmp_path):
        path = self.manifest(tmp_path)
        out = tmp_path / "r.json"
        assert main(["evaluate", "--manifest", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        planned = [p["name"] for p in report["plan"]["indicators"]]
        assert planned == ["gd_plus", "ci", "grid_diversity", "unfr", "epsilon"]
        assert {r["indicator"] for r in report["results"]} == set(planned)
        assert report["representative_runs"] == {}
        assert main(["lint", "--manifest", str(path)]) == EXIT_OK

    @pytest.mark.parametrize(
        "roi, planned",
        [
            ("knee", ["gd_plus", "grid_diversity", "unfr", "epsilon"]),
            ({"extreme": ["f0"]}, ["gd_plus", "ci", "grid_diversity", "unfr", "epsilon"]),
        ],
        ids=["knee", "extreme"],
    )
    def test_region_of_interest_plans_pass_themselves(self, tmp_path, roi, planned):
        # Without hv, a region of interest takes the general route's
        # indicators less those it clashes with (ci for a knee); the extreme
        # route still reports each objective's best value.
        path = self.manifest(tmp_path, preferences={"roi": roi})
        out = tmp_path / "r.json"
        assert main(["evaluate", "--manifest", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert [p["name"] for p in report["plan"]["indicators"]] == planned
        assert {r["indicator"] for r in report["results"]} == set(planned)
        if "extreme" in roi:
            assert report["doe"]["kind"] == "per-objective-best"
        assert main(["lint", "--manifest", str(path)]) == EXIT_OK

    def test_plot_data_falls_back_to_the_first_surviving_run(self, tmp_path):
        # Run 0 keeps 6 rows and run 1 keeps 5, so the row count shows
        # which run each algorithm's plot holds.
        path = self.manifest(tmp_path, rows=(6, 5))
        out_dir = tmp_path / "plots"
        argv = ["plot-data", "--manifest", str(path), "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        lines = (out_dir / "parallel-coordinates.csv").read_text().splitlines()[1:]
        sets = [line.split(",", 1)[0] for line in lines]
        assert (sets.count("a"), sets.count("b")) == (6 * 11, 6 * 11)


class TestMainErrors:
    @pytest.mark.parametrize(
        "exc, line",
        [
            (KeyError("objectives"), "error: KeyError: 'objectives'"),
            (RuntimeError("lost\nstate"), "error: RuntimeError: lost state"),
        ],
        ids=["KeyError", "RuntimeError"],
    )
    def test_unexpected_exception_exits_2_in_one_line(
        self, knee_manifest, capsys, monkeypatch, exc, line
    ):
        def broken(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_evaluate", broken)
        code = main(["evaluate", "--manifest", str(knee_manifest)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.splitlines() == [line]
        assert "Traceback" not in err

    def test_missing_manifest(self, tmp_path, capsys):
        code = main(["evaluate", "--manifest", str(tmp_path / "none.json")])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["evaluate", "lint", "recommend", "stats", "compare", "plot-data"]
    )
    def test_contradictory_preferences_exit_2_at_load(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # Saturating f2 at 0.5 while requiring f2 >= 0.8 leaves no solution
        # that both keeps its clamped value and meets the threshold.
        monkeypatch.chdir(tmp_path)
        prefs = {
            "clear": [{"objective": "f2", "kind": "at_least", "threshold": 0.8}],
            "vague": [{"objective": "f2", "saturation": 0.5}],
        }
        path = write_manifest(
            tmp_path, MIN_2D, {"alpha": [KNEE_A], "beta": [KNEE_B]}, preferences=prefs
        )
        argv = [command, "--manifest", str(path)]
        code = main(argv + (["alpha", "beta"] if command == "compare" else []))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: preferences: vague clamp saturates objective 1 at 0.5, below "
            "the clear at_least threshold 0.8; every clamped solution would "
            "violate it\n"
        )

    @pytest.mark.parametrize("command", ["evaluate", "plot-data"])
    def test_ranking_point_inside_the_nadir_exits_2(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # No hv column (plot-data computes none), so the point only ranks the
        # runs; it must still be checked rather than the pick quietly skipped.
        monkeypatch.chdir(tmp_path)
        path = write_manifest(
            tmp_path, MIN_2D, {"alpha": [KNEE_A, KNEE_B], "beta": [DIAG_B, DIAG_C]}
        )
        argv = ["--manifest", str(path), "--ref-point", "0,0"]
        named = ["--indicator", "gd_plus"] if command == "evaluate" else []
        assert main([command, *argv, *named]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(
            "error: reference point (0.0, 0.0) does not weakly exceed the basis nadir"
        )

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
            ("gd_p", math.inf, "gd_p: expected a number, got Infinity"),
            (
                "ref_point",
                [math.nan, math.nan],
                "ref_point: expected a list of numbers, got [NaN, NaN]",
            ),
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
            (
                lambda d: d["objectives"][0].update(hard_bounds=[0]),
                "objectives[0].hard_bounds: expected a list of two numbers, got [0]",
            ),
            (
                lambda d: d["objectives"][0].update(hard_bounds=5),
                "objectives[0].hard_bounds: expected a list of two numbers, got 5",
            ),
            (
                lambda d: d.update(preferences={"weights": 5}),
                "preferences.weights: expected a list of numbers, got 5",
            ),
            (
                lambda d: d.update(
                    preferences={"vague": [{"objective": "f1", "saturation": None}]}
                ),
                "preferences.vague[0].saturation: expected a number, got null",
            ),
            (
                lambda d: d.update(
                    preferences={
                        "clear": [{"objective": "f1", "kind": "at_most", "threshold": [1]}]
                    }
                ),
                "preferences.clear[0].threshold: expected a number, got [1]",
            ),
            (
                lambda d: d.update(
                    preferences={
                        "screen": [{"objective": "f2", "kind": "at_least", "threshold": True}]
                    }
                ),
                "preferences.screen[0].threshold: expected a number, got true",
            ),
            (
                lambda d: d.update(preferences={"untransferable": "no"}),
                'preferences.untransferable: expected a boolean, got "no"',
            ),
            (
                lambda d: d.update(preferences={"weights": [math.nan, math.nan]}),
                "preferences.weights: expected a list of numbers, got [NaN, NaN]",
            ),
            (
                lambda d: d["objectives"][0].update(hard_bounds=[0, -math.inf]),
                "objectives[0].hard_bounds: expected a list of two numbers, "
                "got [0, -Infinity]",
            ),
            (
                lambda d: d.update(
                    preferences={"vague": [{"objective": "f1", "saturation": math.nan}]}
                ),
                "preferences.vague[0].saturation: expected a number, got NaN",
            ),
            (
                lambda d: d.update(output={"report": 5}),
                "output.report: expected a string, got 5",
            ),
            (
                lambda d: d["objectives"][0].update(direction=1),
                "objectives[0].direction: expected a string, got 1",
            ),
            (
                lambda d: d["objectives"][0].update(units=["s"]),
                'objectives[0].units: expected a string, got ["s"]',
            ),
            (
                lambda d: d.update(
                    preferences={"clear": [{"objective": "f1", "kind": None}]}
                ),
                "preferences.clear[0].kind: expected a string, got null",
            ),
            (
                lambda d: d["objectives"][0].pop("name"),
                "objectives[0]: missing 'name'",
            ),
            (
                lambda d: d.update(preferences={"vague": [{"objective": "f1"}]}),
                "preferences.vague[0]: missing 'saturation'",
            ),
            (
                lambda d: d.update(preferences={"roi": {}}),
                "preferences.roi: missing 'extreme'",
            ),
            (
                lambda d: d.update(preferences={"roi": {"extreme": []}}),
                "preferences.roi.extreme: an extreme region needs at least one "
                "objective",
            ),
            (
                lambda d: d.update(preferences={"roi": {"extreme": ["f2", "f1", 1]}}),
                "preferences.roi.extreme: objective index 1 named twice",
            ),
            (
                lambda d: d.pop("algorithms"),
                "manifest: missing 'algorithms'",
            ),
            (
                lambda d: d["algorithms"][0].update(name=""),
                "algorithms[0]: algorithm name must be non-empty",
            ),
            (
                lambda d: d.update(
                    indicator_overrides={
                        "ref_point": [13, 11],
                        "hv_strategy": "worst_values",
                    }
                ),
                "indicator_overrides: ref_point needs hv_strategy 'explicit', "
                "got 'worst_values'",
            ),
            (
                lambda d: d.update(indicator_overrides={"ref_point": []}),
                "indicator_overrides: ref_point must have at least one coordinate",
            ),
            (
                lambda d: d["algorithms"].append(dict(d["algorithms"][0])),
                "algorithm names must be unique",
            ),
        ],
        ids=[
            "indicators-string",
            "objectives-string",
            "algorithms-string",
            "objectives-of-strings",
            "objective-name-number",
            "exactly-best-everywhere",
            "hard-bounds-one-number",
            "hard-bounds-number",
            "weights-number",
            "saturation-null",
            "threshold-list",
            "threshold-bool",
            "untransferable-string",
            "weights-nan",
            "hard-bounds-infinite",
            "saturation-nan",
            "output-report-number",
            "direction-number",
            "units-list",
            "kind-null",
            "name-missing",
            "saturation-missing",
            "extreme-missing",
            "extreme-empty",
            "extreme-repeated",
            "algorithms-missing",
            "algorithm-name-empty",
            "ref-point-beside-a-strategy",
            "ref-point-empty",
            "algorithm-names-duplicate",
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


class TestParserReuse:
    def test_repeated_main_calls_match_separate_processes(self, knee_manifest, tmp_path):
        # One parser serves every call in a process: a repeated --indicator
        # must not pile up, and a --ref-point must not outlive its call.
        runs = {
            "first": ["--indicator", "hv", "--indicator", "igd", "--ref-point", "14,12"],
            "second": ["--indicator", "ci"],
        }
        argv = ["evaluate", "--manifest", str(knee_manifest), "--out"]
        codes = {
            name: main([*argv, str(tmp_path / f"{name}.json"), *flags])
            for name, flags in runs.items()
        }
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        for name, flags in runs.items():
            alone = tmp_path / f"{name}-alone.json"
            command = [sys.executable, "-m", "paretoeval.cli", *argv, str(alone), *flags]
            done = subprocess.run(command, env=env, capture_output=True, timeout=120)
            assert done.returncode == codes[name]
            assert alone.read_bytes() == (tmp_path / f"{name}.json").read_bytes()
        indicators = {r["indicator"] for r in json.loads(alone.read_text())["results"]}
        assert indicators == {"ci"}


class TestFlags:
    READS = {
        "evaluate": {
            "--manifest", "--indicator", "--ref-point", "--ref-strategy", "--gd-p",
            "--grid-div", "--no-normalize", "--out", "--strict",
        },
        "compare": {"--manifest", "--indicator", "--no-normalize", "--out"},
        "recommend": {"--manifest", "--out"},
        "stats": {"--manifest", "--out"},
        "plot-data": {"--manifest", "--ref-point", "--ref-strategy", "--out"},
    }
    READS["lint"] = READS["evaluate"]

    def test_each_subcommand_registers_the_flags_it_reads(self):
        subcommands = next(
            a for a in cli.build_parser()._actions if a.dest == "command"
        ).choices
        registered = {
            name: {f for a in p._actions for f in a.option_strings} - {"-h", "--help"}
            for name, p in subcommands.items()
        }
        assert registered == self.READS
        assert sum(map(len, registered.values())) == 30

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--strict"],
            ["stats", "--ref-point", "1,2"],
            ["recommend", "--indicator", "hv"],
            ["compare", "--gd-p", "2", "alpha", "beta"],
            ["plot-data", "--no-normalize"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_unread_flag_exits_2(self, knee_manifest, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main([argv[0], "--manifest", str(knee_manifest), *argv[1:]])
        assert exit_.value.code == EXIT_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--ref-point", "inf,inf"], "ref_point must be finite"),
            (["--ref-point", "nan,1"], "ref_point must be finite"),
            (["--gd-p", "inf"], "gd_p must be finite and >= 1"),
            (
                ["--ref-point", "13,11", "--ref-strategy", "doubled_range"],
                "ref_point needs hv_strategy 'explicit', got 'doubled_range'",
            ),
        ],
        ids=["ref-point-inf", "ref-point-nan", "gd-p-inf", "point-beside-a-strategy"],
    )
    def test_bad_config_flag_exits_2(self, knee_manifest, capsys, flags, message):
        code = main(["evaluate", "--manifest", str(knee_manifest), *flags])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    def test_flag_strategy_over_manifest_point(self, tmp_path):
        # Levels apply in turn: the flags' strategy replaces the manifest's
        # explicit one, and the manifest's point then goes unread.
        out = tmp_path / "r.json"
        path = write_manifest(
            tmp_path,
            MIN_2D,
            {"alpha": [KNEE_A], "beta": [KNEE_B]},
            overrides={"indicators": ["hv"], "ref_point": [13, 11]},
        )
        argv = ["evaluate", "--manifest", str(path), "--out", str(out)]
        main([*argv, "--ref-strategy", "worst_values"])
        (row, _) = json.loads(out.read_text())["results"]
        assert row["config"]["hv_strategy"] == "worst_values"
        assert row["config"]["reference_point"] == [12.0, 10.0]
        assert row["config"]["ref_point"] is None


# Manifests the exit-code property mutates: every manifest object appears.
CONTRACT_RUNS = {"alpha": [KNEE_A, KNEE_B], "beta": [KNEE_B]}
CONTRACT_ALGORITHMS = [
    {"name": alg, "runs": [f"{alg}_{r}.csv" for r in range(len(runs))]}
    for alg, runs in CONTRACT_RUNS.items()
]
CONTRACT_MANIFESTS = [
    {
        "objectives": [
            {"name": "f1", "direction": "min", "units": "s", "hard_bounds": [0, 20]},
            {"name": "f2", "direction": "max", "hard_bounds": [-20, 20]},
        ],
        "algorithms": CONTRACT_ALGORITHMS,
        "preferences": {
            "screen": [{"objective": "f1", "kind": "at_most", "threshold": 11}],
            "clear": [{"objective": 1, "kind": "at_least", "threshold": 0}],
            "vague": [{"objective": "f1", "saturation": 2, "hard_floor": 10}],
            "roi": {"extreme": ["f2"]},
            "weights": [0.5, 0.5],
            "untransferable": False,
        },
        "indicator_overrides": {
            "indicators": ["hv", "igd", "ci"],
            "ref_point": [13, -1],
            "gd_p": 2,
            "grid_divisions": 4,
            "normalization": "hard_bounds",
        },
        "output": {"report": "report.json", "plot_data": "plots"},
    },
    {
        "objectives": [{"name": "f1"}, {"name": "f2"}],
        "algorithms": CONTRACT_ALGORITHMS,
        "preferences": {
            "roi": "knee",
            "clear": [{"objective": 0, "kind": "exactly_best"}],
        },
        "indicator_overrides": {"hv_strategy": "doubled_range"},
    },
]
JUNK = [
    None, math.nan, math.inf, -1, 0, 1, 2.5, True, "", "x", "f1", "knee",
    "explicit", "none", "exactly_best", [], [math.nan], [1, 2], ["f1"], {},
    {"extreme": ["f1"]},
]
FLAGS = {
    "--indicator": ["hv", "igd", "ci", "epsilon", "spread", "xyz"],
    "--ref-point": ["13,11", "12,10", "inf,inf", "nan,1", "1", "a,b", "0,0"],
    "--ref-strategy": ["explicit", "doubled_range", "bogus"],
    "--gd-p": ["2", "inf", "0.5", "x"],
    "--grid-div": ["10", "1", "x"],
    "--no-normalize": [],
    "--strict": [],
    "--out": ["out"],
}


def _slots(node):
    """Every (container, key) in a JSON tree, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@st.composite
def mutated(draw, doc):
    """A copy of the manifest ``doc`` with fields dropped, retyped, renamed or
    given NaN."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 2))):
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["drop", "retype", "rename", "nan"]))
        if action == "drop":
            del node[key]
        elif action == "rename" and isinstance(node, dict):
            renamed = draw(st.sampled_from([key + "s", "name", "kind", "runs"]))
            node[renamed] = node.pop(key)
        else:
            value = math.nan if action == "nan" else draw(st.sampled_from(JUNK))
            node[key] = copy.deepcopy(value)
    return doc


def mutated_manifests():
    """A contract manifest, mutated."""
    return st.sampled_from(CONTRACT_MANIFESTS).flatmap(mutated)


BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


@pytest.fixture(scope="module")
def bench_manifests(tmp_path_factory):
    """``(manifest document, directory of its run files)`` for each benchmark
    workload at seed 1, from ``bench/inputs.py`` loaded by path and only
    read."""
    spec = importlib.util.spec_from_file_location("contract_bench_inputs", BENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class is built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        generated = [
            module.generate(w, 1, tmp_path_factory.mktemp(name))
            for name, w in module.WORKLOADS.items()
        ]
    finally:
        del sys.modules[spec.name]
    return [(json.loads(g.manifest.read_text()), g.manifest.parent) for g in generated]


def _empty(directory):
    """Remove what an earlier example left: hypothesis runs every example of
    a test in the same ``tmp_path``."""
    for child in directory.iterdir():
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()


@st.composite
def flag_lists(draw, names=tuple(sorted(FLAGS))):
    """Up to three of the named flags, each with a value if it takes one."""
    argv = []
    for flag in draw(st.lists(st.sampled_from(names), max_size=3)):
        argv += [flag, *([draw(st.sampled_from(FLAGS[flag]))] if FLAGS[flag] else [])]
    return argv


def _only(argv, names):
    """The flags of a drawn command line that are among ``names``, each with
    its value."""
    kept, i = [], 0
    while i < len(argv):
        width = 2 if FLAGS[argv[i]] else 1
        if argv[i] in names:
            kept += argv[i : i + width]
        i += width
    return kept


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(TestFlags.READS)))
    argv = [command, "--manifest", "manifest.json", *draw(flag_lists())]
    return argv + (["alpha", "beta"] if command == "compare" else [])


class TestExitCodeContract:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data(), argv=command_lines())
    def test_exit_status_and_stderr(
        self, tmp_path, monkeypatch, capsys, bench_manifests, data, argv
    ):
        monkeypatch.chdir(tmp_path)
        _empty(tmp_path)
        write_runs(tmp_path, ["f1", "f2"], CONTRACT_RUNS)
        bases = [(doc, None) for doc in CONTRACT_MANIFESTS] + bench_manifests
        base, runs = data.draw(st.sampled_from(bases))
        if runs is not None:
            for csv in runs.glob("*.csv"):
                shutil.copy(csv, tmp_path)
        doc = data.draw(mutated(base))
        (tmp_path / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvaluationWarning)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        out, err = capsys.readouterr()
        event(f"{argv[0]} exits {code}")
        assert code in (EXIT_OK, EXIT_WARNINGS, EXIT_ERROR)
        assert "Traceback" not in out + err
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        if code == EXIT_WARNINGS:
            assert "[warning]" in out and not errors
        elif code == EXIT_ERROR and not errors:
            # refused by its findings: an error, or a warning under --strict
            assert "[error]" in out or ("--strict" in argv and "[warning]" in out)
        else:
            assert len(errors) == (code == EXIT_ERROR), err


def _contract(extra):
    """The contract runs under two plain objectives, with ``extra`` fields."""
    objectives = [{"name": "f1"}, {"name": "f2"}]
    return {"objectives": objectives, "algorithms": CONTRACT_ALGORITHMS, **extra}


# f2 <= 2 keeps one solution per contract run; f2 <= 1 keeps none.
F2_AT_MOST_2 = {"clear": [{"objective": "f2", "kind": "at_most", "threshold": 2}]}
F2_AT_MOST_1 = {"clear": [{"objective": "f2", "kind": "at_most", "threshold": 1}]}


class TestLintMatchesEvaluate:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        doc=mutated_manifests(),
        flags=flag_lists(tuple(sorted(set(FLAGS) - {"--out"}))),
    )
    # Inputs only one lint rule refuses, which the generator rarely reaches.
    @example(doc=_contract({"indicator_overrides": TestLint.HARD_BOUNDS}), flags=[])
    @example(doc=_contract({"preferences": F2_AT_MOST_2}), flags=["--indicator", "sp"])
    @example(doc=_contract({}), flags=["--ref-point", "1"])
    @example(doc=_contract({"preferences": F2_AT_MOST_1}), flags=[])
    def test_lint_reports_what_evaluate_reports(
        self, tmp_path, monkeypatch, capsys, doc, flags
    ):
        monkeypatch.chdir(tmp_path)
        _empty(tmp_path)
        write_runs(tmp_path, ["f1", "f2"], CONTRACT_RUNS)
        (tmp_path / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        reports = {c: tmp_path / f"{c}.json" for c in ("evaluate", "lint")}
        codes = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvaluationWarning)
            for command, out in reports.items():
                argv = [command, "--manifest", "manifest.json", "--out", str(out)]
                try:
                    codes[command] = main([*argv, *flags])
                except SystemExit as exc:  # argparse rejected the command line
                    codes[command] = exc.code
        capsys.readouterr()
        event(f"evaluate exits {codes['evaluate']}")
        # Also when evaluate fails before it writes a report.
        assert codes["lint"] == codes["evaluate"]
        if not reports["evaluate"].exists():
            return
        report = json.loads(reports["evaluate"].read_text())
        linted = json.loads(reports["lint"].read_text())
        assert codes["lint"] == report["exit_status"]
        assert linted["findings"] == [
            f for f in report["findings"] if f["code"].startswith("L-")
        ]
        # plot-data, given the drawn flags it reads, writes the run that
        # evaluate names as each algorithm's representative.
        plots = tmp_path / "plots"
        argv = ["plot-data", "--manifest", "manifest.json", "--out", str(plots)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvaluationWarning)
            assert main([*argv, *_only(flags, TestFlags.READS["plot-data"])]) == EXIT_OK
            prepared = cli.prepare(load_manifest("manifest.json"))
        capsys.readouterr()
        for alg, r in report["representative_runs"].items():
            write_solution_set(tmp_path / "expected.csv", prepared.algorithms[alg][r])
            expected = (tmp_path / "expected.csv").read_bytes()
            assert (plots / f"{alg}.csv").read_bytes() == expected
