"""Command-line interface: evaluate, compare, recommend, lint, stats, plot-data.

An experiment is described by a JSON manifest naming the objectives, the
algorithms with their run files (CSV, one solution per row), the declared
preferences, optional indicator overrides, and output paths.  Unknown
manifest fields are rejected so typos fail fast, and each subcommand takes
only the flags it reads.  Machine-readable reports
are byte-stable: the same manifest and data always serialize to the same
bytes (keys sorted, no timestamps), and a report file is replaced only once
the new one is whole.

Exit status: 0 clean, 1 completed with warning-level findings, 2 on
error-level findings or failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import stat
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .core import (
    EmptySetError,
    EvaluationWarning,
    ObjectiveMeta,
    SolutionSet,
)
from . import indicators as ind
from .doe import (
    IndicatorTable,
    _yardsticks,
    indicator_table,
    per_objective_stats,
    scalarize_best,
)
from .guidance import (
    EvaluationPlan,
    LintWarning,
    _DOE_STEPS,
    _finding,
    _notes,
    _plan,
    _route,
    lint,
    recommend,
)
from .indicators import IndicatorConfig, aspects_of, canonical_name
from .preprocess import (
    ClearConstraint,
    NormalizationBounds,
    PreferenceSpec,
    REF_STRATEGIES,
    RegionOfInterest,
    Removal,
    VagueClamp,
    _signs,
    apply_clear_preferences,
    apply_vague_preferences,
    normalization_bounds,
    normalize,
    screen_trivial,
    to_minimization,
)

__all__ = [
    "EXIT_OK",
    "EXIT_WARNINGS",
    "EXIT_ERROR",
    "ManifestError",
    "SolutionFileError",
    "Manifest",
    "load_manifest",
    "load_solution_set",
    "write_solution_set",
    "cmd_evaluate",
    "cmd_compare",
    "cmd_recommend",
    "cmd_lint",
    "cmd_stats",
    "cmd_plot_data",
    "main",
]

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_ERROR = 2


class ManifestError(ValueError):
    """Malformed experiment manifest; the message starts with the JSON path."""


class SolutionFileError(ValueError):
    """Malformed solution CSV file."""


@dataclass(frozen=True)
class Manifest:
    """A checked manifest.  ``algorithms`` maps each algorithm's name to its
    run files, in manifest order; ``overrides`` holds only the
    ``IndicatorConfig`` fields that ``indicator_overrides`` sets,
    reference-point rule applied; ``report`` and ``plot_data`` are the
    ``output`` paths."""

    objectives: tuple[ObjectiveMeta, ...]
    algorithms: Mapping[str, tuple[str, ...]]
    preferences: PreferenceSpec = field(default_factory=PreferenceSpec)
    indicators: tuple[str, ...] = ()
    overrides: Mapping[str, object] = field(default_factory=dict)
    report: str | None = None
    plot_data: str | None = None
    base_dir: str = "."

    def resolve(self, rel: str | None) -> Path | None:
        """A path the manifest names, against the manifest's directory."""
        return Path(self.base_dir) / rel if rel else None


class _Kind(NamedTuple):
    """The JSON type of a manifest value: the label error messages name, the
    check a value must pass, and the field table of a nested object (for a
    list, of each of its items)."""

    label: str
    valid: Callable[[object], bool]
    table: dict | None = None


def _is_number(value: object) -> bool:
    """A JSON number: not true/false, NaN or an infinity."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _list_of(valid: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda v: isinstance(v, list) and all(map(valid, v))


def _nullable(kind: _Kind) -> _Kind:
    """``kind`` or null, which stands for "not given"."""
    return kind._replace(valid=lambda v: v is None or kind.valid(v))


_NUMBER = _Kind("a number", _is_number)
_INTEGER = _Kind("an integer", lambda v: _is_number(v) and isinstance(v, int))
_STRING = _Kind("a string", lambda v: isinstance(v, str))
_BOOLEAN = _Kind("a boolean", lambda v: isinstance(v, bool))
_NUMBERS = _Kind("a list of numbers", _list_of(_is_number))
_PAIR = _Kind("a list of two numbers", lambda v: _NUMBERS.valid(v) and len(v) == 2)
_STRINGS = _Kind("a list of strings", _list_of(_STRING.valid))
_RUNS = _Kind("a non-empty list of strings", lambda v: _STRINGS.valid(v) and v != [])
_REFERENCE = _Kind(
    "an objective name or index",
    lambda v: isinstance(v, str) or (isinstance(v, int) and not isinstance(v, bool)),
)
_REFERENCES = _Kind("a list of objective names or indices", _list_of(_REFERENCE.valid))


def _object(table: dict) -> _Kind:
    return _Kind("an object", lambda v: isinstance(v, dict), table)


def _objects(table: dict) -> _Kind:
    return _Kind("a list", lambda v: isinstance(v, list), table)


# One field table per manifest object: field -> (required, kind).
_REQUIRED, _OPTIONAL = True, False
_OBJECTIVE = {
    "name": (_REQUIRED, _STRING),
    "direction": (_OPTIONAL, _STRING),
    "units": (_OPTIONAL, _nullable(_STRING)),
    "hard_bounds": (_OPTIONAL, _nullable(_PAIR)),
}
_ALGORITHM = {"name": (_REQUIRED, _STRING), "runs": (_REQUIRED, _RUNS)}
_CONSTRAINT = {
    "objective": (_REQUIRED, _REFERENCE),
    "kind": (_REQUIRED, _STRING),
    "threshold": (_OPTIONAL, _nullable(_NUMBER)),
}
_CLAMP = {
    "objective": (_REQUIRED, _REFERENCE),
    "saturation": (_REQUIRED, _NUMBER),
    "hard_floor": (_OPTIONAL, _nullable(_NUMBER)),
}
_ROI = {"extreme": (_REQUIRED, _REFERENCES)}
_PREFERENCES = {
    "screen": (_OPTIONAL, _objects(_CONSTRAINT)),
    "clear": (_OPTIONAL, _objects(_CONSTRAINT)),
    "vague": (_OPTIONAL, _objects(_CLAMP)),
    "roi": (
        _OPTIONAL,
        _Kind(
            '"knee" or an object',
            lambda v: v is None or v == "knee" or isinstance(v, dict),
            _ROI,
        ),
    ),
    "weights": (_OPTIONAL, _nullable(_NUMBERS)),
    "untransferable": (_OPTIONAL, _BOOLEAN),
}
_OVERRIDES = {
    "indicators": (_OPTIONAL, _STRINGS),
    "gd_p": (_OPTIONAL, _NUMBER),
    "hv_strategy": (_OPTIONAL, _STRING),
    "ref_point": (_OPTIONAL, _nullable(_NUMBERS)),
    "grid_divisions": (_OPTIONAL, _INTEGER),
    "normalization": (_OPTIONAL, _STRING),
}
_OUTPUT = {
    "report": (_OPTIONAL, _nullable(_STRING)),
    "plot_data": (_OPTIONAL, _nullable(_STRING)),
}
_MANIFEST = {
    "objectives": (_REQUIRED, _objects(_OBJECTIVE)),
    "algorithms": (_REQUIRED, _objects(_ALGORITHM)),
    "preferences": (_OPTIONAL, _object(_PREFERENCES)),
    "indicator_overrides": (_OPTIONAL, _object(_OVERRIDES)),
    "output": (_OPTIONAL, _object(_OUTPUT)),
}


def _walk(obj: object, table: dict, where: str = "") -> None:
    """Check a manifest object, and the objects nested in it, against its
    field table.  Rejects, in this order: a value that is not an object,
    unknown fields, missing required fields, mistyped values."""
    name = where or "manifest"
    if not isinstance(obj, dict):
        raise ManifestError(f"{name}: expected an object, got {json.dumps(obj)}")
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ManifestError(f"unknown field(s) in {name}: {', '.join(unknown)}")
    missing = [k for k, (required, _) in table.items() if required and k not in obj]
    if missing:
        raise ManifestError(f"{name}: missing {missing[0]!r}")
    for key, value in obj.items():
        kind = table[key][1]
        path = f"{where}.{key}" if where else key
        if not kind.valid(value):
            got = json.dumps(value)
            raise ManifestError(f"{path}: expected {kind.label}, got {got}")
        if kind.table is not None and isinstance(value, dict):
            _walk(value, kind.table, path)
        elif kind.table is not None and isinstance(value, list):
            for i, item in enumerate(value):
                _walk(item, kind.table, f"{path}[{i}]")


def _at(where: str, build: Callable, *args, **kwargs):
    """``build(*args, **kwargs)``, its ``ValueError`` prefixed with ``where``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _objective_index(ref: str | int, names: list[str]) -> int:
    if isinstance(ref, str):
        if ref not in names:
            raise ValueError(f"unknown objective {ref!r}")
        return names.index(ref)
    if not 0 <= ref < len(names):
        raise ValueError(f"objective index {ref} out of range")
    return ref


def _preferences(raw: dict, names: list[str]) -> PreferenceSpec:
    """The walked ``preferences`` object as a spec, each objective named by
    its index."""

    def index(ref: str | int, where: str) -> int:
        return _at(where, _objective_index, ref, names)

    def parts(key: str, build: Callable) -> tuple:
        built = []
        for i, item in enumerate(raw.get(key, [])):
            where = f"preferences.{key}[{i}]"
            objective = index(item["objective"], f"{where}.objective")
            built.append(_at(where, build, **{**item, "objective": objective}))
        return tuple(built)

    roi = raw.get("roi")
    if isinstance(roi, dict):
        extreme = tuple(index(o, "preferences.roi.extreme") for o in roi["extreme"])
        roi = _at("preferences.roi.extreme", RegionOfInterest, "extreme", extreme)
    elif roi is not None:
        roi = RegionOfInterest(roi)
    typed = {
        "roi": roi,
        "clear": parts("clear", ClearConstraint),
        "vague": parts("vague", VagueClamp),
        "screen": parts("screen", ClearConstraint),
    }
    return _at("preferences", PreferenceSpec, **{**raw, **typed})


_CONFIG_FIELDS = tuple(f.name for f in fields(IndicatorConfig))


def _config_level(values: dict[str, object]) -> dict[str, object]:
    """One level of config fields, the manifest's or the flags': a
    ``ref_point`` with no ``hv_strategy`` beside it means ``explicit``, and
    beside any other strategy it is an error."""
    if "ref_point" in values:
        strategy = values.setdefault("hv_strategy", "explicit")
        if strategy != "explicit":
            raise ValueError(
                f"ref_point needs hv_strategy 'explicit', got {strategy!r}"
            )
    return values


def load_manifest(path: str | Path) -> Manifest:
    """Parse and validate an experiment manifest (strict JSON object)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    _walk(raw, _MANIFEST)
    for key in ("objectives", "algorithms"):
        if not raw[key]:
            raise ManifestError(f"manifest needs a non-empty {key!r} list")

    objectives = tuple(
        _at(f"objectives[{i}]", ObjectiveMeta, **o)
        for i, o in enumerate(raw["objectives"])
    )
    names = [o.name for o in objectives]
    if len(set(names)) != len(names):
        raise ManifestError("objective names must be unique")
    for i, a in enumerate(raw["algorithms"]):
        if not a["name"]:
            raise ManifestError(f"algorithms[{i}]: algorithm name must be non-empty")
    algorithms = {a["name"]: tuple(a["runs"]) for a in raw["algorithms"]}
    if len(algorithms) != len(raw["algorithms"]):
        raise ManifestError("algorithm names must be unique")

    preferences = _preferences(raw.get("preferences", {}), names)
    if len(preferences.best_value_objectives) == len(names):
        raise ManifestError(
            "preferences.clear: exactly_best on every objective leaves no "
            "objective to compare the sets on"
        )
    if preferences.weights is not None and len(preferences.weights) != len(names):
        raise ManifestError(
            f"preferences.weights: expected one weight per objective ({len(names)}), "
            f"got {len(preferences.weights)}"
        )
    where = "indicator_overrides"
    given = dict(raw.get(where, {}))
    indicators = tuple(given.pop("indicators", ()))
    for name in indicators:
        _at(where, canonical_name, name)
    level = _at(where, _config_level, {k: v for k, v in given.items() if v is not None})
    config = _at(where, IndicatorConfig, **level)
    for alg, runs in algorithms.items():
        for rel in runs:
            if not (path.parent / rel).is_file():
                raise ManifestError(f"algorithms[{alg!r}]: run file {rel!r} not found")
    return Manifest(
        objectives=objectives,
        algorithms=algorithms,
        preferences=preferences,
        indicators=indicators,
        overrides={k: getattr(config, k) for k in level},
        base_dir=str(path.parent),
        **raw.get("output", {}),
    )


def load_solution_set(
    path: str | Path,
    meta: Sequence[ObjectiveMeta],
    name: str | None = None,
) -> SolutionSet:
    """Read one run: a CSV whose header names the objectives.

    The first column holds ids only when the header is ``id`` followed by
    exactly the objective names, so an objective may itself be named
    ``id``.  Each cell reads as :func:`float` reads it, so values round-trip
    exactly with :func:`write_solution_set`; blank lines are skipped.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise SolutionFileError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise SolutionFileError(f"{path}:1: missing header row")
    header = [h.strip() for h in lines[0].split(",")]
    expected = [o.name for o in meta]
    has_id = header == ["id", *expected]
    if not has_id and header != expected:
        shown = header[1:] if header[0] == "id" else header
        raise SolutionFileError(
            f"{path}:1: header {shown} does not match objectives {expected}"
        )
    parsed = _parse_body(lines[1:], has_id, len(expected))
    rows, ids = parsed or _walk_body(path, lines[1:], expected, has_id)
    if not len(rows):
        warnings.warn(
            f"{path} contains a header but no solutions",
            EvaluationWarning,
            stacklevel=2,
        )
    return SolutionSet._from_array(name or path.stem, meta, rows, ids=ids)


def _parse_body(
    body: list[str], has_id: bool, m: int
) -> tuple[np.ndarray, list[str] | None] | None:
    """A run file's rows and ids from one numpy parse of its body, or
    ``None`` when that parse fails or reads the wrong shape or a non-finite
    value, which leaves the body to :func:`_walk_body`."""
    if not any(body):  # loadtxt warns on a body with no rows
        return np.empty((0, m)), None
    ids = None
    if has_id:  # one split per line; a line with nothing after its id goes to the walk
        cut = [line.split(",", 1) for line in body if line]
        if not all(len(c) == 2 and c[1] for c in cut):
            return None
        ids = [c[0].strip() for c in cut]
        body = [c[1] for c in cut]
    try:
        # A "#" in a cell is not a comment.
        rows = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if rows.shape[1] != m or not np.isfinite(rows).all():
        return None
    return rows, ids


def _walk_body(
    path: Path, body: list[str], columns: list[str], has_id: bool
) -> tuple[list[list[float]], list[str | None]]:
    """A run file's rows and ids line by line, each cell read by
    :func:`float`; the first bad line in file order raises."""
    width = len(columns) + has_id
    rows: list[list[float]] = []
    ids: list[str | None] = []
    for lineno, line in enumerate(body, start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != width:
            raise SolutionFileError(
                f"{path}:{lineno}: expected {width} columns, found {len(cells)}"
            )
        rows.append(_row_values(path, lineno, columns, cells[1:] if has_id else cells))
        ids.append(cells[0] if has_id else None)
    return rows, ids


def _row_values(
    path: Path, lineno: int, columns: Sequence[str], cells: Sequence[str]
) -> list[float]:
    """One line's values, or the error that names its first bad cell."""
    vals = []
    for col, cell in zip(columns, cells):
        try:
            vals.append(float(cell))
        except ValueError as exc:
            raise SolutionFileError(
                f"{path}:{lineno}: column {col!r} has non-numeric value {cell!r}"
            ) from exc
    bad = [v for v in vals if not math.isfinite(v)]
    if bad:
        raise SolutionFileError(
            f"{path}:{lineno}: objective values must be finite, got {bad[0]!r}"
        )
    return vals


def write_solution_set(path: str | Path, A: SolutionSet) -> None:
    """Write a set as CSV in natural units; values round-trip exactly.  An
    id or objective name :func:`load_solution_set` would not read back (a
    comma, a line break or surrounding whitespace) raises before writing."""
    path = Path(path)
    natural = A.natural_values()
    has_id = any(s.id is not None for s in A.solutions)
    header = (["id"] if has_id else []) + [o.name for o in A.meta]
    for cell in header + [s.id for s in A.solutions if s.id is not None]:
        if "," in cell or len(cell.splitlines()) > 1 or cell != cell.strip():
            raise ValueError(f"{cell!r} does not read back from a CSV cell")
    rows = [",".join(header)]
    for i, s in enumerate(A.solutions):
        cells = [s.id if s.id is not None else str(i)] if has_id else []
        cells += [repr(float(v)) for v in natural[i]]
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Shared pipeline


@dataclass
class Prepared:
    """Runs after orientation, screening, and preference transfer."""

    manifest: Manifest
    algorithms: dict[str, list[SolutionSet]]
    dropped: tuple[int, ...]
    # Each removal with its run's name and signs (natural = sign * stored).
    removals: list[tuple[str, Removal, tuple[float, ...]]]
    notes: list[str]
    # Exactly-best objectives kept because best-value survivors disagree.
    disputed: tuple[int, ...]

    @property
    def all_sets(self) -> list[SolutionSet]:
        return [s for runs in self.algorithms.values() for s in runs]

    @property
    def live_m(self) -> int:
        return self.all_sets[0].m

    def pooled(self) -> dict[str, SolutionSet]:
        """Each algorithm's non-empty runs as one set; an algorithm with no
        surviving solution is left out."""
        pooled = {}
        for alg, runs in self.algorithms.items():
            live = [r for r in runs if len(r)]
            if live:
                pooled[alg] = SolutionSet._concat(live, alg)
        return pooled


def _project(A: SolutionSet, keep: Sequence[int]) -> SolutionSet:
    meta = tuple(A.meta[i] for i in keep)
    signs = tuple(A.signs[i] for i in keep) if A.signs is not None else None
    return A._select(values=A.values()[:, keep], meta=meta, signs=signs)


def prepare(manifest: Manifest) -> Prepared:
    """Load every run and push it through the preprocessing pipeline.

    Order: orientation conversion, trivial screening, clear-constraint
    transfer, vague-clamp transfer.  An objective made redundant by an
    exactly-best constraint is dropped only when every surviving set agrees
    on its value; otherwise it stays in play and a note records why.
    """
    prefs = manifest.preferences
    removals: list[tuple[str, Removal, tuple[float, ...]]] = []
    notes: list[str] = []
    algorithms: dict[str, list[SolutionSet]] = {}

    for alg, files in manifest.algorithms.items():
        runs: list[SolutionSet] = []
        for r, rel in enumerate(files):
            run_name = alg if len(files) == 1 else f"{alg}#{r}"
            path = manifest.resolve(rel)
            raw = load_solution_set(path, manifest.objectives, name=run_name)
            work = to_minimization(raw)
            log: list[Removal] = []
            work = screen_trivial(work, prefs.screen, log=log)
            work, _ = apply_clear_preferences(work, prefs, log=log)
            work = apply_vague_preferences(work, prefs, log=log)
            removals.extend((run_name, rm, work.signs) for rm in log)
            if not len(work):
                notes.append(f"set {run_name!r} is empty after preprocessing")
            runs.append(work)
        algorithms[alg] = runs

    candidates = list(prefs.best_value_objectives)
    disputed: tuple[int, ...] = ()
    if candidates:  # as floats, so -0.0 agrees with 0.0; no survivor, no dispute
        sets = [run for runs in algorithms.values() for run in runs]
        best = np.concatenate([s.values()[:, candidates] for s in sets])
        disputed = tuple(j for j, v in zip(candidates, best.T) if (v != v[:1]).any())
    for j in disputed:
        notes.append(
            f"objective {manifest.objectives[j].name!r} kept: best-value survivors "
            "disagree across sets, so it still discriminates"
        )
    dropped = tuple(j for j in candidates if j not in disputed)
    if dropped:
        keep = [i for i in range(len(manifest.objectives)) if i not in dropped]
        names = ", ".join(manifest.objectives[j].name for j in dropped)
        notes.append(f"objective(s) {names} dropped: identical for all survivors")
        algorithms = {
            alg: [_project(run, keep) for run in runs]
            for alg, runs in algorithms.items()
        }
    return Prepared(
        manifest=manifest,
        algorithms=algorithms,
        dropped=dropped,
        removals=removals,
        notes=notes,
        disputed=disputed,
    )


def _configure(
    base: IndicatorConfig, manifest: Manifest, args: argparse.Namespace
) -> IndicatorConfig:
    """``base`` with the fields the manifest sets, then those the flags set.

    A config flag stores its value under the field it sets; a subcommand
    without that flag leaves the field alone.  A level that sets a strategy
    other than ``explicit`` leaves no ``ref_point`` of a level below.
    """
    flags = {k: v for k in _CONFIG_FIELDS if (v := getattr(args, k, None)) is not None}
    config = replace(base, **{**manifest.overrides, **_config_level(flags)})
    explicit = config.hv_strategy == "explicit"
    return config if explicit else replace(config, ref_point=None)


class _Stages(NamedTuple):
    """What evaluate, lint and plot-data share, built once and in order."""

    prepared: Prepared
    plan: EvaluationPlan  # for the objectives left after preprocessing
    route: str  # the plan's branch, as guidance._route names it
    config: IndicatorConfig  # the one merged config every column runs with
    chosen: list[str]  # what lint reports as chosen, each name once
    judged: list[str]  # what lint judges: chosen, none on best-value
    columns: list[str]  # judged, defined at live_m


def _stages(args: argparse.Namespace) -> _Stages:
    """Load, prepare, plan, configure, and keep the columns whose profile
    defines them at the objective count left; lint reports each other one as
    an error.  No yardstick is built here: each command builds those it
    reads.

    The columns are the indicators the flags or the manifest name, else the
    plan's; a name given twice, or by two aliases, counts once.  One config
    serves them all and ranks the runs by hv: the plan's, with the fields
    the manifest sets and then those the flags set on top, whichever columns
    are named.  On the best-value route none is judged, so no column runs.
    """
    manifest = load_manifest(args.manifest)
    prepared = prepare(manifest)
    prefs, live_m = manifest.preferences, prepared.live_m
    plan = _plan(prefs, len(manifest.objectives), live_m, len(manifest.algorithms))
    names = map(canonical_name, getattr(args, "indicator", None) or manifest.indicators)
    chosen = list(dict.fromkeys(names)) or [p.name for p in plan.indicators]
    config = _configure(plan.config, manifest, args)
    route = _route(prefs, live_m)
    judged = [] if route == "best-value" else chosen
    columns = [n for n in judged if live_m in aspects_of(n).objectives]
    return _Stages(prepared, plan, route, config, chosen, judged, columns)


def _lint_findings(
    stages: _Stages,
    point: tuple[float, ...] | None,
    reference: SolutionSet | None,
    failures: Mapping[str, ValueError],
) -> list[LintWarning]:
    """Lint what evaluate computes: the judged indicators under the stages'
    config at the objective count left, an explicit hv ``point`` at the
    nadir of the union front ``reference``, and each failure of the
    yardstick build, a run too small for a column among them, by its lint
    code with evaluate's own error."""
    config, prefs = stages.config, stages.prepared.manifest.preferences
    at_nadir = False
    if point is not None:
        nadir = tuple(reference.values().max(axis=0).tolist())
        at_nadir = config.hv_strategy == "explicit" and point == nadir
    found = lint(
        stages.judged, config, prefs, stages.prepared.live_m, hv_ref_at_nadir=at_nadir
    )
    return found + [_finding(code, str(exc)) for code, exc in failures.items()]


def _both_orders(indicator):
    """The pairwise ``indicator`` as one function of two sets that returns
    its value in each order."""
    return lambda first, second: (indicator(first, second), indicator(second, first))


# The pairwise indicators ``compare`` computes, evaluate's binary columns:
# each gives its value in both orders.  ci's two shares come from one pass.
_PAIRWISE = {
    "ci": ind._contributions,
    "c": _both_orders(ind.coverage),
    "epsilon": _both_orders(ind.epsilon_additive),
}


def _exit_from_findings(findings: Sequence[LintWarning], strict: bool) -> int:
    worst = EXIT_OK
    for f in findings:
        if f.severity == "error":
            return EXIT_ERROR
        if f.severity == "warning":
            worst = EXIT_ERROR if strict else max(worst, EXIT_WARNINGS)
    return worst


def _stream(report: dict, out: TextIO) -> None:
    json.dump(report, out, sort_keys=True, indent=2)
    out.write("\n")


def _write_report(report: dict, target: str | Path | None) -> None:
    """Write ``json.dumps(report, sort_keys=True, indent=2)`` and a newline to
    ``target`` as the encoder streams it.  A report file, or a path with no
    file yet, is written beside itself and then replaced, keeping its mode,
    so a render that fails leaves it as it was; through a symlink, the file
    the link names is replaced.  Anything else, such as a pipe or a device,
    is written straight through."""
    if not target:
        return
    path = Path(target)
    try:
        mode = path.stat().st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with path.open("w", encoding="utf-8") as out:
            _stream(report, out)
        return
    if path.is_symlink():
        path = path.resolve()
    if mode is None:
        path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.part")
    try:
        with partial.open("w", encoding="utf-8") as out:
            _stream(report, out)
        if mode is not None:
            partial.chmod(stat.S_IMODE(mode))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Commands


def _column(name: str, cfg: IndicatorConfig, table: IndicatorTable | None) -> dict:
    """The fields every report row of one column shares: the indicator, its
    profile, and its config with the yardsticks the table built."""
    profile = aspects_of(name)
    config = asdict(cfg)
    if table is not None:
        config["reference_set_size"] = len(table.reference)
        point, bounds = table.point, table.bounds
        if point is not None:
            config["reference_point"] = point
        if bounds is not None:
            config.update(bounds_ideal=bounds.ideal, bounds_nadir=bounds.nadir)
    return {
        "indicator": name,
        "better": profile.better,
        "aspects": sorted(profile.aspects),
        "config": config,
    }


def _doe_block(stages: _Stages) -> dict:
    """The plan's doe step on each algorithm's pooled survivors: best values
    on the one objective left, the best sum weighted over the objectives
    left, or the best value of each objective the extreme preference names
    and preprocessing left, in the order it names them (natural units).
    A route with no doe step has none."""
    if stages.route not in _DOE_STEPS:
        return {}
    prepared, prefs = stages.prepared, stages.prepared.manifest.preferences
    pooled = prepared.pooled()
    if stages.route == "best-value":
        best = {alg: min(s.values()[:, 0].tolist()) for alg, s in pooled.items()}
        head = prepared.all_sets[0]
        sign = _signs(head)[0]
        return {
            "kind": "best-value",
            "objective": head.meta[0].name,
            "best": {alg: sign * v for alg, v in best.items()},
            "winner": min(best, key=best.get) if best else None,
        }
    if stages.route == "scalarize":
        bounds = normalization_bounds(stages.config.normalization, [*pooled.values()])
        weights = [w for j, w in enumerate(prefs.weights) if j not in prepared.dropped]
        scal = {}
        for alg, basis in pooled.items():
            target = basis if bounds is None else normalize([basis], bounds)[0]
            sol, score = scalarize_best(target, weights)
            scal[alg] = {"score": score, "solution": list(sol.objectives)}
        return {
            "kind": "scalarize",
            "weights": weights,
            "by_algorithm": scal,
            "winner": min(scal, key=lambda a: scal[a]["score"]),
        }
    live = [o.name for o in prepared.all_sets[0].meta]
    named = [prepared.manifest.objectives[j].name for j in prefs.roi.objectives]
    cols = [live.index(name) for name in named if name in live]
    return {  # extreme
        "kind": "per-objective-best",
        "objectives": [live[c] for c in cols],
        "best": {
            a: np.take(per_objective_stats(s).best, cols).tolist()
            for a, s in pooled.items()
        },
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    stages = _stages(args)
    prepared, plan = stages.prepared, stages.plan
    manifest = prepared.manifest
    notes = _notes(stages.route, prepared.live_m, stages.columns)

    results: list[dict] = []
    aggregates: list[dict] = []
    representative: dict[str, int] = {}
    point = reference = None

    if stages.route == "best-value":  # one objective left: no indicator columns
        if stages.chosen:
            names = ", ".join(stages.chosen)
            notes.append(_finding("N-BEST-VALUE-SKIPPED", names))
    else:
        unary = [n for n in stages.columns if not aspects_of(n).binary]
        binary = [n for n in stages.columns if aspects_of(n).binary]
        table = indicator_table(prepared.algorithms, unary, stages.config)
        point, reference = table.point, table.reference
        shared = [_column(n, stages.config, table) for n in unary]
        for alg, runs in prepared.algorithms.items():
            per_indicator: dict[str, list[float]] = {}
            for r in range(len(runs)):
                for column, value in zip(shared, table.values.get((alg, r), ())):
                    row = {**column, "algorithm": alg, "run": r, "value": value}
                    results.append(row)
                    per_indicator.setdefault(column["indicator"], []).append(value)
            for name, values in per_indicator.items():
                aggregates.append(
                    {
                        "algorithm": alg,
                        "indicator": name,
                        "mean": float(np.mean(values)),
                        "median": float(np.median(values)),
                        "runs": len(values),
                    }
                )
        representative = table.representative
        pooled = prepared.pooled() if binary else {}
        if len(prepared.algorithms) == len(pooled) == 2:
            set_a, set_b = pooled.values()
            for name in binary:
                column = _column(name, stages.config, None)
                forward, backward = _PAIRWISE[name](set_a, set_b)
                for first, second, value in (
                    (set_a, set_b, forward), (set_b, set_a, backward)
                ):
                    where = {"algorithm": first.name, "against": second.name}
                    results.append({**column, **where, "value": value})
        elif binary:
            names = ", ".join(binary)
            count = len(prepared.algorithms)
            detail = f"{names}: {count} algorithm(s), {len(pooled)} with survivors"
            notes.append(_finding("N-BINARY-SKIPPED", detail))
    doe_report = _doe_block(stages)
    # Each yardstick failure the table or the doe step reads has raised.
    findings = _lint_findings(stages, point, reference, {}) + notes

    if prepared.disputed:
        findings.append(_finding("N-RENORM-SURVIVORS"))

    status = _exit_from_findings(findings, args.strict)
    report = {
        "schema": "solution-set-report/1",
        "objectives": [
            {"name": o.name, "direction": o.direction.value}
            for o in manifest.objectives
        ],
        "algorithms": list(manifest.algorithms),
        "plan": asdict(plan),
        "preprocessing": {
            "removals": [
                {"set": s, "index": rm.index, "rule": rm.rule,
                 "objectives": [k * v for k, v in zip(signs, rm.solution.objectives)]}
                for s, rm, signs in prepared.removals
            ],
            "dropped_objectives": [
                manifest.objectives[j].name for j in prepared.dropped
            ],
            "notes": prepared.notes,
        },
        "results": results,
        "aggregates": aggregates,
        "doe": doe_report,
        "representative_runs": representative,
        "findings": [asdict(f) for f in findings],
        "exit_status": status,
    }
    _write_report(report, args.out or manifest.resolve(manifest.report))

    m = len(manifest.objectives)
    print(f"evaluated {len(manifest.algorithms)} algorithm(s) on {m} objectives")
    if doe_report.get("winner"):
        print(f"winner by {doe_report['kind']}: {doe_report['winner']}")
    for row in aggregates:
        print(
            f"  {row['algorithm']:<20} {row['indicator']:<14} "
            f"mean={row['mean']:.6g} median={row['median']:.6g}"
        )
    for f in findings:
        print(f"  [{f.severity}] {f.code}: {f.message}")
    return status


def cmd_compare(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    first, second = args.first, args.second
    for n in (first, second):
        if n not in manifest.algorithms:
            raise ManifestError(f"unknown algorithm {n!r}")
    chosen = args.indicator or ["ci"]
    if len(chosen) > 1:
        raise ValueError("compare takes exactly one indicator")
    indicator = canonical_name(chosen[0])
    if indicator not in _PAIRWISE:
        raise ValueError(
            f"{indicator} is not a pairwise indicator; use ci, c, or epsilon"
        )
    pooled = prepare(manifest).pooled()
    if first not in pooled or second not in pooled:
        raise EmptySetError("cannot compare empty sets")
    set_a, set_b = pooled[first], pooled[second]
    if aspects_of(indicator).needs_normalization:
        config = _configure(IndicatorConfig(), manifest, args)
        bounds = normalization_bounds(config.normalization, [set_a, set_b])
        if bounds is not None:
            set_a, set_b = normalize([set_a, set_b], bounds)
    forward, backward = _PAIRWISE[indicator](set_a, set_b)
    report = {
        "schema": "solution-set-compare/1",
        "indicator": indicator,
        "first": first,
        "second": second,
        "forward": forward,
        "backward": backward,
    }
    _write_report(report, args.out)
    print(f"{indicator}({first}, {second}) = {forward:.6g}")
    print(f"{indicator}({second}, {first}) = {backward:.6g}")
    return EXIT_OK


def cmd_recommend(args: argparse.Namespace) -> int:
    # Reads no runs, so each exactly_best objective is predicted dropped.
    manifest = load_manifest(args.manifest)
    plan = recommend(
        manifest.preferences, len(manifest.objectives), len(manifest.algorithms)
    )
    report = {"schema": "solution-set-plan/1", "plan": asdict(plan)}
    _write_report(report, args.out)
    print("preprocessing:")
    for step in plan.preprocessing:
        print(f"  {step.kind}: {step.description}")
    print("indicators:")
    for p in plan.indicators:
        print(f"  {p.name}: {p.rationale}")
    for step in plan.doe_steps:
        print(f"  doe {step}")
    print(f"plotting: {plan.plotting}")
    for f in plan.warnings:
        print(f"  [{f.severity}] {f.code}: {f.message}")
    return EXIT_OK


def cmd_lint(args: argparse.Namespace) -> int:
    stages = _stages(args)
    point, reference, failures = None, None, {}
    if stages.route != "best-value":  # what evaluate reads, with no run front cut
        built = _yardsticks(
            stages.prepared.algorithms, stages.columns, stages.config,
            stages.route == "scalarize", computed=False,
        )
        point, reference, failures = built.point, built.reference, built.failures
    findings = _lint_findings(stages, point, reference, failures)
    status = _exit_from_findings(findings, args.strict)
    report = {
        "schema": "solution-set-lint/1",
        "chosen": stages.chosen,
        "findings": [asdict(f) for f in findings],
        "exit_status": status,
    }
    _write_report(report, args.out)
    if not findings:
        print("no findings")
    _print_findings(findings)
    return status


def _print_findings(findings: Sequence[LintWarning]) -> None:
    for f in findings:
        issue = f" (misuse {f.issue})" if f.issue else ""
        print(f"[{f.severity}] {f.code}{issue}: {f.message}")


def cmd_stats(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    prepared = prepare(manifest)
    blocks = []
    for alg, runs in prepared.algorithms.items():
        for r, run in enumerate(runs):
            if not len(run):
                continue
            st = per_objective_stats(run)
            blocks.append(
                {
                    "algorithm": alg,
                    "run": r,
                    "objectives": list(st.names),
                    "mean": list(st.mean),
                    "median": list(st.median),
                    "best": list(st.best),
                    "worst": list(st.worst),
                }
            )
    # Statistics reported alone are the sole comparison: misuse II.
    findings = [_finding("L-DOE-SOLE", "mean, median, worst")] if blocks else []
    status = _exit_from_findings(findings, False)
    report = {
        "schema": "solution-set-stats/2",
        "stats": blocks,
        "findings": [asdict(f) for f in findings],
        "exit_status": status,
    }
    _write_report(report, args.out)
    for b in blocks:
        print(f"{b['algorithm']} run {b['run']}:")
        for i, name in enumerate(b["objectives"]):
            print(
                f"  {name:<16} best={b['best'][i]:.6g} worst={b['worst'][i]:.6g} "
                f"mean={b['mean'][i]:.6g} median={b['median'][i]:.6g}"
            )
    _print_findings(findings)
    return status


# A scatter file is named after its algorithm with these percent-encoded, so
# each name gives its own file inside the output directory.
_FILE_NAME_ESCAPES = str.maketrans({"%": "%25", "/": "%2F", "\\": "%5C"})


def cmd_plot_data(args: argparse.Namespace) -> int:
    stages = _stages(args)
    prepared = stages.prepared
    manifest = prepared.manifest
    # The same pick as evaluate: the run whose hv is closest to the median.
    representative: dict[str, int] = {}
    if stages.route != "best-value":
        table = indicator_table(prepared.algorithms, [], stages.config)
        representative = table.representative
    default = manifest.resolve(manifest.plot_data) or "plot-data"
    out_dir = Path(args.out or default)
    out_dir.mkdir(parents=True, exist_ok=True)

    chosen_runs: dict[str, SolutionSet] = {}
    for alg, runs in prepared.algorithms.items():
        live = [r for r in runs if len(r)]
        if not live:
            warnings.warn(
                f"algorithm {alg!r} has no surviving solutions to plot",
                EvaluationWarning,
                stacklevel=2,
            )
            chosen_runs[alg] = runs[0]
            continue
        rep = representative.get(alg)
        chosen_runs[alg] = live[0] if rep is None else runs[rep]

    written: list[str] = []
    kind = stages.plan.plotting
    if kind == "scatter":
        for alg, run in chosen_runs.items():
            path = out_dir / f"{alg.translate(_FILE_NAME_ESCAPES)}.csv"
            write_solution_set(path, run)
            written.append(str(path))
    else:
        live = [s for s in chosen_runs.values() if len(s)]
        bounds = NormalizationBounds.from_sets(live)
        path = out_dir / "parallel-coordinates.csv"
        with path.open("w", encoding="utf-8", newline="") as out:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["set", "solution", "objective", "value"])
            for alg, run in chosen_runs.items():
                normed = normalize([run], bounds)[0] if len(run) else run
                for i, sol in enumerate(normed.solutions):
                    label = sol.id if sol.id is not None else str(i)
                    for name, v in zip((o.name for o in normed.meta), sol.objectives):
                        writer.writerow([alg, label, name, repr(v)])
        written.append(str(path))
    print(f"wrote {kind} data for {len(chosen_runs)} set(s):")
    for w in written:
        print(f"  {w}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    def point(text: str) -> tuple[float, ...]:
        return tuple(float(v) for v in text.split(","))

    # Each flag once; a config flag stores under the IndicatorConfig field
    # it sets.
    flags = {
        "--manifest": dict(required=True, help="experiment manifest (JSON)"),
        "--indicator": dict(
            action="append",
            help="indicator to compute (repeatable; overrides the manifest)",
        ),
        "--ref-point": dict(type=point, help="explicit reference point, e.g. '13,11'"),
        "--ref-strategy": dict(
            dest="hv_strategy",
            choices=REF_STRATEGIES,
            help="reference point construction strategy",
        ),
        "--gd-p": dict(type=float, help="aggregation power for gd"),
        "--grid-div": dict(
            dest="grid_divisions", type=int, help="grid divisions for grid_diversity"
        ),
        "--no-normalize": dict(
            dest="normalization",
            action="store_const",
            const="none",
            help="evaluate in raw objective units",
        ),
        "--out": dict(help="write the machine-readable report here"),
        "--strict": dict(action="store_true", help="treat warnings as errors (exit 2)"),
    }
    # The flags each subcommand reads; lint reads what evaluate computes.
    only_out = ["--manifest", "--out"]
    commands = [
        ("evaluate", "run the evaluation plan over all runs", [*flags]),
        (
            "compare",
            "pairwise indicator between two algorithms",
            ["--manifest", "--indicator", "--no-normalize", "--out"],
        ),
        ("recommend", "print the evaluation plan", only_out),
        ("lint", "check the setup for documented misuse", [*flags]),
        ("stats", "per-objective summary statistics", only_out),
        (
            "plot-data",
            "write plot-ready CSV files",
            ["--manifest", "--ref-point", "--ref-strategy", "--out"],
        ),
    ]
    parser = argparse.ArgumentParser(
        prog="paretoeval",
        description="Evaluate, compare, and lint Pareto solution-set experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, reads in commands:
        p = sub.add_parser(name, help=summary)
        for flag in reads:
            p.add_argument(flag, **flags[flag])
    compare = sub.choices["compare"]
    compare.add_argument("first", help="first algorithm name")
    compare.add_argument("second", help="second algorithm name")
    return parser


# Built once per process: parsing leaves the parser as it was.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    # Looked up at each call, so a rebound ``cmd_*`` is the one that runs.
    command = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a bug: one line naming its type, no traceback
        message = " ".join(str(exc).splitlines())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
