"""Command-line interface: evaluate, compare, recommend, lint, stats, plot-data.

An experiment is described by a JSON manifest naming the objectives, the
algorithms with their run files (CSV, one solution per row), the declared
preferences, optional indicator overrides, and output paths.  Unknown
manifest fields are rejected so typos fail fast.  Machine-readable reports
are byte-stable: the same manifest and data always serialize to the same
bytes (keys sorted, no timestamps).

Exit status: 0 clean, 1 completed with warning-level findings, 2 on
error-level findings or failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    Direction,
    EmptySetError,
    EvaluationWarning,
    ObjectiveMeta,
    SolutionSet,
)
from . import indicators as ind
from .doe import IndicatorTable, indicator_table, per_objective_stats, scalarize_best
from .guidance import (
    EvaluationMode,
    EvaluationPlan,
    LintWarning,
    SetContext,
    lint,
    recommend,
)
from .indicators import IndicatorConfig, aspects_of, canonical_name
from .preprocess import (
    EXACTLY_BEST,
    ClearConstraint,
    NormalizationBounds,
    PreferenceSpec,
    REF_STRATEGIES,
    RegionOfInterest,
    Removal,
    VagueClamp,
    apply_clear_preferences,
    apply_vague_preferences,
    build_reference_set,
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
    """Malformed experiment manifest."""


class SolutionFileError(ValueError):
    """Malformed solution CSV file."""


@dataclass(frozen=True)
class AlgorithmEntry:
    name: str
    runs: tuple[str, ...]


@dataclass(frozen=True)
class OutputSpec:
    report: str | None = None
    plot_data: str | None = None


@dataclass(frozen=True)
class Overrides:
    """Indicator selection and configuration fragments from the manifest.

    ``fields`` names the ``IndicatorConfig`` fields the manifest set; a
    bare ``ref_point`` sets ``hv_strategy`` to ``explicit`` as well.
    """

    indicators: tuple[str, ...] = ()
    config: IndicatorConfig = field(default_factory=IndicatorConfig)
    fields: frozenset[str] = frozenset()

    def apply_to(self, config: IndicatorConfig) -> IndicatorConfig:
        """``config`` with the manifest's values for the fields it set."""
        return replace(config, **{f: getattr(self.config, f) for f in self.fields})


@dataclass(frozen=True)
class Manifest:
    objectives: tuple[ObjectiveMeta, ...]
    algorithms: tuple[AlgorithmEntry, ...]
    preferences: PreferenceSpec = field(default_factory=PreferenceSpec)
    overrides: Overrides = field(default_factory=Overrides)
    output: OutputSpec = field(default_factory=OutputSpec)
    base_dir: str = "."


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ManifestError(f"{where}: expected an object, got {json.dumps(obj)}")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ManifestError(f"unknown field(s) in {where}: {', '.join(unknown)}")


def _list(value: object, where: str) -> list:
    if not isinstance(value, list):
        raise ManifestError(f"{where}: expected a list, got {json.dumps(value)}")
    return value


def _name(obj: dict, where: str) -> str:
    if not isinstance(obj["name"], str):
        raise ManifestError(
            f"{where}.name: expected a string, got {json.dumps(obj['name'])}"
        )
    return obj["name"]


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numbers(value: object) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


# Expected JSON type of a manifest scalar, checked before the domain types
# compare or convert the value; null stands for "not given" where allowed.
_NUMBER = ("a number", _is_number)
_OPTIONAL_NUMBER = ("a number", lambda v: v is None or _is_number(v))
_OPTIONAL_NUMBERS = ("a list of numbers", lambda v: v is None or _is_numbers(v))
_BOUNDS = ("a list of two numbers", lambda v: v is None or (_is_numbers(v) and len(v) == 2))
_BOOLEAN = ("a boolean", lambda v: isinstance(v, bool))
_OVERRIDE_TYPES = {
    "indicators": (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
    ),
    "gd_p": _NUMBER,
    "grid_divisions": ("an integer", lambda v: _is_number(v) and isinstance(v, int)),
    "hv_strategy": ("a string", lambda v: isinstance(v, str)),
    "normalization": ("a string", lambda v: isinstance(v, str)),
    "ref_point": _OPTIONAL_NUMBERS,
}


def _check_types(obj: dict, types: dict, where: str) -> None:
    for key, (expected, valid) in types.items():
        if key in obj and not valid(obj[key]):
            raise ManifestError(
                f"{where}.{key}: expected {expected}, got {json.dumps(obj[key])}"
            )


def _objective_index(ref: object, names: list[str], where: str) -> int:
    if isinstance(ref, bool):
        raise ManifestError(f"{where}: objective reference must be a name or index")
    if isinstance(ref, int):
        if not 0 <= ref < len(names):
            raise ManifestError(f"{where}: objective index {ref} out of range")
        return ref
    if isinstance(ref, str):
        if ref not in names:
            raise ManifestError(f"{where}: unknown objective {ref!r}")
        return names.index(ref)
    raise ManifestError(f"{where}: objective reference must be a name or index")


def _parse_constraint(raw: dict, names: list[str], where: str) -> ClearConstraint:
    _require_keys(raw, {"objective", "kind", "threshold"}, where)
    for key in ("objective", "kind"):
        if key not in raw:
            raise ManifestError(f"{where}: missing {key!r}")
    _check_types(raw, {"threshold": _OPTIONAL_NUMBER}, where)
    try:
        return ClearConstraint(
            objective=_objective_index(raw["objective"], names, where),
            kind=raw["kind"],
            threshold=raw.get("threshold"),
        )
    except ValueError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _parse_preferences(raw: dict, names: list[str]) -> PreferenceSpec:
    _require_keys(
        raw,
        {"screen", "clear", "vague", "roi", "weights", "untransferable"},
        "preferences",
    )
    types = {"weights": _OPTIONAL_NUMBERS, "untransferable": _BOOLEAN}
    _check_types(raw, types, "preferences")
    screen = tuple(
        _parse_constraint(c, names, f"preferences.screen[{i}]")
        for i, c in enumerate(_list(raw.get("screen", []), "preferences.screen"))
    )
    clear = tuple(
        _parse_constraint(c, names, f"preferences.clear[{i}]")
        for i, c in enumerate(_list(raw.get("clear", []), "preferences.clear"))
    )
    vague = []
    for i, v in enumerate(_list(raw.get("vague", []), "preferences.vague")):
        where = f"preferences.vague[{i}]"
        _require_keys(v, {"objective", "saturation", "hard_floor"}, where)
        if "objective" not in v or "saturation" not in v:
            raise ManifestError(f"{where}: needs objective and saturation")
        _check_types(v, {"saturation": _NUMBER, "hard_floor": _OPTIONAL_NUMBER}, where)
        try:
            vague.append(
                VagueClamp(
                    objective=_objective_index(v["objective"], names, where),
                    saturation=v["saturation"],
                    hard_floor=v.get("hard_floor"),
                )
            )
        except ValueError as exc:
            raise ManifestError(f"{where}: {exc}") from exc
    roi_raw = raw.get("roi")
    roi = None
    if roi_raw is not None:
        if roi_raw == "knee":
            roi = RegionOfInterest("knee")
        elif isinstance(roi_raw, dict):
            _require_keys(roi_raw, {"extreme"}, "preferences.roi")
            if "extreme" not in roi_raw:
                raise ManifestError("preferences.roi: needs 'extreme'")
            idx = tuple(
                _objective_index(o, names, "preferences.roi.extreme")
                for o in _list(roi_raw["extreme"], "preferences.roi.extreme")
            )
            roi = RegionOfInterest("extreme", idx)
        else:
            raise ManifestError(
                "preferences.roi must be 'knee' or {'extreme': [objectives]}"
            )
    weights = raw.get("weights")
    try:
        return PreferenceSpec(
            clear=clear,
            vague=tuple(vague),
            roi=roi,
            weights=tuple(weights) if weights is not None else None,
            screen=screen,
            untransferable=raw.get("untransferable", False),
        )
    except ValueError as exc:
        raise ManifestError(f"preferences: {exc}") from exc


def _parse_overrides(raw: dict) -> Overrides:
    _require_keys(
        raw,
        {
            "indicators",
            "gd_p",
            "hv_strategy",
            "ref_point",
            "grid_divisions",
            "normalization",
        },
        "indicator_overrides",
    )
    _check_types(raw, _OVERRIDE_TYPES, "indicator_overrides")
    indicators = tuple(raw.get("indicators", []))
    for name in indicators:
        try:
            canonical_name(name)
        except ValueError as exc:
            raise ManifestError(f"indicator_overrides: {exc}") from exc
    defaults = IndicatorConfig()
    ref_point = tuple(raw["ref_point"]) if raw.get("ref_point") is not None else None
    # A bare reference point means "use exactly this point".
    strategy = raw.get(
        "hv_strategy", "explicit" if ref_point is not None else defaults.hv_strategy
    )
    try:
        config = IndicatorConfig(
            gd_p=raw.get("gd_p", defaults.gd_p),
            hv_strategy=strategy,
            ref_point=ref_point,
            grid_divisions=raw.get("grid_divisions", defaults.grid_divisions),
            normalization=raw.get("normalization", defaults.normalization),
        )
    except ValueError as exc:
        raise ManifestError(f"indicator_overrides: {exc}") from exc
    fields = set(raw) - {"indicators"}
    if ref_point is not None:
        fields.add("hv_strategy")
    return Overrides(indicators=indicators, config=config, fields=frozenset(fields))


def load_manifest(path: str | Path) -> Manifest:
    """Parse and validate an experiment manifest (strict JSON object)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ManifestError("manifest root must be an object")
    _require_keys(
        raw,
        {"objectives", "algorithms", "preferences", "indicator_overrides", "output"},
        "manifest",
    )
    if "objectives" not in raw or not raw["objectives"]:
        raise ManifestError("manifest needs a non-empty 'objectives' list")
    if "algorithms" not in raw or not raw["algorithms"]:
        raise ManifestError("manifest needs a non-empty 'algorithms' list")

    objectives: list[ObjectiveMeta] = []
    for i, o in enumerate(_list(raw["objectives"], "objectives")):
        where = f"objectives[{i}]"
        _require_keys(o, {"name", "direction", "units", "hard_bounds"}, where)
        if "name" not in o:
            raise ManifestError(f"{where}: missing 'name'")
        name = _name(o, where)
        _check_types(o, {"hard_bounds": _BOUNDS}, where)
        try:
            objectives.append(
                ObjectiveMeta(
                    name=name,
                    direction=Direction(o.get("direction", "min")),
                    units=o.get("units"),
                    hard_bounds=(
                        tuple(o["hard_bounds"])
                        if o.get("hard_bounds") is not None
                        else None
                    ),
                )
            )
        except ValueError as exc:
            raise ManifestError(f"{where}: {exc}") from exc
    names = [o.name for o in objectives]
    if len(set(names)) != len(names):
        raise ManifestError("objective names must be unique")

    algorithms: list[AlgorithmEntry] = []
    for i, a in enumerate(_list(raw["algorithms"], "algorithms")):
        where = f"algorithms[{i}]"
        _require_keys(a, {"name", "runs"}, where)
        if "name" not in a or "runs" not in a or not a["runs"]:
            raise ManifestError(f"{where}: needs 'name' and a non-empty 'runs' list")
        runs = a["runs"]
        if not isinstance(runs, list) or not all(isinstance(r, str) for r in runs):
            raise ManifestError(
                f"{where}.runs: expected a non-empty list of strings, "
                f"got {json.dumps(runs)}"
            )
        algorithms.append(AlgorithmEntry(_name(a, where), tuple(runs)))
    if len({a.name for a in algorithms}) != len(algorithms):
        raise ManifestError("algorithm names must be unique")

    preferences = _parse_preferences(raw.get("preferences", {}), names)
    best = {c.objective for c in preferences.clear if c.kind == EXACTLY_BEST}
    if len(best) == len(names):
        raise ManifestError(
            "preferences.clear: exactly_best on every objective leaves no "
            "objective to compare the sets on"
        )
    overrides = _parse_overrides(raw.get("indicator_overrides", {}))
    out_raw = raw.get("output", {})
    _require_keys(out_raw, {"report", "plot_data"}, "output")
    output = OutputSpec(
        report=out_raw.get("report"), plot_data=out_raw.get("plot_data")
    )
    for a in algorithms:
        for rel in a.runs:
            if not (path.parent / rel).is_file():
                raise ManifestError(
                    f"algorithms[{a.name!r}]: run file {rel!r} not found"
                )
    return Manifest(
        objectives=tuple(objectives),
        algorithms=tuple(algorithms),
        preferences=preferences,
        overrides=overrides,
        output=output,
        base_dir=str(path.parent),
    )


def load_solution_set(
    path: str | Path,
    meta: Sequence[ObjectiveMeta],
    name: str | None = None,
) -> SolutionSet:
    """Read one run: a CSV whose header names the objectives.

    A leading ``id`` column is optional.  Values are natural units; decimal
    parsing round-trips exactly with :func:`write_solution_set`.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SolutionFileError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines()]
    if not lines or not lines[0].strip():
        raise SolutionFileError(f"{path}:1: missing header row")
    header = [h.strip() for h in lines[0].split(",")]
    has_id = header and header[0] == "id"
    expected = [o.name for o in meta]
    value_columns = header[1:] if has_id else header
    if value_columns != expected:
        raise SolutionFileError(
            f"{path}:1: header {value_columns} does not match objectives {expected}"
        )
    rows: list[list[float]] = []
    ids: list[str | None] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise SolutionFileError(
                f"{path}:{lineno}: expected {len(header)} columns, found {len(cells)}"
            )
        sol_id = cells[0] if has_id else None
        raw_vals = cells[1:] if has_id else cells
        vals = []
        for col, cell in zip(value_columns, raw_vals):
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
        rows.append(vals)
        ids.append(sol_id)
    if not rows:
        warnings.warn(
            f"{path} contains a header but no solutions",
            EvaluationWarning,
            stacklevel=2,
        )
    return SolutionSet._from_array(name or path.stem, meta, rows, ids=ids)


def write_solution_set(path: str | Path, A: SolutionSet) -> None:
    """Write a set as CSV in natural units; values round-trip exactly."""
    path = Path(path)
    natural = A.natural_values()
    has_id = any(s.id is not None for s in A.solutions)
    header = (["id"] if has_id else []) + [o.name for o in A.meta]
    rows = [",".join(header)]
    for i, s in enumerate(A.solutions):
        cells = [s.id or str(i)] if has_id else []
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
    removals: list[tuple[str, Removal]]
    notes: list[str]
    # Exactly-best objectives kept because best-value survivors disagree.
    disputed: tuple[int, ...]

    @property
    def all_sets(self) -> list[SolutionSet]:
        return [s for runs in self.algorithms.values() for s in runs]

    @property
    def live_m(self) -> int:
        return self.all_sets[0].m


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
    removals: list[tuple[str, Removal]] = []
    notes: list[str] = []
    algorithms: dict[str, list[SolutionSet]] = {}
    dropped_per_set: tuple[int, ...] | None = None
    base = Path(manifest.base_dir)

    for entry in manifest.algorithms:
        runs: list[SolutionSet] = []
        for r, rel in enumerate(entry.runs):
            run_name = entry.name if len(entry.runs) == 1 else f"{entry.name}#{r}"
            raw = load_solution_set(base / rel, manifest.objectives, name=run_name)
            work = to_minimization(raw)
            log: list[Removal] = []
            work = screen_trivial(work, prefs.screen, log=log)
            work, dropped = apply_clear_preferences(work, prefs, log=log)
            work = apply_vague_preferences(work, prefs, log=log)
            removals.extend((run_name, rm) for rm in log)
            if not len(work):
                notes.append(f"set {run_name!r} is empty after preprocessing")
            dropped_per_set = dropped  # same constraints => same candidates
            runs.append(work)
        algorithms[entry.name] = runs

    candidates = dropped_per_set or ()
    survivors = [v for runs in algorithms.values() for run in runs for v in run.vectors()]
    disputed = tuple(j for j in candidates if len({v[j] for v in survivors}) > 1)
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


def _merge_config(
    cfg: IndicatorConfig, cli: argparse.Namespace | None
) -> IndicatorConfig:
    """Apply command-line flag overrides on top of a base configuration."""
    if cli is None:
        return cfg
    changes: dict[str, object] = {}
    if cli.ref_strategy:
        changes["hv_strategy"] = cli.ref_strategy
    if cli.ref_point:
        changes["ref_point"] = tuple(float(v) for v in cli.ref_point.split(","))
        changes["hv_strategy"] = "explicit"
    if cli.gd_p is not None:
        changes["gd_p"] = cli.gd_p
    if cli.grid_div is not None:
        changes["grid_divisions"] = cli.grid_div
    if cli.no_normalize:
        changes["normalization"] = "none"
    return replace(cfg, **changes)


def _plan(manifest: Manifest) -> EvaluationPlan:
    return recommend(
        manifest.preferences,
        len(manifest.objectives),
        SetContext(set_count=len(manifest.algorithms)),
    )


def _planned(
    manifest: Manifest, args: argparse.Namespace, plan: EvaluationPlan | None = None
) -> list[tuple[str, IndicatorConfig]]:
    """The (indicator, config) pairs evaluate computes.

    An indicator list from the flags or the manifest runs with the merged
    config.  Otherwise each planned config takes the fields the manifest
    set, then the flags.
    """
    chosen_names = args.indicator or list(manifest.overrides.indicators)
    if chosen_names:
        config = _merge_config(manifest.overrides.config, args)
        return [(canonical_name(n), config) for n in chosen_names]
    return [
        (p.name, _merge_config(manifest.overrides.apply_to(p.config), args))
        for p in (plan or _plan(manifest)).indicators
    ]


def _ranking_column(
    planned: Sequence[tuple[str, IndicatorConfig]], config: IndicatorConfig
) -> tuple[str, IndicatorConfig]:
    """The planned hv column, else hv with the merged config (unreported)."""
    return next(((n, c) for n, c in planned if n == "hv"), ("hv", config))


def _config_snapshot(config: IndicatorConfig, table: IndicatorTable | None) -> dict:
    snap = config.snapshot()
    if table is not None:
        snap["reference_set_size"] = len(table.reference)
        point = table.points.get((config.hv_strategy, config.ref_point))
        if point is not None:
            snap["reference_point"] = list(point)
        bounds = table.bounds.get(config.normalization)
        if bounds is not None:
            snap["bounds_ideal"] = list(bounds.ideal)
            snap["bounds_nadir"] = list(bounds.nadir)
    return snap


def _findings_to_dict(findings: Sequence[LintWarning]) -> list[dict]:
    return [
        {
            "code": f.code,
            "severity": f.severity,
            "issue": f.issue,
            "message": f.message,
        }
        for f in findings
    ]


def _exit_from_findings(findings: Sequence[LintWarning], strict: bool) -> int:
    worst = EXIT_OK
    for f in findings:
        if f.severity == "error":
            return EXIT_ERROR
        if f.severity == "warning":
            worst = EXIT_ERROR if strict else max(worst, EXIT_WARNINGS)
    return worst


def _plan_to_dict(plan: EvaluationPlan) -> dict:
    return {
        "preprocessing": [
            {"kind": s.kind, "description": s.description} for s in plan.preprocessing
        ],
        "indicators": [
            {
                "name": p.name,
                "rationale": p.rationale,
                "config": p.config.snapshot(),
            }
            for p in plan.indicators
        ],
        "doe_steps": list(plan.doe_steps),
        "plotting": plan.plotting,
        "warnings": _findings_to_dict(plan.warnings),
    }


def _write_report(report: dict, out: str | None, default: str | None) -> None:
    target = out or default
    if not target:
        return
    path = Path(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Commands


def cmd_evaluate(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    prepared = prepare(manifest)
    prefs = manifest.preferences
    m = len(manifest.objectives)
    plan = _plan(manifest)

    config = _merge_config(manifest.overrides.config, args)
    planned = _planned(manifest, args, plan)

    live_m = prepared.live_m
    # Lint what will actually be computed (overrides included); carry the
    # plan's advisory notes over without repeating its self-lint findings.
    findings = lint(
        planned,
        prefs,
        live_m,
        EvaluationMode(clear_transfer_planned=True),
    )
    findings += [w for w in plan.warnings if w.code.startswith("N-")]
    # An error-severity finding means the indicator is mathematically
    # unreliable here; report it instead of computing it.
    blocked = {"L-SPREAD-DIM": "spread", "L-HV-DIM": "hv"}
    skip = {blocked[f.code] for f in findings if f.code in blocked}
    planned = [(n, c) for n, c in planned if n not in skip]

    results: list[dict] = []
    aggregates: list[dict] = []
    doe_report: dict = {}
    representative: dict[str, int] = {}

    if live_m == 1:
        # A single objective survived preference transfer: compare best values.
        stored_best: dict[str, float] = {}
        natural_best: dict[str, float] = {}
        for alg, runs in prepared.algorithms.items():
            values = [v for run in runs for v in run.values()[:, 0].tolist()]
            if not values:
                continue
            sign = runs[0].signs[0] if runs[0].signs is not None else 1.0
            stored_best[alg] = min(values)
            natural_best[alg] = sign * stored_best[alg]
        objective = next(
            o.name
            for i, o in enumerate(manifest.objectives)
            if i not in prepared.dropped
        )
        doe_report = {
            "kind": "best-value",
            "objective": objective,
            "best": natural_best,
            "winner": min(stored_best, key=stored_best.get) if stored_best else None,
        }
    else:
        unary = [(n, c) for n, c in planned if not aspects_of(n).binary]
        binary = [(n, c) for n, c in planned if aspects_of(n).binary]
        table = indicator_table(
            prepared.algorithms, unary, _ranking_column(unary, config)
        )
        for alg, runs in prepared.algorithms.items():
            per_indicator: dict[str, list[float]] = {}
            for r in range(len(runs)):
                for (name, cfg), value in zip(unary, table.values.get((alg, r), ())):
                    profile = aspects_of(name)
                    results.append(
                        {
                            "algorithm": alg,
                            "run": r,
                            "indicator": name,
                            "value": value,
                            "better": profile.better,
                            "aspects": sorted(profile.aspects),
                            "config": _config_snapshot(cfg, table),
                        }
                    )
                    per_indicator.setdefault(name, []).append(value)
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
        if binary and len(prepared.algorithms) == 2:
            (name_a, runs_a), (name_b, runs_b) = prepared.algorithms.items()
            set_a = SolutionSet._concat(runs_a, name_a)
            set_b = SolutionSet._concat(runs_b, name_b)
            if len(set_a) and len(set_b):
                for name, cfg in binary:
                    fn = ind.contribution if name == "ci" else ind.coverage
                    for first, second in ((set_a, set_b), (set_b, set_a)):
                        results.append(
                            {
                                "algorithm": first.name,
                                "against": second.name,
                                "indicator": name,
                                "value": fn(first, second),
                                "better": aspects_of(name).better,
                                "aspects": sorted(aspects_of(name).aspects),
                                "config": _config_snapshot(cfg, None),
                            }
                        )
        if prefs.weights is not None:
            scal = {}
            for alg, runs in prepared.algorithms.items():
                live = [r for r in runs if len(r)]
                if not live:
                    continue
                basis = SolutionSet._concat(live, alg)
                target = basis
                bounds = table.bounds.get(config.normalization)
                if bounds is not None:
                    target = normalize([basis], bounds)[0]
                sol, score = scalarize_best(target, prefs.weights)
                scal[alg] = {"score": score, "solution": list(sol.objectives)}
            if scal:
                doe_report = {
                    "kind": "scalarize",
                    "weights": list(prefs.weights),
                    "by_algorithm": scal,
                    "winner": min(scal, key=lambda a: scal[a]["score"]),
                }

    if prepared.disputed:
        findings += [
            LintWarning(
                code="N-RENORM-SURVIVORS",
                severity="info",
                message="survivor sets disagree on a best-value objective; "
                "evaluation keeps all objectives",
            )
        ]

    status = _exit_from_findings(findings, args.strict)
    report = {
        "schema": "solution-set-report/1",
        "objectives": [
            {"name": o.name, "direction": o.direction.value}
            for o in manifest.objectives
        ],
        "algorithms": [a.name for a in manifest.algorithms],
        "plan": _plan_to_dict(plan),
        "preprocessing": {
            "removals": [
                {"set": s, "index": rm.index, "rule": rm.rule,
                 "objectives": list(rm.solution.objectives)}
                for s, rm in prepared.removals
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
        "findings": _findings_to_dict(findings),
        "exit_status": status,
    }
    _write_report(report, args.out, manifest.output.report)

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
    prepared = prepare(manifest)
    names = {a.name for a in manifest.algorithms}
    first, second = args.first, args.second
    for n in (first, second):
        if n not in names:
            raise ManifestError(f"unknown algorithm {n!r}")
    chosen = args.indicator or ["ci"]
    if len(chosen) > 1:
        raise ValueError("compare takes exactly one indicator")
    indicator = canonical_name(chosen[0])
    set_a = SolutionSet._concat(prepared.algorithms[first], first)
    set_b = SolutionSet._concat(prepared.algorithms[second], second)
    if not len(set_a) or not len(set_b):
        raise EmptySetError("cannot compare empty sets")
    if indicator == "ci":
        forward = ind.contribution(set_a, set_b)
        backward = ind.contribution(set_b, set_a)
    elif indicator == "c":
        forward = ind.coverage(set_a, set_b)
        backward = ind.coverage(set_b, set_a)
    elif indicator == "epsilon":
        config = _merge_config(manifest.overrides.config, args)
        a, b = set_a, set_b
        if config.normalization != "none":
            bounds = NormalizationBounds.from_sets([set_a, set_b])
            a, b = normalize([set_a, set_b], bounds)
        forward = ind.epsilon_additive(a, b)
        backward = ind.epsilon_additive(b, a)
    else:
        raise ValueError(
            f"{indicator} is not a pairwise indicator; use ci, c, or epsilon"
        )
    report = {
        "schema": "solution-set-compare/1",
        "indicator": indicator,
        "first": first,
        "second": second,
        "forward": forward,
        "backward": backward,
    }
    _write_report(report, args.out, None)
    print(f"{indicator}({first}, {second}) = {forward:.6g}")
    print(f"{indicator}({second}, {first}) = {backward:.6g}")
    return EXIT_OK


def cmd_recommend(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    plan = _plan(manifest)
    report = {"schema": "solution-set-plan/1", "plan": _plan_to_dict(plan)}
    _write_report(report, args.out, None)
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
    manifest = load_manifest(args.manifest)
    m = len(manifest.objectives)
    config = _merge_config(manifest.overrides.config, args)
    chosen = _planned(manifest, args)
    hv_at_nadir = False
    if config.ref_point is not None and any(n == "hv" for n, _ in chosen):
        prepared = prepare(manifest)
        live = [s for s in prepared.all_sets if len(s)]
        if live:
            front = build_reference_set(live)
            nadir = tuple(float(v) for v in front.values().max(axis=0))
            hv_at_nadir = tuple(config.ref_point) == nadir
    findings = lint(
        chosen,
        manifest.preferences,
        m,
        EvaluationMode(clear_transfer_planned=True, hv_ref_at_nadir=hv_at_nadir),
    )
    status = _exit_from_findings(findings, args.strict)
    report = {
        "schema": "solution-set-lint/1",
        "chosen": [n for n, _ in chosen],
        "findings": _findings_to_dict(findings),
        "exit_status": status,
    }
    _write_report(report, args.out, None)
    if not findings:
        print("no findings")
    for f in findings:
        issue = f" (misuse {f.issue})" if f.issue else ""
        print(f"[{f.severity}] {f.code}{issue}: {f.message}")
    return status


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
    report = {"schema": "solution-set-stats/1", "stats": blocks}
    _write_report(report, args.out, None)
    for b in blocks:
        print(f"{b['algorithm']} run {b['run']}:")
        for i, name in enumerate(b["objectives"]):
            print(
                f"  {name:<16} best={b['best'][i]:.6g} worst={b['worst'][i]:.6g} "
                f"mean={b['mean'][i]:.6g} median={b['median'][i]:.6g}"
            )
    print(
        "note: summary statistics alone can contradict the dominance relation "
        "between sets; pair them with dominance-aware indicators"
    )
    return EXIT_OK


def cmd_plot_data(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    prepared = prepare(manifest)
    out_dir = Path(args.out or manifest.output.plot_data or "plot-data")
    out_dir.mkdir(parents=True, exist_ok=True)
    live_m = prepared.live_m
    config = _merge_config(manifest.overrides.config, args)

    # The same pick as evaluate: the run closest to the median hv.
    representative: dict[str, int] = {}
    if live_m >= 2 and any(len(s) for s in prepared.all_sets):
        column = _ranking_column(_planned(manifest, args), config)
        representative = indicator_table(prepared.algorithms, [], column).representative

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
    if live_m <= 3:
        for alg, run in chosen_runs.items():
            path = out_dir / f"{alg}.csv"
            write_solution_set(path, run)
            written.append(str(path))
    else:
        live = [s for s in chosen_runs.values() if len(s)]
        bounds = NormalizationBounds.from_sets(live)
        rows = ["set,solution,objective,value"]
        for alg, run in chosen_runs.items():
            normed = normalize([run], bounds)[0] if len(run) else run
            for i, sol in enumerate(normed.solutions):
                label = sol.id or str(i)
                for name, v in zip((o.name for o in normed.meta), sol.objectives):
                    rows.append(f"{alg},{label},{name},{v!r}")
        path = out_dir / "parallel-coordinates.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        written.append(str(path))
    kind = "scatter" if live_m <= 3 else "parallel-coordinates"
    print(f"wrote {kind} data for {len(chosen_runs)} set(s):")
    for w in written:
        print(f"  {w}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True, help="experiment manifest (JSON)")
    p.add_argument(
        "--indicator",
        action="append",
        help="indicator to compute (repeatable; overrides the manifest)",
    )
    p.add_argument("--ref-point", help="explicit reference point, e.g. '13,11'")
    p.add_argument(
        "--ref-strategy",
        choices=REF_STRATEGIES,
        help="reference point construction strategy",
    )
    p.add_argument("--gd-p", type=float, help="aggregation power for gd")
    p.add_argument("--grid-div", type=int, help="grid divisions for grid_diversity")
    p.add_argument(
        "--no-normalize", action="store_true", help="evaluate in raw objective units"
    )
    p.add_argument("--out", help="write the machine-readable report here")
    p.add_argument(
        "--strict", action="store_true", help="treat warnings as errors (exit 2)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretoeval",
        description="Evaluate, compare, and lint Pareto solution-set experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="run the evaluation plan over all runs")
    _add_common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="pairwise indicator between two algorithms")
    _add_common(p_cmp)
    p_cmp.add_argument("first", help="first algorithm name")
    p_cmp.add_argument("second", help="second algorithm name")
    p_cmp.set_defaults(func=cmd_compare)

    p_rec = sub.add_parser("recommend", help="print the evaluation plan")
    _add_common(p_rec)
    p_rec.set_defaults(func=cmd_recommend)

    p_lint = sub.add_parser("lint", help="check the setup for documented misuse")
    _add_common(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    p_stats = sub.add_parser("stats", help="per-objective summary statistics")
    _add_common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_plot = sub.add_parser("plot-data", help="write plot-ready CSV files")
    _add_common(p_plot)
    p_plot.set_defaults(func=cmd_plot_data)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a bug: one line naming its type, no traceback
        message = " ".join(str(exc).splitlines())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
