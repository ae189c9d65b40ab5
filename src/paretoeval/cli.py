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
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    Direction,
    EmptySetError,
    EvaluationWarning,
    ObjectiveMeta,
    Solution,
    SolutionSet,
)
from . import indicators as ind
from .doe import (
    RunCollection,
    per_objective_stats,
    scalarize_best,
    select_representative_run,
)
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
    ClearConstraint,
    NormalizationBounds,
    PreferenceSpec,
    REF_STRATEGIES,
    RegionOfInterest,
    Removal,
    VagueClamp,
    apply_clear_preferences,
    apply_vague_preferences,
    build_reference_point,
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
    """Indicator selection and configuration fragments from the manifest."""

    indicators: tuple[str, ...] = ()
    config: IndicatorConfig = field(default_factory=IndicatorConfig)


@dataclass(frozen=True)
class Manifest:
    objectives: tuple[ObjectiveMeta, ...]
    algorithms: tuple[AlgorithmEntry, ...]
    preferences: PreferenceSpec = field(default_factory=PreferenceSpec)
    overrides: Overrides = field(default_factory=Overrides)
    output: OutputSpec = field(default_factory=OutputSpec)
    base_dir: str = "."


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ManifestError(f"unknown field(s) in {where}: {', '.join(unknown)}")


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
    screen = tuple(
        _parse_constraint(c, names, f"preferences.screen[{i}]")
        for i, c in enumerate(raw.get("screen", []))
    )
    clear = tuple(
        _parse_constraint(c, names, f"preferences.clear[{i}]")
        for i, c in enumerate(raw.get("clear", []))
    )
    vague = []
    for i, v in enumerate(raw.get("vague", [])):
        where = f"preferences.vague[{i}]"
        _require_keys(v, {"objective", "saturation", "hard_floor"}, where)
        if "objective" not in v or "saturation" not in v:
            raise ManifestError(f"{where}: needs objective and saturation")
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
                for o in roi_raw["extreme"]
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
            untransferable=bool(raw.get("untransferable", False)),
        )
    except ValueError as exc:
        raise ManifestError(f"preferences: {exc}") from exc


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Expected JSON type of each scalar override, checked before IndicatorConfig
# compares or converts the value.
_OVERRIDE_TYPES = {
    "gd_p": ("a number", _is_number),
    "grid_divisions": ("an integer", lambda v: _is_number(v) and isinstance(v, int)),
    "hv_strategy": ("a string", lambda v: isinstance(v, str)),
    "normalization": ("a string", lambda v: isinstance(v, str)),
    "ref_point": (
        "a list of numbers",
        lambda v: v is None or (isinstance(v, list) and all(map(_is_number, v))),
    ),
}


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
    indicators = tuple(raw.get("indicators", []))
    for name in indicators:
        try:
            canonical_name(name)
        except ValueError as exc:
            raise ManifestError(f"indicator_overrides: {exc}") from exc
    for key, (expected, valid) in _OVERRIDE_TYPES.items():
        if key in raw and not valid(raw[key]):
            raise ManifestError(
                f"indicator_overrides.{key}: expected {expected}, "
                f"got {json.dumps(raw[key])}"
            )
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
    return Overrides(indicators=indicators, config=config)


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
    for i, o in enumerate(raw["objectives"]):
        where = f"objectives[{i}]"
        _require_keys(o, {"name", "direction", "units", "hard_bounds"}, where)
        if "name" not in o:
            raise ManifestError(f"{where}: missing 'name'")
        try:
            objectives.append(
                ObjectiveMeta(
                    name=o["name"],
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
    for i, a in enumerate(raw["algorithms"]):
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
        algorithms.append(AlgorithmEntry(a["name"], tuple(runs)))
    if len({a.name for a in algorithms}) != len(algorithms):
        raise ManifestError("algorithm names must be unique")

    preferences = _parse_preferences(raw.get("preferences", {}), names)
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
    solutions: list[Solution] = []
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
        try:
            solutions.append(Solution(tuple(vals), id=sol_id))
        except ValueError as exc:
            raise SolutionFileError(f"{path}:{lineno}: {exc}") from exc
    if not solutions:
        warnings.warn(
            f"{path} contains a header but no solutions",
            EvaluationWarning,
            stacklevel=2,
        )
    return SolutionSet(
        name=name or path.stem, meta=tuple(meta), solutions=tuple(solutions)
    )


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
    sols = tuple(
        Solution(tuple(s.objectives[i] for i in keep), id=s.id, source=s.source)
        for s in A.solutions
    )
    return SolutionSet(A.name, meta, sols, signs=signs)


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
            if not work.solutions:
                notes.append(f"set {run_name!r} is empty after preprocessing")
            dropped_per_set = dropped  # same constraints => same candidates
            runs.append(work)
        algorithms[entry.name] = runs

    candidates = dropped_per_set or ()
    survivors = [s.objectives for runs in algorithms.values() for run in runs for s in run]
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
    kwargs = cfg.snapshot()
    kwargs["ref_point"] = cfg.ref_point
    if cli.ref_strategy:
        kwargs["hv_strategy"] = cli.ref_strategy
    if cli.ref_point:
        kwargs["ref_point"] = tuple(float(v) for v in cli.ref_point.split(","))
        kwargs["hv_strategy"] = "explicit"
    if cli.gd_p is not None:
        kwargs["gd_p"] = cli.gd_p
    if cli.grid_div is not None:
        kwargs["grid_divisions"] = cli.grid_div
    if cli.no_normalize:
        kwargs["normalization"] = "none"
    return IndicatorConfig(**kwargs)


@dataclass
class EvaluationContext:
    """Shared yardsticks for per-run indicator evaluation."""

    raw_sets: list[SolutionSet]
    norm_sets: dict[tuple[str, int], SolutionSet]  # by (algorithm, run index)
    reference_raw: SolutionSet
    reference_norm: SolutionSet | None
    bounds: NormalizationBounds | None
    ref_point: tuple[float, ...] | None


def _build_context(
    prepared: Prepared, config: IndicatorConfig, need_hv: bool
) -> EvaluationContext:
    raw_sets = prepared.all_sets
    nonempty = [s for s in raw_sets if s.solutions]
    if not nonempty:
        raise EmptySetError("every set is empty after preprocessing")
    reference_raw = build_reference_set(nonempty)
    bounds = None
    reference_norm = None
    norm_sets: dict[tuple[str, int], SolutionSet] = {}
    if config.normalization != "none":
        if config.normalization == "hard_bounds":
            bounds = NormalizationBounds.from_hard_bounds(nonempty[0])
        else:
            bounds = NormalizationBounds.from_sets(nonempty)
        normed = normalize(raw_sets, bounds)
        keys = [(a, r) for a, rs in prepared.algorithms.items() for r in range(len(rs))]
        norm_sets = dict(zip(keys, normed))
        reference_norm = build_reference_set(
            [n for r, n in zip(raw_sets, normed) if r.solutions]
        )
    ref_point = None
    if need_hv:
        ref_point = build_reference_point(
            reference_raw, config.hv_strategy, explicit=config.ref_point
        )
    return EvaluationContext(
        raw_sets=raw_sets,
        norm_sets=norm_sets,
        reference_raw=reference_raw,
        reference_norm=reference_norm,
        bounds=bounds,
        ref_point=ref_point,
    )


def _indicator_value(
    name: str,
    slot: tuple[str, int],
    run: SolutionSet,
    ctx: EvaluationContext,
    config: IndicatorConfig,
) -> float:
    key = canonical_name(name)
    if key == "nfs":
        return float(ind.nfs(run))
    if key == "unfr":
        return ind.unfr(run, ctx.raw_sets)
    if key == "hv":
        assert ctx.ref_point is not None
        return ind.hypervolume(run, ctx.ref_point)
    if key == "grid_diversity":
        values = ind.grid_diversity(
            [s for s in ctx.raw_sets if s.solutions], config.grid_divisions
        )
        live = [s for s in ctx.raw_sets if s.solutions]
        for s, v in zip(live, values):
            if s is run:
                return v
        raise EmptySetError(f"set {run.name!r} is empty")
    # Distance-based indicators use the normalized space when there is one.
    A, reference = run, ctx.reference_raw
    if config.normalization != "none" and ctx.reference_norm is not None:
        A, reference = ctx.norm_sets[slot], ctx.reference_norm
    if key == "gd":
        return ind.gd(A, reference, p=config.gd_p)
    if key == "gd_plus":
        return ind.gd_plus(A, reference)
    if key == "igd":
        return ind.igd(A, reference)
    if key == "igd_plus":
        return ind.igd_plus(A, reference)
    if key == "epsilon":
        return ind.epsilon_additive(A, reference)
    if key == "sp":
        return ind.spacing(A)
    if key == "spread":
        ordered = sorted(reference.vectors())
        return ind.spread_delta(A, [ordered[0], ordered[-1]])
    raise ValueError(f"indicator {name!r} cannot be evaluated per run")


def _config_snapshot(
    config: IndicatorConfig, ctx: EvaluationContext | None
) -> dict:
    snap = config.snapshot()
    if ctx is not None:
        snap["reference_set_size"] = len(ctx.reference_raw)
        if ctx.ref_point is not None:
            snap["reference_point"] = list(ctx.ref_point)
        if ctx.bounds is not None:
            snap["bounds_ideal"] = list(ctx.bounds.ideal)
            snap["bounds_nadir"] = list(ctx.bounds.nadir)
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


def _union_set(runs: Sequence[SolutionSet], name: str) -> SolutionSet:
    merged: list[Solution] = []
    for run in runs:
        merged.extend(run.solutions)
    return runs[0].with_solutions(tuple(merged), name=name)


# ---------------------------------------------------------------------------
# Commands


def cmd_evaluate(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    prepared = prepare(manifest)
    prefs = manifest.preferences
    m = len(manifest.objectives)
    plan = recommend(prefs, m, SetContext(set_count=len(manifest.algorithms)))

    chosen_names = args.indicator or list(manifest.overrides.indicators)
    config = _merge_config(manifest.overrides.config, args)
    if chosen_names:
        planned = [(canonical_name(n), config) for n in chosen_names]
    else:
        planned = [
            (p.name, _merge_config(p.config, args)) for p in plan.indicators
        ]

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
            values = [s.objectives[0] for run in runs for s in run.solutions]
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
        need_hv = any(n == "hv" for n, _ in unary)
        ctx = _build_context(prepared, config, need_hv)
        for alg, runs in prepared.algorithms.items():
            per_indicator: dict[str, list[float]] = {}
            for r, run in enumerate(runs):
                for name, cfg in unary:
                    if not run.solutions:
                        continue
                    value = _indicator_value(name, (alg, r), run, ctx, cfg)
                    profile = aspects_of(name)
                    results.append(
                        {
                            "algorithm": alg,
                            "run": r,
                            "indicator": name,
                            "value": value,
                            "better": profile.better,
                            "aspects": sorted(profile.aspects),
                            "config": _config_snapshot(cfg, ctx),
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
            live_runs = [r for r in runs if r.solutions]
            if len(live_runs) == 1:
                representative[alg] = runs.index(live_runs[0])
            elif live_runs and live_m >= 2:
                collection = RunCollection(alg, tuple(live_runs))
                hv_cfg = next((c for n, c in unary if n == "hv"), config)
                try:
                    representative[alg] = select_representative_run(
                        collection, "hv", hv_cfg
                    )
                except ValueError:
                    pass
        if binary and len(prepared.algorithms) == 2:
            (name_a, runs_a), (name_b, runs_b) = prepared.algorithms.items()
            set_a = _union_set(runs_a, name_a)
            set_b = _union_set(runs_b, name_b)
            if set_a.solutions and set_b.solutions:
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
                live = [r for r in runs if r.solutions]
                if not live:
                    continue
                basis = _union_set(live, alg)
                target = basis
                if ctx.bounds is not None:
                    target = normalize([basis], ctx.bounds)[0]
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
    set_a = _union_set(prepared.algorithms[first], first)
    set_b = _union_set(prepared.algorithms[second], second)
    if not set_a.solutions or not set_b.solutions:
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
    plan = recommend(
        manifest.preferences,
        len(manifest.objectives),
        SetContext(set_count=len(manifest.algorithms)),
    )
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
    chosen_names = args.indicator or list(manifest.overrides.indicators)
    if chosen_names:
        chosen = [(canonical_name(n), config) for n in chosen_names]
    else:
        plan = recommend(
            manifest.preferences, m, SetContext(set_count=len(manifest.algorithms))
        )
        chosen = [(p.name, p.config) for p in plan.indicators]
    hv_at_nadir = False
    if config.ref_point is not None and any(n == "hv" for n, _ in chosen):
        prepared = prepare(manifest)
        live = [s for s in prepared.all_sets if s.solutions]
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
            if not run.solutions:
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
    live_m = next(iter(prepared.all_sets)).m
    config = _merge_config(manifest.overrides.config, args)

    chosen_runs: dict[str, SolutionSet] = {}
    for alg, runs in prepared.algorithms.items():
        live = [r for r in runs if r.solutions]
        if not live:
            warnings.warn(
                f"algorithm {alg!r} has no surviving solutions to plot",
                EvaluationWarning,
                stacklevel=2,
            )
            chosen_runs[alg] = runs[0]
            continue
        if len(live) == 1 or live_m < 2:
            chosen_runs[alg] = live[0]
        else:
            idx = select_representative_run(RunCollection(alg, tuple(live)), "hv", config)
            chosen_runs[alg] = live[idx]

    written: list[str] = []
    if live_m <= 3:
        for alg, run in chosen_runs.items():
            path = out_dir / f"{alg}.csv"
            write_solution_set(path, run)
            written.append(str(path))
    else:
        live = [s for s in chosen_runs.values() if s.solutions]
        bounds = NormalizationBounds.from_sets(live)
        rows = ["set,solution,objective,value"]
        for alg, run in chosen_runs.items():
            normed = normalize([run], bounds)[0] if run.solutions else run
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
    except (ManifestError, SolutionFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, EmptySetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
