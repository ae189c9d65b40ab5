"""Evaluation-method selection and misuse linting.

:func:`recommend` walks a fixed decision procedure over the declared
preferences and produces a deterministic evaluation plan; :func:`lint`
checks a chosen evaluation setup against a catalogue of documented misuse
patterns.  Each lint code is stable and carries the misuse class it guards
against, so reports and CI gates can key on them.

Procedure nodes referenced in plan rationales:

P1  screen trivially useless solutions
D1  any preference information available?
D2  convergence indicator for the no-preference route
D3  diversity indicator for the no-preference route
D4  cardinality indicator for the no-preference route
D5  comprehensive indicator for the no-preference route
D6/P2  clear constraints: transfer them onto the data
D7..D9/P3  vague statements: transfer as saturation clamps
D10 weighted comprehensive evaluation (out of scope, always skipped)
D11 region-of-interest routes (knee / extreme)
D13 problem-specific indicator hook
D14 plotting recommendation
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .indicators import ASPECTS, IndicatorConfig, aspects_of, canonical_name
from .preprocess import PreferenceSpec

__all__ = [
    "SEVERITIES",
    "WARNING_CODES",
    "LintWarning",
    "PlannedIndicator",
    "PlanStep",
    "EvaluationPlan",
    "SetContext",
    "EvaluationMode",
    "aspect_coverage",
    "lint",
    "recommend",
]

SEVERITIES = ("info", "warning", "error")

# code -> (misuse class, severity, summary)
WARNING_CODES: dict[str, tuple[str | None, str, str]] = {
    "L-SSP-ONLY": (
        "I",
        "warning",
        "plotting solution sets is the only evaluation, or a scatter plot is "
        "requested for more than three objectives",
    ),
    "L-DOE-SOLE": (
        "II",
        "warning",
        "mean/median/worst per-objective statistics are the sole comparison; "
        "they can contradict the dominance relation between sets",
    ),
    "L-ASPECT-GAP": (
        "III",
        "warning",
        "with no preference information the chosen indicators leave a "
        "quality aspect uncovered",
    ),
    "L-SPREAD-DIM": (
        "III",
        "error",
        "the spread indicator is only defined for two objectives",
    ),
    "L-HV-DIM": (
        "III",
        "error",
        "exact hypervolume is defined for two to ten objectives; beyond ten "
        "it is computationally infeasible",
    ),
    "L-IGD-REFSET": (
        "III",
        "info",
        "distance-to-reference indicators assume a dense, uniformly "
        "distributed reference front; a combined front built from the "
        "evaluated sets is neither",
    ),
    "L-HV-REFPOINT": (
        "III",
        "warning",
        "a hypervolume reference at the worst observed values (or exactly at "
        "the nadir) over-rewards boundary solutions",
    ),
    "L-HV-REF-INSIDE": (
        "III",
        "error",
        "an explicit hypervolume reference point does not weakly exceed the "
        "nadir of the union front, so evaluate rejects it",
    ),
    "L-PREF-IGNORED": (
        "IV",
        "warning",
        "clear preferences are declared but never transferred onto the data",
    ),
    "L-KNEE-MISMATCH": (
        "V",
        "warning",
        "knee-region preference clashes with indicators that reward uniform "
        "coverage or pure dominance counts",
    ),
    "L-EXTREME-MISMATCH": (
        "V",
        "warning",
        "extreme-point preference clashes with indicators that reward "
        "uniform coverage of the whole front",
    ),
    "N-PSI": (
        None,
        "info",
        "consider a problem-specific indicator alongside the generic ones",
    ),
    "N-IGD-EXCLUDED": (
        "V",
        "info",
        "distance-to-reference indicators excluded: they reward uniform "
        "front coverage, which a region-of-interest preference does not want",
    ),
    "N-PLOT": (None, "info", "plotting recommendation"),
    "N-EXTREMES-SUBSTITUTED": (
        None,
        "info",
        "true front extremes unknown; combined-front extremes substituted",
    ),
    "N-RENORM-SURVIVORS": (
        None,
        "info",
        "survivor sets disagree on a best-value objective; evaluation keeps "
        "all objectives",
    ),
    "N-BINARY-SKIPPED": (
        None,
        "info",
        "pairwise indicators need exactly two algorithms, both with surviving "
        "solutions; the chosen pairwise columns were skipped",
    ),
    "N-BEST-VALUE-SKIPPED": (
        None,
        "info",
        "one objective is left after preprocessing, so the sets are compared "
        "by their best value on it; the chosen indicator columns were skipped",
    ),
}


@dataclass(frozen=True)
class LintWarning:
    """One finding: stable code, severity, misuse class, human message."""

    code: str
    severity: str
    message: str
    issue: str | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")


def _finding(code: str, detail: str | None = None) -> LintWarning:
    issue, severity, summary = WARNING_CODES[code]
    message = summary if detail is None else f"{summary} ({detail})"
    return LintWarning(code=code, severity=severity, message=message, issue=issue)


@dataclass(frozen=True)
class PlannedIndicator:
    name: str
    config: IndicatorConfig
    rationale: str


@dataclass(frozen=True)
class PlanStep:
    kind: str  # "screen" | "clear-transfer" | "vague-transfer" | "normalize"
    description: str


@dataclass(frozen=True)
class EvaluationPlan:
    """Deterministic evaluation recipe for one experiment."""

    preprocessing: tuple[PlanStep, ...]
    indicators: tuple[PlannedIndicator, ...]
    doe_steps: tuple[str, ...]
    plotting: str
    warnings: tuple[LintWarning, ...]


@dataclass(frozen=True)
class SetContext:
    """What the planner may assume about the data without seeing it."""

    set_count: int = 2

    def __post_init__(self) -> None:
        if self.set_count < 1:
            raise ValueError("set_count must be at least 1")


@dataclass(frozen=True)
class EvaluationMode:
    """How an evaluation is conducted, for lint purposes."""

    plotting_only: bool = False
    scatter_requested: bool = False
    doe_only: bool = False
    doe_stats: tuple[str, ...] = ()
    clear_transfer_planned: bool = True
    combined_front_reference: bool = True
    hv_ref_at_nadir: bool = False
    hv_ref_inside: bool = False


def aspect_coverage(names: Sequence[str]) -> dict[str, str]:
    """Union of quality aspects covered by the named indicators.

    Maps each covered aspect to "+" (some indicator reflects it fully) or
    "-" (only partial coverage); aspects no indicator touches are absent.
    """
    merged: dict[str, str] = {}
    for name in names:
        for aspect, grade in aspects_of(name).aspects.items():
            if grade == "+" or aspect not in merged:
                merged[aspect] = grade
    return merged


def lint(
    chosen: Sequence[tuple[str, IndicatorConfig]],
    prefs: PreferenceSpec,
    m: int,
    mode: EvaluationMode | None = None,
) -> list[LintWarning]:
    """Check an evaluation setup against the documented misuse patterns.

    ``chosen`` holds the indicators the experimenter intends to report (with
    their configurations); ``mode`` describes everything else about the
    setup that matters: whether plots or summary statistics stand alone,
    whether declared clear preferences are actually transferred, and what
    reference material the distance indicators use.
    """
    mode = mode or EvaluationMode()
    if m < 1:
        raise ValueError("m must be positive")
    names = [canonical_name(name) for name, _ in chosen]
    findings: list[LintWarning] = []

    if mode.plotting_only or (mode.scatter_requested and _plot_kind(m) != "scatter"):
        detail = (
            "plotting is the sole evaluation method"
            if mode.plotting_only
            else f"scatter plot requested for m={m}"
        )
        findings.append(_finding("L-SSP-ONLY", detail))

    misleading_stats = tuple(
        s for s in mode.doe_stats if s in ("mean", "median", "worst")
    )
    if mode.doe_only and misleading_stats:
        findings.append(_finding("L-DOE-SOLE", ", ".join(misleading_stats)))

    if prefs.is_empty() and not mode.plotting_only and not mode.doe_only:
        covered = aspect_coverage(names)
        missing = [a for a in ASPECTS if a not in covered]
        if missing:
            findings.append(_finding("L-ASPECT-GAP", "missing " + ", ".join(missing)))

    for name, code in (("spread", "L-SPREAD-DIM"), ("hv", "L-HV-DIM")):
        if name in names and m not in aspects_of(name).objectives:
            findings.append(_finding(code, f"m={m}"))

    if mode.combined_front_reference and any(
        n in names for n in ("igd", "igd_plus", "spread")
    ):
        findings.append(_finding("L-IGD-REFSET"))

    for name, config in chosen:
        if canonical_name(name) == "hv" and (
            config.hv_strategy == "worst_values" or mode.hv_ref_at_nadir
        ):
            findings.append(_finding("L-HV-REFPOINT", config.hv_strategy))
            break
    if "hv" in names and mode.hv_ref_inside:
        findings.append(_finding("L-HV-REF-INSIDE"))

    if prefs.clear and not mode.clear_transfer_planned:
        findings.append(_finding("L-PREF-IGNORED"))

    if prefs.roi is not None and prefs.roi.kind == "knee":
        clash = sorted(set(names) & {"igd", "gd", "ci"})
        if clash:
            findings.append(_finding("L-KNEE-MISMATCH", ", ".join(clash)))
    if prefs.roi is not None and prefs.roi.kind == "extreme":
        if "igd" in names:
            findings.append(_finding("L-EXTREME-MISMATCH", "igd"))

    return findings


def _general_indicators(m: int, context: SetContext) -> list[PlannedIndicator]:
    """No-preference route: convergence, diversity, cardinality, and a
    comprehensive indicator."""
    config = IndicatorConfig()
    chosen = [
        PlannedIndicator(
            "gd_plus",
            config,
            "D2: dominance-compliant convergence measure",
        )
    ]
    if context.set_count == 2:
        chosen.append(
            PlannedIndicator(
                "ci",
                config,
                "D2: two sets, so also report their pairwise dominance share",
            )
        )
    if m in aspects_of("spread").objectives:
        chosen.append(
            PlannedIndicator(
                "spread",
                config,
                "D3: spread and uniformity in two objectives",
            )
        )
    else:
        chosen.append(
            PlannedIndicator(
                "grid_diversity",
                config,
                "D3: grid-based diversity beyond two objectives",
            )
        )
    chosen.append(
        PlannedIndicator("unfr", config, "D4: cardinality against the union front")
    )
    chosen.append(
        PlannedIndicator(
            "hv",
            config,
            "D5: comprehensive indicator covering all four aspects",
        )
    )
    return chosen


def recommend(
    prefs: PreferenceSpec,
    m: int,
    context: SetContext | None = None,
) -> EvaluationPlan:
    """Produce an evaluation plan for the declared preferences.

    The plan is a pure function of the preference specification, the
    declared objective count ``m``, and the set context; it self-lints
    before being returned and embeds the findings (notes included) in
    ``warnings``.  Without the data, each ``exactly_best`` constraint is
    predicted to drop its objective.
    """
    live_m = m - len(prefs.best_value_objectives)
    return _plan(prefs, m, live_m, context or SetContext())


def _route(prefs: PreferenceSpec, live_m: int) -> str:
    """The procedure's branch for ``live_m`` objectives left after the
    transfers: ``best-value`` for one, ``scalarize`` with weights, ``knee``
    or ``extreme`` with a region of interest, else ``general``.
    Untransferable preferences take the general route."""
    if live_m == 1:
        return "best-value"
    if prefs.untransferable:
        return "general"
    if prefs.weights is not None:
        return "scalarize"
    return prefs.roi.kind if prefs.roi is not None else "general"


def _plot_kind(m: int) -> str:
    """D14: a scatter plot for up to three objectives, else parallel
    coordinates."""
    return "scatter" if m <= 3 else "parallel-coordinates"


def _plan(
    prefs: PreferenceSpec, m: int, live_m: int, context: SetContext
) -> EvaluationPlan:
    """The plan for ``live_m`` objectives evaluated out of ``m`` declared."""
    if m < 2:
        raise ValueError("planning needs at least two objectives")
    if live_m < 1:
        raise ValueError("clear constraints require best values on every objective")

    steps: list[PlanStep] = []
    plan_notes: list[LintWarning] = []
    doe_steps: list[str] = []
    indicators: list[PlannedIndicator] = []

    if prefs.screen:
        steps.append(
            PlanStep("screen", "P1: drop trivially useless solutions before judging")
        )

    if prefs.clear:
        steps.append(
            PlanStep(
                "clear-transfer",
                "P2: filter by the hard constraints, then judge survivors",
            )
        )

    if prefs.vague:
        steps.append(
            PlanStep(
                "vague-transfer",
                "P3: clamp beyond-saturation values, drop below-floor solutions",
            )
        )

    route = _route(prefs, live_m)
    if route == "best-value":
        doe_steps.append(
            "best: compare the best surviving value on the remaining objective"
        )
    elif route == "scalarize":
        doe_steps.append(
            "scalarize: rank sets by their best weighted-sum solution"
        )
    elif route == "knee":
        indicators.append(
            PlannedIndicator(
                "hv",
                IndicatorConfig(hv_strategy="nadir_plus_tenth"),
                "D11: knee preference; hypervolume with a nearby reference "
                "point concentrates credit around balanced solutions",
            )
        )
        plan_notes.append(_finding("N-IGD-EXCLUDED", "knee preference"))
    elif route == "extreme":
        indicators.append(
            PlannedIndicator(
                "hv",
                IndicatorConfig(hv_strategy="doubled_range"),
                "D11: extreme-point preference; a distant reference point "
                "amplifies credit for boundary solutions",
            )
        )
        doe_steps.append("best: report per-objective best values")
    else:
        indicators.extend(_general_indicators(live_m, context))

    if any(aspects_of(p.name).needs_normalization for p in indicators):
        steps.append(
            PlanStep("normalize", "scale objectives to comparable ranges")
        )

    plotting = _plot_kind(live_m)
    plan_notes.append(_finding("N-PLOT", f"D14: {plotting} for m={live_m}"))
    plan_notes.append(_finding("N-PSI", "D13"))
    if any(p.name == "spread" for p in indicators):
        plan_notes.append(_finding("N-EXTREMES-SUBSTITUTED"))

    self_findings = lint([(p.name, p.config) for p in indicators], prefs, live_m)
    return EvaluationPlan(
        preprocessing=tuple(steps),
        indicators=tuple(indicators),
        doe_steps=tuple(doe_steps),
        plotting=plotting,
        warnings=tuple(self_findings) + tuple(plan_notes),
    )

