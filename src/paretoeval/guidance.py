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

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

from .indicators import ASPECTS, IndicatorConfig, aspects_of, canonical_name
from .preprocess import PreferenceSpec

__all__ = [
    "SEVERITIES",
    "WARNING_CODES",
    "LintWarning",
    "PlannedIndicator",
    "PlanStep",
    "EvaluationPlan",
    "aspect_coverage",
    "lint",
    "recommend",
]

SEVERITIES = ("info", "warning", "error")

# code -> (misuse class, severity, summary)
WARNING_CODES: dict[str, tuple[str | None, str, str]] = {
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
    "L-HV-REF-INSIDE": ("III", "error", "evaluate finds the hv point inside the front"),
    "L-HV-REF-INVALID": ("III", "error", "evaluate rejects the explicit hv point"),
    "L-NO-HARD-BOUNDS": ("III", "error", "evaluate cannot read the hard bounds"),
    "L-RUN-TOO-SMALL": (
        "III",
        "error",
        "a chosen indicator needs more solutions than a run keeps after "
        "preprocessing, so evaluate rejects it",
    ),
    "L-ALL-EMPTY": (None, "error", "evaluate has no solution left to evaluate"),
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

    @property
    def config(self) -> IndicatorConfig:
        """The config the planned indicators share; the default without any."""
        return self.indicators[0].config if self.indicators else IndicatorConfig()


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
    chosen: Sequence[str],
    config: IndicatorConfig,
    prefs: PreferenceSpec,
    m: int,
    *,
    hv_ref_at_nadir: bool = False,
) -> list[LintWarning]:
    """Check an evaluation setup against the documented misuse patterns.

    ``chosen`` names the indicators the experimenter intends to report on
    ``m`` objectives, all computed under ``config``, the distance indicators
    against the combined front of the evaluated sets; ``hv_ref_at_nadir``
    says that the explicit hv reference point lies exactly at that front's
    nadir.  Statistics as the sole comparison (misuse II) are flagged by the
    ``stats`` command that computes them, not here.
    """
    if m < 1:
        raise ValueError("m must be positive")
    names = [canonical_name(name) for name in chosen]
    findings: list[LintWarning] = []

    if prefs.is_empty():
        covered = aspect_coverage(names)
        missing = [a for a in ASPECTS if a not in covered]
        if missing:
            findings.append(_finding("L-ASPECT-GAP", "missing " + ", ".join(missing)))

    for name, code in (("spread", "L-SPREAD-DIM"), ("hv", "L-HV-DIM")):
        if name in names and m not in aspects_of(name).objectives:
            findings.append(_finding(code, f"m={m}"))

    if any(n in names for n in ("igd", "igd_plus", "spread")):
        findings.append(_finding("L-IGD-REFSET"))

    if "hv" in names and (config.hv_strategy == "worst_values" or hv_ref_at_nadir):
        findings.append(_finding("L-HV-REFPOINT", config.hv_strategy))

    if prefs.roi is not None:
        region = _REGIONS[prefs.roi.kind]
        clash = sorted(set(names).intersection(region.clashes))
        if clash:
            findings.append(_finding(region.finding, ", ".join(clash)))

    return findings


class _Region(NamedTuple):
    """A region-of-interest route (D11): the finding for the indicators it
    clashes with, those indicators, and its hv's strategy, rationale and notes."""

    finding: str
    clashes: tuple[str, ...]
    hv_strategy: str
    rationale: str
    notes: tuple[tuple[str, str], ...] = ()


_REGIONS = {
    "knee": _Region(
        "L-KNEE-MISMATCH", ("igd", "gd", "ci"), "nadir_plus_tenth",
        "D11: knee preference; hypervolume with a nearby reference "
        "point concentrates credit around balanced solutions",
        (("N-IGD-EXCLUDED", "knee preference"),),
    ),
    "extreme": _Region(
        "L-EXTREME-MISMATCH", ("igd",), "doubled_range",
        "D11: extreme-point preference; a distant reference point "
        "amplifies credit for boundary solutions",
    ),
}

# P1-P3 in plan order: the preference field that asks for each, its step
# kind and its description.
_TRANSFERS = (
    ("screen", "screen", "P1: drop trivially useless solutions before judging"),
    ("clear", "clear-transfer",
     "P2: filter by the hard constraints, then judge survivors"),
    ("vague", "vague-transfer",
     "P3: clamp beyond-saturation values, drop below-floor solutions"),
)

# The doe steps of each route that has any.  On best-value and scalarize
# they are the whole judgement: those routes plan no indicator.
_DOE_STEPS = {
    "best-value": (
        "best: compare the best surviving value on the remaining objective",
    ),
    "scalarize": ("scalarize: rank sets by their best weighted-sum solution",),
    "extreme": ("best: report per-objective best values",),
}


def _general_indicators(m: int, set_count: int) -> list[PlannedIndicator]:
    """No-preference route: convergence, diversity, cardinality, and a
    comprehensive indicator, hv where it is defined, else additive ε."""
    picks = [("gd_plus", "D2: dominance-compliant convergence measure")]
    if set_count == 2:
        share = "D2: two sets, so also report their pairwise dominance share"
        picks.append(("ci", share))
    if m in aspects_of("spread").objectives:
        picks.append(("spread", "D3: spread and uniformity in two objectives"))
    else:
        grid = "D3: grid-based diversity beyond two objectives"
        picks.append(("grid_diversity", grid))
    picks.append(("unfr", "D4: cardinality against the union front"))
    if m in aspects_of("hv").objectives:
        picks.append(("hv", "D5: comprehensive indicator covering all four aspects"))
    else:
        d5 = "D5: dominance-compliant comprehensive indicator where hv is undefined"
        picks.append(("epsilon", d5))
    config = IndicatorConfig()
    return [PlannedIndicator(name, config, why) for name, why in picks]


def recommend(
    prefs: PreferenceSpec,
    m: int,
    set_count: int = 2,
) -> EvaluationPlan:
    """Produce an evaluation plan for the declared preferences.

    The plan is a pure function of the preference specification, the
    declared objective count ``m``, and the number of sets compared,
    ``set_count``; it self-lints before being returned and embeds the
    findings (notes included) in ``warnings``.  Without the data, each
    ``exactly_best`` constraint is predicted to drop its objective.
    """
    live_m = m - len(prefs.best_value_objectives)
    return _plan(prefs, m, live_m, set_count)


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
    prefs: PreferenceSpec, m: int, live_m: int, set_count: int
) -> EvaluationPlan:
    """The plan for ``live_m`` objectives evaluated out of ``m`` declared,
    for ``set_count`` sets."""
    if set_count < 1:
        raise ValueError("set_count must be at least 1")
    if m < 2:
        raise ValueError("planning needs at least two objectives")
    if live_m < 1:
        raise ValueError("clear constraints require best values on every objective")

    steps = [
        PlanStep(kind, why) for key, kind, why in _TRANSFERS if getattr(prefs, key)
    ]
    route = _route(prefs, live_m)
    region = _REGIONS.get(route)
    indicators, plan_notes = [], []
    if region is not None and live_m in aspects_of("hv").objectives:
        config = IndicatorConfig(hv_strategy=region.hv_strategy)
        indicators = [PlannedIndicator("hv", config, region.rationale)]
        plan_notes = [_finding(*note) for note in region.notes]
    elif route not in ("best-value", "scalarize"):  # those judge by doe steps only
        # The general picks, less a region's clashes where hv is undefined.
        clashing = region.clashes if region is not None else ()
        general = _general_indicators(live_m, set_count)
        indicators = [p for p in general if p.name not in clashing]

    if any(aspects_of(p.name).needs_normalization for p in indicators):
        steps.append(PlanStep("normalize", "scale objectives to comparable ranges"))

    plotting = _plot_kind(live_m)
    plan_notes.append(_finding("N-PLOT", f"D14: {plotting} for m={live_m}"))
    plan_notes.append(_finding("N-PSI", "D13"))
    if any(p.name == "spread" for p in indicators):
        plan_notes.append(_finding("N-EXTREMES-SUBSTITUTED"))

    plan = EvaluationPlan(
        preprocessing=tuple(steps),
        indicators=tuple(indicators),
        doe_steps=_DOE_STEPS.get(route, ()),
        plotting=plotting,
        warnings=tuple(plan_notes),
    )
    self_findings = lint([p.name for p in indicators], plan.config, prefs, live_m)
    return replace(plan, warnings=tuple(self_findings) + plan.warnings)

