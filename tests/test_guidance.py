"""Plan recommendation and misuse linting."""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from paretoeval import guidance
from paretoeval import (
    ASPECTS,
    EXACTLY_BEST,
    SEVERITIES,
    WARNING_CODES,
    ClearConstraint,
    IndicatorConfig,
    LintWarning,
    PreferenceSpec,
    RegionOfInterest,
    VagueClamp,
    aspect_coverage,
    hypervolume,
    lint,
    recommend,
    spread_delta,
)
from paretoeval.cli import EXIT_WARNINGS, main
from paretoeval.indicators import _PROFILES
from conftest import KNEE_A, KNEE_B, make_set
from test_cli import MIN_2D, write_manifest

CFG = IndicatorConfig()


def chosen(*names, **overrides):
    """The names and the one config ``lint`` takes."""
    return list(names), IndicatorConfig(**overrides) if overrides else CFG


NO_PREFS = PreferenceSpec()
KNEE = PreferenceSpec(roi=RegionOfInterest("knee"))
EXTREME = PreferenceSpec(roi=RegionOfInterest("extreme", objectives=(0,)))
ONE_BEST = PreferenceSpec(
    clear=(ClearConstraint(1, EXACTLY_BEST),)
)
CAPACITY_CLAMP = PreferenceSpec(
    vague=(VagueClamp(objective=1, saturation=3000, hard_floor=1500),)
)
WEIGHTED = PreferenceSpec(weights=(0.7, 0.3))


def codes(findings, min_severity="info"):
    rank = {s: i for i, s in enumerate(SEVERITIES)}
    floor = rank[min_severity]
    return {f.code for f in findings if rank[f.severity] >= floor}


class TestAspectCoverage:
    def test_comprehensive_indicator_alone(self):
        covered = aspect_coverage(["hv"])
        assert set(covered) == set(ASPECTS)
        assert covered["uniformity"] == "-"
        assert covered["convergence"] == "+"

    def test_three_way_combination_fills_gaps(self):
        covered = aspect_coverage(["gd_plus", "spread", "unfr"])
        assert covered == {
            "convergence": "+",
            "spread": "+",
            "uniformity": "+",
            "cardinality": "+",
        }

    def test_full_grade_wins_over_partial(self):
        assert aspect_coverage(["igd", "sp"])["uniformity"] == "+"

    def test_empty_selection(self):
        assert aspect_coverage([]) == {}

    def test_accepts_aliases(self):
        assert set(aspect_coverage(["hypervolume"])) == set(ASPECTS)


def _findings(directory, command):
    """The findings of ``command``'s report on a two-algorithm manifest,
    and its exit status."""
    path = write_manifest(directory, MIN_2D, {"alpha": [KNEE_A], "beta": [KNEE_B]})
    out = directory / f"{command}.json"
    status = main([command, "--manifest", str(path), "--out", str(out)])
    return [LintWarning(**f) for f in json.loads(out.read_text())["findings"]], status


class TestLintRules:
    def test_doe_sole_with_misleading_stat(self, tmp_path, capsys):
        # stats reports per-objective statistics and nothing else.
        out, status = _findings(tmp_path, "stats")
        assert codes(out) == {"L-DOE-SOLE"}
        assert status == EXIT_WARNINGS
        finding = out[0]
        assert finding.issue == "II"
        assert "mean" in finding.message

    def test_doe_best_statistic_is_safe(self, tmp_path, capsys):
        # stats also reports the best value; the finding names the others.
        (finding,), _ = _findings(tmp_path, "stats")
        assert finding.message.endswith("(mean, median, worst)")

    def test_doe_alongside_indicators_is_fine(self, tmp_path, capsys):
        # evaluate reports indicators beside its statistics; lint checks it.
        for command in ("evaluate", "lint"):
            out, _ = _findings(tmp_path, command)
            assert out and "L-DOE-SOLE" not in codes(out)

    def test_aspect_gap_without_preferences(self):
        out = lint(*chosen("gd_plus"), NO_PREFS, 2)
        gap = next(f for f in out if f.code == "L-ASPECT-GAP")
        assert gap.severity == "warning"
        assert gap.issue == "III"
        for aspect in ("spread", "uniformity", "cardinality"):
            assert aspect in gap.message

    def test_no_aspect_gap_with_preferences(self):
        assert "L-ASPECT-GAP" not in codes(lint(*chosen("gd_plus"), KNEE, 2))

    def test_no_aspect_gap_when_covered(self):
        out = lint(*chosen("gd_plus", "spread", "unfr"), NO_PREFS, 2)
        assert "L-ASPECT-GAP" not in codes(out)

    def test_spread_dimension_error(self):
        out = lint(*chosen("spread"), KNEE, 3)
        finding = next(f for f in out if f.code == "L-SPREAD-DIM")
        assert finding.severity == "error"
        assert "m=3" in finding.message
        assert "L-SPREAD-DIM" not in codes(lint(*chosen("spread"), KNEE, 2))

    def test_hv_dimension_error(self):
        out = lint(*chosen("hv"), KNEE, 11)
        finding = next(f for f in out if f.code == "L-HV-DIM")
        assert finding.severity == "error"
        assert "L-HV-DIM" not in codes(lint(*chosen("hv"), KNEE, 10))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_dimension_findings_match_where_the_indicators_raise(self, m):
        found = codes(lint(*chosen("spread", "hv"), KNEE, m))
        A = make_set("A", [tuple(range(m))])
        for code, defined, compute in (
            ("L-SPREAD-DIM", range(2, 3), lambda: spread_delta(A, [(0, 1), (1, 0)])),
            ("L-HV-DIM", range(2, 11), lambda: hypervolume(A, [m] * m)),
        ):
            assert (code in found) == (m not in defined)
            if m in defined:
                compute()
            else:
                with pytest.raises(ValueError):
                    compute()

    def test_igd_against_combined_front(self):
        out = lint(*chosen("igd"), KNEE, 4)
        finding = next(f for f in out if f.code == "L-IGD-REFSET")
        assert finding.severity == "info"
        assert finding.issue == "III"
        # Every distance-to-reference indicator reads the combined front.
        flagged = {
            n for n in _PROFILES if "L-IGD-REFSET" in codes(lint([n], CFG, KNEE, 2))
        }
        assert flagged == {"igd", "igd_plus", "spread"}

    def test_spread_uses_reference_extremes_too(self):
        out = lint(*chosen("spread"), KNEE, 2)
        assert "L-IGD-REFSET" in codes(out)

    def test_hv_reference_at_worst_values(self):
        out = lint(*chosen("hv", hv_strategy="worst_values"), KNEE, 2)
        finding = next(f for f in out if f.code == "L-HV-REFPOINT")
        assert finding.severity == "warning"
        assert "worst_values" in finding.message

    def test_hv_reference_at_exact_nadir(self):
        out = lint(*chosen("hv", hv_strategy="explicit", ref_point=(1.0, 1.0)),
                   KNEE, 2, hv_ref_at_nadir=True)
        assert "L-HV-REFPOINT" in codes(out)

    def test_hv_reference_beyond_nadir_is_fine(self):
        out = lint(*chosen("hv"), KNEE, 2)
        assert "L-HV-REFPOINT" not in codes(out)

    def test_knee_clashes(self):
        out = lint(*chosen("igd", "gd", "ci", "hv"), KNEE, 2)
        finding = next(f for f in out if f.code == "L-KNEE-MISMATCH")
        assert finding.issue == "V"
        assert "ci" in finding.message
        assert "gd" in finding.message
        assert "igd" in finding.message
        assert "L-KNEE-MISMATCH" not in codes(lint(*chosen("hv"), KNEE, 2))

    def test_extreme_clashes_with_igd(self):
        out = lint(*chosen("igd"), EXTREME, 2)
        assert "L-EXTREME-MISMATCH" in codes(out)
        assert "L-EXTREME-MISMATCH" not in codes(lint(*chosen("hv"), EXTREME, 2))

    def test_objective_count_validated(self):
        with pytest.raises(ValueError):
            lint(*chosen("hv"), NO_PREFS, 0)

    def test_severity_values_validated(self):
        with pytest.raises(ValueError):
            LintWarning(code="X", severity="fatal", message="nope")

    def test_warning_code_table_is_well_formed(self):
        for code, (issue, severity, summary) in WARNING_CODES.items():
            assert severity in SEVERITIES
            assert issue in (None, "I", "II", "III", "IV", "V")
            assert summary
            assert code.startswith(("L-", "N-"))


class TestRecommendGeneralRoute:
    def test_two_objectives_two_sets(self):
        plan = recommend(NO_PREFS, 2)
        names = [p.name for p in plan.indicators]
        assert names == ["gd_plus", "ci", "spread", "unfr", "hv"]
        hv = plan.indicators[-1]
        assert hv.config.hv_strategy == "nadir_plus_tenth"
        assert plan.plotting == "scatter"
        assert plan.doe_steps == ()
        kinds = [s.kind for s in plan.preprocessing]
        assert kinds == ["normalize"]

    def test_aspects_fully_covered(self):
        plan = recommend(NO_PREFS, 2)
        covered = aspect_coverage([p.name for p in plan.indicators])
        assert set(covered) == set(ASPECTS)

    def test_four_objectives_swap_diversity_measure(self):
        plan = recommend(NO_PREFS, 4)
        names = [p.name for p in plan.indicators]
        assert "spread" not in names
        assert "grid_diversity" in names
        assert plan.plotting == "parallel-coordinates"

    def test_beyond_ten_objectives_swap_comprehensive_measure(self):
        # hv is defined up to ten objectives; beyond, additive ε stands in.
        assert [p.name for p in recommend(NO_PREFS, 10).indicators][-1] == "hv"
        names = [p.name for p in recommend(NO_PREFS, 11).indicators]
        assert names == ["gd_plus", "ci", "grid_diversity", "unfr", "epsilon"]

    def test_three_sets_drop_pairwise_share(self):
        plan = recommend(NO_PREFS, 2, set_count=3)
        assert "ci" not in [p.name for p in plan.indicators]

    def test_untransferable_falls_back(self):
        marked = PreferenceSpec(roi=RegionOfInterest("knee"), untransferable=True)
        plan = recommend(marked, 2)
        assert [p.name for p in plan.indicators] == [
            "gd_plus",
            "ci",
            "spread",
            "unfr",
            "hv",
        ]

    def test_screening_step_leads(self):
        spec = PreferenceSpec(screen=(ClearConstraint(0, "at_most", 100),))
        plan = recommend(spec, 2)
        assert plan.preprocessing[0].kind == "screen"

    def test_front_extremes_note_only_with_spread(self):
        assert "N-EXTREMES-SUBSTITUTED" in codes(recommend(NO_PREFS, 2).warnings)
        assert "N-EXTREMES-SUBSTITUTED" not in codes(recommend(NO_PREFS, 4).warnings)

    def test_single_objective_rejected(self):
        with pytest.raises(ValueError):
            recommend(NO_PREFS, 1)


class TestRoute:
    """One route choice serves the planner and the commands."""

    @pytest.mark.parametrize(
        "prefs, live_m, route",
        [
            (NO_PREFS, 2, "general"),
            (ONE_BEST, 1, "best-value"),
            (WEIGHTED, 1, "best-value"),
            (WEIGHTED, 2, "scalarize"),
            (KNEE, 3, "knee"),
            (EXTREME, 2, "extreme"),
            (CAPACITY_CLAMP, 2, "general"),
            (PreferenceSpec(weights=(0.7, 0.3), untransferable=True), 2, "general"),
            (replace(KNEE, untransferable=True), 2, "general"),
        ],
    )
    def test_routes(self, prefs, live_m, route):
        assert guidance._route(prefs, live_m) == route


class TestRecommendPreferenceRoutes:
    def test_all_but_one_objective_fixed(self):
        plan = recommend(ONE_BEST, 2)
        assert plan.indicators == ()
        assert any(step.startswith("best:") for step in plan.doe_steps)
        assert [s.kind for s in plan.preprocessing] == ["clear-transfer"]
        assert plan.plotting == "scatter"

    def test_every_objective_fixed_rejected(self):
        spec = PreferenceSpec(
            clear=(
                ClearConstraint(0, EXACTLY_BEST),
                ClearConstraint(1, EXACTLY_BEST),
            )
        )
        with pytest.raises(ValueError):
            recommend(spec, 2)

    def test_threshold_constraints_keep_all_objectives(self):
        spec = PreferenceSpec(clear=(ClearConstraint(0, "at_most", 400),))
        plan = recommend(spec, 2)
        assert [p.name for p in plan.indicators] == [
            "gd_plus",
            "ci",
            "spread",
            "unfr",
            "hv",
        ]
        assert [s.kind for s in plan.preprocessing] == [
            "clear-transfer",
            "normalize",
        ]

    def test_vague_transfer_then_general(self):
        plan = recommend(CAPACITY_CLAMP, 2)
        assert [s.kind for s in plan.preprocessing] == [
            "vague-transfer",
            "normalize",
        ]
        assert [p.name for p in plan.indicators] == [
            "gd_plus",
            "ci",
            "spread",
            "unfr",
            "hv",
        ]

    def test_knee_route(self):
        plan = recommend(KNEE, 2)
        assert [p.name for p in plan.indicators] == ["hv"]
        assert plan.indicators[0].config.hv_strategy == "nadir_plus_tenth"
        assert plan.doe_steps == ()
        assert "N-IGD-EXCLUDED" in codes(plan.warnings)

    def test_extreme_route(self):
        plan = recommend(EXTREME, 2)
        assert [p.name for p in plan.indicators] == ["hv"]
        assert plan.indicators[0].config.hv_strategy == "doubled_range"
        assert any(step.startswith("best:") for step in plan.doe_steps)

    def test_weights_route(self):
        plan = recommend(WEIGHTED, 2)
        assert plan.indicators == ()
        assert any(step.startswith("scalarize:") for step in plan.doe_steps)

    def test_clamp_then_knee(self):
        spec = PreferenceSpec(
            vague=(VagueClamp(0, saturation=10, hard_floor=20),),
            roi=RegionOfInterest("knee"),
        )
        plan = recommend(spec, 2)
        assert [s.kind for s in plan.preprocessing] == ["vague-transfer"]
        assert [p.name for p in plan.indicators] == ["hv"]


class TestPlanHygiene:
    SPECS = [NO_PREFS, KNEE, EXTREME, ONE_BEST, CAPACITY_CLAMP, WEIGHTED]

    def test_plans_are_deterministic(self):
        for spec, m in itertools.product(self.SPECS, (2, 3, 5)):
            assert recommend(spec, m) == recommend(spec, m)

    def test_plans_never_self_flag(self):
        """Every recommended plan passes its own lint at warning level."""
        # Beyond ten objectives hv is undefined, also for knee and extreme.
        beyond_hv = [NO_PREFS, ONE_BEST, CAPACITY_CLAMP, KNEE, EXTREME]
        cases = [*itertools.product(self.SPECS, (2, 3, 4, 10))]
        cases += itertools.product(beyond_hv, (11, 12))
        for (spec, m), set_count in itertools.product(cases, (1, 2, 3)):
            plan = recommend(spec, m, set_count)
            flagged = {
                f.code
                for f in plan.warnings
                if f.severity != "info" and f.issue in ("III", "IV", "V")
            }
            assert not flagged, (spec, m, set_count, flagged)

    def test_plan_names_resolve_and_note_codes_are_known(self):
        for spec, m in itertools.product(self.SPECS, (2, 4)):
            plan = recommend(spec, m)
            for f in plan.warnings:
                assert f.code in WARNING_CODES
            assert plan.plotting in ("scatter", "parallel-coordinates")

    def test_plot_note_always_present(self):
        for spec in self.SPECS:
            assert "N-PLOT" in codes(recommend(spec, 2).warnings)

    def test_general_plans_name_a_compliant_indicator(self):
        from paretoeval import aspects_of

        for spec in (NO_PREFS, CAPACITY_CLAMP, KNEE, EXTREME):
            plan = recommend(spec, 2)
            assert any(
                aspects_of(p.name).compliant == "+" for p in plan.indicators
            )


class TestConsistencyChecks:
    """A contradictory spec is rejected when it is built, before any plan."""

    def test_clamp_below_at_least_threshold(self):
        with pytest.raises(ValueError, match="at_least"):
            PreferenceSpec(
                clear=(ClearConstraint(1, "at_least", 0.8),),
                vague=(VagueClamp(1, saturation=0.5, hard_floor=0.2),),
            )

    def test_clamp_above_at_most_threshold(self):
        with pytest.raises(ValueError, match="at_most"):
            PreferenceSpec(
                clear=(ClearConstraint(0, "at_most", 100),),
                vague=(VagueClamp(0, saturation=150, hard_floor=200),),
            )

    def test_compatible_clamp_and_threshold(self):
        spec = PreferenceSpec(
            clear=(ClearConstraint(1, "at_least", 0.4),),
            vague=(VagueClamp(1, saturation=0.9, hard_floor=0.5),),
        )
        plan = recommend(spec, 2)
        assert plan.preprocessing[0].kind == "clear-transfer"


def _readme_table(header):
    """The cells of each row of the README table under ``header``."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.split("|")[1:-1]])
    return rows


def test_readme_lists_every_warning_code_with_its_severity():
    """The README's finding table names exactly the codes and severities of
    ``WARNING_CODES``."""
    listed = {
        code.strip("`"): severity
        for code, severity, _ in _readme_table("| Code | Severity | Fires when |")
    }
    assert listed == {code: sev for code, (_, sev, _) in WARNING_CODES.items()}


def test_readme_indicator_table_matches_the_profiles():
    """Each row of the README's indicator table states its profile's
    aspects and grades, compliance, direction and objective counts."""
    header = (
        "| Name | Aspects (+ full, − partial) | Dominance-compliant | Better "
        "| Objectives |"
    )
    compliance = {"yes": "+", "conditionally": "-", "no": None}
    listed = {}
    for name, aspects, compliant, better, objectives in _readme_table(header):
        low, _, high = objectives.partition("–")
        domain = (
            range(1, sys.maxsize)
            if low == "any"
            else range(int(low), int(high or low) + 1)
        )
        listed[name.split("`")[1]] = (
            {a[:-1]: "+" if a[-1] == "+" else "-" for a in aspects.split(", ")},
            compliance[compliant],
            better,
            domain,
        )
    assert listed == {
        name: (dict(p.aspects), p.compliant, p.better, p.objectives)
        for name, p in _PROFILES.items()
    }


# Each route case of the planner: (prefs, m, live_m, set_count), and the
# sha256 of ``repr(asdict(plan))``, recorded before the planner's transfer,
# doe and region choices became table rows.
PLAN_CASES = {
    **{
        f"general-m{m}-sets{sets}": (NO_PREFS, m, m, sets)
        for m in (2, 3, 11)
        for sets in (1, 2, 3)
    },
    "knee-m3": (KNEE, 3, 3, 2),
    "extreme-m3": (EXTREME, 3, 3, 2),
    "knee-m11": (KNEE, 11, 11, 2),
    "extreme-m11": (EXTREME, 11, 11, 2),
    "scalarize": (WEIGHTED, 2, 2, 2),
    "best-value": (ONE_BEST, 2, 1, 2),
    "untransferable": (replace(KNEE, untransferable=True), 2, 2, 2),
    "p1-screen": (PreferenceSpec(screen=(ClearConstraint(0, "at_most", 100),)), 2, 2, 2),
    "p2-clear": (PreferenceSpec(clear=(ClearConstraint(0, "at_most", 400),)), 3, 3, 2),
    "p3-vague": (CAPACITY_CLAMP, 2, 2, 2),
    "p1-p3-knee": (
        PreferenceSpec(
            screen=(ClearConstraint(0, "at_most", 125),),
            clear=(ClearConstraint(1, "at_most", 115),),
            vague=(VagueClamp(3, saturation=5, hard_floor=120),),
            roi=RegionOfInterest("knee"),
        ),
        5, 5, 2,
    ),
}

PLAN_SHA256 = {
    "general-m2-sets1": "0b59adea84d7986f985897131cdf7bc77bbc9743010649d6d3e0b593711a2a7d",
    "general-m2-sets2": "ac61709cdd4f79c66911f636745f104ac9f382b68ae6e2aa4eacecdf70c2e2f4",
    "general-m2-sets3": "0b59adea84d7986f985897131cdf7bc77bbc9743010649d6d3e0b593711a2a7d",
    "general-m3-sets1": "b94dade3fb1cbef875fdf53791d11214b1ce31bc022b161f4f67553d4e959248",
    "general-m3-sets2": "173d079af2a02c7bd28ea588e835999156bdac14a39b1daadba831cc7a16bebd",
    "general-m3-sets3": "b94dade3fb1cbef875fdf53791d11214b1ce31bc022b161f4f67553d4e959248",
    "general-m11-sets1": "7f397f0dfefa1749f37fe61798bb351744923e8b7a2dd9e9b0a28fc07922ca9a",
    "general-m11-sets2": "52e26a6a2aab187fd2e3e8e498c0fef37479b7dd99dc780e0c7c1b71ff960208",
    "general-m11-sets3": "7f397f0dfefa1749f37fe61798bb351744923e8b7a2dd9e9b0a28fc07922ca9a",
    "knee-m3": "d76abb1913bf8ff15881900dc18a58c23282e01100d7fb79dfbe6aadd2933e80",
    "extreme-m3": "0728109f4e4979770d53630b2c432a4ecd9fee0a06a511340b3709dcdb0d654d",
    "knee-m11": "7f397f0dfefa1749f37fe61798bb351744923e8b7a2dd9e9b0a28fc07922ca9a",
    "extreme-m11": "18b59fa997d747beb587420a3e2df744c27e7cacd4dc055cbe01b9ed3c157b09",
    "scalarize": "1c6e944839985621094ab838ec98ce38de8d44e2ac58ace4385328760d39e0ce",
    "best-value": "e060fa96985956fe9a3cda070104166d30e52db97ef09b156acee10801b32764",
    "untransferable": "9a9907d5c81ff4440143f406db3f86d88ff0668f3880f9a6ba5fea7a49e68b0d",
    "p1-screen": "bd6b6b2d9d3f9ee76f6edcfdfb0af95b5c4458eca44e92b6420e54acf1d62d12",
    "p2-clear": "e13b611ce995ce6ae9f54e6c542e3bde13d986291002201d9c1c8723d3604382",
    "p3-vague": "a639c4863350c6c25238761746e46eb8b367cbfff1e1099071cb98cc0c7ea3b8",
    "p1-p3-knee": "3af2d8fbfcd2925ea49df906c692538942379172d34fd49865dbed3d386c1428",
}


@pytest.mark.parametrize("case", list(PLAN_CASES))
def test_plan_is_unchanged(case):
    """Every field of the plan of each route case, its steps, indicators,
    configs, doe steps, plot kind and findings in order, is as recorded."""
    plan = guidance._plan(*PLAN_CASES[case])
    digest = hashlib.sha256(repr(asdict(plan)).encode()).hexdigest()
    assert digest == PLAN_SHA256[case]
