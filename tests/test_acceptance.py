"""End-to-end acceptance checks for the whole toolkit.

Each test exercises one documented guarantee at its stated tolerance and
prints a PASS line (visible under ``pytest -s``) so a plain run doubles as a
checklist.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from paretoeval import (
    EXACTLY_BEST,
    EvaluationWarning,
    ClearConstraint,
    PreferenceSpec,
    RegionOfInterest,
    VagueClamp,
    apply_clear_preferences,
    apply_vague_preferences,
    aspect_coverage,
    build_reference_set,
    canonical_name,
    compute_h,
    contribution,
    epsilon_additive,
    gd,
    gd_plus,
    hypervolume,
    igd,
    igd_plus,
    nfs,
    recommend,
    set_dominates,
    to_minimization,
    unfr,
)
from paretoeval.cli import EXIT_ERROR, EXIT_OK, EXIT_WARNINGS, main
from conftest import (
    BOUNDARY_A,
    COVERAGE_A,
    COVERAGE_B,
    DIAG_A,
    DIAG_B,
    DIAG_C,
    INNER_B,
    KNEE_A,
    KNEE_B,
    REFSET_A,
    REFSET_B,
    USERS_A,
    USERS_B,
    make_set,
)
import oracles
from test_cli import COST_COVERAGE, MIN_2D, write_manifest


def _pass(number: int, detail: str) -> None:
    print(f"PASS criterion {number:02d}: {detail}")


def test_criterion_01_worked_indicator_values():
    A = make_set("A", KNEE_A)
    B = make_set("B", KNEE_B)
    R = build_reference_set([A, B])

    assert igd(A, R) == pytest.approx(2.154, abs=1e-3)
    assert igd(B, R) == pytest.approx(1.433, abs=1e-3)
    assert gd(A, R) == 0.0
    assert gd(B, R) == 0.0
    assert contribution(A, B) == 0.4
    assert contribution(B, A) == 0.6
    assert hypervolume(A, (13, 11)) == pytest.approx(71.0, abs=1e-9)
    assert hypervolume(B, (13, 11)) == pytest.approx(45.5, abs=1e-9)
    _pass(1, "IGD/GD/CI/HV reproduce the worked two-set example")


def test_criterion_02_gd_counterexample_resolved_by_gd_plus():
    A = make_set("A", [(2, 5)])
    B = make_set("B", [(3, 9)])
    R = make_set("R", [(1, 0), (0, 10)])

    assert oracles.set_weakly_dominates_oracle(A, B)
    assert gd(A, R, p=2) == pytest.approx(math.sqrt(26), abs=1e-12)
    assert gd(B, R, p=2) == pytest.approx(math.sqrt(10), abs=1e-12)
    assert gd_plus(A, R) == pytest.approx(2.0, abs=1e-12)
    assert gd_plus(B, R) == pytest.approx(3.0, abs=1e-12)
    # the raw distance ranks the dominating set worse; the one-sided
    # modification restores the dominance-respecting order
    assert gd(A, R, p=2) > gd(B, R, p=2)
    assert gd_plus(A, R) < gd_plus(B, R)
    _pass(2, "GD violates dominance on the witness; GD+ resolves it")


def test_criterion_03_reference_set_composition_bias():
    A = make_set("A", REFSET_A)
    B = make_set("B", REFSET_B)
    R = build_reference_set([A, B])
    assert igd(A, R) == pytest.approx(2.80, abs=0.01)
    assert igd(B, R) == pytest.approx(1.08, abs=0.01)

    A2 = make_set("A", DIAG_A)
    B2 = make_set("B", DIAG_B)
    C2 = make_set("C", DIAG_C)
    pairwise = build_reference_set([A2, B2])
    assert igd(A2, pairwise) == pytest.approx(1.41, abs=0.01)
    assert igd(B2, pairwise) == pytest.approx(2.12, abs=0.01)
    assert igd(A2, pairwise) < igd(B2, pairwise)
    threeway = build_reference_set([A2, B2, C2])
    assert igd(A2, threeway) == pytest.approx(1.82, abs=0.01)
    assert igd(B2, threeway) == pytest.approx(1.72, abs=0.01)
    assert igd(C2, threeway) == pytest.approx(1.61, abs=0.01)
    assert igd(A2, threeway) > igd(B2, threeway) > igd(C2, threeway)
    _pass(3, "IGD rankings flip with the reference-set composition")


def test_criterion_04_hv_reference_point_sensitivity():
    A = make_set("A", BOUNDARY_A)
    B = make_set("B", INNER_B)
    assert hypervolume(A, (6, 6)) == 11.0
    assert hypervolume(B, (6, 6)) == 19.0
    assert hypervolume(A, (11, 11)) == 96.0
    assert hypervolume(B, (11, 11)) == 94.0
    _pass(4, "HV ranking flips between reference points (11/19 vs 96/94)")


def test_criterion_05_preference_transfer_pipeline():
    A = to_minimization(make_set("A", USERS_A, directions=("min", "max"),
                                 names=("cost", "users")))
    B = to_minimization(make_set("B", USERS_B, directions=("min", "max"),
                                 names=("cost", "users")))
    ref = (2500.0, 0.0)  # stored units: users enter negated

    assert hypervolume(A, ref) == 4_375_000.0
    assert hypervolume(B, ref) == 4_625_000.0

    spec = PreferenceSpec(
        vague=(VagueClamp(objective=1, saturation=3000, hard_floor=1500),)
    )
    A2 = apply_vague_preferences(A, spec)
    B2 = apply_vague_preferences(B, spec)
    assert hypervolume(A2, ref) == 4_375_000.0
    assert hypervolume(B2, ref) == 3_375_000.0
    _pass(5, "saturation clamp flips the HV verdict (4.625M -> 3.375M)")


def test_criterion_06_cardinality_then_best_value_pipeline(tmp_path):
    A = to_minimization(make_set("A", COVERAGE_A, directions=("min", "max"),
                                 names=("cost", "coverage")))
    B = to_minimization(make_set("B", COVERAGE_B, directions=("min", "max"),
                                 names=("cost", "coverage")))
    assert canonical_name("pfs") == "nfs"
    assert nfs(A) == 4
    assert nfs(B) == 5

    spec = PreferenceSpec(clear=(ClearConstraint(1, EXACTLY_BEST),))
    survivors_a = apply_clear_preferences(A, spec)
    survivors_b = apply_clear_preferences(B, spec)
    assert survivors_a.natural_values().tolist() == [[450.0, 1.0]]
    assert survivors_b.natural_values().tolist() == [[500.0, 1.0]]

    manifest = write_manifest(
        tmp_path,
        COST_COVERAGE,
        {"alpha": [COVERAGE_A], "beta": [COVERAGE_B]},
        preferences={"clear": [{"objective": "coverage", "kind": "exactly_best"}]},
        output={"report": str(tmp_path / "report.json")},
    )
    assert main(["evaluate", "--manifest", str(manifest)]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["doe"]["kind"] == "best-value"
    assert report["doe"]["best"] == {"alpha": 450.0, "beta": 500.0}
    assert report["doe"]["winner"] == "alpha"
    _pass(6, "PFS 4 vs 5; best-value transfer declares 450 beats 500")


def test_criterion_07_misleading_statistics_flagged(tmp_path, capsys):
    a_rows, b_rows = [(0, 0), (10, 10)], [(3, 3), (5, 5)]
    assert set_dominates(make_set("A", a_rows), make_set("B", b_rows))

    # The stats command reports those statistics alone, so it flags itself,
    # and names each one that favours the dominated set.
    manifest = write_manifest(tmp_path, MIN_2D, {"A": [a_rows], "B": [b_rows]})
    out = tmp_path / "stats.json"
    code = main(["stats", "--manifest", str(manifest), "--out", str(out)])
    assert code == EXIT_WARNINGS
    report = json.loads(out.read_text())
    assert [b["mean"] for b in report["stats"]] == [[5.0, 5.0], [4.0, 4.0]]
    assert [f["code"] for f in report["findings"]] == ["L-DOE-SOLE"]
    detail = report["findings"][0]["message"].split(" (", 1)[1]
    assert detail == (
        "mean, median, worst"
        "; A dominates B, yet B's mean is better on f1, f2"
        "; A dominates B, yet B's median is better on f1, f2"
        "; A dominates B, yet B's worst is better on f1, f2)"
    )
    assert report["exit_status"] == EXIT_WARNINGS
    assert "[warning] L-DOE-SOLE (misuse II)" in capsys.readouterr().out
    _pass(7, "dominated set wins the mean; stats names it under L-DOE-SOLE, exit 1")


def test_criterion_08_hv_matches_independent_oracles():
    rng = np.random.default_rng(20240817)
    mc_columns = {
        m: oracles.sample_columns(
            np.random.default_rng(99 + m).uniform(0, 10, size=(1_000_000, m))
        )
        for m in (2, 3, 4)
    }
    worst_rel = 0.0
    for case in range(100):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 11))
        pts = [tuple(float(v) for v in row) for row in rng.integers(0, 5, (n, m))]
        ref = tuple([10.0] * m)
        exact = hypervolume(make_set("A", pts), ref)

        grid = oracles.hv_grid(pts, ref)
        assert exact == grid, f"instance {case}: exact {exact} != grid {grid}"

        hit = oracles.mc_hits(mc_columns[m], pts)
        mc = (10.0**m) * float(np.count_nonzero(hit)) / len(hit)
        rel = abs(mc - exact) / exact
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.01, f"instance {case}: MC {mc} vs exact {exact}"
    _pass(8, f"100 instances: grid oracle exact, MC within {worst_rel:.2%}")


# -- criterion 9 -------------------------------------------------------------

# Archived violation witnesses, emitted ahead of the random instances so the
# "at least one violation" guarantee never depends on luck.
GD_WITNESS = ([(2.0, 5.0)], [(3.0, 9.0)], [(1.0, 0.0), (0.0, 10.0)])
IGD_WITNESS = ([(0.0, 0.0)], [(4.0, 4.0)], [(5.0, 5.0), (0.0, 10.0)])


def _front(points):
    pts = [tuple(float(v) for v in p) for p in dict.fromkeys(map(tuple, points))]
    return [pts[i] for i in oracles.front_indices(pts)]


def weakly_dominating_instances(count, seed):
    """Yield (A, B, R) triples where A weakly set-dominates B.

    A is a random nondominated front; B worsens each of its points by a
    non-negative shift; R is an unrelated random front standing in for an
    externally supplied reference set.  The two archived witnesses lead.
    """
    yield GD_WITNESS
    yield IGD_WITNESS
    rng = np.random.default_rng(seed)
    emitted = 2
    while emitted < count:
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 21))
        front = _front(rng.integers(0, 10, (n, m)))
        shifts = rng.integers(0, 4, (len(front), m))
        shifted = [
            tuple(x + float(d) for x, d in zip(p, s))
            for p, s in zip(front, shifts)
        ]
        reference = _front(rng.integers(0, 10, (int(rng.integers(1, 9)), m)))
        yield front, shifted, reference
        emitted += 1


def test_criterion_09_compliance_across_random_pairs():
    tol = 1e-9
    gd_or_igd_violated = False
    for i, (pa, pb, pr) in enumerate(weakly_dominating_instances(200, 1729)):
        A = make_set("A", pa)
        B = make_set("B", pb)
        R = make_set("R", pr)
        assert oracles.set_weakly_dominates_oracle(A, B), f"instance {i}: generator broken"

        ref = tuple(
            float(v) + 1.0
            for v in np.max(np.vstack([A.values(), B.values()]), axis=0)
        )
        assert hypervolume(A, ref) >= hypervolume(B, ref) - tol, f"hv @ {i}"
        assert epsilon_additive(A, R) <= epsilon_additive(B, R) + tol, f"eps @ {i}"
        assert gd_plus(A, R) <= gd_plus(B, R) + tol, f"gd+ @ {i}"
        assert igd_plus(A, R) <= igd_plus(B, R) + tol, f"igd+ @ {i}"
        union = build_reference_set([A, B])
        assert unfr(A, union) >= unfr(B, union) - tol, f"unfr @ {i}"
        assert contribution(A, B) >= 0.5 - tol, f"ci @ {i}"

        if gd(A, R, p=2) > gd(B, R, p=2) + tol or igd(A, R) > igd(B, R) + tol:
            gd_or_igd_violated = True

    assert gd_or_igd_violated, "no GD/IGD violation surfaced in 200 instances"

    # the archived witnesses themselves must exhibit the violations
    ga, gb, gr = (make_set(n, p) for n, p in zip("ABR", GD_WITNESS))
    assert gd(ga, gr, p=2) > gd(gb, gr, p=2)
    ia, ib, ir = (make_set(n, p) for n, p in zip("ABR", IGD_WITNESS))
    assert igd(ia, ir) > igd(ib, ir)
    _pass(9, "200 pairs: HV/eps/GD+/IGD+/UNFR/CI compliant; GD & IGD caught")


def test_criterion_10_plans_and_mismatch_manifests(tmp_path):
    scenarios = {
        "none": PreferenceSpec(),
        "clear": PreferenceSpec(clear=(ClearConstraint(1, EXACTLY_BEST),)),
        "vague": PreferenceSpec(
            vague=(VagueClamp(objective=1, saturation=3000, hard_floor=1500),)
        ),
        "knee": PreferenceSpec(roi=RegionOfInterest("knee")),
        "extreme": PreferenceSpec(roi=RegionOfInterest("extreme", (0,))),
    }
    for label, spec in scenarios.items():
        plan = recommend(spec, 2)
        assert plan == recommend(spec, 2), f"{label}: plan not deterministic"
        hard = [
            f
            for f in plan.warnings
            if f.issue in ("III", "IV", "V") and f.severity != "info"
        ]
        assert not hard, f"{label}: plan flags itself: {hard}"

    names = [p.name for p in recommend(scenarios["none"], 2).indicators]
    assert names == ["gd_plus", "ci", "spread", "unfr", "hv"]
    assert set(aspect_coverage(names)) == {
        "convergence", "spread", "uniformity", "cardinality",
    }
    clear_plan = recommend(scenarios["clear"], 2)
    assert clear_plan.indicators == ()
    assert any(s.startswith("best:") for s in clear_plan.doe_steps)
    vague_plan = recommend(scenarios["vague"], 2)
    assert vague_plan.preprocessing[0].kind == "vague-transfer"
    assert [p.name for p in vague_plan.indicators] == names
    knee_plan = recommend(scenarios["knee"], 2)
    assert [p.name for p in knee_plan.indicators] == ["hv"]
    assert knee_plan.indicators[0].config.hv_strategy == "nadir_plus_tenth"
    assert "N-IGD-EXCLUDED" in {w.code for w in knee_plan.warnings}
    extreme_plan = recommend(scenarios["extreme"], 2)
    assert [p.name for p in extreme_plan.indicators] == ["hv"]
    assert extreme_plan.indicators[0].config.hv_strategy == "doubled_range"

    # mismatch manifest 1: spread chosen with three objectives
    spread_manifest = write_manifest(
        tmp_path,
        [{"name": f"f{i}", "direction": "min"} for i in (1, 2, 3)],
        {"a": [[(1, 2, 3), (3, 2, 1)]]},
        preferences={"vague": [{"objective": 0, "saturation": 1, "hard_floor": 5}]},
        overrides={"indicators": ["spread", "hv"]},
        filename="spread.json",
    )
    out = str(tmp_path / "spread-lint.json")
    # The one run's two rows tie on f2, so the hv point steps by 1 there.
    with pytest.warns(EvaluationWarning, match="degenerate objective range"):
        code = main(["lint", "--manifest", str(spread_manifest), "--out", out])
    assert code == EXIT_ERROR
    found = json.loads((tmp_path / "spread-lint.json").read_text())["findings"]
    hard = {f["code"] for f in found if f["severity"] != "info"}
    assert hard == {"L-SPREAD-DIM"}

    # mismatch manifest 2: distance-to-front indicator under a knee preference
    knee_manifest = write_manifest(
        tmp_path,
        MIN_2D,
        {"a": [KNEE_A], "b": [KNEE_B]},
        preferences={"roi": "knee"},
        overrides={"indicators": ["igd", "hv"]},
        filename="knee.json",
    )
    out = str(tmp_path / "knee-lint.json")
    assert (
        main(["lint", "--manifest", str(knee_manifest), "--out", out])
        == EXIT_WARNINGS
    )
    found = json.loads((tmp_path / "knee-lint.json").read_text())["findings"]
    hard = {f["code"] for f in found if f["severity"] != "info"}
    assert hard == {"L-KNEE-MISMATCH"}
    _pass(10, "five scenario plans deterministic and self-clean; "
              "mismatch manifests flag exactly one rule each")


def test_criterion_11_front_capacity_bound():
    assert compute_h(5, 2) == 4
    assert compute_h(10, 3) == 3
    assert compute_h(5, 2) == oracles.h_oracle(5, 2)
    assert compute_h(10, 3) == oracles.h_oracle(10, 3)
    with warnings.catch_warnings():
        # tiny n with large m legitimately triggers the fallback warning
        warnings.simplefilter("ignore", EvaluationWarning)
        for n in (1, 2, 3, 5, 8, 10, 17, 40, 100):
            for m in (2, 3, 4, 5):
                assert compute_h(n, m) == oracles.h_oracle(n, m), (n, m)
    _pass(11, "capacity bound matches exhaustive enumeration on a sweep")
