"""Seeded inputs for the `paretoeval evaluate` benchmark.

Each workload is a manifest plus one CSV per run.  Front rows lie on the
positive-orthant unit sphere scaled by 100, shifted by a per-algorithm
convergence offset plus a small per-run step; filler rows are front rows
plus strictly positive noise, so each one is dominated by its base row, and
are shuffled in.  Maximised objectives are written as ``1000 - value``.  The
same seed always gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

SCALE = 100.0
MAX_BASE = 1000.0
RUN_STEP = 1.5  # offset spread between the runs of one algorithm
FILLER_NOISE = (0.5, 25.0)


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    algorithms: int
    runs: int
    front_rows: int
    filler_rows: int
    indicators: tuple[str, ...]
    offset: float = 3.0  # convergence offset between successive algorithms
    pairwise: tuple[str, ...] = ()
    maximised: tuple[int, ...] = ()
    preferences: dict = field(default_factory=dict)

    @property
    def objectives(self) -> list[str]:
        return [f"f{j + 1}" for j in range(self.m)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pair-2d",
            m=2,
            algorithms=2,
            runs=2,
            front_rows=80,
            filler_rows=120,
            indicators=("gd_plus", "spread", "unfr", "hv"),
            offset=12.0,
            pairwise=("ci",),
        ),
        Workload(
            name="runs-3d",
            m=3,
            algorithms=4,
            runs=4,
            front_rows=30,
            filler_rows=30,
            indicators=("gd_plus", "grid_diversity", "unfr", "hv"),
        ),
        Workload(
            name="prefs-5d",
            m=5,
            algorithms=2,
            runs=2,
            front_rows=25,
            filler_rows=400,
            indicators=("hv",),
            maximised=(3, 4),
            preferences={
                "screen": [{"objective": "f1", "kind": "at_most", "threshold": 125}],
                "clear": [{"objective": "f2", "kind": "at_most", "threshold": 115}],
                "vague": [{"objective": "f4", "saturation": 995, "hard_floor": 880}],
                "roi": "knee",
            },
        ),
    )
}


@dataclass
class Inputs:
    """Generated files plus the values written, in minimisation orientation."""

    workload: Workload
    manifest: Path
    sha256: dict[str, str]
    runs: dict[str, list[list[tuple[float, ...]]]]

    def ideal(self) -> tuple[float, ...]:
        """Componentwise minimum over every generated row (stored orientation)."""
        rows = [p for runs in self.runs.values() for run in runs for p in run]
        return tuple(min(col) for col in zip(*rows))


def _kronecker(rng: random.Random, m: int, n: int) -> list[list[float]]:
    """``n`` points of the R_m low-discrepancy sequence (Roberts 2018) in
    [0, 1)^m, shifted by a random vector."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (m + 1))
    step = [phi ** -(j + 1) for j in range(m)]
    shift = [rng.random() for _ in range(m)]
    return [[(s + i * a) % 1.0 for s, a in zip(shift, step)] for i in range(1, n + 1)]


def _run_rows(rng: random.Random, w: Workload, offset: float) -> list[list[float]]:
    """The sphere's axis corners plus front rows mapped from the sequence
    through half-normal coordinates, then filler rows.  Seeds differ in the
    sequence shifts and the shuffle only, and the corners fix each front's
    extent, so the work an op does varies little between seeds."""
    half_normal = statistics.NormalDist().inv_cdf
    corners = [[SCALE if i == j else 0.0 for i in range(w.m)] for j in range(w.m)]
    front = []
    for u in _kronecker(rng, w.m, w.front_rows - w.m):
        v = [half_normal(0.5 + x / 2.0) for x in u]
        norm = math.sqrt(sum(x * x for x in v)) or 1.0
        front.append([SCALE * x / norm for x in v])
    front = [[x + offset for x in p] for p in corners + front]
    lo, hi = FILLER_NOISE
    filler = [
        [x + lo + (hi - lo) * e for x, e in zip(front[i % len(front)], noise)]
        for i, noise in enumerate(_kronecker(rng, w.m, w.filler_rows))
    ]
    rows = front + filler
    rng.shuffle(rows)
    return [[round(x, 6) for x in row] for row in rows]


def generate(w: Workload, seed: int, directory: Path) -> Inputs:
    """Write the manifest and CSVs for ``w`` under ``directory``."""
    rng = random.Random(f"{w.name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    sha: dict[str, str] = {}
    stored: dict[str, list[list[tuple[float, ...]]]] = {}
    algorithms = []

    def _write(name: str, text: str) -> None:
        data = text.encode("utf-8")
        (directory / name).write_bytes(data)
        sha[name] = hashlib.sha256(data).hexdigest()

    for a in range(w.algorithms):
        alg = f"alg{a}"
        files = []
        stored[alg] = []
        for r in range(w.runs):
            offset = w.offset * a + RUN_STEP * r / w.runs
            natural = [
                [round(MAX_BASE - x, 6) if j in w.maximised else x for j, x in enumerate(row)]
                for row in _run_rows(rng, w, offset)
            ]
            lines = [",".join(w.objectives)]
            lines += [",".join(repr(x) for x in row) for row in natural]
            fname = f"{alg}_{r}.csv"
            _write(fname, "\n".join(lines) + "\n")
            files.append(fname)
            stored[alg].append(
                [tuple(-x if j in w.maximised else x for j, x in enumerate(row)) for row in natural]
            )
        algorithms.append({"name": alg, "runs": files})

    manifest = {
        "objectives": [
            {"name": o, "direction": "max" if j in w.maximised else "min"}
            for j, o in enumerate(w.objectives)
        ],
        "algorithms": algorithms,
    }
    if w.preferences:
        manifest["preferences"] = w.preferences
    _write("manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return Inputs(w, directory / "manifest.json", sha, stored)
