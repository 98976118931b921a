"""The three benchmark workloads.

Each workload makes its input from the seed (``make_input``), then runs one
operation: the call sequence a user of that path makes. The seed feeds
``AnalysisConfig.seed`` everywhere, the battery's gap jitter
(``ncap_battery(grid_seed=...)``) on ``lead-prune`` and the 13-D scene's
random drift on ``multi13d``.

``lead-csv`` keeps the battery ``safeset simulate`` writes by default
(grid seed 0). Its slice rasters spend most of their time in
``Delaunay.find_simplex`` on probes outside the triangulation, and that
cost depends on the exact geometry: over grid seeds 0-9 the four slices
took 7 to 47 s (2-core x86_64 VM, Python 3.11), against 9 s on grid seed 0.
A seeded grid would make run-to-run spread a property of the seed rather
than of the code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import safeset.pipeline as pipeline
import safeset.report as report
import safeset.simgen as simgen
from safeset.ingest import write_collision_csv, write_trajectory_csv

from scene13d import scripted_neighbour_dataset
from spans import Tracer


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[int, Path, Tracer], object]
    config: Callable[[int, object], pipeline.AnalysisConfig]
    emits: bool
    check_members: bool


def _battery(policy, seed: int, tracer: Tracer):
    with tracer.span("simgen.simulate"):
        return simgen.simulate_battery(policy, simgen.ncap_battery(grid_seed=seed))


LEAD_CSV_GRID_SEED = 0


def _battery_csv(seed: int, work: Path, tracer: Tracer):
    """Write the idm0 battery as a trajectory CSV plus its label sidecar."""
    dataset = _battery(simgen.IDM_0, LEAD_CSV_GRID_SEED, tracer)
    csv_path, labels_path = work / "input.csv", work / "input_labels.csv"
    write_trajectory_csv(dataset, csv_path)
    write_collision_csv(dataset.collision_events, labels_path)
    return (str(csv_path), str(labels_path))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lead-csv",
            make_input=_battery_csv,
            config=lambda seed, paths: pipeline.AnalysisConfig(
                input_csv=paths[0], labels_csv=paths[1], preset="ncap-lead", seed=seed
            ),
            emits=True,
            check_members=False,
        ),
        Workload(
            name="lead-prune",
            make_input=lambda seed, work, tracer: _battery(simgen.IDM_1, seed, tracer),
            config=lambda seed, _: pipeline.AnalysisConfig(
                preset="ncap-lead", reach_mode="ancestors", match_radius=2.0, seed=seed
            ),
            emits=False,
            check_members=False,
        ),
        Workload(
            name="multi13d",
            make_input=lambda seed, work, tracer: scripted_neighbour_dataset(seed),
            config=lambda seed, _: pipeline.AnalysisConfig(
                preset="highd-multi", cluster_max=1000, seed=seed
            ),
            emits=True,
            check_members=True,
        ),
    )
}


def run_op(workload: Workload, seed: int, inp, out_dir: Path, tracer: Tracer):
    """One operation; returns (report, analyze_s, emit_s, total_s)."""
    cfg = workload.config(seed, inp)
    dataset = None if isinstance(inp, tuple) else inp
    t0 = time.perf_counter()
    with tracer.span("op"):
        with tracer.span("pipeline.run_analysis"):
            rep = pipeline.run_analysis(cfg, dataset=dataset)
        t1 = time.perf_counter()
        if workload.emits:
            with tracer.span("report.emit"):
                report.emit_report(rep, out_dir)
    t2 = time.perf_counter()
    return rep, t1 - t0, t2 - t1, t2 - t0
