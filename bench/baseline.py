"""Measure every workload over several seeds and record a baseline file.

Usage (from the repository root):

    python3 bench/baseline.py --seeds 0-9 --out bench/BASELINE.json

For each workload, one after another, it makes one untraced run per seed
and one traced run on the first seed, each in its own process through
``bench/run.py``. The file records, per workload: why it was chosen, the
median and quartiles of each end-to-end metric over the seeds, failed
operations, the traced per-layer table and per-module self times, the
tracing overhead (traced ``total_s`` minus the untraced median),
and the artifact digests of every seed, so a later change can show
byte-identical outputs against its parent. The layer table says which
end-to-end metric each layer metric should move, and on which workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, float]:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    detail_line, result_line = out.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line), json.loads(result_line), wall


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / med if med else None,
        "n": len(values),
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from layers import LAYERS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    why = {w["name"]: w["why"] for w in bench["workloads"]}

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,7")
    p.add_argument("--workloads", nargs="+", default=list(why), choices=list(why))
    p.add_argument("--out", default=str(BENCH_DIR / "BASELINE.json"))
    p.add_argument("--label", default="", help="free text, e.g. the commit measured")
    args = p.parse_args(argv)
    seeds = seed_list(args.seeds)

    doc = {
        "label": args.label,
        "run_seconds": seconds,
        "seeds": seeds,
        "layer_map": [
            {"metric": name, "unit": unit, "kind": kind, "moves": moves, "on": on}
            for name, unit, kind, _, moves, on in LAYERS
        ],
        "workloads": {},
    }
    for name in args.workloads:
        runs, walls = [], []
        for seed in seeds:
            detail, result, wall = run_once(name, seed, seconds, 0)
            runs.append((seed, detail, result))
            walls.append(wall)
            print(name, seed, round(wall, 1), json.dumps(result), file=sys.stderr, flush=True)
        t_detail, t_result, t_wall = run_once(name, seeds[0], seconds, 1)
        metrics = {
            m: summarize([r["metrics"][m]["value"] for _, _, r in runs])
            for m in runs[0][2]["metrics"]
        }
        untraced_total = metrics["total_s"]["median"]
        traced_total = t_result["metrics"]["trace.total_s"]["value"]
        doc["workloads"][name] = {
            "why": why[name],
            "env": runs[0][1]["env"],
            "attempted": sum(r["attempted"] for _, _, r in runs),
            "failed_ops": sum(r["failed"] for _, _, r in runs),
            "all_correct": all(r["correct"] for _, _, r in runs) and t_result["correct"],
            "end_to_end": metrics,
            "run_wall_s": {"untraced": summarize(walls), "traced": t_wall},
            "per_seed": {
                str(s): {m: v["value"] for m, v in r["metrics"].items()} for s, _, r in runs
            },
            "traced_seed": seeds[0],
            "per_layer": {m: v["value"] for m, v in t_result["metrics"].items()},
            "module_self_s": t_detail["module_self_s"],
            "tracing_overhead_s": traced_total - untraced_total,
            "tracing_overhead_share": (traced_total - untraced_total) / untraced_total,
            "missing_wraps": t_detail["missing_wraps"],
            "digests": {str(s): d["digests"] for s, d, _ in runs},
        }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
