"""safeset benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload lead-csv --seed 0 --seconds 15 --trace 0

The run imports safeset from ``src/`` with BLAS and SAFESET_THREADS pinned
to one thread, builds the workload's input from the seed three times (the
set-up), then runs operations until ``--seconds`` have passed (at least
one), checking each with the correctness gate outside the timed region.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
(operations that raised or failed the gate) and ``metrics``. ``--trace 0``
reports the end-to-end metrics, medians over the run's operations;
``--trace 1`` wraps every layer's entry points and reports the per-layer
metrics instead. The line before it is a JSON object with the details:
environment, per-operation times, gate problems and artifact digests.
Traced runs also write their spans to ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SAFESET_THREADS": "1",
}
WORKLOAD_NAMES = ("lead-csv", "lead-prune", "multi13d")
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "pinned_env": {k: os.environ[k] for k in PINNED_ENV},
    }


def measure(args, import_s: float) -> tuple[dict, dict]:
    import gate
    import layers
    from spans import Tracer
    from workloads import WORKLOADS, run_op

    w = WORKLOADS[args.workload]
    tracer = Tracer()
    if args.trace:
        layers.install(tracer)
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        generate_s, input_digests = [], set()
        for k in range(SETUP_REPEATS):
            tracer.trace_id, tracer.active = f"setup-{k}", bool(args.trace)
            t0 = time.perf_counter()
            inp = w.make_input(args.seed, work, tracer)
            generate_s.append(time.perf_counter() - t0)
            tracer.active = False
            if isinstance(inp, tuple):
                input_digests.add(tuple(gate.sha256_file(Path(p)) for p in inp))
        setup_problems = [] if len(input_digests) <= 1 else ["inputs differ across set-ups"]

        ops, views, first_digests = [], [], None
        deadline = time.perf_counter() + args.seconds
        while True:
            k = len(ops)
            if k:
                inp = w.make_input(args.seed, work, tracer)
            out_dir = work / "out" if w.emits else None
            if out_dir is not None and out_dir.exists():
                shutil.rmtree(out_dir)
            gc.collect()
            op = {"ok": False, "problems": []}
            tracer.trace_id, tracer.active = f"op-{k}", bool(args.trace)
            t0 = time.perf_counter()
            try:
                rep, op["analyze_s"], op["emit_s"], op["total_s"] = run_op(
                    w, args.seed, inp, out_dir, tracer
                )
            except Exception:  # a failing operation is counted, not fatal
                op["problems"].append(traceback.format_exc(limit=3))
                op["analyze_s"] = op["total_s"] = time.perf_counter() - t0
                op["emit_s"] = 0.0
                rep = None
            tracer.active = False
            if rep is not None:
                op["problems"] += gate.check(rep, out_dir, w.check_members)
                digests = gate.artifact_digests(rep, out_dir)
                if first_digests is None:
                    first_digests = digests
                elif digests != first_digests:
                    op["problems"].append("artifact digests differ from the first operation")
                op["ok"] = not op["problems"]
                if args.trace:
                    sizes = {}
                    if out_dir is not None:
                        sizes = {
                            "report": (out_dir / "report.json").stat().st_size,
                            "shape": (out_dir / "shape.json").stat().st_size,
                            "ds": (out_dir / "ds.csv").stat().st_size,
                            "slices": sum(
                                p.stat().st_size for p in (out_dir / "slices").iterdir()
                            ),
                        }
                    views.append(layers.OpView(tracer, f"op-{k}", rep.data, sizes))
            ops.append(op)
            del rep
            if time.perf_counter() >= deadline:
                break
    finally:
        tracer.active = False
        tracer.unwrap_all()
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not op["ok"] for op in ops)
    timed = [op for op in ops if op["ok"]] or ops
    setup_s = import_s + statistics.median(generate_s)
    detail = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "setup": {"import_s": import_s, "generate_s": generate_s, "problems": setup_problems},
        "ops": ops,
        "digests": first_digests,
    }
    if args.trace:
        simulate_s = [
            sum(
                s["end"] - s["start"]
                for s in tracer.trace_spans(f"setup-{k}")
                if s["name"] == "simgen.simulate"
            )
            for k in range(SETUP_REPEATS)
        ]
        metrics = layers.median_layers([layers.op_layer_values(v) for v in views], simulate_s)
        detail["module_self_s"] = layers.median_module_self(views)
        detail["missing_wraps"] = tracer.missing
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{w.name}-seed{args.seed}.json"
        tracer.dump(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "total_s": {"value": statistics.median(op["total_s"] for op in timed), "unit": "s"},
            "analyze_s": {"value": statistics.median(op["analyze_s"] for op in timed), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    result = {
        "correct": failed == 0 and not setup_problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "safeset" / "__init__.py").is_file():
        print(f"safeset sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # noqa: F401  (imports numpy, scipy and safeset)

    import_s = time.perf_counter() - t0
    detail, result = measure(args, import_s)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
