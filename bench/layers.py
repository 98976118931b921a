"""Per-layer metrics: which safeset callables are wrapped, and how each
layer metric is read from one operation's spans, counters and outputs.

Every wrapped callable is replaced where its caller looks it up, e.g.
``safeset.pipeline.extract_states`` (pipeline imported the name) rather
than ``safeset.oss.extract_states``. Durations are span totals unless the
table marks them ``self`` (duration minus wrapped children).

``LAYERS`` also records which end-to-end metric each layer metric should
move and on which workloads it does real work, so a performance claim can name a
layer metric, the end-to-end metric it expects to move, and the workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Tracer, has_ancestor, self_times

MODULES = ("ingest", "oss", "safegraph", "geometry", "metrics", "pipeline", "report")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (call before any op)."""
    import scipy.spatial

    import safeset.geometry as geometry
    import safeset.geometry.hullshape as hullshape
    import safeset.geometry.search as search
    import safeset.geometry.simplicial as simplicial
    import safeset.geometry.union as union
    import safeset.pipeline as pipeline
    import safeset.report as report

    def rows(t, args, kwargs, result):
        t.count("ingest.rows", len(result.samples))

    def tops(t, args, kwargs, result):
        t.count("geometry.top_simplices", len(result.simplices[result.dim]))

    def probes(t, args, kwargs, result):
        t.count("geometry.alpha_probes", len(result.probes))

    def located(t, args, kwargs, result):
        t.count("geometry.find_simplex_queries", len(result))
        t.count("geometry.find_simplex_outside", int((result == -1).sum()))

    def hull_queries(t, args, kwargs, result):
        t.count("geometry.hull_queries", len(result))

    def mc_samples(t, args, kwargs, result):
        t.count("geometry.mc_samples", result.n_samples)

    def excess_samples(t, args, kwargs, result):
        n = kwargs["n_samples"] if "n_samples" in kwargs else args[4]
        t.count("geometry.mc_samples", n)

    def calls(name):
        return lambda t, args, kwargs, result: t.count(name)

    w = tracer.wrap
    w(pipeline, "parse_trajectory_csv", "ingest.parse", rows)
    w(pipeline, "label_collisions", "ingest.label")
    w(pipeline, "extract_states", "oss.extract")
    w(pipeline, "transitions", "oss.transitions")
    w(pipeline, "extract_safe_states", "safegraph.prune")
    w(pipeline, "partition_transitions", "safegraph.partition")
    w(pipeline, "certify", "metrics.certify")
    w(pipeline, "ttc_stats", "metrics.ttc")
    w(geometry, "search_optimal_alpha", "geometry.alpha_search", probes)
    w(search, "delaunay", "geometry.delaunay", tops)
    w(simplicial, "meb_radii", "geometry.meb")
    w(simplicial.AlphaShape, "contains_batch", "geometry.alpha_contains")
    w(scipy.spatial.Delaunay, "find_simplex", "geometry.find_simplex", located)
    w(geometry, "hierarchical_cluster", "geometry.cluster")
    w(hullshape.ConvexHullShape, "__init__", "geometry.hull_build")
    w(hullshape.ConvexHullShape, "contains_batch", "geometry.hull_contains", hull_queries)
    w(hullshape.ConvexHullShape, "contains_batch_fast", "geometry.hull_contains", hull_queries)
    w(hullshape, "nnls", None, calls("geometry.nnls_calls"))
    w(hullshape, "linprog", None, calls("geometry.lp_calls"))
    w(hullshape, "mc_volume", "geometry.mc", mc_samples)
    w(union.ShapeUnion, "compute_measure", "geometry.union_measure")
    w(union.ShapeUnion, "_excess_integral", None, excess_samples)
    w(report, "render_slice", "report.slices")


class OpView:
    """One operation's spans, counters, report data and artifact sizes."""

    def __init__(self, tracer: Tracer, trace_id: str, data: dict, sizes: dict):
        self.spans = tracer.trace_spans(trace_id)
        self.by_id = {s["id"]: s for s in self.spans}
        self.self_time = self_times(self.spans)
        self.counters = tracer.counters[trace_id]
        self.data = data
        self.sizes = sizes

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_(self, name: str) -> float:
        return sum(self.self_time[s["id"]] for s in self.spans if s["name"] == name)

    def total_under(self, name: str, prefix: str, inside: bool) -> float:
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and has_ancestor(self.by_id, s, prefix) == inside
        )

    def count(self, name: str) -> int:
        return int(self.counters.get(name, 0))

    def module_self(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for s in self.spans:
            module = s["name"].split(".", 1)[0]
            if module in out:
                out[module] += self.self_time[s["id"]]
        return out


def _projection(key):
    return lambda v: v.data["projection"][key]


def _safe_set(key):
    return lambda v: v.data["safe_set"][key]


# name, unit, kind, reader, moves, on. The set-up metric has no per-op
# reader: it is the median over the run's set-up repeats.
LAYERS = [
    ("simgen.simulate_s", "s", "total", None, "setup_s", "lead-csv, lead-prune"),
    ("ingest.parse_s", "s", "total", lambda v: v.total("ingest.parse"), "analyze_s", "lead-csv"),
    ("ingest.label_s", "s", "total", lambda v: v.total("ingest.label"), "analyze_s", "lead-csv"),
    ("ingest.rows", "count", "count", lambda v: v.count("ingest.rows"), "analyze_s", "lead-csv"),
    ("oss.extract_s", "s", "total", lambda v: v.total("oss.extract"), "analyze_s, peak_rss_mb", "all"),
    ("oss.transitions_s", "s", "total", lambda v: v.total("oss.transitions"), "analyze_s, peak_rss_mb", "all"),
    ("oss.states", "count", "count", _projection("n_states"), "analyze_s, peak_rss_mb", "all"),
    ("oss.unique_states", "count", "count", _projection("n_unique_states"), "analyze_s, peak_rss_mb", "all"),
    ("safegraph.prune_s", "s", "total", lambda v: v.total("safegraph.prune"), "analyze_s", "lead-prune (small on lead-csv)"),
    ("safegraph.partition_s", "s", "total", lambda v: v.total("safegraph.partition"), "analyze_s", "lead-prune (small on lead-csv)"),
    ("safegraph.seeds_matched", "count", "count", _safe_set("unsafe_seeds_matched"), "analyze_s", "lead-prune (small on lead-csv)"),
    ("safegraph.removed", "count", "count", _safe_set("removed_count"), "analyze_s", "lead-prune (small on lead-csv)"),
    ("geometry.delaunay_s", "s", "self", lambda v: v.self_("geometry.delaunay"), "analyze_s, peak_rss_mb", "lead-csv, lead-prune"),
    ("geometry.meb_s", "s", "total", lambda v: v.total("geometry.meb"), "analyze_s, peak_rss_mb", "lead-csv, lead-prune"),
    ("geometry.top_simplices", "count", "count", lambda v: v.count("geometry.top_simplices"), "analyze_s, peak_rss_mb", "lead-csv, lead-prune"),
    ("geometry.alpha_search_s", "s", "self", lambda v: v.self_("geometry.alpha_search"), "analyze_s", "lead-csv, lead-prune"),
    ("geometry.alpha_probes", "count", "count", lambda v: v.count("geometry.alpha_probes"), "analyze_s", "lead-csv, lead-prune"),
    ("geometry.alpha_contains_pipeline_s", "s", "total", lambda v: v.total_under("geometry.alpha_contains", "report.", False), "analyze_s", "lead-csv, lead-prune"),
    ("geometry.alpha_contains_report_s", "s", "total", lambda v: v.total_under("geometry.alpha_contains", "report.", True), "total_s", "lead-csv"),
    ("geometry.find_simplex_queries", "count", "count", lambda v: v.count("geometry.find_simplex_queries"), "analyze_s (exclusion), total_s (slices)", "lead-csv, lead-prune"),
    ("geometry.find_simplex_outside", "count", "count", lambda v: v.count("geometry.find_simplex_outside"), "analyze_s (exclusion), total_s (slices)", "lead-csv, lead-prune"),
    ("geometry.cluster_s", "s", "total", lambda v: v.total("geometry.cluster"), "analyze_s", "multi13d"),
    ("geometry.hull_build_s", "s", "total", lambda v: v.total("geometry.hull_build"), "analyze_s", "multi13d"),
    ("geometry.hull_contains_s", "s", "total", lambda v: v.total("geometry.hull_contains"), "analyze_s, total_s", "multi13d"),
    ("geometry.hull_queries", "count", "count", lambda v: v.count("geometry.hull_queries"), "analyze_s, total_s", "multi13d"),
    ("geometry.nnls_calls", "count", "count", lambda v: v.count("geometry.nnls_calls"), "analyze_s, total_s", "multi13d"),
    ("geometry.lp_calls", "count", "count", lambda v: v.count("geometry.lp_calls"), "analyze_s, total_s", "multi13d"),
    ("geometry.mc_s", "s", "total", lambda v: v.total("geometry.mc"), "analyze_s", "multi13d"),
    ("geometry.mc_samples", "count", "count", lambda v: v.count("geometry.mc_samples"), "analyze_s", "multi13d"),
    ("geometry.union_measure_s", "s", "total", lambda v: v.total("geometry.union_measure"), "analyze_s", "multi13d"),
    ("metrics.certify_s", "s", "total", lambda v: v.total("metrics.certify"), "analyze_s", "all (guard)"),
    ("metrics.ttc_s", "s", "total", lambda v: v.total("metrics.ttc"), "analyze_s", "all (guard)"),
    ("pipeline.self_s", "s", "self", lambda v: v.self_("pipeline.run_analysis"), "analyze_s", "lead-csv, lead-prune"),
    ("report.emit_s", "s", "total", lambda v: v.total("report.emit"), "total_s", "lead-csv, multi13d"),
    ("report.slices_s", "s", "self", lambda v: v.self_("report.slices"), "total_s", "lead-csv, multi13d"),
    ("report.serialize_s", "s", "self", lambda v: v.self_("report.emit"), "total_s", "lead-csv, multi13d"),
    ("report.shape_json_bytes", "bytes", "count", lambda v: v.sizes.get("shape", 0), "total_s", "lead-csv, multi13d"),
    ("report.slices_bytes", "bytes", "count", lambda v: v.sizes.get("slices", 0), "total_s", "lead-csv, multi13d"),
    ("report.ds_csv_bytes", "bytes", "count", lambda v: v.sizes.get("ds", 0), "total_s", "lead-csv, multi13d"),
    ("report.artifact_mb", "MB", "count", lambda v: sum(v.sizes.values()) / 1e6, "total_s", "lead-csv, multi13d"),
    ("trace.total_s", "s", "total", lambda v: v.total("op"), "total_s (minus it: tracing overhead)", "all"),
    ("trace.self_sum_share", "ratio", "count", lambda v: sum(v.module_self().values()) / v.total("op"), "none (coverage check)", "all"),
]


def op_layer_values(view: OpView) -> dict[str, float]:
    return {name: float(reader(view)) for name, _, _, reader, _, _ in LAYERS if reader}


def median_layers(per_op: list[dict[str, float]], simulate_s: list[float]) -> dict:
    """Median of each layer metric over the run's successful operations."""
    out = {}
    for name, unit, _, reader, _, _ in LAYERS:
        values = [v[name] for v in per_op] if reader else simulate_s
        out[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    return out


def median_module_self(views: list[OpView]) -> dict[str, float]:
    per_module = defaultdict(list)
    for v in views:
        for m, s in v.module_self().items():
            per_module[m].append(s)
    return {m: statistics.median(vals) for m, vals in per_module.items()}
