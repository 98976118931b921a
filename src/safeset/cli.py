"""Command-line front end.

Subcommands::

    safeset simulate  --policy idm0 --out runs.csv      # synthetic battery
    safeset ingest    --input raw.csv --out clean.csv   # canonicalize a CSV
    safeset extract   --input runs.csv --preset ncap-lead --out states.csv
    safeset analyze   --config cfg.json --out-dir out/  # full pipeline
    safeset report    --report out/report.json          # summarize results

Exit codes: 0 success, 2 invalid input or configuration (including I/O
failures), 3 analysis completed but an excluded state fell inside the
fitted shape.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import ExclusionViolated, SafesetError
from .ingest import (
    LABEL_RULES,
    check_field_names,
    label_collisions,
    parse_trajectory_csv,
    write_collision_csv,
    write_trajectory_csv,
)
from .oss import PRESETS, export_states_csv, extract_states
from .pipeline import AnalysisConfig, run_analysis
from .report import emit_report
from .safegraph import REACH_MODES
from .simgen import IDM_PRESETS, ncap_battery, simulate_battery

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EXCLUSION = 3


def _labels_sidecar(out: Path) -> Path:
    return out.with_name(out.stem + "_labels" + out.suffix)


def _write_dataset(dataset, out: Path) -> Path:
    """Write the trajectory CSV to ``out`` and its collision labels to the
    ``_labels`` sidecar next to it; returns the sidecar's path."""
    labels = _labels_sidecar(out)
    write_trajectory_csv(dataset, out)
    write_collision_csv(dataset.collision_events, labels)
    return labels


def _add_ingest_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="trajectory CSV to read")
    p.add_argument(
        "--col",
        action="append",
        default=[],
        metavar="FIELD=HEADER",
        help="map a canonical field to a differently named column (repeatable)",
    )
    p.add_argument("--labels", default=None, help="collision label CSV sidecar")
    p.add_argument(
        "--rule",
        default="either",
        choices=sorted(LABEL_RULES),
        help="how to combine provided labels with geometric overlap detection",
    )


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, or a usage error naming the flag."""
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expects a non-negative integer, got {text!r}")


def _parse_columns(pairs: list[str]) -> dict:
    mapping = {}
    for pair in pairs:
        if "=" not in pair:
            raise SafesetError(f"--col expects FIELD=HEADER, got {pair!r}")
        field, header = pair.split("=", 1)
        mapping[field.strip()] = header.strip()
    check_field_names(mapping, "--col")
    return mapping


def _load_dataset(args: argparse.Namespace):
    dataset = parse_trajectory_csv(
        args.input,
        schema_options=_parse_columns(args.col) or None,
        labels_path=args.labels,
    )
    return label_collisions(dataset, args.rule)


def _cmd_simulate(args: argparse.Namespace) -> int:
    dataset = simulate_battery(
        IDM_PRESETS[args.policy], ncap_battery(grid_seed=args.seed)
    )
    out = Path(args.out)
    labels = _write_dataset(dataset, out)
    print(
        f"wrote {len(dataset.samples)} samples, "
        f"{len(dataset.trajectory_ids)} runs, "
        f"{len(dataset.collision_events)} collision events -> {out} (+ {labels.name})"
    )
    return EXIT_OK


def _cmd_ingest(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    out = Path(args.out)
    _write_dataset(dataset, out)
    rejected = len(dataset.rejected_tracks)
    print(
        f"wrote {len(dataset.samples)} samples across "
        f"{len(dataset.trajectory_ids)} trajectories -> {out}"
        + (f" ({rejected} irregular tracks dropped)" if rejected else "")
    )
    return EXIT_OK


def _cmd_extract(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    spec = PRESETS[args.preset]
    table = extract_states(dataset, spec)
    export_states_csv(table, spec, args.out)
    print(
        f"projected {len(table)} states in {table.n_segments} gap-free segments "
        f"({spec.kind}, dim {spec.dim}) -> {args.out}"
    )
    return EXIT_OK


def _build_config(args: argparse.Namespace) -> AnalysisConfig:
    """The config file's settings, overridden by every analyze flag given;
    each flag's dest is the name of its config field, and ``--preset``
    replaces the file's oss block."""
    cfg = AnalysisConfig.from_json(args.config) if args.config is not None else AnalysisConfig()
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(AnalysisConfig)}
    if args.preset is not None:
        cfg.oss = None
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _summary_lines(data: dict) -> list[str]:
    proj = data["projection"]
    trans = data["transitions"]
    safe = data["safe_set"]
    eps = data["epsilon"]
    cov = data["coverage"]
    base = data["baselines"]
    shape = data["shape"]
    lines = [
        f"projection: {proj['kind']} (dim {proj['dim']}), "
        f"{proj['n_states']} states, {proj['n_unique_states']} unique",
        f"transitions: {trans['total']} total = {trans['safe']} retained "
        f"+ {trans['complement']} complement",
        f"safe set: {safe['unique_count']} states kept, "
        f"{safe['removed_count']} pruned, exclusion_ok={safe['exclusion_ok']}",
        f"shape: {shape['kind']}, measure {shape.get('measure')}",
        f"epsilon: single {eps['epsilon_single']:.6g}, "
        f"order-averaged {eps['epsilon_bar_exact']:.6g} "
        f"(confidence {eps['confidence']:.6g})",
        f"coverage: occupancy {cov['occupancy']:.6g}, density {cov['density']}",
    ]
    if base["fatality_rate_bound"] is not None:
        lines.append(
            f"baseline: fatality-rate bound {base['fatality_rate_bound']:.6g} "
            f"over {base['safe_distance_km']:.6g} km"
        )
    if base["ttc_mean"] is not None:
        lines.append(
            f"baseline: time-to-collision mean {base['ttc_mean']:.6g} s "
            f"(std {base['ttc_std']:.6g}, {base['ttc_n_valid']} valid)"
        )
    return lines


def _cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    report = run_analysis(cfg)
    paths = emit_report(report, args.out_dir)
    for line in _summary_lines(report.data):
        print(line)
    print(f"report -> {paths['report']}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    with open(args.report) as fh:
        data = json.load(fh)
    try:
        lines = _summary_lines(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise SafesetError(f"{args.report} is not a safeset report: {exc!r}") from None
    for line in lines:
        print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safeset",
        description="Data-driven safe-state-set extraction and certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic braking battery")
    p.add_argument("--policy", default="idm1", choices=sorted(IDM_PRESETS))
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ingest", help="parse, validate, and canonicalize a CSV")
    _add_ingest_options(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("extract", help="project trajectories into a state space")
    _add_ingest_options(p)
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("analyze", help="run the full pipeline and write artifacts")
    p.add_argument("--config", default=None, help="JSON configuration file")
    p.add_argument(
        "--input", dest="input_csv", default=None, help="trajectory CSV (overrides config)"
    )
    p.add_argument("--labels", dest="labels_csv", default=None)
    p.add_argument(
        "--rule", dest="collision_rule", default=None, choices=sorted(LABEL_RULES)
    )
    p.add_argument("--preset", default=None, choices=sorted(PRESETS))
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--reach-mode", dest="reach_mode", default=None, choices=REACH_MODES)
    p.add_argument("--match-radius", dest="match_radius", type=float, default=None)
    p.add_argument("--alpha-lo", dest="alpha_lo", type=float, default=None)
    p.add_argument("--alpha-hi", dest="alpha_hi", type=float, default=None)
    p.add_argument(
        "--alpha-threshold", dest="alpha_threshold", type=float, default=None
    )
    p.add_argument("--max-exact-dim", dest="max_exact_dim", type=int, default=None)
    p.add_argument("--cluster-max", dest="cluster_max", type=int, default=None)
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--slice-cells", dest="slice_cells", type=int, default=None)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("report", help="print a summary of an existing report.json")
    p.add_argument("--report", required=True, help="path to report.json")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExclusionViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXCLUSION
    except (SafesetError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
