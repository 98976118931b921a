"""Data-driven extraction and certification of safe driving state sets.

The package turns recorded (or simulated) multi-agent trajectories into
an explicit geometric region of operating states with a statistical
near-invariance certificate:

1. :mod:`safeset.ingest` parses and validates trajectory CSVs.
2. :mod:`safeset.oss` projects them into bounded operational state spaces.
3. :mod:`safeset.safegraph` prunes states that can reach misbehaviour.
4. :mod:`safeset.geometry` wraps the survivors in a tuned alpha shape
   (or clustered unions / convex wraps in high dimension).
5. :mod:`safeset.metrics` certifies near-invariance levels and computes
   coverage plus classical baselines.
6. :mod:`safeset.pipeline` / :mod:`safeset.report` / :mod:`safeset.cli`
   orchestrate runs and emit deterministic artifacts.

The package root re-exports nothing: import each name from its submodule,
e.g. ``from safeset.pipeline import AnalysisConfig, run_analysis``.
"""

__version__ = "0.1.0"
