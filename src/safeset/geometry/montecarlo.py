"""Monte-Carlo integration over a box, and the volume of a membership region.

Samples are drawn uniformly in the box in fixed-size batches, each batch
from its own spawned generator stream. Batch results combine by summation
in batch order, so every estimate is bit-identical whether batches run
serially or on a thread pool (size capped by the SAFESET_THREADS
environment variable).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import EmptySpace

MIN_SAMPLES = 1000
BATCH_SIZE = 8192


def thread_budget() -> int:
    """Pool size from SAFESET_THREADS: 1 when unset, else a positive integer."""
    raw = os.environ.get("SAFESET_THREADS")
    if raw is None:
        return 1
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise ValueError(f"SAFESET_THREADS must be a positive integer, got {raw!r}")


@dataclass(frozen=True)
class McVolume:
    estimate: float
    half_width_95: float
    n_samples: int
    hits: int
    box_volume: float


def sample_sums(
    integrand: Callable[[np.ndarray], tuple],
    bounds: np.ndarray,
    n_samples: int,
    seed: int,
    threads: int | None = None,
) -> list:
    """Sum ``integrand`` over ``n_samples`` uniform draws in the box.

    Draws come in ``BATCH_SIZE`` batches, batch k from the k-th stream of
    ``SeedSequence(seed).spawn``. ``integrand`` maps an (m, n) sample block
    to a tuple of per-batch sums; each tuple position is added up in batch
    order, whatever the thread count. Fewer than MIN_SAMPLES draws are
    refused.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_SAMPLES}")
    widths = bounds[:, 1] - bounds[:, 0]
    counts = [BATCH_SIZE] * (n_samples // BATCH_SIZE)
    if n_samples % BATCH_SIZE:
        counts.append(n_samples % BATCH_SIZE)
    seeds = np.random.SeedSequence(seed).spawn(len(counts))

    def run_batch(args: tuple[int, np.random.SeedSequence]) -> tuple:
        m, ss = args
        rng = np.random.default_rng(ss)
        return integrand(bounds[:, 0] + rng.random((m, bounds.shape[0])) * widths)

    workers = thread_budget() if threads is None else threads
    if workers < 1:
        raise ValueError(f"threads must be at least 1, got {workers}")
    if workers == 1:
        sums = [run_batch(a) for a in zip(counts, seeds)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            sums = list(pool.map(run_batch, zip(counts, seeds)))
    return [sum(column) for column in zip(*sums)]


def mc_volume(
    membership: Callable[[np.ndarray], np.ndarray],
    bounds: np.ndarray,
    n_samples: int = 100_000,
    seed: int = 0,
    threads: int | None = None,
) -> McVolume:
    """Estimate the volume of {x in box : membership(x)}.

    membership maps an (m, n) sample block to an (m,) boolean array. The
    95% half-width is the normal-approximation binomial interval scaled by
    the box volume.
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError("bounds must have shape (n, 2)")
    widths = bounds[:, 1] - bounds[:, 0]
    if not (widths > 0).all():
        raise EmptySpace("sampling box must have positive extent in every dimension")
    box_volume = float(np.prod(widths))

    (hits,) = sample_sums(
        lambda pts: (int(np.count_nonzero(membership(pts))),),
        bounds,
        n_samples,
        seed,
        threads,
    )
    p = hits / n_samples
    half = 1.96 * box_volume * float(np.sqrt(p * (1.0 - p) / n_samples))
    return McVolume(
        estimate=box_volume * p,
        half_width_95=half,
        n_samples=n_samples,
        hits=hits,
        box_volume=box_volume,
    )
