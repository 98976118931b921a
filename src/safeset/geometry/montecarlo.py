"""Monte-Carlo integration over a box, and the volume of a membership region.

Samples are drawn uniformly in the box in fixed-size batches, each batch
from its own spawned generator stream, and run one after another. Batch
results combine by summation in batch order, so an estimate depends only
on the seed and the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import EmptySpace

MIN_SAMPLES = 1000
BATCH_SIZE = 8192


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
) -> list:
    """Sum ``integrand`` over ``n_samples`` uniform draws in the box.

    Draws come in ``BATCH_SIZE`` batches, batch k from the k-th stream of
    ``SeedSequence(seed).spawn``. ``integrand`` maps an (m, n) sample block
    to a tuple of per-batch sums; each tuple position is added up in batch
    order. Fewer than MIN_SAMPLES draws are refused.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_SAMPLES}")
    widths = bounds[:, 1] - bounds[:, 0]
    counts = [BATCH_SIZE] * (n_samples // BATCH_SIZE)
    if n_samples % BATCH_SIZE:
        counts.append(n_samples % BATCH_SIZE)
    seeds = np.random.SeedSequence(seed).spawn(len(counts))
    lo, dim = bounds[:, 0], bounds.shape[0]
    sums = [
        integrand(lo + np.random.default_rng(ss).random((m, dim)) * widths)
        for m, ss in zip(counts, seeds)
    ]
    return [sum(column) for column in zip(*sums)]


def mc_volume(
    membership: Callable[[np.ndarray], np.ndarray],
    bounds: np.ndarray,
    n_samples: int = 100_000,
    seed: int = 0,
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
        lambda pts: (int(np.count_nonzero(membership(pts))),), bounds, n_samples, seed
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
