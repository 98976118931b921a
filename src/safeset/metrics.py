"""Certification metrics: almost-invariance levels, coverage, baselines.

The invariance level of a wrapped state set is certified from how the
recorded transitions interact with it. With N trailing consecutive
transitions that start and end inside the set, the violation probability
epsilon is bounded, to confidence 1 - beta, by

    epsilon(N) = 1 - exp(ln(beta) / N),        epsilon(0) = 1.

Because N depends on the (arbitrary) replay order of the transition set,
the expected level is taken over all orders, uniformly. For s transitions
with both endpoints retained and c others, the trailing-run length has

    P(N = i) = s!/(s-i)! * c * (s+c-i-1)! / (s+c)!      (c >= 1, 0<=i<=s)
    P(N = s) = 1                                        (c == 0)

and the expectation sums epsilon(i) P(N = i). All factorial ratios are
evaluated in log-gamma space; no factorial is materialized. A verbatim
published variant of the expectation (weights i!(|TD|-i)!/|TD|!) is kept
alongside for comparison; the two differ, e.g. at s = 2, c = 2, where the
variant weights i = 1 by 1/4 while the run model gives 1/3.

Coverage reports how much of the state-space box the shape occupies and
how densely the retained states fill the shape. Baselines cover
time-to-collision statistics and the mileage-based fatality bound
1 - exp(ln(beta) / miles) for collision-free data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import (
    CollisionsPresent,
    DimensionMismatch,
    EmptySpace,
    InvalidBeta,
    InvalidCounts,
)

KM_PER_MILE = 1.609344
TTC_CLIP_S = 9.0


def _check_beta(beta: float) -> None:
    if not (0.0 < beta < 1.0):
        raise InvalidBeta(beta)


def epsilon_from_count(n: int, beta: float) -> float:
    """Violation-probability bound from a trailing safe-run count.

    Monotone decreasing in n; n = 0 yields the vacuous bound 1.
    """
    _check_beta(beta)
    if n < 0:
        raise InvalidCounts(f"run count must be non-negative, got {n}")
    if n == 0:
        return 1.0
    return -math.expm1(math.log(beta) / n)


def count_trailing_safe(inside: np.ndarray) -> int:
    """Length of the trailing run of True in the per-transition labels
    (True = both endpoints inside the set), replayed in the given order."""
    inside = np.asarray(inside, dtype=bool)
    outside = np.flatnonzero(~inside)
    return len(inside) - (int(outside[-1]) + 1 if len(outside) else 0)


def trailing_run_pmf(s: int, c: int) -> np.ndarray:
    """Distribution of the trailing safe-run length over uniform orders.

    Returns probabilities for N = 0..s. Requires s, c >= 0 and s + c >= 1.
    """
    if s < 0 or c < 0 or s + c < 1:
        raise InvalidCounts(f"need s, c >= 0 with s + c >= 1, got s={s}, c={c}")
    if c == 0:
        pmf = np.zeros(s + 1)
        pmf[s] = 1.0
        return pmf
    i = np.arange(s + 1, dtype=float)
    log_p = (
        gammaln(s + 1.0)
        - gammaln(s - i + 1.0)
        + math.log(c)
        + gammaln(s + c - i)
        - gammaln(s + c + 1.0)
    )
    return np.exp(log_p)


def _epsilons(s: int, beta: float) -> np.ndarray:
    """epsilon(i) for i = 0..s, with the vacuous epsilon(0) = 1."""
    out = np.ones(s + 1)
    if s >= 1:
        i = np.arange(1, s + 1, dtype=float)
        out[1:] = -np.expm1(math.log(beta) / i)
    return out


def epsilon_bar_exact(s: int, c: int, beta: float) -> float:
    """Expected violation bound over all replay orders (run-length model)."""
    _check_beta(beta)
    pmf = trailing_run_pmf(s, c)
    return float(np.dot(pmf, _epsilons(s, beta)))


def algorithm3_epsilon_bar(s: int, td_total: int, beta: float) -> float:
    """Published closed-form variant of the expectation.

    Sums epsilon(i) * i! (|TD|-i)! / |TD|! for i = 1..s, in log-gamma
    space. Kept verbatim for comparison; see the module docstring for
    where it departs from the run-length model (and note the weights do
    not sum to 1 when c = 0).
    """
    _check_beta(beta)
    if td_total < 1 or s < 0 or s > td_total:
        raise InvalidCounts(
            f"need 1 <= |TD| and 0 <= s <= |TD|, got s={s}, |TD|={td_total}"
        )
    if s == 0:
        return 0.0
    i = np.arange(1, s + 1, dtype=float)
    log_w = gammaln(i + 1.0) + gammaln(td_total - i + 1.0) - gammaln(td_total + 1.0)
    return float(np.dot(np.exp(log_w), _epsilons(s, beta)[1:]))


@dataclass(frozen=True)
class EpsilonResult:
    """Certification summary for one analysis run."""

    beta: float
    s_count: int
    c_count: int
    n_trailing: int
    epsilon_single: float
    epsilon_bar_exact: float
    epsilon_bar_paper: float

    @property
    def confidence(self) -> float:
        return 1.0 - self.beta


def certify(inside: np.ndarray, beta: float) -> EpsilonResult:
    """Assemble the full epsilon report for an ordered transition set, given
    per transition whether both endpoints are inside the set."""
    _check_beta(beta)
    inside = np.asarray(inside, dtype=bool)
    s = int(inside.sum())
    c = len(inside) - s
    n = count_trailing_safe(inside)
    return EpsilonResult(
        beta=beta,
        s_count=s,
        c_count=c,
        n_trailing=n,
        epsilon_single=epsilon_from_count(n, beta),
        epsilon_bar_exact=epsilon_bar_exact(s, c, beta) if s + c >= 1 else 1.0,
        epsilon_bar_paper=algorithm3_epsilon_bar(s, s + c, beta)
        if s + c >= 1
        else 0.0,
    )


@dataclass(frozen=True)
class CoverageResult:
    ds_count: int
    shape_measure: float
    space_measure: float
    density: float | None
    occupancy: float


def coverage(ds_count: int, shape_measure: float, space_measure: float) -> CoverageResult:
    """Density (states per unit shape volume) and occupancy (shape/space).

    A zero-measure shape reports occupancy 0 and no density.
    """
    if space_measure <= 0.0:
        raise EmptySpace(f"space measure must be positive, got {space_measure!r}")
    if ds_count < 0 or shape_measure < 0.0:
        raise InvalidCounts("counts and measures must be non-negative")
    density = None if shape_measure == 0.0 else ds_count / shape_measure
    return CoverageResult(
        ds_count=ds_count,
        shape_measure=shape_measure,
        space_measure=space_measure,
        density=density,
        occupancy=shape_measure / space_measure,
    )


@dataclass(frozen=True)
class TtcStats:
    mean: float | None
    std: float | None
    valid_rate: float
    n_valid: int
    n_states: int


def ttc_stats(values: np.ndarray) -> TtcStats:
    """Time-to-collision statistics over (n, 3) lead-following states.

    TTC = p / (v0 - v1), valid only while closing (v0 > v1) with positive
    gap, clipped at 9 s. The rate is valid states over all states.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != 3:
        raise DimensionMismatch(
            f"TTC needs (n, 3) lead-following states, got shape {values.shape}"
        )
    n_states = len(values)
    if n_states == 0:
        return TtcStats(None, None, 0.0, 0, 0)
    v0, v1, p = values[:, 0], values[:, 1], values[:, 2]
    valid = (v0 > v1) & (p > 0)
    n_valid = int(valid.sum())
    if n_valid == 0:
        return TtcStats(None, None, 0.0, 0, n_states)
    ttc = np.minimum(p[valid] / (v0[valid] - v1[valid]), TTC_CLIP_S)
    return TtcStats(
        mean=float(ttc.mean()),
        std=float(ttc.std()),
        valid_rate=n_valid / n_states,
        n_valid=n_valid,
        n_states=n_states,
    )


def fatality_rate_bound(
    safe_distance_km: float, beta: float = 0.001, collision_count: int = 0
) -> float:
    """Mileage-based bound on the per-mile fatality rate of collision-free
    driving: 1 - exp(ln(beta) / miles)."""
    _check_beta(beta)
    if collision_count > 0:
        raise CollisionsPresent(
            f"data contains {collision_count} collision event(s); the mileage"
            " bound applies to collision-free data only"
        )
    if safe_distance_km <= 0.0:
        raise InvalidCounts(f"distance must be positive, got {safe_distance_km!r}")
    miles = safe_distance_km / KM_PER_MILE
    return -math.expm1(math.log(beta) / miles)

