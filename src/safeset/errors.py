"""Exception types raised across the safeset package.

Every error the library raises deliberately derives from ``SafesetError`` so
callers (and the CLI) can separate validation problems from genuine bugs.
"""

from __future__ import annotations


class SafesetError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

class MissingColumn(SafesetError):
    """A required column is absent from the input CSV header."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"required column {column!r} not found in header")


class MalformedRow(SafesetError):
    """A CSV row (or row-level invariant) could not be interpreted."""

    def __init__(self, line: int | None, reason: str):
        self.line = line
        self.reason = reason
        where = f"line {line}" if line is not None else "input"
        super().__init__(f"{where}: {reason}")


class NonMonotoneTime(SafesetError):
    """Frames or timestamps within one track do not strictly increase."""

    def __init__(self, trajectory_id: str, agent_id: str):
        self.trajectory_id = trajectory_id
        self.agent_id = agent_id
        super().__init__(
            f"track ({trajectory_id!r}, {agent_id!r}) has non-increasing frame/time"
        )


# ---------------------------------------------------------------------------
# state-space projection
# ---------------------------------------------------------------------------

class SpecKindMismatch(SafesetError):
    """A state-space spec names an unknown kind."""


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

class DegenerateInput(SafesetError):
    """Point set is affinely degenerate (or too small) for a full-dimensional
    triangulation."""


class DimensionTooHigh(SafesetError):
    """Requested exact triangulation above the configured dimension cap."""

    def __init__(self, dim: int, max_exact_dim: int):
        self.dim = dim
        self.max_exact_dim = max_exact_dim
        super().__init__(
            f"exact triangulation requested in dimension {dim}, cap is {max_exact_dim};"
            " route through clustering + hull shapes instead"
        )


class DimensionMismatch(SafesetError):
    """Query point dimension differs from the structure it is tested against."""


class InfeasibleAtHi(SafesetError):
    """No single connected shape covering all points exists at the upper alpha."""

    def __init__(self, hi: float, needed: float):
        self.hi = hi
        self.needed = needed
        super().__init__(
            f"shape is not a single all-covering polytope even at alpha={hi!r};"
            f" the cloud needs alpha >= {needed!r}; widen the search interval"
        )


class EmptySpace(SafesetError):
    """Operational state-space box has zero or negative volume."""


class ExclusionViolated(SafesetError):
    """Wrapped shape contains states that were pruned or found unsafe."""

    def __init__(self, count: int, example: tuple[float, ...] | None = None):
        self.count = count
        self.example = example
        detail = f"; first offender {example!r}" if example is not None else ""
        super().__init__(
            f"{count} non-retained state(s) fall inside the wrapped shape{detail};"
            " re-run with different alpha bounds or a larger match radius so the"
            " retained and removed states separate"
        )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class InvalidBeta(SafesetError):
    """Confidence parameter outside the open interval (0, 1)."""

    def __init__(self, beta: float):
        self.beta = beta
        super().__init__(f"beta must lie in (0, 1), got {beta!r}")


class InvalidCounts(SafesetError):
    """Transition counts are negative, empty, or inconsistent."""


class CollisionsPresent(SafesetError):
    """Mileage-based baseline requested on data that contains collisions."""


# ---------------------------------------------------------------------------
# synthetic data generation
# ---------------------------------------------------------------------------

class NonPositiveGap(SafesetError):
    """Car-following model evaluated at a non-positive bumper gap."""

    def __init__(self, gap: float):
        self.gap = gap
        super().__init__(f"bumper gap must be positive, got {gap!r}")
