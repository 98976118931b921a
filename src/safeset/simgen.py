"""Synthetic car-following data from a parametric following controller.

A follower controlled by the intelligent-driver law trails a scripted lead
vehicle on a straight lane. Three scenario families mimic an AEB-style
test battery: stationary lead, slower constant-speed lead, and a braking
lead. The battery is a deterministic 48-cell grid over initial speeds with
a small seeded jitter on initial gaps so different seeds give distinct but
statistically equivalent batteries.

Integration is forward Euler (positions advance with the pre-step speed)
at a fixed step; follower speed is floored at zero. A step that closes the
bumper gap ends the run: the follower is clamped to exact contact, the
frame is emitted, and a collision event is recorded at it.

Samples go straight into columns: each Euler step appends its four state
floats (follower and lead position and speed) to one flat list, and one
builder turns a battery's list into a :class:`~safeset.ingest.SampleTable`
whose rows are each frame's follower then its lead, episode after episode.
No per-row object is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonPositiveGap
from .ingest import Dataset, SampleTable

VEHICLE_LENGTH = 4.0
VEHICLE_WIDTH = 2.0
DEFAULT_DT = 0.04


@dataclass(frozen=True)
class IdmParams:
    """Intelligent-driver controller parameters."""

    s0: float
    headway: float
    b_max: float
    v_free: float
    a_max: float
    b_comf: float
    delta: float


IDM_0 = IdmParams(
    s0=0.5, headway=0.1, b_max=9.0, v_free=25.0, a_max=0.73, b_comf=1.67, delta=4.0
)
IDM_1 = IdmParams(
    s0=4.0, headway=4.0, b_max=2.0, v_free=25.0, a_max=0.73, b_comf=1.67, delta=4.0
)

IDM_PRESETS = {"idm0": IDM_0, "idm1": IDM_1}


def idm_accel(params: IdmParams, v: float, gap: float, dv: float) -> float:
    """Commanded acceleration at speed v, bumper gap, and closing speed dv.

    dv is positive while closing in on the lead. The result is clamped to
    [-b_max, a_max].
    """
    if gap <= 0.0:
        raise NonPositiveGap(gap)
    desired = params.s0 + max(
        0.0,
        v * params.headway + v * dv / (2.0 * math.sqrt(params.a_max * params.b_comf)),
    )
    a = params.a_max * (
        1.0 - (v / params.v_free) ** params.delta - (desired / gap) ** 2
    )
    return min(max(a, -params.b_max), params.a_max)


@dataclass(frozen=True)
class ScenarioSpec:
    """One car-following episode: initial speeds, gap, lead behaviour."""

    name: str
    sv_speed0: float
    lead_speed0: float
    initial_gap: float
    lead_decel: float = 0.0
    duration_s: float = 40.0
    dt: float = DEFAULT_DT

    def __post_init__(self):
        numbers = (self.sv_speed0, self.lead_speed0, self.initial_gap,
                   self.lead_decel, self.duration_s)
        if not all(map(math.isfinite, numbers)):
            raise ValueError("speeds, gap, lead deceleration and duration must be finite")
        if self.duration_s <= 0.0:
            raise ValueError("duration must be positive")
        if self.initial_gap <= 0.0:
            raise ValueError("initial gap must be positive")
        if not (0.0 < self.dt <= 0.1):
            raise ValueError("dt must lie in (0, 0.1]")
        if self.sv_speed0 < 0.0 or self.lead_speed0 < 0.0:
            raise ValueError("initial speeds must be non-negative")


def _follow(params: IdmParams, scenario: ScenarioSpec, states: list[float]) -> int | None:
    """Run one episode, appending (sv_x, lead_x, v_sv, v_lead) per frame to
    ``states``; returns the collision frame, if any."""
    dt = scenario.dt
    half_sum = VEHICLE_LENGTH  # (own + lead) / 2 with equal lengths
    sv_x = 0.0
    lead_x = half_sum + scenario.initial_gap
    v_sv = scenario.sv_speed0
    v_lead = scenario.lead_speed0
    n_steps = int(round(scenario.duration_s / dt))

    states += (sv_x, lead_x, v_sv, v_lead)
    for k in range(1, n_steps + 1):
        gap = lead_x - sv_x - half_sum
        a = idm_accel(params, v_sv, gap, v_sv - v_lead)
        sv_x += v_sv * dt
        lead_x += v_lead * dt
        v_sv = max(0.0, v_sv + a * dt)
        v_lead = max(0.0, v_lead - scenario.lead_decel * dt)
        if lead_x - sv_x - half_sum <= 0.0:
            sv_x = lead_x - half_sum  # clamp to exact bumper contact
            states += (sv_x, lead_x, v_sv, v_lead)
            return k
        states += (sv_x, lead_x, v_sv, v_lead)
    return None


def _sample_table(
    scenarios: Sequence[ScenarioSpec],
    n_frames: Sequence[int],
    states: list[float],
    recording_id: str,
) -> SampleTable:
    """The samples of episodes run one after another into ``states``.

    Episode i contributed ``n_frames[i]`` frames; each frame gives a row for
    the follower ("sv") then one for the lead. Trajectory codes number the
    scenario names, stripped as the CSV reader strips ids, by first
    appearance, so episodes sharing a name share a trajectory.
    """
    state = np.array(states).reshape(-1, 4)
    counts = np.asarray(n_frames)
    frame = np.arange(len(state)) - np.repeat(np.cumsum(counts) - counts, counts)
    time = frame * np.repeat([sc.dt for sc in scenarios], counts)
    names: dict[str, int] = {}
    codes = [names.setdefault(sc.name.strip(), len(names)) for sc in scenarios]
    n = 2 * len(state)
    agent = np.tile(np.array([0, 1], dtype=np.intp), len(state))
    columns = {
        "recording_id": np.zeros(n, dtype=np.intp),
        "trajectory_id": np.repeat(np.array(codes, dtype=np.intp), 2 * counts),
        "frame": np.repeat(frame, 2),
        "time": np.repeat(time, 2),
        "agent_id": agent,
        "agent_type": np.zeros(n, dtype=np.intp),
        "x": state[:, :2].reshape(-1),
        "y": np.zeros(n),
        "vx": state[:, 2:].reshape(-1),
        "vy": np.zeros(n),
        "length": np.full(n, VEHICLE_LENGTH),
        "width": np.full(n, VEHICLE_WIDTH),
        "lane_id": np.ones(n, dtype=np.int64),
        "sv_flag": agent == 0,
    }
    labels = {
        "recording_id": [recording_id],
        "trajectory_id": list(names),
        "agent_id": ["sv", "lead"],
        "agent_type": ["car"],
    }
    return SampleTable(columns, labels, np.ones(n, dtype=bool))


STATIONARY_SLACK_GAP = 2.0  # x initial speed, low-speed cells
STATIONARY_TIGHT_GAP = 0.45  # x initial speed, high-speed cells
SLOWER_SLACK_GAP = 50.0
SLOWER_TIGHT_GAP = 12.0
TIGHT_SPEED_FROM = 18.0
SLOWER_LEAD_FRACTION = 0.4
BRAKING_GAP_BASE = 4.0
BRAKING_GAP_HEADWAY = 4.5
BRAKING_DECELS = (2.0, 4.0, 6.0)
GAP_JITTER = 0.02


def ncap_battery(grid_seed: int = 0) -> list[ScenarioSpec]:
    """48 AEB-style cells: 16 stationary, 16 slower, 16 braking lead.

    Initial speeds sweep 10..25 m/s. Low-speed cells get slack initial
    gaps, high-speed cells deliberately hopeless ones, so the battery
    produces clearly safe runs and clearly doomed runs rather than grazing
    marginal collisions. grid_seed jitters gaps by up to +-2%.
    """
    rng = np.random.default_rng(np.random.SeedSequence(grid_seed))
    speeds = np.arange(10.0, 26.0)
    specs: list[ScenarioSpec] = []

    def jitter(gap: float) -> float:
        return gap * (1.0 + GAP_JITTER * (2.0 * rng.random() - 1.0))

    for v in speeds:
        tight = v >= TIGHT_SPEED_FROM
        gap = (STATIONARY_TIGHT_GAP if tight else STATIONARY_SLACK_GAP) * v
        specs.append(
            ScenarioSpec(
                name=f"aeb-stationary-v{int(v):02d}",
                sv_speed0=float(v),
                lead_speed0=0.0,
                initial_gap=jitter(gap),
                duration_s=40.0,
            )
        )
    for v in speeds:
        tight = v >= TIGHT_SPEED_FROM
        gap = SLOWER_TIGHT_GAP if tight else SLOWER_SLACK_GAP
        specs.append(
            ScenarioSpec(
                name=f"aeb-slower-v{int(v):02d}",
                sv_speed0=float(v),
                lead_speed0=SLOWER_LEAD_FRACTION * float(v),
                initial_gap=jitter(gap),
                duration_s=60.0,
            )
        )
    for i, v in enumerate(speeds):
        specs.append(
            ScenarioSpec(
                name=f"aeb-braking-v{int(v):02d}",
                sv_speed0=float(v),
                lead_speed0=float(v),
                initial_gap=jitter(BRAKING_GAP_BASE + BRAKING_GAP_HEADWAY * float(v)),
                lead_decel=BRAKING_DECELS[i % len(BRAKING_DECELS)],
                duration_s=60.0,
            )
        )
    return specs


def simulate_battery(
    params: IdmParams, battery: list[ScenarioSpec], recording_id: str = "aeb"
) -> Dataset:
    """Simulate every scenario and assemble one labelled Dataset."""
    if not battery:
        raise ValueError("battery must contain at least one scenario")
    states: list[float] = []
    n_frames: list[int] = []
    events: list[tuple[str, int]] = []
    for sc in battery:
        start = len(states)
        frame = _follow(params, sc, states)
        n_frames.append((len(states) - start) // 4)
        if frame is not None:
            events.append((sc.name, frame))
    table = _sample_table(battery, n_frames, states, recording_id)
    return Dataset(table, dt=battery[0].dt, collision_events=events)
