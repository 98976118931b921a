"""Seeded 13-D multi-vehicle scene: the subject vehicle plus six neighbours.

The subject vehicle drives the centre lane of a three-lane road with a
sinusoidal speed profile; one scripted neighbour sits in front of and one
behind it in each lane, with smoothly varying gaps (plus a seeded random
drift) and speeds. Every neighbour stays inside the ``highd-multi`` state
bounds, so all 2,000 frames project to valid 13-D states and no collision
occurs. This mirrors the scene used by the 13-D acceptance criterion.
"""

from __future__ import annotations

import numpy as np

from safeset.ingest import Dataset, RawSample

LANE_Y = {"l": 7.5, "c": 3.75, "r": 0.0}
LANE_ID = {"l": 3, "c": 2, "r": 1}
# subregion -> (lane, +1 ahead / -1 behind, gap phase)
NEIGHBOURS = {
    "fl": ("l", +1, 0.8),
    "fc": ("c", +1, 0.3),
    "fr": ("r", +1, 1.9),
    "rl": ("l", -1, 2.7),
    "rc": ("c", -1, 4.0),
    "rr": ("r", -1, 5.2),
}
SPEED_PHASE = {"fl": 0.5, "fc": 1.5, "fr": 2.5, "rl": 3.5, "rc": 4.5, "rr": 5.5}


def _sample(k: int, t: float, agent: str, x: float, lane: str, vx: float, sv: bool):
    return RawSample(
        recording_id="synth",
        trajectory_id="run0",
        frame=k,
        time=t,
        agent_id=agent,
        agent_type="car",
        x=x,
        y=LANE_Y[lane],
        vx=vx,
        vy=0.0,
        length=4.0,
        width=2.0,
        lane_id=LANE_ID[lane],
        sv_flag=sv,
    )


def scripted_neighbour_dataset(seed: int, n_frames: int = 2000, dt: float = 0.04) -> Dataset:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t = np.arange(n_frames) * dt
    v_sv = 25.0 + 3.0 * np.sin(2.0 * np.pi * t / 30.0)
    x_sv = np.concatenate([[0.0], np.cumsum(v_sv[:-1] * dt)])

    samples = [
        _sample(k, float(t[k]), "sv", float(x_sv[k]), "c", float(v_sv[k]), True)
        for k in range(n_frames)
    ]
    for name, (lane, sign, phase) in NEIGHBOURS.items():
        drift = rng.normal(0.0, 0.3, n_frames).cumsum() * 0.01
        gap = np.clip(14.0 + 8.0 * np.sin(2.0 * np.pi * t / 40.0 + phase) + drift, 5.0, 45.0)
        v_n = np.clip(
            25.0 + 3.5 * np.sin(2.0 * np.pi * t / 35.0 + SPEED_PHASE[name]), 20.2, 29.8
        )
        x_n = x_sv + sign * (gap + 4.0)
        samples.extend(
            _sample(k, float(t[k]), name, float(x_n[k]), lane, float(v_n[k]), False)
            for k in range(n_frames)
        )
    return Dataset(samples, dt=dt)
