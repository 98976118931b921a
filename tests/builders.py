"""Shared in-memory fixture builders for the test suite."""

import numpy as np

from safeset.ingest import Dataset, RawSample
from safeset.oss import StateTable


def sample(**kw):
    base = dict(
        recording_id="rec0",
        trajectory_id="t0",
        frame=0,
        time=0.0,
        agent_id="ego",
        agent_type="car",
        x=0.0,
        y=0.0,
        vx=10.0,
        vy=0.0,
        length=4.0,
        width=2.0,
        lane_id=None,
        sv_flag=False,
    )
    base.update(kw)
    return RawSample(**base)


def scene_dataset(agents, n_frames, dt=0.1, trajectory_id="t0", events=()):
    """Build a Dataset from per-agent kinematic scripts.

    ``agents`` maps agent_id to a dict with keys:
      x0, y0: position at frame 0
      vx, vy: constant velocity (m/s)
      plus optional agent_type, length, width, lane_id, sv (bool),
      frames (explicit frame list; defaults to range(n_frames)).
    """
    samples = []
    for agent_id, a in agents.items():
        frames = a.get("frames", range(n_frames))
        for k in frames:
            t = k * dt
            samples.append(
                sample(
                    trajectory_id=trajectory_id,
                    frame=k,
                    time=t,
                    agent_id=agent_id,
                    agent_type=a.get("agent_type", "car"),
                    x=a["x0"] + a.get("vx", 0.0) * t,
                    y=a.get("y0", 0.0) + a.get("vy", 0.0) * t,
                    vx=a.get("vx", 0.0),
                    vy=a.get("vy", 0.0),
                    length=a.get("length", 4.0),
                    width=a.get("width", 2.0),
                    lane_id=a.get("lane_id"),
                    sv_flag=bool(a.get("sv", False)),
                )
            )
    samples.sort(key=lambda s: (s.agent_id, s.frame))
    return Dataset(samples, dt=dt, collision_events=events)


def rigid_motion(d, theta, tx, ty):
    """Rotate positions and velocities by theta and translate positions."""
    c, s = np.cos(theta), np.sin(theta)
    moved = []
    for smp in d.samples:
        x = c * smp.x - s * smp.y + tx
        y = s * smp.x + c * smp.y + ty
        vx = c * smp.vx - s * smp.vy
        vy = s * smp.vx + c * smp.vy
        moved.append(
            RawSample(
                recording_id=smp.recording_id,
                trajectory_id=smp.trajectory_id,
                frame=smp.frame,
                time=smp.time,
                agent_id=smp.agent_id,
                agent_type=smp.agent_type,
                x=float(x),
                y=float(y),
                vx=float(vx),
                vy=float(vy),
                length=smp.length,
                width=smp.width,
                lane_id=smp.lane_id,
                sv_flag=smp.sv_flag,
            )
        )
    return Dataset(moved, dt=d.dt, collision_events=d.collision_events)


def segment(values, tid="t0", index=0, collisions=(), frames=None, unsafe=()):
    """A one-segment StateTable holding ``values``, one state per row.

    Frames default to 0, 1, 2, ... and times are 0.1 s per frame.
    ``unsafe`` lists the positions of states flagged unsafe and
    ``collisions`` the collision frames attributed to the segment.
    """
    vals = np.asarray(values, dtype=float).reshape(len(values), -1)
    n = len(vals)
    frame = np.arange(n) if frames is None else np.asarray(frames)
    flags = np.zeros(n, dtype=bool)
    flags[list(unsafe)] = True
    return StateTable(
        values=vals,
        frame=frame.astype(np.int64),
        time=0.1 * frame,
        unsafe=flags,
        offsets=np.array([0, n], dtype=np.intp),
        trajectory_ids=(tid,),
        segment_index=np.array([index]),
        collision_frames=(tuple(collisions),),
    )


def table(*segments, dim=None):
    """Stack one-segment tables (see :func:`segment`) in order."""
    if dim is None:
        dim = segments[0].dim if segments else 0
    return StateTable.concat(segments, dim)


def segment_values(t, j):
    """The value tuples of segment ``j`` of table ``t``."""
    lo, hi = t.offsets[j], t.offsets[j + 1]
    return [tuple(v) for v in t.values[lo:hi].tolist()]


def segment_frames(t, j):
    return t.frame[t.offsets[j] : t.offsets[j + 1]].tolist()
