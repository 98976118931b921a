"""Shared in-memory fixture builders and oracles for the test suite."""

from itertools import permutations
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from safeset.errors import DimensionMismatch, InvalidCounts
from safeset.ingest import AGENT_TYPES, Dataset, RawSample
from safeset.metrics import epsilon_from_count
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


def epsilon_bar_bruteforce(labels: Sequence[bool], beta: float) -> float:
    """Oracle expectation by enumerating every permutation of the labels.

    labels holds one boolean per transition (True = both endpoints
    retained). epsilon_from_count checks beta.
    """
    labels = list(labels)
    if not labels:
        raise InvalidCounts("need at least one transition")
    total = 0.0
    count = 0
    for order in permutations(labels):
        n = 0
        for safe in order:
            n = n + 1 if safe else 0
        total += epsilon_from_count(n, beta)
        count += 1
    return total / count


def face_ids(faces_of, k, fid, keep):
    """Oracle ids and level of the faces on sorted vertex columns ``keep``
    of the k-simplices ``fid``, walked top down: dropping the other columns
    highest first, one face level at a time, keeps the remaining ones in
    place."""
    for col in range(k, -1, -1):
        if col not in keep:
            fid = faces_of[k][fid, col]
            k -= 1
    return fid, k


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
    """Stack tables of ``dim``-D states (see :func:`segment`), segments in
    the given order."""
    if dim is None:
        dim = segments[0].dim if segments else 0
    for t in segments:
        if t.dim != dim:
            raise DimensionMismatch(f"states of dimension {t.dim}, expected {dim}")
    lengths = [np.diff(t.offsets) for t in segments]
    return StateTable(
        values=np.concatenate([np.empty((0, dim))] + [t.values for t in segments]),
        frame=np.concatenate([np.empty(0, np.int64)] + [t.frame for t in segments]),
        time=np.concatenate([np.empty(0)] + [t.time for t in segments]),
        unsafe=np.concatenate([np.empty(0, bool)] + [t.unsafe for t in segments]),
        offsets=np.cumsum(np.concatenate([[0]] + lengths)).astype(np.intp),
        trajectory_ids=tuple(i for t in segments for i in t.trajectory_ids),
        segment_index=np.concatenate(
            [np.empty(0, np.intp)] + [t.segment_index for t in segments]
        ),
        collision_frames=tuple(c for t in segments for c in t.collision_frames),
    )


def segment_values(t, j):
    """The value tuples of segment ``j`` of table ``t``."""
    lo, hi = t.offsets[j], t.offsets[j + 1]
    return [tuple(v) for v in t.values[lo:hi].tolist()]


def segment_frames(t, j):
    return t.frame[t.offsets[j] : t.offsets[j + 1]].tolist()


# ids that need CSV quoting; trajectory and agent ids are read stripped
IDS = st.text(alphabet='ab,"\n\r\' ;', max_size=3).filter(lambda s: s == s.strip())
RECORDING_IDS = st.text(alphabet='ab,"\n ', max_size=3)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.1 + 0.2, 1.0 / 3.0, 5e-324, -1.7976931348623157e308]
)
SIZES = st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)
LANES = st.none() | st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3)


@st.composite
def recordings(draw):
    """A valid Dataset: 1-3 trajectories of 1-3 agents each, one subject per
    trajectory, rows of different tracks interleaved across trajectories."""
    traj_ids = draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
    tracks = []
    for traj in traj_ids:
        agents = draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
        sv = draw(st.sampled_from(agents))
        for agent in agents:
            n = draw(st.integers(2 if agent == sv else 1, 4))
            f0 = draw(st.integers(-3, 3))
            t0 = draw(st.sampled_from([0.0, -0.0, 0.1 + 0.2, -7.25, 1e3 / 3]))
            agent_type = draw(st.sampled_from(AGENT_TYPES))
            tracks.append([
                RawSample(
                    recording_id=draw(RECORDING_IDS),
                    trajectory_id=traj,
                    frame=f0 + k,
                    time=t0 if k == 0 else t0 + 0.1 * k,
                    agent_id=agent,
                    agent_type=agent_type,
                    x=draw(FLOATS),
                    y=draw(FLOATS),
                    vx=draw(FLOATS),
                    vy=draw(FLOATS),
                    length=draw(SIZES),
                    width=draw(SIZES),
                    lane_id=draw(LANES),
                    sv_flag=agent == sv,
                )
                for k in range(n)
            ])
    turns = draw(st.permutations([i for i, t in enumerate(tracks) for _ in t]))
    iters = [iter(t) for t in tracks]
    samples = [next(iters[i]) for i in turns]
    events = draw(st.lists(st.tuples(st.sampled_from(traj_ids), st.integers(-3, 9)), max_size=3))
    return samples, events
