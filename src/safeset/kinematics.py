"""Planar kinematics shared by collision labelling and projection.

All scene geometry is evaluated in a frame attached to the subject vehicle:
x along its heading, y to its left. Headings come from the velocity vector;
while a vehicle is (nearly) at rest the last moving heading is kept so a
stopped vehicle does not spin with velocity noise.

:func:`sv_frame_offsets` joins every sample of a recording to the subject
vehicle's sample at the same (trajectory, frame), once for the whole
sample table; labelling and every projection read that one join.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

SPEED_EPS = 0.01
"""Speed (m/s) below which the velocity direction is considered unreliable."""


def headings(vx: np.ndarray, vy: np.ndarray, starts=(0,)) -> np.ndarray:
    """Heading angle per sample, with memory across slow samples.

    The samples form runs, one per track, beginning at the ascending
    indices ``starts`` (the first is 0). Samples faster than ``SPEED_EPS``
    use ``atan2(vy, vx)``. Slower samples inherit the previous heading of
    their run; a run's leading slow samples inherit its first moving
    heading, and a run that never moves faces +x.
    """
    vx = np.asarray(vx, dtype=float)
    vy = np.asarray(vy, dtype=float)
    n = len(vx)
    moving = np.hypot(vx, vy) > SPEED_EPS
    theta = np.arctan2(vy, vx)
    bounds = np.append(np.asarray(starts, dtype=np.intp), n)
    start = np.repeat(bounds[:-1], np.diff(bounds))
    end = np.repeat(bounds[1:], np.diff(bounds))
    idx = np.arange(n)
    last = np.maximum.accumulate(np.where(moving, idx, -1))
    following = np.minimum.accumulate(np.where(moving, idx, n)[::-1])[::-1]
    source = np.where(last >= start, last, following)
    return np.where(source < end, theta[np.minimum(source, n - 1)], 0.0)


def frame_keys(traj: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Integer keys ordered as the (trajectory code, frame) pairs are, equal
    exactly where the pairs are. Frames are replaced by their ranks, so no
    key overflows."""
    frames, rank = np.unique(frame, return_inverse=True)
    return np.asarray(traj, dtype=np.int64) * len(frames) + rank.reshape(-1)


class SvJoin(NamedTuple):
    """Every sample of a table seen from the subject vehicle (SV).

    ``sv_rows`` are the SV samples' table rows sorted by (trajectory code,
    frame); a sample's position in that order is its SV index. ``rows``
    are the other samples at a (trajectory, frame) the SV was seen at, in
    track order; ``sv`` holds the SV index of each and ``dlong``/``dlat``
    its center offset in the SV frame.
    """

    sv_rows: np.ndarray
    rows: np.ndarray
    sv: np.ndarray
    dlong: np.ndarray
    dlat: np.ndarray


def sv_frame_offsets(table) -> SvJoin:
    """Join every sample of the sample table ``table`` to the SV sample at
    its (trajectory, frame); see :class:`SvJoin`.

    Offsets are center to center, rotated by the SV heading
    (:func:`headings`, one run per trajectory): dlong along it, dlat
    positive to the SV's left.
    """
    cols = table.columns
    traj, flag = cols["trajectory_id"], cols["sv_flag"]
    keys = frame_keys(traj, cols["frame"])
    sv_rows = np.flatnonzero(flag)
    sv_rows = sv_rows[np.argsort(keys[sv_rows])]
    sv_keys = keys[sv_rows]

    others = table.order[~flag[table.order]]
    pos = np.searchsorted(sv_keys, keys[others])
    found = sv_keys[np.minimum(pos, len(sv_keys) - 1)] == keys[others]
    rows, sv = others[found], pos[found]

    starts = np.flatnonzero(np.diff(traj[sv_rows], prepend=-1))
    theta = headings(cols["vx"][sv_rows], cols["vy"][sv_rows], starts)
    at = sv_rows[sv]
    dx, dy = cols["x"][rows] - cols["x"][at], cols["y"][rows] - cols["y"][at]
    c, s = np.cos(theta[sv]), np.sin(theta[sv])
    return SvJoin(sv_rows, rows, sv, c * dx + s * dy, -s * dx + c * dy)


def boxes_overlap(
    dlong: np.ndarray,
    dlat: np.ndarray,
    half_len_sum: np.ndarray | float,
    half_wid_sum: np.ndarray | float,
) -> np.ndarray:
    """Positive-area overlap test for axis-aligned boxes in the local frame.

    ``dlong``/``dlat`` are center-to-center offsets. Touching boxes (offset
    exactly equal to the half-extent sum) do not overlap.
    """
    return (np.abs(dlong) < half_len_sum) & (np.abs(dlat) < half_wid_sum)
