"""Planar kinematics helpers shared by collision labelling and projection.

All scene geometry is evaluated in a frame attached to the subject vehicle:
x along its heading, y to its left. Headings come from the velocity vector;
while a vehicle is (nearly) at rest the last moving heading is kept so a
stopped vehicle does not spin with velocity noise.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

SPEED_EPS = 0.01
"""Speed (m/s) below which the velocity direction is considered unreliable."""


def headings(vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Heading angle per sample of one track, with memory across slow samples.

    Samples faster than ``SPEED_EPS`` use ``atan2(vy, vx)``. Slower samples
    inherit the previous heading; leading slow samples inherit the first
    moving heading, and a track that never moves faces +x.
    """
    vx = np.asarray(vx, dtype=float)
    vy = np.asarray(vy, dtype=float)
    speed = np.hypot(vx, vy)
    moving = speed > SPEED_EPS
    theta = np.arctan2(vy, vx)
    if not moving.any():
        return np.zeros_like(theta)
    idx = np.arange(len(theta))
    last_moving = np.where(moving, idx, -1)
    np.maximum.accumulate(last_moving, out=last_moving)
    first = idx[moving][0]
    last_moving[last_moving < 0] = first
    return theta[last_moving]


def to_local(
    theta: float | np.ndarray, dx: np.ndarray, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate world-frame offsets into the frame of a vehicle heading ``theta``
    (a scalar, or one heading per offset).

    Returns (longitudinal, lateral) components; lateral is positive to the
    vehicle's left.
    """
    c, s = np.cos(theta), np.sin(theta)
    return c * dx + s * dy, -s * dx + c * dy


def sv_frame_offsets(sv, others: Iterable) -> Iterator[tuple]:
    """Offsets of other tracks from the subject vehicle, in the SV frame.

    For each track in ``others`` that shares frames with the track ``sv``,
    yields (other, common frames, SV rows, other rows, dlong, dlat), the
    offsets being center-to-center at the common frames, rotated by the
    SV heading (:func:`headings`) through :func:`to_local`.
    """
    theta = headings(sv.vx, sv.vy)
    for other in others:
        common, sv_rows, ot_rows = np.intersect1d(
            sv.frames, other.frames, return_indices=True
        )
        if common.size == 0:
            continue
        dlong, dlat = to_local(
            theta[sv_rows],
            other.x[ot_rows] - sv.x[sv_rows],
            other.y[ot_rows] - sv.y[sv_rows],
        )
        yield other, common, sv_rows, ot_rows, dlong, dlat


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
