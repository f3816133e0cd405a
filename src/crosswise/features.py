"""Per-track feature vectors, 10-frame temporal filtering, 5-step windows.

The 16-slot step layout below is a frozen contract; its hash is embedded in
weight files so stale weights cannot silently consume a different layout.
Angles are stored as (sin, cos) pairs to avoid wraparound, distances are
normalized by the frame diagonal so features are camera-resolution free.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .geom import IntersectionGeometry, ZoneKind, ZoneType
from .ingest import KP_LEFT_SHOULDER, KP_NOSE, KP_RIGHT_SHOULDER, PoseDetection

FEATURE_DIM = 16

FEATURE_NAMES = (
    "cx_norm", "cy_norm",
    "zone_waiting", "zone_start_crossing", "zone_crossing",
    "speed",
    "heading_sin", "heading_cos",
    "dist_entry_a", "dist_entry_b", "waiting_compactness",
    "body_sin", "body_cos",
    "face_sin", "face_cos",
    "shoulder_over_height",
)

# Ablation group -> slot indices (location, motion, geometric, pose).
FEATURE_GROUPS = {
    "L": tuple(range(0, 5)),
    "M": tuple(range(5, 8)),
    "G": tuple(range(8, 11)),
    "P": tuple(range(11, 16)),
}

ANGLE_PAIRS = ((6, 7), (11, 12), (13, 14))
ONEHOT_SLOTS = (2, 3, 4)

SEGMENT_FRAMES = 10   # temporal filter span: 0.5 s at 20 fps
WINDOW_STEPS = 5      # 5 steps * 10 frames = the 2.5 s input window

KP_CONF_GATE = 0.3

LAYOUT_HASH = hashlib.sha256(
    ("crosswise-step-v1:" + ",".join(FEATURE_NAMES)).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class FeatureWindow:
    """A (5, 16) matrix of filtered steps, oldest row first."""

    matrix: np.ndarray
    track_id: int
    end_frame_idx: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (WINDOW_STEPS, FEATURE_DIM):
            raise ValueError(f"window must be {WINDOW_STEPS}x{FEATURE_DIM}, got {m.shape}")
        object.__setattr__(self, "matrix", m)


History = Sequence[tuple[int, tuple[float, float], tuple[float, float, float, float]]]


def motion_features(history: History, fps: int, px_per_meter: Optional[float],
                    frame_diagonal: float) -> tuple[float, float, float]:
    """(speed, heading sin, heading cos) from the latest 10-frame displacement.

    Speed is m/s when px_per_meter is given, else px/s divided by the frame
    diagonal. Displacements under 1 px leave the heading undefined -> (0, 0).
    """
    if len(history) < 2:
        return (0.0, 0.0, 0.0)
    f_t, p_t, _ = history[-1]
    f_0, p_0 = f_t, p_t
    for f, p, _ in reversed(history):
        if f < f_t - SEGMENT_FRAMES:
            break
        f_0, p_0 = f, p
    dframes = f_t - f_0
    if dframes <= 0:
        return (0.0, 0.0, 0.0)
    dx, dy = p_t[0] - p_0[0], p_t[1] - p_0[1]
    dist = math.hypot(dx, dy)
    speed = dist * fps / dframes / (px_per_meter or frame_diagonal)
    if dist < 1.0:
        return (speed, 0.0, 0.0)
    theta = math.atan2(dy, dx)
    return (speed, math.sin(theta), math.cos(theta))


_POSE_ROWS = np.array([KP_LEFT_SHOULDER, KP_RIGHT_SHOULDER, KP_NOSE])


def pose_features(pose: PoseDetection) -> tuple[float, float, float, float, float]:
    """(body sin, body cos, face sin, face cos, shoulder distance px).

    The body angle is the orientation of the shoulder-segment normal on the
    nose's side (the facing direction); the face angle points from the
    shoulder midpoint to the nose. Keypoints under the 0.3 confidence gate
    zero out the feature group they feed instead of propagating garbage.
    """
    # as Python floats: the same IEEE arithmetic without numpy scalar overhead
    ls, rs, nose = pose.keypoints.take(_POSE_ROWS, axis=0).tolist()
    if ls[2] < KP_CONF_GATE or rs[2] < KP_CONF_GATE:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    shoulder_dist = float(math.hypot(rs[0] - ls[0], rs[1] - ls[1]))
    if nose[2] < KP_CONF_GATE:
        return (0.0, 0.0, 0.0, 0.0, shoulder_dist)

    mid = ((ls[0] + rs[0]) / 2.0, (ls[1] + rs[1]) / 2.0)
    fx, fy = nose[0] - mid[0], nose[1] - mid[1]
    if math.hypot(fx, fy) < 1e-9:
        face = (0.0, 0.0)
    else:
        phi_f = math.atan2(fy, fx)
        face = (math.sin(phi_f), math.cos(phi_f))

    seg = (rs[0] - ls[0], rs[1] - ls[1])
    if math.hypot(*seg) < 1e-9:
        return (0.0, 0.0, *face, shoulder_dist)
    normal = (seg[1], -seg[0])
    side = normal[0] * fx + normal[1] * fy
    if side < 0:
        normal = (-normal[0], -normal[1])
    elif side == 0:
        return (0.0, 0.0, *face, shoulder_dist)  # nose on the shoulder line
    phi_b = math.atan2(normal[1], normal[0])
    return (math.sin(phi_b), math.cos(phi_b), *face, shoulder_dist)


def geometric_features(center: tuple[float, float],
                       g: IntersectionGeometry) -> tuple[float, float, float]:
    """(distance to entry A, to entry B, waiting-area compactness), normalized."""
    diag = g.frame_diagonal
    ax, ay = g.crosswalk_entries["A"]
    bx, by = g.crosswalk_entries["B"]
    dist_a = math.hypot(center[0] - ax, center[1] - ay) / diag
    dist_b = math.hypot(center[0] - bx, center[1] - by) / diag
    return (dist_a, dist_b, g.waiting_compactness(center))


def step_features(center: tuple[float, float], zone: ZoneKind, history: History,
                  pose: Optional[PoseDetection],
                  bbox_height: float, g: IntersectionGeometry) -> tuple[float, ...]:
    """One frame's 16 slots as plain floats, in FEATURE_NAMES order.

    ``zone`` is g.classify_point(center). Raises ValueError when a slot is
    not finite.
    """
    w, h = g.frame_size
    kind = zone.kind
    if pose is None:
        pose_slots = (0.0, 0.0, 0.0, 0.0, 0.0)
    else:
        bs, bc, fs, fc, shoulder = pose_features(pose)
        pose_slots = (bs, bc, fs, fc, shoulder / bbox_height if bbox_height > 0 else 0.0)
    v = (center[0] / w, center[1] / h,
         1.0 if kind is ZoneType.WAITING else 0.0,
         1.0 if kind is ZoneType.START_CROSSING else 0.0,
         1.0 if kind is ZoneType.CROSSING else 0.0,
         *motion_features(history, g.fps, g.px_per_meter, g.frame_diagonal),
         *geometric_features(center, g),
         *pose_slots)
    if not all(map(math.isfinite, v)):
        raise ValueError("non-finite feature vector")
    return v


_MEAN_SLOTS = tuple(i for i in range(FEATURE_DIM)
                    if i not in ONEHOT_SLOTS
                    and all(i not in pair for pair in ANGLE_PAIRS))


def temporal_filter(frames: Sequence[Sequence[float]]) -> np.ndarray:
    """Average 1..10 per-frame vectors (step_features tuples) into one step.

    Plain slots take the arithmetic mean; angle pairs are averaged as vectors
    and re-normalized (near-zero resultants collapse to (0, 0)); the zone
    one-hot takes the mode, ties resolved toward the later zone in the
    crossing progression.
    """
    if not frames:
        raise ValueError("temporal filter needs at least one frame")
    stack = np.asarray(frames, dtype=float)
    out = np.zeros(FEATURE_DIM)
    mean = stack.mean(axis=0)
    for i in _MEAN_SLOTS:
        out[i] = mean[i]
    for si, ci in ANGLE_PAIRS:
        ms, mc = mean[si], mean[ci]
        norm = math.hypot(ms, mc)
        if norm > 1e-9:
            out[si], out[ci] = ms / norm, mc / norm
    # Zone mode: index 0 stands for Outside (all-zero one-hot).
    counts = [0, 0, 0, 0]
    for row in frames:
        hot = [j for j, slot in enumerate(ONEHOT_SLOTS) if row[slot] > 0.5]
        counts[hot[0] + 1 if hot else 0] += 1
    best = max(range(4), key=lambda j: (counts[j], j))
    if best > 0:
        out[ONEHOT_SLOTS[best - 1]] = 1.0
    return out


class WindowAssembler:
    """Per-track sliding window state: emits a window per step once 5 exist."""

    def __init__(self, track_id: int):
        self.track_id = track_id
        self.steps: deque[np.ndarray] = deque(maxlen=WINDOW_STEPS)

    def push(self, step: np.ndarray, end_frame_idx: int) -> Optional[FeatureWindow]:
        self.steps.append(np.asarray(step, dtype=float))
        if len(self.steps) < WINDOW_STEPS:
            return None
        return FeatureWindow(np.stack(self.steps), self.track_id, end_frame_idx)


def mask_for_groups(groups: Iterable[str]) -> np.ndarray:
    """Boolean keep-mask over the 16 slots for a set of ablation groups."""
    keep = np.zeros(FEATURE_DIM, dtype=bool)
    for gname in groups:
        if gname not in FEATURE_GROUPS:
            raise ValueError(f"unknown feature group {gname!r}")
        keep[list(FEATURE_GROUPS[gname])] = True
    return keep
