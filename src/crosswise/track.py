"""Greedy IoU + constant-velocity track association, and crop-pose merging.

A deliberately simple tracker: waiting-area targets are slow and sparse, so
greedy IoU matching with a distance-gated fallback holds identities well.
The interface isolates association so a heavier tracker could be swapped in.
All tie-breaks go to the lowest track id for determinism.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, Optional, Sequence

from .features import SEGMENT_FRAMES
from .geom import OUTSIDE, GeometryError, IntersectionGeometry, ZoneKind
from .ingest import Detection, PoseDetection

IOU_MATCH_THRESHOLD = 0.3
DIST_GATE_FACTOR = 0.5       # of max(track bbox w, h)
POSE_GATE_FACTOR = 0.75      # of max(track bbox w, h)
RETIRE_AFTER_SECONDS = 2.0
# one entry per observed frame: frames f - SEGMENT_FRAMES .. f are all that
# motion_features reads back, and predicted_center reads the last two
HISTORY_CAPACITY = SEGMENT_FRAMES + 1


def iou(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    if inter <= 0.0:
        return 0.0
    return inter / (aw * ah + bw * bh - inter)


def _greedy_pairs(candidates: Iterable[tuple[float, int, int]]) -> dict[int, int]:
    """{track id: index} of the (score, track id, index) candidates taken in
    ascending order, each track and each index at most once: the lowest score
    wins, then the lowest track id, then the lowest index."""
    matched: dict[int, int] = {}
    used: set[int] = set()
    for _, tid, i in sorted(candidates):
        if tid not in matched and i not in used:
            matched[tid] = i
            used.add(i)
    return matched


@dataclass
class Track:
    track_id: int
    vru_class: str
    zone: ZoneKind
    history: Deque[tuple[int, tuple[float, float], tuple[float, float, float, float]]] = \
        field(default_factory=lambda: deque(maxlen=HISTORY_CAPACITY))
    last_seen: int = -1
    pose_latest: Optional[PoseDetection] = None  # full-frame coordinates

    @property
    def center(self) -> tuple[float, float]:
        return self.history[-1][1]

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        return self.history[-1][2]

    def predicted_center(self, frame_idx: int) -> tuple[float, float]:
        """Constant-velocity extrapolation from the last two history points."""
        if len(self.history) < 2:
            return self.center
        f1, p1, _ = self.history[-2]
        f2, p2, _ = self.history[-1]
        df = max(1, f2 - f1)
        vx = (p2[0] - p1[0]) / df
        vy = (p2[1] - p1[1]) / df
        dt = frame_idx - f2
        return (p2[0] + vx * dt, p2[1] + vy * dt)

    def observe(self, frame_idx: int, det: Detection, g: IntersectionGeometry) -> None:
        center = det.center
        self.history.append((frame_idx, center, det.bbox))
        self.last_seen = frame_idx
        self.zone = g.classify_point(center)


@dataclass
class StepEvents:
    """What one association pass did, for the pipeline's bookkeeping."""

    updated: list[int] = field(default_factory=list)
    created: list[int] = field(default_factory=list)
    retired: list[int] = field(default_factory=list)


class TrackTable:
    """Owns the active track set; one pipeline stage updates it per frame.

    ``tracks`` iterates in increasing id order: ids only grow, and a dict
    keeps insertion order.
    """

    def __init__(self, geometry: IntersectionGeometry):
        self.geometry = geometry
        self.tracks: dict[int, Track] = {}
        self.tracks_created = 0  # also the id of the newest track: ids run 1, 2, ...
        self._retire_after = int(RETIRE_AFTER_SECONDS * geometry.fps)

    def associate(self, detections: Sequence[Detection], frame_idx: int) -> StepEvents:
        """Match detections to tracks, spawn the rest, retire stale tracks.

        Matching runs in two passes: greedy on descending IoU (>= 0.3), then
        the leftovers by distance to each track's extrapolated center gated
        at 0.5 * max(track bbox side).
        """
        events = StepEvents()
        # a pair whose x- or y-extents do not overlap is exactly iou's
        # ix <= 0 or iy <= 0 case, so skipping it before the call changes no
        # pair and no match
        boxes = [(di, det.bbox) for di, det in enumerate(detections)]
        pairs = []
        for tid, track in self.tracks.items():
            tb = track.bbox
            tx0, ty0 = tb[0], tb[1]
            tx1, ty1 = tx0 + tb[2], ty0 + tb[3]
            for di, db in boxes:
                if (db[0] >= tx1 or db[0] + db[2] <= tx0
                        or db[1] >= ty1 or db[1] + db[3] <= ty0):
                    continue
                v = iou(tb, db)
                if v >= IOU_MATCH_THRESHOLD:
                    pairs.append((-v, tid, di))
        matched = _greedy_pairs(pairs)  # track id -> detection index

        # the gated pass reads only tracks that no detection has updated yet
        free_dets = set(range(len(detections))).difference(matched.values())
        if free_dets:
            gated = []
            for tid in self.tracks.keys() - matched.keys():
                track = self.tracks[tid]
                px, py = track.predicted_center(frame_idx)
                gate = DIST_GATE_FACTOR * max(track.bbox[2], track.bbox[3])
                for di in free_dets:
                    cx, cy = detections[di].center
                    d = math.hypot(cx - px, cy - py)
                    if d <= gate:
                        gated.append((d, tid, di))
            matched.update(_greedy_pairs(gated))
            free_dets.difference_update(matched.values())
        for tid, di in matched.items():
            self.tracks[tid].observe(frame_idx, detections[di], self.geometry)
        events.updated = sorted(matched)

        for di in sorted(free_dets):
            det = detections[di]
            self.tracks_created += 1
            track = Track(self.tracks_created, det.vru_class, OUTSIDE)  # observe sets the zone
            track.observe(frame_idx, det, self.geometry)
            self.tracks[track.track_id] = track
            events.created.append(track.track_id)

        events.retired = [tid for tid, track in self.tracks.items()
                          if frame_idx - track.last_seen > self._retire_after]
        for tid in events.retired:
            del self.tracks[tid]
        return events

    def merge_pose(self, poses: Sequence[PoseDetection]) -> list[int]:
        """Attach crop-frame poses to the nearest waiting/start-crossing track.

        Pose bboxes are translated to the full frame via the crop origin; a
        pose binds to the nearest eligible track center within 0.75 * max
        bbox side. One pose per track per frame; the nearest wins, then the
        lowest track id. Tracks already in a crossing zone never receive
        poses (the pose stage is switched off for them). Returns the track
        ids that received a pose.
        """
        eligible = [t for t in self.tracks.values() if t.zone.is_observing]
        if not eligible or not poses:
            return []

        targets = [(t.track_id, t.center, POSE_GATE_FACTOR * max(t.bbox[2], t.bbox[3]))
                   for t in eligible]
        candidates = []
        for pi, pose in enumerate(poses):
            try:
                fx, fy = self.geometry.crop_to_full(pose.center)
            except GeometryError:
                continue  # center off the crop image: discard
            for tid, (tx, ty), gate in targets:
                d = math.hypot(fx - tx, fy - ty)
                if d <= gate:
                    candidates.append((d, tid, pi))

        # only a pose that binds to a track is shifted to the full frame
        cx0, cy0, _, _ = self.geometry.crop_rect
        matched = _greedy_pairs(candidates)  # track id -> pose index
        for tid, pi in matched.items():
            self.tracks[tid].pose_latest = poses[pi].translated(cx0, cy0)
        return sorted(matched)
