import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosswise.features import motion_features
from crosswise.geom import OUTSIDE, ZoneType, demo_geometry
from crosswise.ingest import Detection, PoseDetection
from crosswise.track import (DIST_GATE_FACTOR, IOU_MATCH_THRESHOLD, POSE_GATE_FACTOR,
                             StepEvents, Track, TrackTable, iou)


def det(x, y, w=30.0, h=60.0, cls="pedestrian"):
    return Detection((x, y, w, h), cls, 0.9)


def pose_at_crop(cx, cy, w=30.0, h=60.0, conf=0.9):
    kps = np.zeros((17, 3))
    kps[:, 0] = cx
    kps[:, 1] = cy
    kps[:, 2] = conf
    return PoseDetection((cx - w / 2, cy - h / 2, w, h), kps)


class TestIou:
    def test_identical(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 10, 10), (100, 100, 10, 10)) == 0.0

    def test_half_overlap(self):
        assert iou((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(1 / 3)


class TestAssociate:
    def test_identical_bbox_keeps_id(self, geometry):
        table = TrackTable(geometry)
        table.associate([det(585, 450)], 0)
        tid = next(iter(table.tracks))
        events = table.associate([det(585, 450)], 1)
        assert events.updated == [tid]
        assert not events.created

    def test_three_detections_spawn_three_tracks(self, geometry):
        table = TrackTable(geometry)
        events = table.associate([det(540, 430), det(600, 470), det(650, 520)], 0)
        assert len(events.created) == 3
        assert len(set(events.created)) == 3

    def test_extrapolation_gate_matches_fast_mover(self, geometry):
        # +5 px/frame: after a 3-frame gap IoU with the old box is 0 but the
        # constant-velocity prediction lands on the detection
        table = TrackTable(geometry)
        table.associate([det(100, 100, 10, 10)], 0)
        table.associate([det(105, 100, 10, 10)], 1)
        tid = next(iter(table.tracks))
        events = table.associate([det(125, 100, 10, 10)], 5)
        assert events.updated == [tid]
        assert not events.created

    def test_retirement_after_two_seconds(self, geometry):
        table = TrackTable(geometry)
        table.associate([det(585, 450)], 0)
        tid = next(iter(table.tracks))
        horizon = 2 * geometry.fps
        events = table.associate([], horizon)
        assert not events.retired
        events = table.associate([], horizon + 1)
        assert events.retired == [tid]

    def test_ids_never_reused(self, geometry):
        table = TrackTable(geometry)
        table.associate([det(585, 450)], 0)
        first = set(table.tracks)
        table.associate([], 100)  # retires it
        table.associate([det(585, 450)], 101)
        assert not (set(table.tracks) & first)

    def test_each_detection_consumed_once(self, geometry):
        table = TrackTable(geometry)
        table.associate([det(585, 450), det(590, 452)], 0)
        assert len(table.tracks) == 2
        events = table.associate([det(585, 450)], 1)
        assert len(events.updated) == 1
        assert not events.created

    def test_track_count_bound(self, geometry):
        table = TrackTable(geometry)
        rng = np.random.default_rng(0)
        for frame in range(30):
            dets = [det(float(rng.uniform(520, 680)), float(rng.uniform(420, 560)))
                    for _ in range(rng.integers(0, 5))]
            before = len(table.tracks)
            table.associate(dets, frame)
            assert len(table.tracks) <= before + len(dets)

    def test_zone_field_tracks_center(self, geometry):
        table = TrackTable(geometry)
        table.associate([det(585, 450)], 0)
        tid = next(iter(table.tracks))
        assert table.tracks[tid].zone.kind == ZoneType.WAITING
        table.associate([det(460, 460)], 1)  # jumped into start zone A region
        # center distance too large to match; spawns a new track
        new = [t for t in table.tracks.values() if t.track_id != tid][0]
        assert new.zone.kind == ZoneType.START_CROSSING


class TestMergePose:
    def test_coincident_pose_assigned(self, geometry):
        table = TrackTable(geometry)
        table.associate([det(585, 450)], 0)
        tid = next(iter(table.tracks))
        cx0, cy0, _, _ = geometry.crop_rect
        merged = table.merge_pose([pose_at_crop(600 - cx0, 480 - cy0)])
        # track center (600, 480): same point in crop coords
        assert merged == [tid]
        pose = table.tracks[tid].pose_latest
        assert pose is not None
        assert pose.center == pytest.approx((600.0, 480.0))
        # keypoints were translated to full frame too
        assert pose.keypoints[0, 0] == pytest.approx(600.0)

    def test_crossing_track_gets_no_pose(self, geometry):
        table = TrackTable(geometry)
        table.associate([det(423, 460)], 0)  # center (438, 490), in crossing zone A
        tid = next(iter(table.tracks))
        assert table.tracks[tid].zone.kind == ZoneType.CROSSING
        # crop (0, 110) is full-frame (480, 490): 42 px from the track center,
        # inside its 45 px gate, so only the zone keeps the pose off it
        cx0, cy0, _, _ = geometry.crop_rect
        assert (cx0, cy0 + 110) == (480.0, 490.0)
        merged = table.merge_pose([pose_at_crop(0, 110)])
        assert merged == []
        assert table.tracks[tid].pose_latest is None

    def test_equidistant_tie_goes_to_lower_id(self, geometry):
        table = TrackTable(geometry)
        table.associate([det(570, 450), det(630, 450)], 0)
        ids = sorted(table.tracks)
        cx0, cy0, _, _ = geometry.crop_rect
        # pose center exactly between both track centers (585+15=600)
        merged = table.merge_pose([pose_at_crop(600 + 15 - cx0, 480 - cy0)])
        assert merged == [ids[0]]

    def test_one_pose_per_track_nearest_wins(self, geometry):
        table = TrackTable(geometry)
        table.associate([det(585, 450)], 0)
        tid = next(iter(table.tracks))
        cx0, cy0, _, _ = geometry.crop_rect
        near = pose_at_crop(600 - cx0, 481 - cy0)
        far = pose_at_crop(600 - cx0, 500 - cy0)
        table.merge_pose([far, near])
        assert table.tracks[tid].pose_latest.center[1] == pytest.approx(481.0)

    def test_pose_outside_gate_discarded(self, geometry):
        table = TrackTable(geometry)
        table.associate([det(585, 450)], 0)
        tid = next(iter(table.tracks))
        cx0, cy0, _, _ = geometry.crop_rect
        merged = table.merge_pose([pose_at_crop(700 - cx0, 560 - cy0)])
        assert merged == []
        assert table.tracks[tid].pose_latest is None


def brute_force_associate(table, detections, frame_idx):
    """TrackTable.associate with iou called on every track/detection pair."""
    events = StepEvents()
    free_tracks = set(table.tracks)
    free_dets = set(range(len(detections)))
    pairs = []
    for tid in free_tracks:
        for di in free_dets:
            v = iou(table.tracks[tid].bbox, detections[di].bbox)
            if v >= IOU_MATCH_THRESHOLD:
                pairs.append((-v, tid, di))
    gated = []
    for _, tid, di in sorted(pairs):
        if tid in free_tracks and di in free_dets:
            table.tracks[tid].observe(frame_idx, detections[di], table.geometry)
            events.updated.append(tid)
            free_tracks.discard(tid)
            free_dets.discard(di)
    for tid in free_tracks:
        track = table.tracks[tid]
        px, py = track.predicted_center(frame_idx)
        gate = DIST_GATE_FACTOR * max(track.bbox[2], track.bbox[3])
        for di in free_dets:
            cx, cy = detections[di].center
            d = math.hypot(cx - px, cy - py)
            if d <= gate:
                gated.append((d, tid, di))
    for _, tid, di in sorted(gated):
        if tid in free_tracks and di in free_dets:
            table.tracks[tid].observe(frame_idx, detections[di], table.geometry)
            events.updated.append(tid)
            free_tracks.discard(tid)
            free_dets.discard(di)
    for di in sorted(free_dets):
        det = detections[di]
        table.tracks_created += 1
        track = Track(table.tracks_created, det.vru_class,
                      table.geometry.classify_point(det.center))
        track.observe(frame_idx, det, table.geometry)
        table.tracks[track.track_id] = track
        events.created.append(track.track_id)
    for tid in sorted(table.tracks):
        if frame_idx - table.tracks[tid].last_seen > table._retire_after:
            del table.tracks[tid]
            events.retired.append(tid)
    events.updated.sort()
    return events


# box edges on a 5 px grid coincide often; free floats cover the rest
grid_boxes = st.tuples(*[st.integers(0, 40).map(lambda k: 5.0 * k)] * 2,
                       *[st.integers(1, 8).map(lambda k: 5.0 * k)] * 2)
float_boxes = st.tuples(*[st.floats(0.0, 200.0)] * 2, *[st.floats(0.5, 40.0)] * 2)


def edge_start(draw, a0, a_len, b_len, kind):
    """Start of box b on one axis such that b touches an edge of box a
    (b0 == a0 + a_len, or b0 + b_len == a0 as computed), or overlaps it by
    1 ulp."""
    if draw(st.booleans()):
        c = a0 + a_len
        return c if kind == "touch" else math.nextafter(c, -math.inf)
    c = a0 - b_len
    return c if kind == "touch" else math.nextafter(c, math.inf)


@st.composite
def box_frames(draw):
    """Frames of boxes; many sit on a box of the frame before with a small
    shift, touch it exactly on an x or y edge, or overlap it by 1 ulp."""
    frames, prev, frame_idx = [], [], 0
    for _ in range(draw(st.integers(1, 8))):
        boxes = []
        for _ in range(draw(st.integers(0, 8))):
            kind = draw(st.sampled_from(
                ("grid", "float", "shift", "shift", "shift", "touch", "ulp")))
            if kind in ("grid", "float") or not prev:
                boxes.append(draw(grid_boxes if kind == "grid" else float_boxes))
                continue
            ax, ay, aw, ah = draw(st.sampled_from(prev))
            b = [ax + aw * draw(st.floats(-0.6, 0.6)), ay + ah * draw(st.floats(-0.6, 0.6)),
                 aw * draw(st.sampled_from((1.0, 0.8, 1.25))),
                 ah * draw(st.sampled_from((1.0, 0.8, 1.25)))]
            if kind != "shift":
                axis = draw(st.integers(0, 1))
                b[axis] = edge_start(draw, (ax, ay)[axis], (aw, ah)[axis],
                                     b[axis + 2], kind)
            boxes.append(tuple(b))
        frames.append((frame_idx, boxes))
        prev = boxes or prev
        frame_idx += draw(st.sampled_from((1, 1, 2, 45)))  # 45 retires tracks
    return frames


@st.composite
def gapped_moves(draw):
    """(frame, x, y) of one moving target: runs of consecutive frames, each
    followed by a gap of up to a little over a segment."""
    moves, frame_idx = [], 0
    for _ in range(draw(st.integers(1, 4))):
        for f in range(frame_idx, frame_idx + draw(st.integers(1, 15))):
            moves.append((f, 500.0 + 2.0 * f + draw(st.floats(-3.0, 3.0)),
                          450.0 + draw(st.floats(-3.0, 3.0))))
        frame_idx = moves[-1][0] + draw(st.integers(2, 13))
    return moves


class TestHistory:
    @given(gapped_moves())
    def test_holds_every_entry_motion_features_reads(self, geometry, moves):
        def motion(history):
            return motion_features(history, geometry.fps, geometry.px_per_meter,
                                   geometry.frame_diagonal)

        track = Track(1, "pedestrian", OUTSIDE)
        full = []
        for frame_idx, x, y in moves:
            d = det(x, y)
            track.observe(frame_idx, d, geometry)
            full.append((frame_idx, d.center, d.bbox))
            assert motion(track.history) == motion(full)


class TestAssociateMatchesBruteForce:
    @given(box_frames())
    def test_same_events_ids_and_histories(self, geometry, frames):
        fast, ref = TrackTable(geometry), TrackTable(geometry)
        for frame_idx, boxes in frames:
            dets = [Detection(b, "pedestrian", 0.9) for b in boxes]
            got = fast.associate(dets, frame_idx)
            want = brute_force_associate(ref, dets, frame_idx)
            assert (got.updated, got.created, got.retired) == \
                (want.updated, want.created, want.retired)
            assert list(fast.tracks) == list(ref.tracks)
            for tid, track in fast.tracks.items():
                assert list(track.history) == list(ref.tracks[tid].history)
                assert track.zone == ref.tracks[tid].zone

    @given(box_frames())
    def test_ids_unique_increasing_and_each_detection_taken_once(self, geometry, frames):
        table = TrackTable(geometry)
        last_id = 0
        for frame_idx, boxes in frames:
            dets = [Detection(b, "pedestrian", 0.9) for b in boxes]
            events = table.associate(dets, frame_idx)
            assert events.created == sorted(set(events.created))
            assert all(tid > last_id for tid in events.created)
            last_id = max(events.created, default=last_id)
            ids = list(table.tracks)
            assert ids == sorted(set(ids))
            assert not set(events.retired) & set(ids)
            # each detection went to exactly one updated or created track
            taken = events.updated + events.created
            assert len(taken) == len(set(taken))
            assert sorted(
                next(di for di, d in enumerate(dets) if d.bbox is table.tracks[tid].bbox)
                for tid in taken) == list(range(len(dets)))

    def test_edge_touching_box_is_not_a_match(self, geometry):
        table = TrackTable(geometry)
        table.associate([det(585, 450)], 0)
        # shares only the edge x = 615 with the track, and lies outside the
        # distance gate around its center
        events = table.associate([det(615, 460)], 1)
        assert events.created and not events.updated


def brute_force_merge_pose(table, poses):
    """merge_pose as a repeated minimum over every (distance, track id, pose
    index) candidate: take the least, drop every candidate that shares its
    track or its pose, repeat. Returns {track id: pose index}."""
    cx0, cy0, cw, ch = table.geometry.crop_rect
    candidates = []
    for pi, pose in enumerate(poses):
        px, py = pose.center
        if not (0.0 <= px <= cw and 0.0 <= py <= ch):
            continue
        for tid, track in table.tracks.items():
            d = math.hypot(cx0 + px - track.center[0], cy0 + py - track.center[1])
            if (track.zone.kind in (ZoneType.WAITING, ZoneType.START_CROSSING)
                    and d <= POSE_GATE_FACTOR * max(track.bbox[2], track.bbox[3])):
                candidates.append((d, tid, pi))
    assigned = {}
    while candidates:
        _, tid, pi = min(candidates)
        assigned[tid] = pi
        candidates = [c for c in candidates if c[1] != tid and c[2] != pi]
    return assigned


# centers on a 5 px grid around the crop, so that equal distances are common
grid = st.integers(-4, 52).map(lambda k: 5.0 * k)


@st.composite
def tracks_and_poses(draw):
    """Track centers and sizes (full frame) and pose centers (crop image)."""
    sizes = st.sampled_from(((30.0, 60.0), (40.0, 80.0), (20.0, 40.0)))
    cx0, cy0 = demo_geometry().crop_rect[:2]
    tracks = draw(st.lists(st.tuples(grid.map(lambda v: cx0 + v), grid.map(lambda v: cy0 + v),
                                     sizes), max_size=8))
    poses = draw(st.lists(st.tuples(grid, grid), max_size=8))
    # a pose placed at equal distance from two tracks
    if len(tracks) >= 2 and draw(st.booleans()):
        (ax, ay, _), (bx, by, _) = tracks[0], tracks[1]
        poses.append(((ax + bx) / 2 - cx0, (ay + by) / 2 - cy0))
    return tracks, poses


class TestMergePoseMatchesBruteForce:
    @given(tracks_and_poses())
    def test_same_assignment_and_pose_bytes(self, geometry, case):
        tracks, centers = case
        table = TrackTable(geometry)
        table.associate([Detection((x - w / 2, y - h / 2, w, h), "pedestrian", 0.9)
                         for x, y, (w, h) in tracks], 0)
        poses = [pose_at_crop(x, y) for x, y in centers]
        want = brute_force_merge_pose(table, poses)
        assert table.merge_pose(poses) == sorted(want)
        cx0, cy0, _, _ = geometry.crop_rect
        for tid, track in table.tracks.items():
            if tid not in want:
                assert track.pose_latest is None
                continue
            ref = poses[want[tid]].translated(cx0, cy0)
            assert np.array(track.pose_latest.bbox).tobytes() == np.array(ref.bbox).tobytes()
            assert track.pose_latest.keypoints.tobytes() == ref.keypoints.tobytes()


class TestMergePoseTranslatesAssignedOnly:
    def test_assigned_bytes_and_unmatched_poses_untouched(self, geometry, monkeypatch):
        table = TrackTable(geometry)
        table.associate([det(570, 450), det(650, 450)], 0)
        cx0, cy0, _, _ = geometry.crop_rect
        poses = [pose_at_crop(600.3 - cx0, 480.7 - cy0),     # binds to the first
                 pose_at_crop(601.0 - cx0, 481.0 - cy0),     # loses to the first
                 pose_at_crop(10.0, 10.0),                   # outside every gate
                 pose_at_crop(680.1 - cx0, 479.9 - cy0)]     # binds to the second
        before = [(p.bbox, p.keypoints.tobytes()) for p in poses]
        calls = []
        orig = PoseDetection.translated
        monkeypatch.setattr(PoseDetection, "translated",
                            lambda self, dx, dy: calls.append(self) or orig(self, dx, dy))
        merged = table.merge_pose(poses)

        ids = sorted(table.tracks)
        assert merged == ids
        assert sorted(map(id, calls)) == sorted((id(poses[0]), id(poses[3])))
        for tid, pose in zip(ids, (poses[0], poses[3])):
            want = orig(pose, cx0, cy0)
            got = table.tracks[tid].pose_latest
            assert np.array(got.bbox).tobytes() == np.array(want.bbox).tobytes()
            assert got.keypoints.tobytes() == want.keypoints.tobytes()
        assert [(p.bbox, p.keypoints.tobytes()) for p in poses] == before
