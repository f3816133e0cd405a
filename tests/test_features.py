import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosswise.features import (ANGLE_PAIRS, FEATURE_DIM, FEATURE_GROUPS, KP_CONF_GATE,
                                ONEHOT_SLOTS, SEGMENT_FRAMES, WindowAssembler,
                                geometric_features, mask_for_groups, motion_features,
                                pose_features, step_features, temporal_filter)
from crosswise.geom import (IntersectionGeometry, Zone, ZoneKind, ZoneType, demo_geometry,
                            polygon_area)
from crosswise.ingest import PoseDetection, _trusted_pose


def hist(points):
    """(frame, (x, y)) pairs -> history entries with dummy boxes."""
    return [(f, p, (p[0] - 15, p[1] - 30, 30.0, 60.0)) for f, p in points]


def pose_with(nose, ls, rs, conf=0.9, nose_conf=None):
    kps = np.zeros((17, 3))
    kps[:, 2] = conf
    kps[0, :2] = nose
    kps[0, 2] = nose_conf if nose_conf is not None else conf
    kps[5, :2] = ls
    kps[6, :2] = rs
    return PoseDetection((0.0, 0.0, 40.0, 80.0), kps)


RAW_PX_S = {"px_per_meter": None, "frame_diagonal": 1.0}  # speed left in px/s


class TestMotionFeatures:
    def test_displacement_arithmetic(self):
        h = hist([(0, (0.0, 0.0)), (10, (3.0, 4.0))])
        speed, s, c = motion_features(h, fps=20, **RAW_PX_S)
        assert speed == pytest.approx(10.0)  # 5 px over 10 frames at 20 fps
        theta = math.atan2(4, 3)
        assert (s, c) == pytest.approx((math.sin(theta), math.cos(theta)))

    def test_stationary(self):
        h = hist([(0, (5.0, 5.0)), (10, (5.0, 5.0))])
        assert motion_features(h, fps=20, **RAW_PX_S) == (0.0, 0.0, 0.0)

    def test_metric_conversion(self):
        h = hist([(0, (0.0, 0.0)), (10, (3.0, 4.0))])
        speed, _, _ = motion_features(h, fps=20, px_per_meter=50.0, frame_diagonal=100.0)
        assert speed == pytest.approx(0.2)

    def test_diagonal_normalization(self):
        h = hist([(0, (0.0, 0.0)), (10, (3.0, 4.0))])
        speed, _, _ = motion_features(h, fps=20, px_per_meter=None, frame_diagonal=100.0)
        assert speed == pytest.approx(0.1)

    def test_single_point(self):
        assert motion_features(hist([(0, (1.0, 1.0))]), fps=20, **RAW_PX_S) == (0.0, 0.0, 0.0)

    def test_uses_only_recent_span(self):
        # points older than 10 frames back are ignored
        h = hist([(0, (1000.0, 0.0)), (5, (0.0, 0.0)), (12, (7.0, 0.0))])
        speed, s, c = motion_features(h, fps=20, **RAW_PX_S)
        assert speed == pytest.approx(7.0 * 20 / 7)
        assert (s, c) == pytest.approx((0.0, 1.0))

    def test_sub_pixel_displacement_no_heading(self):
        h = hist([(0, (0.0, 0.0)), (10, (0.5, 0.0))])
        speed, s, c = motion_features(h, fps=20, **RAW_PX_S)
        assert speed > 0
        assert (s, c) == (0.0, 0.0)


class TestPoseFeatures:
    def test_hand_geometry(self):
        # shoulders 40 px apart on a horizontal line, nose 10 px above center
        p = pose_with(nose=(120, 190), ls=(100, 200), rs=(140, 200))
        bs, bc, fs, fc, dist = pose_features(p)
        assert dist == pytest.approx(40.0)
        assert (bs, bc) == pytest.approx((math.sin(-math.pi / 2),
                                          math.cos(-math.pi / 2)), abs=1e-12)
        assert (fs, fc) == pytest.approx((-1.0, 0.0), abs=1e-12)

    def test_nose_side_flip(self):
        p = pose_with(nose=(120, 210), ls=(100, 200), rs=(140, 200))
        bs, bc, _, _, _ = pose_features(p)
        assert (bs, bc) == pytest.approx((1.0, 0.0), abs=1e-12)  # +90 degrees

    def test_all_confidence_zero(self):
        p = pose_with(nose=(120, 190), ls=(100, 200), rs=(140, 200), conf=0.0)
        assert pose_features(p) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_missing_nose_keeps_shoulder_distance(self):
        p = pose_with(nose=(120, 190), ls=(100, 200), rs=(140, 200), nose_conf=0.1)
        bs, bc, fs, fc, dist = pose_features(p)
        assert (bs, bc, fs, fc) == (0.0, 0.0, 0.0, 0.0)
        assert dist == pytest.approx(40.0)

    def test_unit_circle_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            phi = rng.uniform(-math.pi, math.pi)
            mid = rng.uniform(50, 150, 2)
            perp = np.array([-math.sin(phi), math.cos(phi)])
            f = np.array([math.cos(phi), math.sin(phi)])
            p = pose_with(nose=tuple(mid + 12 * f), ls=tuple(mid + 20 * perp),
                          rs=tuple(mid - 20 * perp))
            bs, bc, fs, fc, _ = pose_features(p)
            assert bs**2 + bc**2 == pytest.approx(1.0, abs=1e-6)
            assert math.atan2(bs, bc) == pytest.approx(phi, abs=1e-9)
            assert math.atan2(fs, fc) == pytest.approx(phi, abs=1e-9)


class TestGeometricFeatures:
    def test_center_on_entry_a(self, geometry):
        d_a, d_b, _ = geometric_features(geometry.crosswalk_entries["A"], geometry)
        assert d_a == 0.0
        assert d_b > 0.0

    def test_symmetry(self, geometry):
        a = np.array(geometry.crosswalk_entries["A"])
        b = np.array(geometry.crosswalk_entries["B"])
        mid = tuple((a + b) / 2.0)
        d_a, d_b, _ = geometric_features(mid, geometry)
        assert d_a == pytest.approx(d_b)

    def test_compactness_arithmetic(self, geometry):
        # demo waiting area is 160 x 140 px in a 1280 x 720 frame
        _, _, compact = geometric_features((600.0, 480.0), geometry)
        assert compact == pytest.approx(160 * 140 / (1280 * 720))


class TestTemporalFilter:
    def test_idempotent_on_identical_vectors(self):
        v = np.zeros(FEATURE_DIM)
        v[0], v[2], v[5] = 0.3, 1.0, 2.0
        v[6], v[7] = math.sin(0.4), math.cos(0.4)
        out = temporal_filter([v.copy() for _ in range(10)])
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_mean_slot(self):
        frames = []
        for speed in range(1, 11):
            v = np.zeros(FEATURE_DIM)
            v[5] = float(speed)
            frames.append(v)
        assert temporal_filter(frames)[5] == pytest.approx(5.5)

    def test_angle_wraparound(self):
        a, b = math.radians(170), math.radians(-170)
        frames = []
        for ang in (a, b):
            v = np.zeros(FEATURE_DIM)
            v[6], v[7] = math.sin(ang), math.cos(ang)
            frames.append(v)
        out = temporal_filter(frames)
        assert math.atan2(out[6], out[7]) == pytest.approx(math.pi, abs=1e-9)

    def test_opposed_angles_collapse_to_zero(self):
        frames = []
        for ang in (0.0, math.pi):
            v = np.zeros(FEATURE_DIM)
            v[6], v[7] = math.sin(ang), math.cos(ang)
            frames.append(v)
        out = temporal_filter(frames)
        assert (out[6], out[7]) == (0.0, 0.0)

    def test_zone_mode(self):
        frames = []
        for slot in (2, 2, 2, 3):
            v = np.zeros(FEATURE_DIM)
            v[slot] = 1.0
            frames.append(v)
        out = temporal_filter(frames)
        assert out[2] == 1.0 and out[3] == 0.0

    def test_zone_tie_prefers_later_stage(self):
        frames = []
        for slot in (2, 2, 3, 3):
            v = np.zeros(FEATURE_DIM)
            v[slot] = 1.0
            frames.append(v)
        out = temporal_filter(frames)
        assert out[3] == 1.0 and out[2] == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        frames = [rng.uniform(-1, 1, FEATURE_DIM) for _ in range(7)]
        a = temporal_filter(frames)
        b = temporal_filter(frames[::-1])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            temporal_filter([])


# a zone code per frame: 0 outside (all-zero one-hot), 1-3 the ONEHOT_SLOTS
# in crossing order; opposed angles (0 and pi) make resultants cancel
angle = st.one_of(st.sampled_from([0.0, math.pi, math.pi / 2, -math.pi / 2]),
                  st.floats(-math.pi, math.pi))
step_frame = st.tuples(st.lists(st.floats(-1e3, 1e3), min_size=FEATURE_DIM,
                                max_size=FEATURE_DIM),
                       st.lists(st.one_of(angle, st.none()), min_size=3, max_size=3),
                       st.integers(0, 3))


def frame_vector(values, angles, zone):
    """A step_features-like row: angle pairs are unit vectors or, with no
    pose, (0, 0), and at most one one-hot slot is set."""
    v = list(values)
    for (si, ci), ang in zip(ANGLE_PAIRS, angles):
        v[si], v[ci] = (0.0, 0.0) if ang is None else (math.sin(ang), math.cos(ang))
    for slot in ONEHOT_SLOTS:
        v[slot] = 0.0
    if zone:
        v[ONEHOT_SLOTS[zone - 1]] = 1.0
    return tuple(v)


class TestTemporalFilterProperties:
    @settings(max_examples=300)
    @given(st.lists(step_frame, min_size=1, max_size=SEGMENT_FRAMES))
    def test_unit_angle_pairs_and_mode_one_hot(self, drawn):
        out = temporal_filter([frame_vector(*f) for f in drawn])
        for si, ci in ANGLE_PAIRS:
            pair = (out[si], out[ci])
            assert pair == (0.0, 0.0) or math.hypot(*pair) == pytest.approx(1.0, abs=1e-12)
        counts = [0] * 4
        for _, _, zone in drawn:
            counts[zone] += 1
        top = max(counts)
        mode = max(z for z in range(4) if counts[z] == top)  # ties: the later zone
        want = [1.0 if mode == k + 1 else 0.0 for k in range(len(ONEHOT_SLOTS))]
        assert [out[slot] for slot in ONEHOT_SLOTS] == want


class TestWindowAssembler:
    @pytest.mark.parametrize("n_steps,expected", [(0, 0), (3, 0), (4, 0), (5, 1),
                                                  (7, 3), (12, 8)])
    def test_window_count(self, n_steps, expected):
        asm = WindowAssembler(track_id=1)
        emitted = 0
        for k in range(n_steps):
            if asm.push(np.full(FEATURE_DIM, float(k)), end_frame_idx=10 * (k + 1)):
                emitted += 1
        assert emitted == expected == max(0, n_steps - 4)

    def test_rows_ordered_oldest_first(self):
        asm = WindowAssembler(track_id=2)
        win = None
        for k in range(6):
            win = asm.push(np.full(FEATURE_DIM, float(k)), 10 * (k + 1)) or win
        assert win.matrix[0, 0] == 1.0 and win.matrix[-1, 0] == 5.0


class TestStepFeatures:
    def test_no_nans_under_degeneracy(self, geometry):
        v = step_features((600.0, 480.0), ZoneKind(ZoneType.WAITING, "wait"),
                          hist([(0, (600.0, 480.0))]), None, 0.0, geometry)
        assert np.all(np.isfinite(v))
        assert v[2] == 1.0
        assert tuple(v[11:16]) == (0.0,) * 5

    def test_group_masks_cover_disjoint_slots(self):
        seen = set()
        for slots in FEATURE_GROUPS.values():
            assert not (seen & set(slots))
            seen.update(slots)
        assert seen == set(range(FEATURE_DIM))

    def test_mask_zeroes_exact_slots(self):
        keep = mask_for_groups(["P"])
        assert sorted(np.where(keep)[0]) == list(FEATURE_GROUPS["P"])
        with pytest.raises(ValueError):
            mask_for_groups(["X"])


# --- step_features against the ndarray code it replaced ----------------------


def legacy_pose_features(pose):
    """pose_features as it was, on numpy scalars."""
    kps = pose.keypoints
    ls, rs, nose = kps[5], kps[6], kps[0]
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
        return (0.0, 0.0, *face, shoulder_dist)
    phi_b = math.atan2(normal[1], normal[0])
    return (math.sin(phi_b), math.cos(phi_b), *face, shoulder_dist)


def legacy_compactness(g, p):
    """The waiting area by its containment test, else by nearest centroid."""
    area = next((z for z in g.waiting_areas if z.contains(p)), None)
    if area is None:
        area = min(g.waiting_areas, key=lambda z: math.hypot(
            p[0] - sum(q[0] for q in z.polygon) / len(z.polygon),
            p[1] - sum(q[1] for q in z.polygon) / len(z.polygon)))
    return polygon_area(area.polygon) / g.frame_area


def legacy_step_features(center, zone, history, pose, bbox_height, g):
    """step_features as it was: slot stores into a float64 array."""
    v = np.zeros(FEATURE_DIM)
    w, h = g.frame_size
    v[0] = center[0] / w
    v[1] = center[1] / h
    slot = {ZoneType.WAITING: 2, ZoneType.START_CROSSING: 3,
            ZoneType.CROSSING: 4}.get(zone.kind)
    if slot is not None:
        v[slot] = 1.0
    diag = math.hypot(w, h)
    v[5], v[6], v[7] = motion_features(history, g.fps, g.px_per_meter, diag)
    ax, ay = g.crosswalk_entries["A"]
    bx, by = g.crosswalk_entries["B"]
    v[8] = math.hypot(center[0] - ax, center[1] - ay) / diag
    v[9] = math.hypot(center[0] - bx, center[1] - by) / diag
    v[10] = legacy_compactness(g, center)
    if pose is not None:
        bs, bc, fs, fc, shoulder = legacy_pose_features(pose)
        v[11], v[12], v[13], v[14] = bs, bc, fs, fc
        v[15] = shoulder / bbox_height if bbox_height > 0 else 0.0
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite feature vector")
    return v


def _geometries():
    g = demo_geometry()
    second = Zone("wait", ((600.0, 400.0), (710.0, 400.0), (710.0, 575.0), (600.0, 575.0)))
    two = IntersectionGeometry(
        waiting_areas=(*g.waiting_areas, second),
        start_crossing_zones=g.start_crossing_zones, crossing_zones=g.crossing_zones,
        crosswalk_entries=g.crosswalk_entries, crop_rect=g.crop_rect, fps=g.fps,
        px_per_meter=g.px_per_meter, frame_size=g.frame_size)
    return (g, replace(g, px_per_meter=None), two)


GEOMETRIES = _geometries()
position = st.one_of(st.tuples(st.floats(150.0, 760.0), st.floats(80.0, 620.0)),
                     st.tuples(st.floats(-1e7, 1e7), st.floats(-1e7, 1e7)),
                     st.sampled_from([(520.0, 480.0), (600.0, 420.0), (680.0, 560.0),
                                      (705.0, 500.0), (440.0, 490.0)]))
gate_conf = st.one_of(st.floats(0.3, 1.0), st.floats(0.3, 1.0), st.floats(0.0, 1.0),
                      st.sampled_from([0.0, 0.3, 0.29999999999999993]))
heights = st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 5e-324, 1e-9, 1e-3, 1.0, 80.0]))


def outcome(fn, case):
    """The slot bytes, or the ValueError message."""
    try:
        return np.asarray(fn(*case), dtype=float).tobytes()
    except ValueError as exc:
        return str(exc)


@st.composite
def pose_case(draw):
    kps = np.array([[draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3)),
                     draw(gate_conf)] for _ in range(17)])
    shape = draw(st.sampled_from(("random", "nose_on_line", "same_shoulders", "nose_at_mid")))
    if shape == "nose_on_line":
        kps[0, :2] = kps[5, :2] + draw(st.floats(-2.0, 2.0)) * (kps[6, :2] - kps[5, :2])
    elif shape == "same_shoulders":
        kps[6, :2] = kps[5, :2]
    elif shape == "nose_at_mid":
        kps[0, :2] = (kps[5, :2] + kps[6, :2]) / 2.0
    return PoseDetection((0.0, 0.0, 40.0, 80.0), kps)


@st.composite
def step_case(draw):
    g = draw(st.sampled_from(GEOMETRIES))
    center = draw(position)
    if draw(st.booleans()):
        zone = g.classify_point(center)  # what the pipeline passes
    else:
        zone = ZoneKind(draw(st.sampled_from(list(ZoneType))), "wait")
    history, frame = [], 0
    for p in draw(st.lists(position, max_size=5)) + [center]:
        frame += draw(st.integers(1, 12))
        history.append((frame, p, (p[0] - 15.0, p[1] - 30.0, 30.0, 60.0)))
    pose = draw(st.one_of(st.none(), pose_case(), pose_case(), pose_case()))
    bbox_height = draw(heights)
    return center, zone, history, pose, bbox_height, g


class TestStepFeaturesMatchLegacyArray:
    """16 plain floats, bit for bit the slots the ndarray code stored."""

    @settings(max_examples=300)
    @given(step_case())
    def test_same_bytes(self, case):
        assert outcome(step_features, case) == outcome(legacy_step_features, case)

    @given(pose_case(), heights)
    def test_pose_slots_over_any_height(self, pose, bbox_height):
        g = GEOMETRIES[0]
        case = ((600.0, 480.0), g.classify_point((600.0, 480.0)),
                [(0, (600.0, 480.0), (585.0, 450.0, 30.0, 60.0))], pose, bbox_height, g)
        assert outcome(step_features, case) == outcome(legacy_step_features, case)

    @given(step_case())
    def test_plain_floats(self, case):
        try:
            got = step_features(*case)
        except ValueError:
            return
        assert type(got) is tuple and len(got) == FEATURE_DIM
        assert all(type(v) is float for v in got)

    @given(pose_case())
    def test_pose_features_same_bytes(self, pose):
        assert (np.array(pose_features(pose)).tobytes()
                == np.array(legacy_pose_features(pose)).tobytes())

    def test_non_finite_slot_still_raises(self, geometry):
        kps = np.full((17, 3), 0.9)
        kps[5, 0], kps[6, 0] = -1e308, 1e308  # the shoulder distance overflows
        # built past PoseDetection's check, which refuses keypoints beyond
        # COORD_LIMIT: step_features' own guard is under test
        pose = _trusted_pose((0.0, 0.0, 40.0, 80.0), kps)
        args = ((600.0, 480.0), geometry.classify_point((600.0, 480.0)),
                hist([(0, (600.0, 480.0))]), pose, 80.0, geometry)
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore",
                                                                        invalid="ignore"):
            legacy_step_features(*args)
        with pytest.raises(ValueError, match="non-finite"):
            step_features(*args)
