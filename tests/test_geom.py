import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosswise import geom
from crosswise.geom import (COORD_LIMIT, MAX_FPS, MIN_FRAME_SIDE, MIN_PX_PER_METER, OUTSIDE,
                            GeometryError, IntersectionGeometry, Zone, ZoneKind, ZoneType,
                            _inside, _reject_box, demo_geometry, polygon_area)
from crosswise.ingest import ScenarioSpec, generate_scenario

UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
SQUARE = Zone("square", UNIT_SQUARE)


class TestPointInPolygon:
    """Zone.contains."""

    def test_inside(self):
        assert SQUARE.contains((0.5, 0.5))

    def test_outside(self):
        assert not SQUARE.contains((2.0, 2.0))

    def test_boundary_counts_as_inside(self):
        assert SQUARE.contains((1.0, 0.5))
        assert SQUARE.contains((0.0, 0.0))  # vertex

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(GeometryError, match="degenerate"):
            Zone("z", ((0, 0), (1, 1), (2, 2)))

    def test_too_few_vertices_rejected(self):
        with pytest.raises(GeometryError, match="2 vertices"):
            Zone("z", ((0, 0), (1, 1)))

    def test_concave_polygon(self):
        # L-shape: the notch is outside
        zone = Zone("L", ((0, 0), (4, 0), (4, 4), (3, 4), (3, 1), (0, 1)))
        assert zone.contains((3.5, 2.0))
        assert not zone.contains((1.0, 2.0))

    def test_random_points_vs_convex_halfplane_check(self):
        # oracle for a convex quad: inside iff on one side of every edge
        poly = ((0.0, 0.0), (4.0, 0.5), (4.5, 3.0), (0.5, 3.5))

        def inside_convex(p):
            sgn = 0
            n = len(poly)
            for i in range(n):
                ax, ay = poly[i]
                bx, by = poly[(i + 1) % n]
                cross = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
                if abs(cross) < 1e-12:
                    continue
                s = 1 if cross > 0 else -1
                if sgn == 0:
                    sgn = s
                elif s != sgn:
                    return False
            return True

        zone = Zone("quad", poly)
        rng = np.random.default_rng(3)
        for _ in range(300):
            p = tuple(rng.uniform(-1, 5, 2))
            assert zone.contains(p) == inside_convex(p)

    def test_constants_stay_out_of_equality_and_repr(self):
        assert Zone("square", UNIT_SQUARE) == SQUARE
        assert hash(Zone("square", UNIT_SQUARE)) == hash(SQUARE)
        assert repr(SQUARE) == f"Zone(zone_id='square', polygon={UNIT_SQUARE!r}, label=None)"
        assert (SQUARE.area, SQUARE.centroid) == (1.0, (0.5, 0.5))


class TestZoneConstantsBuiltOnce:
    """Each zone builds its containment constants once, when it is made."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"_edges": 0, "_reject_box": 0, "polygon_area": 0}
        for name in calls:
            def counted(poly, _orig=getattr(geom, name), _name=name):
                calls[_name] += 1
                return _orig(poly)
            monkeypatch.setattr(geom, name, counted)
        return calls

    def test_once_per_zone_at_build(self, calls):
        g = demo_geometry()
        n_zones = len(g.waiting_areas) + len(g.start_crossing_zones) + len(g.crossing_zones)
        assert calls == {"_edges": n_zones, "_reject_box": n_zones, "polygon_area": n_zones}

    def test_never_after_build(self, calls):
        g = demo_geometry()
        built = dict(calls)
        generate_scenario(ScenarioSpec(n_vrus=4, seed=1), g)
        for p in ((600.0, 480.0), (5.0, 5.0), (520.0, 480.0)):
            g.classify_point(p)
            g.waiting_compactness(p)
        assert calls == built


class TestClassifyPoint:
    def test_waiting(self, geometry):
        zk = geometry.classify_point((600.0, 480.0))
        assert zk.kind == ZoneType.WAITING

    def test_outside(self, geometry):
        assert geometry.classify_point((5.0, 5.0)).kind == ZoneType.OUTSIDE

    def test_priority_crossing_beats_waiting(self):
        g = demo_geometry()
        # build overlapping zones: a crossing polygon on top of a waiting one
        overlap = Zone("c", ((500.0, 400.0), (700.0, 400.0), (700.0, 580.0),
                             (500.0, 580.0)), "A")
        g2 = IntersectionGeometry(
            waiting_areas=g.waiting_areas,
            start_crossing_zones=g.start_crossing_zones,
            crossing_zones=(overlap, next(z for z in g.crossing_zones if z.label == "B")),
            crosswalk_entries=g.crosswalk_entries,
            crop_rect=g.crop_rect, fps=g.fps, frame_size=g.frame_size)
        zk = g2.classify_point((600.0, 480.0))  # inside waiting AND the overlap
        assert zk.kind == ZoneType.CROSSING
        assert zk.label == "A"

    def test_start_crossing_beats_waiting_on_shared_edge(self, geometry):
        zk = geometry.classify_point((520.0, 480.0))
        assert zk.kind == ZoneType.START_CROSSING

    def test_total_and_consistent(self, geometry):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = (rng.uniform(0, 1280), rng.uniform(0, 720))
            assert geometry.classify_point(p) == geometry.classify_point(p)


DEMO = demo_geometry()
DEMO_ZONES = (*DEMO.crossing_zones, *DEMO.start_crossing_zones, *DEMO.waiting_areas)
DEMO_VERTICES = sorted({q for z in DEMO_ZONES for q in z.polygon})
DEMO_EDGES = [(z.polygon[i - 1], z.polygon[i]) for z in DEMO_ZONES
              for i in range(len(z.polygon))]
OFFSETS = (0.0, 1e-10, -1e-10, 1e-9, -1e-9, 2e-9, -2e-9)


def walk(p, zone):
    """The zone's edge walk, without its bbox reject."""
    return _inside(p[0], p[1], zone._edges)


def reference_classify(g, p):
    """classify_point through the edge walk, without the bbox reject."""
    for zones, kind in ((g.crossing_zones, ZoneType.CROSSING),
                        (g.start_crossing_zones, ZoneType.START_CROSSING),
                        (g.waiting_areas, ZoneType.WAITING)):
        for zone in zones:
            if walk(p, zone):
                return ZoneKind(kind, zone.zone_id, zone.label)
    return OUTSIDE


def reference_waiting_area(g, p):
    for zone in g.waiting_areas:
        if walk(p, zone):
            return zone

    def centroid_dist(zone):
        cx = sum(q[0] for q in zone.polygon) / len(zone.polygon)
        cy = sum(q[1] for q in zone.polygon) / len(zone.polygon)
        return math.hypot(p[0] - cx, p[1] - cy)
    return min(g.waiting_areas, key=centroid_dist)


def on_edge(edge, t):
    (ax, ay), (bx, by) = edge
    return (ax + t * (bx - ax), ay + t * (by - ay))


boundary_points = st.one_of(
    st.sampled_from(DEMO_VERTICES),
    st.builds(on_edge, st.sampled_from(DEMO_EDGES), st.floats(0.0, 1.0)))
demo_points = st.one_of(
    st.tuples(st.floats(-50.0, 1330.0), st.floats(-50.0, 770.0)),
    boundary_points,
    st.builds(lambda p, dx, dy: (p[0] + dx, p[1] + dy), boundary_points,
              st.sampled_from(OFFSETS), st.sampled_from(OFFSETS)))


class TestZoneQueriesMatchValidatingTest:
    """The bbox reject and the cached per-zone constants change no answer."""

    @staticmethod
    def check(p):
        assert DEMO.classify_point(p) == reference_classify(DEMO, p)
        wait = reference_waiting_area(DEMO, p)
        assert DEMO.waiting_areas[DEMO._waiting_index(p)] is wait
        assert DEMO.waiting_compactness(p) == polygon_area(wait.polygon) / DEMO.frame_area

    @given(demo_points)
    def test_random_and_boundary_points(self, p):
        self.check(p)

    def test_every_vertex_at_every_offset(self):
        for x, y in DEMO_VERTICES:
            for dx in OFFSETS:
                for dy in OFFSETS:
                    self.check((x + dx, y + dy))

    def test_crossing_abscissa_rounding_past_the_extreme_x(self):
        # the ray from p crosses the edge at x_cross > 1.6090669 + 1e-7 after
        # rounding, so p counts as inside though it lies right of every vertex
        far, near = (-887375517.3108889, -2.3099393493148996), (1.6090669036975829,
                                                               0.4305958814059121)
        poly = (near, far, (far[0], near[1] + 5.0))
        p = (near[0] + 1e-7, 0.430595881405912)
        assert walk(p, Zone("far", poly)) and Zone("far", poly).contains(p)
        x0, y0, x1, y1 = _reject_box(poly)
        assert x0 <= p[0] <= x1 and y0 <= p[1] <= y1


class TestCropMapping:
    def test_translation(self, geometry):
        x0, y0, _, _ = geometry.crop_rect
        assert geometry.crop_to_full((10.0, 20.0)) == (x0 + 10.0, y0 + 20.0)

    def test_identity_origin(self):
        g = demo_geometry()
        g2 = IntersectionGeometry(
            waiting_areas=g.waiting_areas,
            start_crossing_zones=g.start_crossing_zones,
            crossing_zones=g.crossing_zones,
            crosswalk_entries=g.crosswalk_entries,
            crop_rect=(0.0, 0.0, 1280.0, 720.0), fps=20, frame_size=(1280.0, 720.0))
        assert g2.crop_to_full((7.0, 3.0)) == (7.0, 3.0)

    def test_round_trip_100_random_points(self, geometry):
        rng = np.random.default_rng(7)
        cx, cy, cw, ch = geometry.crop_rect
        for _ in range(100):
            p = (rng.uniform(0, cw), rng.uniform(0, ch))
            fx, fy = geometry.crop_to_full(p)
            assert (fx, fy) == (cx + p[0], cy + p[1])
            assert (fx - cx, fy - cy) == pytest.approx(p, abs=1e-12)

    def test_out_of_bounds_errors(self, geometry):
        with pytest.raises(GeometryError):
            geometry.crop_to_full((-1.0, 5.0))
        with pytest.raises(GeometryError):
            geometry.crop_to_full((5.0, 1e6))


@st.composite
def geometries(draw):
    """Valid geometries around the demo layout: any camera scale, frame size,
    zone ids and start-zone labels, a wider crop, and moved outer zones."""
    g = demo_geometry()
    shift = st.floats(-20.0, 20.0)

    def moved(zone, labels):
        return Zone(draw(st.text(max_size=8)),
                    tuple((x + draw(shift), y + draw(shift)) for x, y in zone.polygon),
                    draw(st.sampled_from(labels)))

    cx, cy, cw, ch = g.crop_rect
    left, top, right, bottom = (draw(st.floats(0.0, 300.0)) for _ in range(4))
    return IntersectionGeometry(
        waiting_areas=tuple(replace(z, zone_id=draw(st.text(max_size=8)))
                            for z in g.waiting_areas),
        start_crossing_zones=tuple(moved(z, (None, "A", "B"))
                                   for z in g.start_crossing_zones),
        crossing_zones=tuple(moved(z, (z.label,)) for z in g.crossing_zones),
        crosswalk_entries={k: (x + draw(shift), y + draw(shift))
                           for k, (x, y) in g.crosswalk_entries.items()},
        crop_rect=(cx - left, cy - top, cw + left + right, ch + top + bottom),
        fps=draw(st.integers(1, MAX_FPS)),
        px_per_meter=draw(st.none() | st.floats(MIN_PX_PER_METER, 1e6)),
        frame_size=draw(st.tuples(st.floats(MIN_FRAME_SIDE, 1e5),
                                  st.floats(MIN_FRAME_SIDE, 1e5))))


class TestGeometryValidation:
    def test_bad_fps(self, geometry):
        with pytest.raises(GeometryError):
            IntersectionGeometry(
                waiting_areas=geometry.waiting_areas,
                start_crossing_zones=geometry.start_crossing_zones,
                crossing_zones=geometry.crossing_zones,
                crosswalk_entries=geometry.crosswalk_entries,
                crop_rect=geometry.crop_rect, fps=0, frame_size=geometry.frame_size)

    def test_crop_must_contain_waiting_area(self, geometry):
        with pytest.raises(GeometryError, match="crop_rect"):
            IntersectionGeometry(
                waiting_areas=geometry.waiting_areas,
                start_crossing_zones=geometry.start_crossing_zones,
                crossing_zones=geometry.crossing_zones,
                crosswalk_entries=geometry.crosswalk_entries,
                crop_rect=(0.0, 0.0, 50.0, 50.0), fps=20, frame_size=geometry.frame_size)

    def test_crossing_labels_required(self, geometry):
        unlabeled = tuple(Zone(z.zone_id, z.polygon, None)
                          for z in geometry.crossing_zones)
        with pytest.raises(GeometryError, match="labels"):
            IntersectionGeometry(
                waiting_areas=geometry.waiting_areas,
                start_crossing_zones=geometry.start_crossing_zones,
                crossing_zones=unlabeled,
                crosswalk_entries=geometry.crosswalk_entries,
                crop_rect=geometry.crop_rect, fps=20, frame_size=geometry.frame_size)

    @pytest.mark.parametrize("frame_size", [(1280.0, 0.0), (-1.0, 720.0)])
    def test_frame_size_must_be_positive(self, geometry, frame_size):
        with pytest.raises(GeometryError, match="frame_size"):
            IntersectionGeometry(
                waiting_areas=geometry.waiting_areas,
                start_crossing_zones=geometry.start_crossing_zones,
                crossing_zones=geometry.crossing_zones,
                crosswalk_entries=geometry.crosswalk_entries,
                crop_rect=geometry.crop_rect, fps=20, frame_size=frame_size)

    @pytest.mark.parametrize("change,match", [
        ({"frame_size": (0.5, 720.0)}, "frame_size"),
        ({"frame_size": (1280.0, 1e-300)}, "frame_size"),
        ({"frame_size": (math.nan, 720.0)}, "frame_size"),
        ({"px_per_meter": 1e-300}, "px_per_meter"),
        ({"px_per_meter": 9.99e-4}, "px_per_meter"),
        ({"px_per_meter": math.nan}, "px_per_meter"),
        ({"px_per_meter": 0.0}, "px_per_meter"),
        ({"fps": 1001}, "fps"),
        ({"fps": 10 ** 9}, "fps"),
        ({"fps": -20}, "fps"),
    ])
    def test_camera_scale_enforced(self, geometry, change, match):
        with pytest.raises(GeometryError, match=match):
            replace(geometry, **change)

    def test_camera_scale_edge_accepted(self, geometry):
        edge = replace(geometry, fps=MAX_FPS, px_per_meter=MIN_PX_PER_METER,
                       frame_size=(MIN_FRAME_SIDE, MIN_FRAME_SIDE))
        assert (edge.fps, edge.px_per_meter, edge.frame_size) == (1000, 1e-3, (1.0, 1.0))
        assert replace(geometry, px_per_meter=None).px_per_meter is None

    def test_cached_zone_constants_stay_out_of_the_config(self, geometry):
        assert set(geometry.to_dict()) == {
            "fps", "px_per_meter", "frame_size", "crop_rect", "waiting_areas",
            "start_crossing_zones", "crossing_zones", "crosswalk_entries"}
        assert geometry == IntersectionGeometry.from_dict(geometry.to_dict())

    def test_config_round_trip(self, geometry, tmp_path):
        path = tmp_path / "geom.json"
        geometry.save(path)
        loaded = IntersectionGeometry.load(path)
        assert loaded == geometry

    @pytest.mark.parametrize("change", [
        {"frame_size": None}, {"frame_size": [0, 0]},
        # no size is guessed, here from a crop too large to round up
        {"frame_size": None, "waiting_areas": [], "crop_rect": [1e308, 0, 1e308, 100]}],
        ids=["missing", "zero", "missing_with_huge_crop"])
    def test_frame_size_required(self, geometry, change):
        # the frame size scales five feature slots, six without px_per_meter
        cfg = {k: v for k, v in {**geometry.to_dict(), **change}.items() if v is not None}
        with pytest.raises(GeometryError, match="frame_size"):
            IntersectionGeometry.from_dict(cfg)

    def test_waiting_area_required(self, geometry):
        cfg = geometry.to_dict()
        cfg["waiting_areas"] = []
        with pytest.raises(GeometryError, match="waiting_areas"):
            IntersectionGeometry.from_dict(cfg)
        with pytest.raises(GeometryError, match="waiting_areas"):
            replace(geometry, waiting_areas=())

    @pytest.mark.parametrize("crop", [
        (-1e300, -1e300, 3e300, 3e300), (-2e7, 0.0, 3e7, 1e3), (0.0, -1e300, 1e3, 2e300),
        (0.0, 0.0, 1.0000001e7, 1e3), (0.0, 0.0, 1e3, 2e7)])
    def test_crop_held_to_camera_scale(self, geometry, crop):
        # every crop here contains the waiting area; a crop of 1e300 px binds no pose
        with pytest.raises(GeometryError, match="crop_rect x and y"):
            replace(geometry, crop_rect=crop)
        cfg = geometry.to_dict()
        cfg["crop_rect"] = list(crop)
        with pytest.raises(GeometryError, match="crop_rect x and y"):
            IntersectionGeometry.from_dict(cfg)

    def test_crop_at_camera_scale_accepted(self, geometry):
        g = replace(geometry, crop_rect=(0.0, 0.0, COORD_LIMIT, COORD_LIMIT))
        assert g.crop_to_full((COORD_LIMIT, 0.0)) == (COORD_LIMIT, 0.0)

    @given(geometries())
    def test_saved_config_loads_back(self, g):
        assert IntersectionGeometry.from_dict(json.loads(json.dumps(g.to_dict()))) == g

    def test_unknown_key_refused(self, geometry):
        cfg = geometry.to_dict()
        cfg["px_per_metre"] = 50  # read as no scale, speeds would switch units
        with pytest.raises(GeometryError, match="px_per_metre"):
            IntersectionGeometry.from_dict(cfg)

    @pytest.mark.parametrize("key", ["waiting_areas", "start_crossing_zones",
                                     "crossing_zones"])
    def test_unknown_zone_key_refused(self, geometry, key):
        cfg = geometry.to_dict()
        cfg[key][-1]["lable"] = "A"
        with pytest.raises(GeometryError, match="lable"):
            IntersectionGeometry.from_dict(cfg)


    @pytest.mark.parametrize("key,value", [
        ("fps", 20.9), ("fps", 20.0), ("fps", True), ("fps", "20"),
        ("px_per_meter", "50"), ("px_per_meter", True),
        ("crop_rect", [480.0, 380.0, 240.0, "200"]), ("crop_rect", [480.0, 380.0, 240.0]),
        ("frame_size", [1280.0, False]), ("frame_size", "1280x720")])
    def test_non_number_refused(self, geometry, key, value):
        # int() and float() would load these as 20, 1, 50.0 or 200.0
        cfg = json.loads(json.dumps(geometry.to_dict()))
        cfg[key] = value
        with pytest.raises(GeometryError, match=key):
            IntersectionGeometry.from_dict(cfg)

    @pytest.mark.parametrize("key", ["waiting_areas", "crossing_zones", "crosswalk_entries"])
    @pytest.mark.parametrize("value", ["440", None, True])
    def test_non_number_coordinate_refused(self, geometry, key, value):
        cfg = json.loads(json.dumps(geometry.to_dict()))
        point = (cfg[key]["A"] if key == "crosswalk_entries"
                 else cfg[key][0]["polygon"][1])
        point[0] = value
        with pytest.raises(GeometryError, match=key):
            IntersectionGeometry.from_dict(cfg)

    @pytest.mark.parametrize("key,attr,value", [
        ("start_crossing_zones", "label", 7), ("start_crossing_zones", "label", "C"),
        ("crossing_zones", "label", "a"), ("waiting_areas", "label", ""),
        ("waiting_areas", "id", 12), ("crossing_zones", "id", None),
        ("start_crossing_zones", "id", ["start_a"])])
    def test_zone_label_and_id_checked(self, geometry, key, attr, value):
        # a start zone's label becomes the crosswalk of a fast-path alert;
        # str() would have loaded id 12 as "12"
        cfg = json.loads(json.dumps(geometry.to_dict()))
        cfg[key][0][attr] = value
        with pytest.raises(GeometryError, match=key):
            IntersectionGeometry.from_dict(cfg)

    @pytest.mark.parametrize("keys", [("A", "B", "C"), ("A",), ("A", "b")])
    def test_crosswalk_entry_keys_checked(self, geometry, keys):
        cfg = json.loads(json.dumps(geometry.to_dict()))
        cfg["crosswalk_entries"] = {k: [440.0, 490.0] for k in keys}
        with pytest.raises(GeometryError, match="crosswalk_entries"):
            IntersectionGeometry.from_dict(cfg)

    @pytest.mark.parametrize("key,value", [
        ("crosswalk_entries", [math.nan, 490.0]), ("crosswalk_entries", [440.0, -math.inf]),
        ("crossing_zones", [math.inf, 420.0]), ("waiting_areas", [520.0, math.nan])])
    def test_non_finite_coordinate_refused_at_load(self, geometry, tmp_path, key, value):
        # a NaN entry would load and abort Pipeline.step at the first track
        # with "non-finite feature vector"
        cfg = geometry.to_dict()
        if key == "crosswalk_entries":
            cfg[key]["A"] = value
        else:
            cfg[key][0]["polygon"][0] = value
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(cfg))  # writes NaN and Infinity literals
        with pytest.raises(ValueError, match="is not a JSON number"):
            IntersectionGeometry.load(path)

    @pytest.mark.parametrize("key", ["waiting_areas", "start_crossing_zones",
                                     "crossing_zones", "crosswalk_entries"])
    @pytest.mark.parametrize("value", [1.0000001e7, -2e7, 1e300, math.nan, math.inf])
    def test_coordinate_held_to_camera_scale(self, geometry, key, value):
        cfg = geometry.to_dict()
        if key == "crosswalk_entries":
            cfg[key]["B"] = [600.0, value]
        else:
            cfg[key][-1]["polygon"][0][0] = value
        # a vertex of NaN or inf can make the zone's own area check refuse first
        with pytest.raises(GeometryError, match=f"{key}|degenerate"):
            IntersectionGeometry.from_dict(cfg)

    def test_coordinate_at_camera_scale_accepted(self, geometry):
        entries = {"A": (-COORD_LIMIT, COORD_LIMIT), "B": (COORD_LIMIT, 340.0)}
        cross = Zone("far", ((0.0, -COORD_LIMIT), (COORD_LIMIT, -COORD_LIMIT),
                             (COORD_LIMIT, 0.0)), "B")
        g = replace(geometry, crosswalk_entries=entries,
                    crossing_zones=(geometry.crossing_zones[0], cross))
        assert g.classify_point((COORD_LIMIT - 1.0, -1.0)).zone_id == "far"

    def test_labels_ids_and_entries_checked_in_code(self, geometry):
        start = geometry.start_crossing_zones
        with pytest.raises(GeometryError, match="start_crossing_zones"):
            replace(geometry, start_crossing_zones=(replace(start[0], label=7), start[1]))
        with pytest.raises(GeometryError, match="start_crossing_zones"):
            replace(geometry, start_crossing_zones=(replace(start[0], zone_id=12), start[1]))
        with pytest.raises(GeometryError, match="crosswalk_entries"):
            replace(geometry, crosswalk_entries={**geometry.crosswalk_entries, "C": (0.0, 0.0)})
        assert IntersectionGeometry.from_dict(geometry.to_dict()) == geometry


def test_polygon_area():
    assert polygon_area(UNIT_SQUARE) == 1.0
    assert polygon_area(((0, 0), (2, 0), (1, 3))) == pytest.approx(3.0)


# --- the precomputed edge walk against the walk it replaced -----------------


def legacy_on_segment(px, py, ax, ay, bx, by, eps=1e-9):
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    if abs(cross) > eps * max(1.0, abs(bx - ax) + abs(by - ay)):
        return False
    return (min(ax, bx) - eps <= px <= max(ax, bx) + eps
            and min(ay, by) - eps <= py <= max(ay, by) + eps)


def legacy_even_odd(p, poly):
    """The even-odd walk as it was before the per-edge constants."""
    x, y = p
    n = len(poly)
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = poly[i]
        xj, yj = poly[j]
        if legacy_on_segment(x, y, xi, yi, xj, yj):
            return True
        if (yi > y) != (yj > y):
            x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def legacy_classify(g, p):
    for zones, kind in ((g.crossing_zones, ZoneType.CROSSING),
                        (g.start_crossing_zones, ZoneType.START_CROSSING),
                        (g.waiting_areas, ZoneType.WAITING)):
        for zone in zones:
            if legacy_even_odd(p, zone.polygon):
                return ZoneKind(kind, zone.zone_id, zone.label)
    return OUTSIDE


def legacy_waiting_index(g, p):
    """IntersectionGeometry._waiting_index as it was: walk, then centroid."""
    for i, zone in enumerate(g.waiting_areas):
        if legacy_even_odd(p, zone.polygon):
            return i
    centroids = [(sum(q[0] for q in z.polygon) / len(z.polygon),
                  sum(q[1] for q in z.polygon) / len(z.polygon)) for z in g.waiting_areas]
    return min(range(len(centroids)), key=lambda i: math.hypot(
        p[0] - centroids[i][0], p[1] - centroids[i][1]))


# offsets up to a few on-edge tolerances of a long edge (eps * (|dx| + |dy|))
NEAR = (0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9, 5e-8, -5e-8, 2e-7, -2e-7, 1e-6, -1e-6)
small = st.floats(-1e3, 1e3)
large = st.floats(-1e9, 1e9)


@st.composite
def polygon_and_point(draw):
    coord = draw(st.sampled_from((small, large)))
    poly = tuple(draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=6)))
    if polygon_area(poly) <= 0.0:
        poly = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    how = draw(st.sampled_from(("random", "vertex", "edge", "wide")))
    if how == "random":
        p = (draw(coord), draw(coord))
    elif how == "wide":  # large |x| next to a small polygon, or the reverse
        p = (draw(st.sampled_from((-1, 1))) * draw(st.floats(1e6, 1e12)), draw(coord))
    else:
        i = draw(st.integers(0, len(poly) - 1))
        if how == "vertex":
            p = poly[i]
        else:
            p = on_edge((poly[i - 1], poly[i]), draw(st.floats(0.0, 1.0)))
    dx, dy = draw(st.sampled_from(NEAR)), draw(st.sampled_from(NEAR))
    return poly, (p[0] + dx, p[1] + dy)


class TestEdgeWalkMatchesLegacyWalk:
    """The per-edge constants keep every float expression: same answers."""

    @given(polygon_and_point())
    def test_point_in_polygon(self, case):
        poly, p = case
        assert Zone("z", poly).contains(p) == legacy_even_odd(p, poly)

    @given(st.one_of(demo_points, st.builds(
        lambda p, dx, dy: (p[0] + dx, p[1] + dy), boundary_points,
        st.sampled_from(NEAR), st.sampled_from(NEAR))))
    def test_classify_point(self, p):
        assert DEMO.classify_point(p) == legacy_classify(DEMO, p)

    def test_every_demo_vertex_and_edge_offset(self):
        for (ax, ay), (bx, by) in DEMO_EDGES:
            for t in (0.0, 0.25, 0.5, 1.0):
                for dx in NEAR:
                    for dy in NEAR:
                        p = (ax + t * (bx - ax) + dx, ay + t * (by - ay) + dy)
                        assert DEMO.classify_point(p) == legacy_classify(DEMO, p)

    @pytest.mark.parametrize("p", [(math.nan, 480.0), (600.0, math.nan),
                                   (math.nan, math.nan)])
    def test_nan_is_in_no_zone(self, p):
        for zone in DEMO_ZONES:
            assert not zone.contains(p)
        assert DEMO.classify_point(p) is OUTSIDE


def two_waiting_areas():
    """Demo zones with two overlapping waiting areas of different size."""
    g = demo_geometry()
    second = Zone("wait2", ((600.0, 400.0), (710.0, 400.0), (710.0, 575.0), (600.0, 575.0)))
    return IntersectionGeometry(
        waiting_areas=(*g.waiting_areas, second),
        start_crossing_zones=g.start_crossing_zones, crossing_zones=g.crossing_zones,
        crosswalk_entries=g.crosswalk_entries, crop_rect=g.crop_rect, fps=g.fps,
        px_per_meter=g.px_per_meter, frame_size=g.frame_size)


TWO_WAIT = two_waiting_areas()
TWO_WAIT_VERTICES = sorted({q for z in TWO_WAIT.waiting_areas for q in z.polygon})
TWO_WAIT_EDGES = [(z.polygon[i - 1], z.polygon[i]) for z in TWO_WAIT.waiting_areas
                  for i in range(len(z.polygon))]
two_wait_points = st.builds(
    lambda p, dx, dy: (p[0] + dx, p[1] + dy),
    st.one_of(st.tuples(st.floats(380.0, 800.0), st.floats(300.0, 650.0)),
              st.sampled_from(TWO_WAIT_VERTICES),
              st.builds(on_edge, st.sampled_from(TWO_WAIT_EDGES), st.floats(0.0, 1.0))),
    st.sampled_from(NEAR), st.sampled_from(NEAR))


class TestWaitingCompactnessMatchesLegacyWalk:
    """The edge walk and the one-area shortcut change no compactness."""

    @staticmethod
    def check(g, p):
        i = legacy_waiting_index(g, p)
        assert g.waiting_compactness(p) == polygon_area(g.waiting_areas[i].polygon) / g.frame_area
        assert g._waiting_index(p) == i

    @given(two_wait_points)
    def test_two_overlapping_areas(self, p):
        self.check(TWO_WAIT, p)

    @given(two_wait_points)
    def test_one_area(self, p):
        self.check(DEMO, p)


class TestCachedAttributes:
    @pytest.mark.parametrize("kind", list(ZoneType))
    def test_is_observing(self, kind):
        zk = ZoneKind(kind, "z")
        assert zk.is_observing == (kind in (ZoneType.WAITING, ZoneType.START_CROSSING))
        assert zk == ZoneKind(kind, "z") and hash(zk) == hash(ZoneKind(kind, "z"))
        assert repr(zk) == f"ZoneKind(kind={kind!r}, zone_id='z', label=None)"

    def test_frame_diagonal(self, geometry):
        assert geometry.frame_diagonal == math.hypot(1280.0, 720.0)
        assert "frame_diagonal" not in repr(geometry)
