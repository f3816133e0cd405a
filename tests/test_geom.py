import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosswise.geom import (OUTSIDE, GeometryError, IntersectionGeometry, Zone, ZoneKind,
                            ZoneType, _reject_box, demo_geometry, point_in_polygon,
                            polygon_area)

UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


class TestPointInPolygon:
    def test_inside(self):
        assert point_in_polygon((0.5, 0.5), UNIT_SQUARE)

    def test_outside(self):
        assert not point_in_polygon((2.0, 2.0), UNIT_SQUARE)

    def test_boundary_counts_as_inside(self):
        assert point_in_polygon((1.0, 0.5), UNIT_SQUARE)
        assert point_in_polygon((0.0, 0.0), UNIT_SQUARE)  # vertex

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(GeometryError):
            point_in_polygon((0.0, 0.0), ((0, 0), (1, 1), (2, 2)))

    def test_too_few_vertices_rejected(self):
        with pytest.raises(GeometryError):
            point_in_polygon((0.0, 0.0), ((0, 0), (1, 1)))

    def test_concave_polygon(self):
        # L-shape: the notch is outside
        poly = ((0, 0), (4, 0), (4, 4), (3, 4), (3, 1), (0, 1))
        assert point_in_polygon((3.5, 2.0), poly)
        assert not point_in_polygon((1.0, 2.0), poly)

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

        rng = np.random.default_rng(3)
        for _ in range(300):
            p = tuple(rng.uniform(-1, 5, 2))
            assert point_in_polygon(p, poly) == inside_convex(p)


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


def reference_classify(g, p):
    """classify_point through the validating test, without the bbox reject."""
    for zones, kind in ((g.crossing_zones, ZoneType.CROSSING),
                        (g.start_crossing_zones, ZoneType.START_CROSSING),
                        (g.waiting_areas, ZoneType.WAITING)):
        for zone in zones:
            if point_in_polygon(p, zone.polygon):
                return ZoneKind(kind, zone.zone_id, zone.label)
    return OUTSIDE


def reference_waiting_area(g, p):
    for zone in g.waiting_areas:
        if point_in_polygon(p, zone.polygon):
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
        assert DEMO.waiting_area_for(p) is wait
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
        assert point_in_polygon(p, poly)
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
        _, _, cw, ch = geometry.crop_rect
        for _ in range(100):
            p = (rng.uniform(0, cw), rng.uniform(0, ch))
            back = geometry.full_to_crop(geometry.crop_to_full(p))
            assert back == pytest.approx(p, abs=1e-12)

    def test_out_of_bounds_errors(self, geometry):
        with pytest.raises(GeometryError):
            geometry.crop_to_full((-1.0, 5.0))
        with pytest.raises(GeometryError):
            geometry.crop_to_full((5.0, 1e6))


class TestGeometryValidation:
    def test_bad_fps(self, geometry):
        with pytest.raises(GeometryError):
            IntersectionGeometry(
                waiting_areas=geometry.waiting_areas,
                start_crossing_zones=geometry.start_crossing_zones,
                crossing_zones=geometry.crossing_zones,
                crosswalk_entries=geometry.crosswalk_entries,
                crop_rect=geometry.crop_rect, fps=0)

    def test_crop_must_contain_waiting_area(self, geometry):
        with pytest.raises(GeometryError, match="crop_rect"):
            IntersectionGeometry(
                waiting_areas=geometry.waiting_areas,
                start_crossing_zones=geometry.start_crossing_zones,
                crossing_zones=geometry.crossing_zones,
                crosswalk_entries=geometry.crosswalk_entries,
                crop_rect=(0.0, 0.0, 50.0, 50.0), fps=20)

    def test_crossing_labels_required(self, geometry):
        unlabeled = tuple(Zone(z.zone_id, z.polygon, None)
                          for z in geometry.crossing_zones)
        with pytest.raises(GeometryError, match="labels"):
            IntersectionGeometry(
                waiting_areas=geometry.waiting_areas,
                start_crossing_zones=geometry.start_crossing_zones,
                crossing_zones=unlabeled,
                crosswalk_entries=geometry.crosswalk_entries,
                crop_rect=geometry.crop_rect, fps=20)

    @pytest.mark.parametrize("frame_size", [(1280.0, 0.0), (-1.0, 720.0)])
    def test_frame_size_must_be_positive(self, geometry, frame_size):
        with pytest.raises(GeometryError, match="frame_size"):
            IntersectionGeometry(
                waiting_areas=geometry.waiting_areas,
                start_crossing_zones=geometry.start_crossing_zones,
                crossing_zones=geometry.crossing_zones,
                crosswalk_entries=geometry.crosswalk_entries,
                crop_rect=geometry.crop_rect, fps=20, frame_size=frame_size)

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

    def test_frame_size_defaults_to_extent(self, geometry):
        cfg = geometry.to_dict()
        del cfg["frame_size"]
        g = IntersectionGeometry.from_dict(cfg)
        assert g.frame_size[0] >= 720.0  # crop right edge
        assert g.frame_size[1] >= 580.0


def test_polygon_area():
    assert polygon_area(UNIT_SQUARE) == 1.0
    assert polygon_area(((0, 0), (2, 0), (1, 3))) == pytest.approx(3.0)
