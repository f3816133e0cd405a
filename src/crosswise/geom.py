"""Intersection zone geometry: polygon zones, containment queries, crop mapping.

Zones are declared per camera in a JSON config (image-plane pixel
coordinates) and are immutable after load, so any number of pipeline
workers may query the same instance concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

from .jsonio import check_json_number, json_floats, json_value, load_json, refuse_unknown_keys

Point = tuple[float, float]
Polygon = Sequence[Point]


class GeometryError(ValueError):
    """Raised for invalid zone configs or out-of-bounds coordinate maps."""


class ZoneType(Enum):
    OUTSIDE = "outside"
    WAITING = "waiting"
    START_CROSSING = "start_crossing"
    CROSSING = "crossing"


# The camera scale a geometry must have. Within it, every frame the stream
# bounds accept gives finite features, also in float32 (README, stream format).
COORD_LIMIT = 1e7         # px: |x| and |y| of a zone vertex, crosswalk entry, bbox
                          # or keypoint, and a bbox's w and h
MIN_FRAME_SIDE = 1.0      # px
MIN_PX_PER_METER = 1e-3
MAX_FPS = 1000


@dataclass(frozen=True)
class ZoneKind:
    """Result of a point classification: which kind of zone, and which zone."""

    kind: ZoneType
    zone_id: Optional[str] = None
    label: Optional[str] = None  # crosswalk letter (A/B) where the zone carries one

    # True in the zones where pose extraction and prediction are active; set
    # once here, as the frame path reads it for every track on every frame
    is_observing: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_observing",
                           self.kind in (ZoneType.WAITING, ZoneType.START_CROSSING))


OUTSIDE = ZoneKind(ZoneType.OUTSIDE)


def polygon_area(poly: Polygon) -> float:
    """Unsigned shoelace area of a polygon."""
    n = len(poly)
    acc = 0.0
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return abs(acc) / 2.0


_EPS = 1e-9  # boundary tolerance of the containment test


_Edge = tuple[float, float, float, float, float, float, float, float, float, float]


def _edges(poly: Polygon) -> tuple[_Edge, ...]:
    """Per-edge constants of the even-odd walk, edge (poly[i-1], poly[i]) at i.

    Each edge holds (xi, yi, yj, dx, dy, tol, x_lo, x_hi, y_lo, y_hi): its
    end point i, the y of end point j = i - 1, the direction j - i, the
    on-edge tolerance eps * max(1, |dx| + |dy|), and its extents widened by
    eps.
    """
    out = []
    for i in range(len(poly)):
        xi, yi = poly[i]
        xj, yj = poly[i - 1]
        dx, dy = xj - xi, yj - yi
        out.append((xi, yi, yj, dx, dy, _EPS * max(1.0, abs(dx) + abs(dy)),
                    min(xi, xj) - _EPS, max(xi, xj) + _EPS,
                    min(yi, yj) - _EPS, max(yi, yj) + _EPS))
    return tuple(out)


def _inside(x: float, y: float, edges: tuple[_Edge, ...]) -> bool:
    """Even-odd walk over _edges(poly); a point within eps of an edge is inside.

    A NaN coordinate fails every comparison, so it is never inside.
    """
    inside = False
    for xi, yi, yj, dx, dy, tol, x_lo, x_hi, y_lo, y_hi in edges:
        if (x_lo <= x <= x_hi and y_lo <= y <= y_hi
                and not abs(dx * (y - yi) - dy * (x - xi)) > tol):
            return True
        if (yi > y) != (yj > y) and x < dx * (y - yi) / dy + xi:
            inside = not inside
    return inside


def _reject_box(poly: Polygon) -> tuple[float, float, float, float]:
    """(x0, y0, x1, y1) outside which no point is inside ``poly``.

    The bounding box widened by the on-edge eps. On x the margin also grows
    with the largest |x|: the crossing abscissa can round past the polygon's
    extreme x by a few ulps of it, which exceeds 1e-9 for large coordinates.
    """
    xs = [q[0] for q in poly]
    ys = [q[1] for q in poly]
    x0, x1 = min(xs), max(xs)
    mx = _EPS * max(1.0, abs(x0), abs(x1))
    return (x0 - mx, min(ys) - _EPS, x1 + mx, max(ys) + _EPS)


@dataclass(frozen=True)
class Zone:
    """A polygon zone, checked once here: at least 3 vertices and non-zero
    area. It keeps the constants of its containment test."""

    zone_id: str
    polygon: tuple[Point, ...]
    label: Optional[str] = None
    area: float = field(init=False, repr=False, compare=False)
    centroid: Point = field(init=False, repr=False, compare=False)  # vertex mean
    _reject_box: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)
    _edges: tuple[_Edge, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        poly = self.polygon
        n = len(poly)
        area = polygon_area(poly)
        if n < 3 or not area > 0.0:
            raise GeometryError(f"zone {self.zone_id!r} polygon is degenerate: "
                                f"{n} vertices, area {area}")
        object.__setattr__(self, "area", area)
        object.__setattr__(self, "centroid", (sum(q[0] for q in poly) / n,
                                              sum(q[1] for q in poly) / n))
        object.__setattr__(self, "_reject_box", _reject_box(poly))
        object.__setattr__(self, "_edges", _edges(poly))

    def contains(self, p: Point) -> bool:
        """Even-odd containment; a point within eps of an edge is inside, a
        NaN coordinate never is."""
        x, y = p
        x0, y0, x1, y1 = self._reject_box
        return x0 <= x <= x1 and y0 <= y <= y1 and _inside(x, y, self._edges)


@dataclass(frozen=True)
class IntersectionGeometry:
    """Declared zones of interest for one camera view.

    ``crop_rect`` is the (x, y, w, h) region handed to the pose model; it must
    contain every waiting-area polygon, of which there is at least one.
    ``frame_size`` (W, H) normalizes positions, distances and areas.
    ``px_per_meter`` converts speeds to m/s when present, otherwise speeds
    are normalized by the frame diagonal.
    """

    waiting_areas: tuple[Zone, ...]
    start_crossing_zones: tuple[Zone, ...]
    crossing_zones: tuple[Zone, ...]
    crosswalk_entries: dict[str, Point]
    crop_rect: tuple[float, float, float, float]
    fps: int
    frame_size: tuple[float, float]
    px_per_meter: Optional[float] = None
    frame_diagonal: float = field(init=False, repr=False, compare=False)  # of frame_size

    def __post_init__(self):
        if not 0 < self.fps <= MAX_FPS:
            raise GeometryError(f"fps must be in (0, {MAX_FPS}], got {self.fps}")
        if self.px_per_meter is not None and not self.px_per_meter >= MIN_PX_PER_METER:
            raise GeometryError(f"px_per_meter must be at least {MIN_PX_PER_METER} "
                                f"when set, got {self.px_per_meter}")
        cx, cy, cw, ch = self.crop_rect
        if not (-COORD_LIMIT <= cx <= COORD_LIMIT and -COORD_LIMIT <= cy <= COORD_LIMIT
                and 0 < cw <= COORD_LIMIT and 0 < ch <= COORD_LIMIT):
            raise GeometryError(f"crop_rect x and y must lie within +-{COORD_LIMIT:g} and its "
                                f"sides in (0, {COORD_LIMIT:g}], got {self.crop_rect}")
        if not self.waiting_areas:
            raise GeometryError("waiting_areas must hold at least one zone")
        for key in ("waiting_areas", "start_crossing_zones", "crossing_zones"):
            for zone in getattr(self, key):
                if type(zone.zone_id) is not str:
                    raise GeometryError(f"{key} zone id must be a string, got {zone.zone_id!r}")
                # a start zone's label is the crosswalk its fast-path alerts name
                if zone.label not in (None, "A", "B"):
                    raise GeometryError(f"{key} zone {zone.zone_id!r} label must be null, "
                                        f"'A' or 'B', got {zone.label!r}")
                if not all(-COORD_LIMIT <= v <= COORD_LIMIT for q in zone.polygon for v in q):
                    raise GeometryError(f"{key} zone {zone.zone_id!r} vertices must be "
                                        f"within +-{COORD_LIMIT:g}")
        for zone in self.waiting_areas:
            for (px, py) in zone.polygon:
                if not (cx <= px <= cx + cw and cy <= py <= cy + ch):
                    raise GeometryError(
                        f"crop_rect does not contain waiting area {zone.zone_id!r}")
        labels = sorted({z.label for z in self.crossing_zones if z.label})
        if labels != ["A", "B"]:
            raise GeometryError(
                f"crossing zones must carry labels A and B, got {labels}")
        if set(self.crosswalk_entries) != {"A", "B"}:
            raise GeometryError(f"crosswalk_entries must have the keys A and B, "
                                f"got {list(self.crosswalk_entries)}")
        if not all(-COORD_LIMIT <= v <= COORD_LIMIT
                   for q in self.crosswalk_entries.values() for v in q):
            raise GeometryError(f"crosswalk_entries must lie within +-{COORD_LIMIT:g}, "
                                f"got {self.crosswalk_entries}")
        if not (self.frame_size[0] >= MIN_FRAME_SIDE and self.frame_size[1] >= MIN_FRAME_SIDE):
            raise GeometryError(f"frame_size sides must be at least {MIN_FRAME_SIDE} px, "
                                f"got {self.frame_size}")
        object.__setattr__(self, "frame_diagonal",
                           math.hypot(self.frame_size[0], self.frame_size[1]))
        # For the per-frame queries: the zones in classification order, each
        # with its ZoneKind, and the waiting areas' compactness. They are not
        # fields, so equality, to_dict and the config file do not see them.
        # The tiers are the resolution order when zones overlap: a VRU on a
        # crosswalk is crossing no matter what else contains the point.
        tiers = ((self.crossing_zones, ZoneType.CROSSING),
                 (self.start_crossing_zones, ZoneType.START_CROSSING),
                 (self.waiting_areas, ZoneType.WAITING))
        object.__setattr__(self, "_classify_order", tuple(
            (z, ZoneKind(kind, z.zone_id, z.label)) for zones, kind in tiers for z in zones))
        object.__setattr__(self, "_compactness", tuple(
            z.area / self.frame_area for z in self.waiting_areas))

    @property
    def frame_area(self) -> float:
        return self.frame_size[0] * self.frame_size[1]

    # --- queries ---------------------------------------------------------

    def classify_point(self, p: Point) -> ZoneKind:
        """Map a full-frame point to its zone.

        Total: every point maps to exactly one ZoneKind. Overlaps resolve by
        priority Crossing > StartCrossing > Waiting > Outside; within one
        priority tier the first zone in declaration order wins.
        """
        for zone, zone_kind in self._classify_order:
            if zone.contains(p):
                return zone_kind
        return OUTSIDE

    def crop_to_full(self, p: Point) -> Point:
        """Translate a crop-image point back to full-frame coordinates."""
        cx, cy, cw, ch = self.crop_rect
        x, y = p
        if not (0.0 <= x <= cw and 0.0 <= y <= ch):
            raise GeometryError(f"point {p} outside crop bounds {cw}x{ch}")
        return (cx + x, cy + y)

    def _waiting_index(self, p: Point) -> int:
        waiting = self.waiting_areas
        if len(waiting) == 1:  # the one area serves every point
            return 0
        for i, zone in enumerate(waiting):
            if zone.contains(p):
                return i
        return min(range(len(waiting)), key=lambda i: math.dist(p, waiting[i].centroid))

    def waiting_compactness(self, p: Point) -> float:
        """Area over frame area of the waiting area containing p, else of the
        nearest one by centroid."""
        return self._compactness[self._waiting_index(p)]

    # --- config file -----------------------------------------------------

    @classmethod
    def from_dict(cls, cfg: dict) -> "IntersectionGeometry":
        """The geometry of a JSON config. Every coordinate, size and scale must
        be a JSON number and ``fps`` a JSON integer; a value of another type,
        a missing key or an unknown key raises GeometryError naming the key."""
        what = "geometry config"
        refuse_unknown_keys(cfg, [f.name for f in fields(cls) if f.init], what, GeometryError)

        def zones(key: str) -> tuple[Zone, ...]:
            out = []
            for item in json_value(cfg, key, list, what, GeometryError, default=[]):
                zone_what = f"{key} zone config"
                if type(item) is not dict:
                    raise GeometryError(f"{zone_what} must be a JSON object, got {item!r}")
                refuse_unknown_keys(item, ("id", "label", "polygon"), zone_what, GeometryError)
                polygon = json_value(item, "polygon", list, zone_what, GeometryError)
                out.append(Zone(
                    zone_id=item.get("id"),
                    polygon=tuple(json_floats(q, f"{key} polygon", 2, GeometryError)
                                  for q in polygon),
                    label=item.get("label"),
                ))
            return tuple(out)

        entries = {k: json_floats(v, f"crosswalk_entries {k}", 2, GeometryError) for k, v
                   in json_value(cfg, "crosswalk_entries", dict, what, GeometryError).items()}
        px_per_meter = cfg.get("px_per_meter")
        return cls(
            waiting_areas=zones("waiting_areas"),
            start_crossing_zones=zones("start_crossing_zones"),
            crossing_zones=zones("crossing_zones"),
            crosswalk_entries=entries,
            crop_rect=json_floats(cfg.get("crop_rect"), "crop_rect", 4, GeometryError),
            fps=check_json_number(cfg.get("fps"), "fps", integer=True, error=GeometryError),
            px_per_meter=(float(check_json_number(px_per_meter, "px_per_meter",
                                                  error=GeometryError))
                          if px_per_meter is not None else None),
            frame_size=json_floats(cfg.get("frame_size"), "frame_size", 2, GeometryError),
        )

    @classmethod
    def load(cls, path: str | Path) -> "IntersectionGeometry":
        return cls.from_dict(load_json(path, "geometry config", GeometryError))

    def to_dict(self) -> dict:
        def zones(items: tuple[Zone, ...]) -> list:
            return [{"id": z.zone_id, "label": z.label,
                     "polygon": [[x, y] for x, y in z.polygon]} for z in items]

        return {
            "fps": self.fps,
            "px_per_meter": self.px_per_meter,
            "frame_size": list(self.frame_size),
            "crop_rect": list(self.crop_rect),
            "waiting_areas": zones(self.waiting_areas),
            "start_crossing_zones": zones(self.start_crossing_zones),
            "crossing_zones": zones(self.crossing_zones),
            "crosswalk_entries": {k: list(v) for k, v in self.crosswalk_entries.items()},
        }

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def demo_geometry() -> IntersectionGeometry:
    """A canonical one-corner intersection used by the simulator and tests.

    One waiting area in the frame's lower middle serving crosswalk A (west)
    and crosswalk B (north); start-crossing buffers sit between the waiting
    area and each crosswalk.
    """
    return IntersectionGeometry(
        waiting_areas=(
            Zone("wait", ((520.0, 420.0), (680.0, 420.0), (680.0, 560.0), (520.0, 560.0))),
        ),
        start_crossing_zones=(
            Zone("start_a", ((440.0, 420.0), (520.0, 420.0), (520.0, 560.0), (440.0, 560.0)), "A"),
            Zone("start_b", ((520.0, 340.0), (680.0, 340.0), (680.0, 420.0), (520.0, 420.0)), "B"),
        ),
        crossing_zones=(
            Zone("cross_a", ((200.0, 420.0), (440.0, 420.0), (440.0, 560.0), (200.0, 560.0)), "A"),
            Zone("cross_b", ((520.0, 100.0), (680.0, 100.0), (680.0, 340.0), (520.0, 340.0)), "B"),
        ),
        crosswalk_entries={"A": (440.0, 490.0), "B": (600.0, 340.0)},
        crop_rect=(480.0, 380.0, 240.0, 200.0),
        fps=20,
        px_per_meter=50.0,
        frame_size=(1280.0, 720.0),
    )
