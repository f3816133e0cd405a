"""Frame-record ingest: JSON-lines streams and the synthetic scenario generator.

The generator stands in for real camera footage: it spawns VRUs inside a
waiting area, lets them dwell with idle motion while their body and face
orientation converge toward the crosswalk they will take, then walks them
through the start-crossing buffer into the labeled crossing zone. Keypoints
come from a fixed 17-point skeletal template scaled to the bounding box, so
pose angles recovered downstream match the simulated orientation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .geom import COORD_LIMIT, IntersectionGeometry
from .jsonio import (JSON_DECODER, JSON_NUMBER, check_json_number, check_json_numbers,
                     json_value, load_json, refuse_unknown_keys)

VRU_CLASSES = ("pedestrian", "cyclist", "scooter", "e_scooter", "e_wheelchair")

# Per condition: keypoint-noise factor, added detection dropout, and the drop
# in detection confidence. Day's 1.0 and 0.0 leave every value as it is.
_CONDITION_EFFECT = {
    "day": (1.0, 0.0, 0.0),
    "night": (2.0, 0.05, 0.08),
    "rain": (1.5, 0.05, 0.05),
}
CONDITIONS = tuple(_CONDITION_EFFECT)

N_KEYPOINTS = 17
KP_NOSE, KP_LEFT_SHOULDER, KP_RIGHT_SHOULDER = 0, 5, 6

# Bounds of a record (px), with COORD_LIMIT. Every bbox and keypoint holds
# them, read from a stream or built in code. Within the bounds every feature
# is finite, in float32 too, for a geometry of camera scale (see README,
# stream format).
MIN_BBOX_SIDE = 1e-3   # bbox w and h


class StreamFormatError(ValueError):
    """Malformed record stream; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _check_bbox(bbox, what: str) -> None:
    """Raise ValueError unless bbox is (x, y, w, h) with |x|, |y| <= COORD_LIMIT
    and MIN_BBOX_SIDE <= w, h <= COORD_LIMIT."""
    if len(bbox) != 4:
        raise ValueError(f"{what} bbox must have 4 values (x, y, w, h): {bbox!r}")
    x, y, w, h = bbox
    # NaN fails every comparison; a JSON integer is compared exactly
    if not (-COORD_LIMIT <= x <= COORD_LIMIT and -COORD_LIMIT <= y <= COORD_LIMIT
            and MIN_BBOX_SIDE <= w <= COORD_LIMIT and MIN_BBOX_SIDE <= h <= COORD_LIMIT):
        if not all(v == v and abs(v) != math.inf for v in bbox):
            raise ValueError(f"bbox values must be finite: {bbox!r}")
        if not (w >= MIN_BBOX_SIDE and h >= MIN_BBOX_SIDE):
            raise ValueError(f"{what} bbox must have positive size, w and h >= "
                             f"{MIN_BBOX_SIDE}: {bbox!r}")
        raise ValueError(f"{what} bbox values must be within +-{COORD_LIMIT:g}: {bbox!r}")


def _check_keypoints(kps: np.ndarray) -> None:
    """Raise ValueError unless every keypoint x, y lies within +-COORD_LIMIT
    and every confidence within [0, 1]."""
    # one pass: NaN fails every comparison, and +-inf falls outside the bounds
    if not ((kps >= (-COORD_LIMIT, -COORD_LIMIT, 0.0))
            & (kps <= (COORD_LIMIT, COORD_LIMIT, 1.0))).all():
        raise ValueError(f"keypoint x, y must be finite within +-{COORD_LIMIT:g} "
                         "and confidences in [0,1]")


@dataclass(frozen=True)
class Detection:
    bbox: tuple[float, float, float, float]  # x, y, w, h in the full frame
    vru_class: str
    conf: float

    def __post_init__(self):
        _check_bbox(self.bbox, "detection")
        if not 0.0 <= self.conf <= 1.0:
            raise ValueError(f"detection conf out of [0,1]: {self.conf}")
        if self.vru_class not in VRU_CLASSES:
            raise ValueError(f"unknown VRU class {self.vru_class!r}")

    @property
    def center(self) -> tuple[float, float]:
        x, y, w, h = self.bbox
        return (x + w / 2.0, y + h / 2.0)


@dataclass(frozen=True)
class PoseDetection:
    """One pose-model output in crop-image coordinates (COCO keypoint order)."""

    bbox: tuple[float, float, float, float]
    keypoints: np.ndarray  # (17, 3) of x, y, conf

    def __post_init__(self):
        _check_bbox(self.bbox, "pose")
        kps = np.asarray(self.keypoints, dtype=float)
        if kps.shape != (N_KEYPOINTS, 3):
            raise ValueError(f"expected {N_KEYPOINTS} keypoints, got shape {kps.shape}")
        _check_keypoints(kps)
        object.__setattr__(self, "keypoints", kps)

    @property
    def center(self) -> tuple[float, float]:
        x, y, w, h = self.bbox
        return (x + w / 2.0, y + h / 2.0)

    def translated(self, dx: float, dy: float) -> "PoseDetection":
        """This pose shifted by (dx, dy); built without re-running the checks
        that this pose already passed."""
        # adding -0.0 leaves every confidence's bits as they are, -0.0 included
        kps = self.keypoints + np.array((dx, dy, -0.0))
        x, y, w, h = self.bbox
        return _trusted_pose((x + dx, y + dy, w, h), kps)


def _trusted_detection(bbox: tuple[float, float, float, float], vru_class: str,
                       conf: float) -> Detection:
    """A Detection from fields the caller has checked; skips __post_init__."""
    out = object.__new__(Detection)
    d = out.__dict__
    d["bbox"], d["vru_class"], d["conf"] = bbox, vru_class, conf
    return out


def _trusted_pose(bbox: tuple[float, float, float, float],
                  keypoints: np.ndarray) -> PoseDetection:
    """A PoseDetection from fields the caller has checked; skips __post_init__."""
    out = object.__new__(PoseDetection)
    d = out.__dict__
    d["bbox"], d["keypoints"] = bbox, keypoints
    return out


@dataclass(frozen=True)
class FrameRecord:
    frame_idx: int
    ts_ms: int
    detections: tuple[Detection, ...]
    crop_poses: tuple[PoseDetection, ...]

    def __post_init__(self):
        if self.frame_idx < 0 or self.ts_ms < 0:
            raise ValueError("frame_idx and ts_ms must be non-negative")


# --- JSON-lines stream -----------------------------------------------------


def _record_to_obj(rec: FrameRecord) -> dict:
    return {
        "frame": rec.frame_idx,
        "ts_ms": rec.ts_ms,
        "dets": [{"bbox": list(d.bbox), "class": d.vru_class, "conf": d.conf}
                 for d in rec.detections],
        "poses": [{"bbox": list(p.bbox), "kps": p.keypoints.tolist()}
                  for p in rec.crop_poses],
    }


def _stream_bbox(value, what: str) -> tuple[float, float, float, float]:
    """A stream bbox: a JSON list of 4 JSON numbers that _check_bbox accepts."""
    if type(value) is not list:
        raise ValueError(f"{what} bbox must be a JSON list of 4 values (x, y, w, h): "
                         f"{value!r}")
    if not JSON_NUMBER.issuperset(map(type, value)):
        raise ValueError(f"{what} bbox values must be JSON numbers: {value!r}")
    _check_bbox(value, what)
    x, y, w, h = value
    return (float(x), float(y), float(w), float(h))


def _stream_detection(d) -> Detection:
    bbox = _stream_bbox(d["bbox"], "detection")
    conf, vru_class = d["conf"], d["class"]
    if len(d) != 3:  # beyond the keys just read: a key the format does not know
        refuse_unknown_keys(d, ("bbox", "class", "conf"), "detection")
    if type(conf) not in JSON_NUMBER or not 0 <= conf <= 1:
        raise ValueError(f"detection conf must be a JSON number in [0,1], got {conf!r}")
    if vru_class not in VRU_CLASSES:
        raise ValueError(f"unknown VRU class {vru_class!r}")
    return _trusted_detection(bbox, vru_class, float(conf))


def _stream_poses(items: list) -> tuple[PoseDetection, ...]:
    """All poses of one frame; their keypoints are converted and checked as
    one (P, 17, 3) array, and each pose holds its row."""
    if not items:
        return ()
    bboxes = [_stream_bbox(p["bbox"], "pose") for p in items]
    per_pose = [p["kps"] for p in items]
    if sum(map(len, items)) != 2 * len(items):  # as for a detection
        for p in items:
            refuse_unknown_keys(p, ("bbox", "kps"), "pose")
    rows = list(chain.from_iterable(per_pose))
    values = list(chain.from_iterable(rows))
    if not JSON_NUMBER.issuperset(map(type, values)):
        raise ValueError("keypoint values must be JSON numbers")
    # a total of n * k with no part longer than k: every part has length k
    if (len(rows) != N_KEYPOINTS * len(per_pose) or max(map(len, per_pose)) != N_KEYPOINTS
            or len(values) != 3 * len(rows) or max(map(len, rows)) != 3):
        raise ValueError(f"expected {N_KEYPOINTS} keypoints of (x, y, conf) per pose")
    kps = np.array(values, dtype=float).reshape(len(items), N_KEYPOINTS, 3)
    _check_keypoints(kps)
    return tuple(map(_trusted_pose, bboxes, kps))


def _record_from_obj(obj, line_no: int) -> FrameRecord:
    """One stream line's record. It holds no key beyond the format's, and its
    values must be JSON numbers (no bool, no string) within the stream bounds;
    each rejection carries the line number."""
    if type(obj) is not dict:
        raise StreamFormatError(line_no, f"record must be a JSON object, got {obj!r}")
    try:
        dets = tuple(map(_stream_detection, json_value(obj, "dets", list, "record", default=[])))
        poses = _stream_poses(json_value(obj, "poses", list, "record", default=[]))
        if len(obj) != 2 + ("dets" in obj) + ("poses" in obj):  # frame, ts_ms and these
            refuse_unknown_keys(obj, ("frame", "ts_ms", "dets", "poses"), "record")
        return FrameRecord(check_json_number(obj["frame"], "frame", integer=True),
                           check_json_number(obj["ts_ms"], "ts_ms", integer=True), dets, poses)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StreamFormatError(line_no, str(exc)) from exc


def write_stream(records: Iterable[FrameRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(_record_to_obj(rec), separators=(",", ":")))
            fh.write("\n")


def read_stream(path: str | Path) -> Iterator[FrameRecord]:
    """Yield validated FrameRecords from a JSON-lines file, in file order.

    Raises StreamFormatError (with line number) for malformed lines (invalid
    UTF-8, a NaN or Infinity literal and nesting past the recursion limit
    included), values that are not JSON numbers or lie outside the stream
    bounds (COORD_LIMIT, MIN_BBOX_SIDE), non-monotonic frame indices, or
    decreasing timestamps.
    """
    last_frame = -1
    last_ts = -1
    with open(path, "rb") as fh:  # each line decoded below, where its number is known
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = JSON_DECODER.decode(line.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                raise StreamFormatError(line_no, f"invalid JSON: {exc}") from exc
            rec = _record_from_obj(obj, line_no)
            if rec.frame_idx <= last_frame:
                raise StreamFormatError(
                    line_no, f"frame_idx {rec.frame_idx} not strictly increasing")
            if rec.ts_ms < last_ts:
                raise StreamFormatError(line_no, f"ts_ms {rec.ts_ms} decreased")
            last_frame, last_ts = rec.frame_idx, rec.ts_ms
            yield rec


# --- synthetic scenarios -----------------------------------------------------

# px: keypoint jitter of camera scale. Beyond a bbox's size it leaves no pose;
# far beyond it keypoints leave COORD_LIMIT and the generator aborts part way.
MAX_NOISE_SIGMA = 100.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Knobs for one synthetic intersection scenario, checked when built, so a
    spec built in code holds the rules of a scenario file."""

    n_vrus: int
    class_mix: dict[str, float] = field(default_factory=lambda: {"pedestrian": 1.0})
    label: Optional[str] = None      # force every VRU to one crosswalk; None alternates
    noise_sigma: float = 0.0         # keypoint jitter, px
    dropout: float = 0.0             # per-frame detection drop probability
    condition: str = "day"
    seed: int = 0
    max_concurrent: int = 6

    def __post_init__(self):
        check_json_numbers(vars(self), ScenarioSpec)
        if self.n_vrus <= 0 or self.seed < 0 or self.max_concurrent < 1:
            raise ValueError(f"n_vrus must be positive, seed >= 0 and max_concurrent >= 1, "
                             f"got {self.n_vrus}, {self.seed} and {self.max_concurrent}")
        for cls, share in json_value(vars(self), "class_mix", dict, "scenario").items():
            if cls not in VRU_CLASSES:
                raise ValueError(f"unknown VRU class {cls!r}")
            if not check_json_number(share, f"class_mix {cls}") >= 0:
                raise ValueError(f"class_mix {cls} must be >= 0, got {share!r}")
        total = sum(self.class_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"class mix must sum to 1, got {total}")
        if not 0.0 <= self.noise_sigma <= MAX_NOISE_SIGMA:
            raise ValueError(f"noise_sigma must be in [0, {MAX_NOISE_SIGMA:g}] px, "
                             f"got {self.noise_sigma!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.condition not in CONDITIONS:
            raise ValueError(f"condition must be one of {CONDITIONS}")
        if self.label is not None and self.label not in ("A", "B"):
            raise ValueError("label must be A, B, or None")

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioSpec":
        refuse_unknown_keys(obj, cls.__dataclass_fields__, "scenario")
        try:
            return cls(**obj)
        except TypeError as exc:  # a required key is missing
            raise ValueError(f"scenario: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        return cls.from_dict(load_json(path, "scenario"))


@dataclass
class VruTruth:
    """Ground truth for one simulated VRU, written alongside the record stream."""

    vru_id: int
    label: str
    vru_class: str
    spawn_frame: int
    exit_frame: int
    crossing_entry_frame: Optional[int]
    samples: list[tuple[int, float, float]]  # (frame, cx, cy) every SAMPLE_EVERY frames


SAMPLE_EVERY = 5

# Per class: bbox size (w, h, px) and walking speed (m/s).
_CLASS_SIZE_SPEED = {
    "pedestrian": (34.0, 88.0, 1.35),
    "cyclist": (46.0, 96.0, 2.6),
    "scooter": (40.0, 90.0, 2.0),
    "e_scooter": (40.0, 90.0, 2.4),
    "e_wheelchair": (54.0, 74.0, 1.5),
}

# Skeletal template coefficients, COCO order. Offset from the bbox center is
# A*h*facing + B*span*perp + (0, C*h), span = 0.35*w. Shoulders sit 0.25*h
# below the bbox top, hips 0.55*h; only nose and shoulders drive features.
_KP_TEMPLATE = np.array([
    # A      B      C
    [0.10,  0.00, -0.25],   # nose
    [0.08,  0.15, -0.25],   # left eye
    [0.08, -0.15, -0.25],   # right eye
    [0.04,  0.30, -0.25],   # left ear
    [0.04, -0.30, -0.25],   # right ear
    [0.00,  0.50, -0.25],   # left shoulder
    [0.00, -0.50, -0.25],   # right shoulder
    [0.02,  0.55, -0.06],   # left elbow
    [0.02, -0.55, -0.06],   # right elbow
    [0.05,  0.58,  0.08],   # left wrist
    [0.05, -0.58,  0.08],   # right wrist
    [0.00,  0.34,  0.05],   # left hip
    [0.00, -0.34,  0.05],   # right hip
    [0.01,  0.30,  0.27],   # left knee
    [0.01, -0.30,  0.27],   # right knee
    [0.02,  0.26,  0.47],   # left ankle
    [0.02, -0.26,  0.47],   # right ankle
])

_ORIENT_JITTER = math.radians(40.0)  # initial body offset from the entry bearing
_ORIENT_FRAMES = 40                   # frames over which the offset decays to 0
_IDLE_SIGMA = 0.35                    # px per frame of idle drift while waiting
_DWELL_RANGE = (90, 161)              # frames
_POST_CROSS_FRAMES = 30               # frames walked after entering the crossing zone
_EDGE_MARGIN = 10.0                   # keep idle motion off shared zone edges


@dataclass
class _SimTrack:
    vru_id: int
    label: str
    vru_class: str
    spawn_frame: int
    centers: np.ndarray       # (n, 2)
    body_angles: np.ndarray   # (n,)
    bbox_wh: tuple[float, float]
    crossing_entry: Optional[int]
    face_angles: np.ndarray


def _simulate_vru(rng: np.random.Generator, vru_id: int, label: str, vru_class: str,
                  spawn_frame: int, g: IntersectionGeometry, sigma: float) -> _SimTrack:
    wait = g.waiting_areas[vru_id % len(g.waiting_areas)]
    entry = g.crosswalk_entries[label]
    cross_zone = next(z for z in g.crossing_zones if z.label == label)
    ccx, ccy = cross_zone.centroid
    axis = math.atan2(ccy - entry[1], ccx - entry[0])

    w0, h0, speed_ms = _CLASS_SIZE_SPEED[vru_class]
    scale = rng.uniform(0.9, 1.1)
    bbox_wh = (w0 * scale, h0 * scale)
    ppm = g.px_per_meter if g.px_per_meter else 50.0
    speed = speed_ms * rng.uniform(0.9, 1.15) * ppm / g.fps

    dwell = int(rng.integers(*_DWELL_RANGE))
    offset0 = rng.uniform(-_ORIENT_JITTER, _ORIENT_JITTER)
    wobble = 0.006 * sigma

    xs = [p[0] for p in wait.polygon]
    ys = [p[1] for p in wait.polygon]
    lox, loy = min(xs) + _EDGE_MARGIN, min(ys) + _EDGE_MARGIN
    hix, hiy = max(xs) - _EDGE_MARGIN, max(ys) - _EDGE_MARGIN
    for _ in range(1000):  # a uniform start in the waiting area, by rejection
        x, y = rng.uniform(lox, hix), rng.uniform(loy, hiy)
        if wait.contains((x, y)):
            break
    else:
        raise ValueError("could not place a VRU inside the waiting area")

    centers, body, face = [], [], []
    for k in range(dwell):
        dx, dy = rng.normal(0.0, _IDLE_SIGMA, 2)
        nx, ny = x + dx, y + dy
        if lox <= nx <= hix and loy <= ny <= hiy and wait.contains((nx, ny)):
            x, y = nx, ny
        bearing = math.atan2(entry[1] - y, entry[0] - x)
        decay = min(1.0, (dwell - k) / float(_ORIENT_FRAMES))
        b = bearing + offset0 * decay
        f = bearing + 0.3 * offset0 * decay
        if wobble > 0:
            b += rng.normal(0.0, wobble)
            f += rng.normal(0.0, wobble)
        centers.append((x, y))
        body.append(b)
        face.append(f)

    crossing_entry = None
    frames_after_cross = 0
    for _ in range(2000):
        dx, dy = entry[0] - x, entry[1] - y
        if math.hypot(dx, dy) > speed:
            heading = math.atan2(dy, dx)
        else:
            heading = axis
        x += speed * math.cos(heading)
        y += speed * math.sin(heading)
        centers.append((x, y))
        body.append(heading)
        face.append(heading)
        frame = spawn_frame + len(centers) - 1
        if crossing_entry is None and cross_zone.contains((x, y)):
            crossing_entry = frame
        if crossing_entry is not None:
            frames_after_cross += 1
            if frames_after_cross >= _POST_CROSS_FRAMES:
                break
        if not (0 <= x <= g.frame_size[0] and 0 <= y <= g.frame_size[1]):
            break

    return _SimTrack(vru_id, label, vru_class, spawn_frame,
                     np.asarray(centers), np.asarray(body), bbox_wh,
                     crossing_entry, np.asarray(face))


def _keypoints_for(sim: _SimTrack, k: int, rng: np.random.Generator,
                   sigma: float) -> np.ndarray:
    cx, cy = sim.centers[k]
    w, h = sim.bbox_wh
    span = 0.35 * w
    phi_b = sim.body_angles[k]
    phi_f = sim.face_angles[k]
    fb = np.array([math.cos(phi_b), math.sin(phi_b)])
    ff = np.array([math.cos(phi_f), math.sin(phi_f)])
    perp = np.array([-fb[1], fb[0]])

    pts = (np.array([cx, cy])
           + np.outer(_KP_TEMPLATE[:, 0] * h, fb)
           + np.outer(_KP_TEMPLATE[:, 1] * span, perp)
           + np.outer(_KP_TEMPLATE[:, 2] * h, np.array([0.0, 1.0])))
    # Nose carries the face direction so the face angle is recoverable.
    mid = (pts[KP_LEFT_SHOULDER] + pts[KP_RIGHT_SHOULDER]) / 2.0
    pts[KP_NOSE] = mid + 0.10 * h * ff

    if sigma > 0:
        pts = pts + rng.normal(0.0, sigma, pts.shape)
    conf = rng.uniform(0.55, 0.95, N_KEYPOINTS)
    conf[KP_LEFT_SHOULDER] = rng.uniform(0.70, 0.98)
    conf[KP_RIGHT_SHOULDER] = rng.uniform(0.70, 0.98)
    conf = np.clip(conf - min(0.3, sigma * 0.03), 0.05, 1.0)
    return np.column_stack([pts, conf])


def generate_scenario(spec: ScenarioSpec,
                      g: IntersectionGeometry) -> tuple[list[FrameRecord], list[VruTruth]]:
    """Build a deterministic synthetic record stream plus per-VRU ground truth."""
    rng = np.random.default_rng(spec.seed)
    factor, added_dropout, conf_drop = _CONDITION_EFFECT[spec.condition]
    sigma, dropout = spec.noise_sigma * factor, min(spec.dropout + added_dropout, 0.95)

    classes = list(spec.class_mix.keys())
    probs = np.array([spec.class_mix[c] for c in classes])

    sims: list[_SimTrack] = []
    avg_len = (sum(_DWELL_RANGE) // 2) + 110
    gap = max(12, avg_len // spec.max_concurrent)  # > 5, so spawn frames increase with i
    for i in range(spec.n_vrus):
        vru_class = classes[int(rng.choice(len(classes), p=probs))]
        spawn = i * gap + int(rng.integers(0, 6))
        sims.append(_simulate_vru(rng, i, spec.label or "AB"[i % 2], vru_class, spawn, g, sigma))

    truths = [VruTruth(
        vru_id=s.vru_id, label=s.label, vru_class=s.vru_class,
        spawn_frame=s.spawn_frame,
        exit_frame=s.spawn_frame + len(s.centers) - 1,
        crossing_entry_frame=s.crossing_entry,
        samples=[(s.spawn_frame + k, float(s.centers[k, 0]), float(s.centers[k, 1]))
                 for k in range(-s.spawn_frame % SAMPLE_EVERY, len(s.centers), SAMPLE_EVERY)],
    ) for s in sims]

    cx0, cy0, cw, ch = g.crop_rect
    spawning = {sim.spawn_frame: sim for sim in sims}
    live: list[_SimTrack] = []  # in index order: each spawn has the highest index yet
    records: list[FrameRecord] = []
    for frame in range(max(t.exit_frame for t in truths) + 1):
        live = [sim for sim in live if frame - sim.spawn_frame < len(sim.centers)]
        if frame in spawning:
            live.append(spawning[frame])
        dets: list[Detection] = []
        poses: list[PoseDetection] = []
        for sim in live:
            if dropout > 0 and rng.random() < dropout:
                continue
            k = frame - sim.spawn_frame
            x, y = sim.centers[k]
            w, h = sim.bbox_wh
            conf = rng.uniform(0.75, 0.95) - conf_drop
            dets.append(Detection((x - w / 2.0, y - h / 2.0, w, h),
                                  sim.vru_class, round(max(0.3, conf), 4)))
            in_crop = (cx0 <= x <= cx0 + cw) and (cy0 <= y <= cy0 + ch)
            crossing = sim.crossing_entry is not None and frame >= sim.crossing_entry
            if in_crop and not crossing:
                kps = _keypoints_for(sim, k, rng, sigma)
                kps[:, 0] -= cx0
                kps[:, 1] -= cy0
                poses.append(PoseDetection(
                    (x - w / 2.0 - cx0, y - h / 2.0 - cy0, w, h), kps))
        records.append(FrameRecord(
            frame_idx=frame,
            ts_ms=round(frame * 1000.0 / g.fps),
            detections=tuple(dets),
            crop_poses=tuple(poses),
        ))
    return records, truths


# --- ground-truth file -------------------------------------------------------


LABELS_SCHEMA = "crosswise-labels/1"
_LABEL_KEYS = ("vru_id", "label", "class", "spawn_frame", "exit_frame",
               "crossing_entry_frame", "samples")


def write_labels(truths: list[VruTruth], path: str | Path) -> None:
    obj = {"schema": LABELS_SCHEMA, "vrus": [
        {"vru_id": t.vru_id, "label": t.label, "class": t.vru_class,
         "spawn_frame": t.spawn_frame, "exit_frame": t.exit_frame,
         "crossing_entry_frame": t.crossing_entry_frame,
         "samples": [[f, x, y] for f, x, y in t.samples]}
        for t in truths]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def _truth_from_obj(v) -> VruTruth:
    if type(v) is not dict:
        raise ValueError(f"must be a JSON object, got {v!r}")
    refuse_unknown_keys(v, _LABEL_KEYS, "VRU")
    entry = v["crossing_entry_frame"]
    if entry is not None:
        check_json_number(entry, "crossing_entry_frame", integer=True)
    if v["label"] not in ("A", "B"):
        raise ValueError(f"label must be A or B, got {v['label']!r}")
    if v["class"] not in VRU_CLASSES:
        raise ValueError(f"unknown VRU class {v['class']!r}")
    samples = v["samples"]
    # column by column, each check one pass in C
    if (type(samples) is not list or not {list}.issuperset(map(type, samples))
            or not {3}.issuperset(map(len, samples))):
        raise ValueError("samples must be a JSON list of [frame, x, y] lists")
    frames, xs, ys = zip(*samples) if samples else ((), (), ())
    if not {int}.issuperset(map(type, frames)):
        bad = next(f for f in frames if type(f) is not int)
        raise ValueError(f"a sample frame must be a JSON integer, got {bad!r}")
    xy = xs + ys
    if not {float}.issuperset(map(type, xy)):  # a JSON integer is read as a float
        if not JSON_NUMBER.issuperset(map(type, xy)):
            bad = next(c for c in xy if type(c) not in JSON_NUMBER)
            raise ValueError(f"sample x and y must be JSON numbers, got {bad!r}")
        xs, ys = map(float, xs), map(float, ys)
    # one pass in C; a sum can overflow, so a non-finite one is looked at again
    if not math.isfinite(sum(xy)):
        bad = next((c for c in xy if not math.isfinite(c)), None)
        if bad is not None:  # 1e400 decodes to inf
            raise ValueError(f"sample x and y must be finite, got {bad!r}")
    return VruTruth(
        vru_id=check_json_number(v["vru_id"], "vru_id", integer=True),
        label=v["label"], vru_class=v["class"],
        spawn_frame=check_json_number(v["spawn_frame"], "spawn_frame", integer=True),
        exit_frame=check_json_number(v["exit_frame"], "exit_frame", integer=True),
        crossing_entry_frame=entry,
        samples=list(zip(frames, xs, ys)))


def read_labels(path: str | Path) -> list[VruTruth]:
    """The ground truth ``write_labels`` wrote, checked as it is read: the schema
    ``crosswise-labels/1``, no unknown keys, JSON integers for ids and frames
    (``crossing_entry_frame`` may be null), finite JSON numbers for the sample
    x and y, ``label`` A or B and ``class`` one of ``VRU_CLASSES``. Each error
    is a ValueError; one inside a VRU entry names the entry."""
    obj = load_json(path, "labels file")
    if obj.get("schema") != LABELS_SCHEMA:
        raise ValueError(f"labels file must have the schema {LABELS_SCHEMA!r}")
    refuse_unknown_keys(obj, ("schema", "vrus"), "labels file")
    truths = []
    for i, v in enumerate(json_value(obj, "vrus", list, "labels file")):
        try:
            truths.append(_truth_from_obj(v))
        except (KeyError, ValueError, OverflowError) as exc:  # an integer past float range
            what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            vru_id = v.get("vru_id") if type(v) is dict else None
            raise ValueError(f"labels file, VRU {i} (vru_id {vru_id!r}): {what}") from exc
    return truths
