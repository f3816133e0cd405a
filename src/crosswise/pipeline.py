"""Streaming orchestration: track association, zone monitoring, windowed
inference, alert emission, and the throughput benchmark.

Prediction cadence is tied to the 10-frame feature step, never per frame.
A track's life cycle is Idle -> Observing -> Predicted -> Crossing -> Done,
with Observing/Predicted re-entered as new windows arrive and any state
collapsing to Done on retirement. A track's pipeline state lives from its
creation to its retirement, so it scales with the live tracks.
"""

from __future__ import annotations

import contextlib
import json
import logging
import socket
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

from .features import (FEATURE_DIM, SEGMENT_FRAMES, WINDOW_STEPS, FeatureWindow,
                       WindowAssembler, step_features, temporal_filter)
from .geom import IntersectionGeometry, ZoneType
from .ingest import FrameRecord
from .model import ModelParams, Prediction, forward_batch
from .track import TrackTable

log = logging.getLogger(__name__)

ALERT_SCHEMA = "crosswise/1"
ALERT_MSG_TYPE = "VRU_CROSSING_ALERT"
ALERT_MARGIN = 0.2  # |p_B - 0.5| needed before a prediction alone raises an alert
BENCH_BATCH_SIZES = (1, 2, 4, 8, 64)  # 64: the training batch


class TrackState(Enum):
    IDLE = "idle"
    OBSERVING = "observing"
    PREDICTED = "predicted"
    CROSSING = "crossing"
    DONE = "done"


_WINDOWING = (TrackState.OBSERVING, TrackState.PREDICTED)  # states that build windows


@dataclass(frozen=True)
class I2VAlert:
    track_id: int
    crosswalk: str
    prob: float
    ts_ms: int
    frame_idx: int
    vru_class: str

    def to_wire(self) -> dict:
        return {
            "schema": ALERT_SCHEMA,
            "msg_type": ALERT_MSG_TYPE,
            "track_id": self.track_id,
            "crosswalk": self.crosswalk,
            "prob": self.prob,
            "ts_ms": self.ts_ms,
            "frame_idx": self.frame_idx,
            "vru_class": self.vru_class,
        }


@dataclass
class _TrackCtx:
    state: TrackState = TrackState.IDLE
    birth_frame: Optional[int] = None          # first frame observed in-zone
    segment: int = 0                           # index of the segment being filled
    frame_buffer: list[tuple[float, ...]] = field(default_factory=list)
    assembler: Optional[WindowAssembler] = None
    latest_prediction: Optional[Prediction] = None
    alerted_labels: set[str] = field(default_factory=set)


@dataclass
class StepOutput:
    """What one frame produced. Windows, predictions and alerts are in track
    id order, and each track's own state changes keep their order. Within a
    frame, a PREDICTED change follows the other tracks' observation and
    crossing changes: all windows of the frame are scored by one forward after
    every live track has been walked. Crossing entry is the frame and
    ``ts_ms`` of the step whose state_changes hold ``(tid, old, CROSSING)``;
    a track's last change is ``(tid, old, DONE)``, on its retirement."""

    frame_idx: int
    windows: list[FeatureWindow] = field(default_factory=list)
    predictions: list[Prediction] = field(default_factory=list)
    alerts: list[I2VAlert] = field(default_factory=list)
    state_changes: list[tuple[int, TrackState, TrackState]] = field(default_factory=list)


class Pipeline:
    """Per-frame driver. With params=None it still tracks and emits windows,
    which is how training datasets are built; with params it also predicts
    and raises alerts. ``ctx`` holds the state of the live tracks only: an
    entry is made with its track and dropped when the track retires."""

    def __init__(self, geometry: IntersectionGeometry,
                 params: Optional[ModelParams] = None):
        if geometry is None:
            raise ValueError("pipeline needs an intersection geometry")
        self.geometry = geometry
        self.params = params
        self.table = TrackTable(geometry)
        self.ctx: dict[int, _TrackCtx] = {}
        self.last_frame = -1

    # -- state machine helpers -------------------------------------------

    def _set_state(self, tid: int, ctx: _TrackCtx, new: TrackState,
                   out: StepOutput) -> None:
        if ctx.state != new:
            out.state_changes.append((tid, ctx.state, new))
            ctx.state = new

    def _alert(self, tid: int, ctx: _TrackCtx, crosswalk: str, prob: float,
               rec: FrameRecord, out: StepOutput) -> None:
        if crosswalk in ctx.alerted_labels:
            return
        ctx.alerted_labels.add(crosswalk)
        track = self.table.tracks[tid]
        out.alerts.append(I2VAlert(tid, crosswalk, round(float(prob), 6),
                                   rec.ts_ms, rec.frame_idx, track.vru_class))

    def _nearest_entry(self, center: tuple[float, float]) -> str:
        ents = self.geometry.crosswalk_entries
        return min(("A", "B"), key=lambda k: (center[0] - ents[k][0]) ** 2
                   + (center[1] - ents[k][1]) ** 2)

    # -- per-frame step ----------------------------------------------------

    def step(self, rec: FrameRecord) -> StepOutput:
        if rec.frame_idx <= self.last_frame:
            raise ValueError(f"out-of-order frame {rec.frame_idx} "
                             f"after {self.last_frame}")
        self.last_frame = rec.frame_idx
        out = StepOutput(rec.frame_idx)

        events = self.table.associate(rec.detections, rec.frame_idx)
        for tid in events.created:
            self.ctx[tid] = _TrackCtx()

        self.table.merge_pose(rec.crop_poses)

        # a ctx is made with its track and leaves with it; none is DONE before
        for tid in events.retired:
            self._set_state(tid, self.ctx.pop(tid), TrackState.DONE, out)

        seen = set(events.updated)
        seen.update(events.created)
        # pass 1, per live track in id order (the track table iterates in id
        # order; ctx holds exactly the live tracks, none of them DONE):
        # transitions, segment flush, feature append; windows are collected
        # here and scored together below
        todo: list[tuple[int, _TrackCtx, Optional[FeatureWindow], bool]] = []
        for tid, track in self.table.tracks.items():
            ctx = self.ctx[tid]
            zone = track.zone
            is_seen = tid in seen

            # transitions happen on observation frames; zones cannot change
            # while a track goes unseen
            if is_seen:
                if zone.kind is ZoneType.CROSSING and ctx.state in _WINDOWING:
                    self._set_state(tid, ctx, TrackState.CROSSING, out)
                    ctx.frame_buffer = []
                elif zone.is_observing and ctx.state == TrackState.IDLE:
                    self._set_state(tid, ctx, TrackState.OBSERVING, out)
                    ctx.birth_frame = rec.frame_idx
                    ctx.assembler = WindowAssembler(tid)

            # CROSSING never returns to a windowing state, and the move to
            # OBSERVING set birth_frame and assembler
            if ctx.state not in _WINDOWING:
                continue

            # segment boundaries run on the stream clock, observed or not, so
            # detector dropout cannot merge adjacent segments; a boundary
            # missing from the frame numbering falls to the next frame present
            window = None
            segment = (rec.frame_idx - ctx.birth_frame) // SEGMENT_FRAMES
            if segment > ctx.segment:
                ctx.segment = segment
                if ctx.frame_buffer:
                    step_vec = temporal_filter(ctx.frame_buffer)
                    ctx.frame_buffer = []
                    window = ctx.assembler.push(step_vec, rec.frame_idx)
                    if window is not None:
                        out.windows.append(window)
                # an all-dropout segment, or one the numbering skips whole,
                # yields no step

            if is_seen and zone.is_observing:
                ctx.frame_buffer.append(step_features(
                    track.center, zone, track.history, track.pose_latest,
                    track.bbox[3], self.geometry))

            fast = is_seen and zone.kind is ZoneType.START_CROSSING
            if window is not None or fast:
                todo.append((tid, ctx, window, fast))

        # one forward scores every window of the frame, in out.windows order
        predict = self.params is not None and bool(out.windows)
        if predict:
            p, _ = forward_batch(np.stack([w.matrix for w in out.windows]), self.params)
            probs = iter(p.tolist())

        # pass 2, in id order: prediction, PREDICTED and margin alert, then the
        # fast path, which sees this frame's prediction
        for tid, ctx, window, fast in todo:
            if window is not None and predict:
                pred = Prediction(window.track_id, next(probs), window.end_frame_idx)
                ctx.latest_prediction = pred
                out.predictions.append(pred)
                self._set_state(tid, ctx, TrackState.PREDICTED, out)
                if abs(pred.p_b - 0.5) >= ALERT_MARGIN:
                    self._alert(tid, ctx, pred.label, pred.p_b, rec, out)

            # start-crossing fast path: presence there implies crossing intent
            if fast:
                track = self.table.tracks[tid]
                label = track.zone.label or (
                    ctx.latest_prediction.label if ctx.latest_prediction
                    else self._nearest_entry(track.center))
                prob = ctx.latest_prediction.p_b if ctx.latest_prediction else 0.5
                self._alert(tid, ctx, label, prob, rec, out)
        return out


# --- alert sinks ---------------------------------------------------------------


class UdpAlertSink:
    """Fire-and-forget JSON datagrams; 3 retries, then log and move on."""

    def __init__(self, host: str, port: int):
        # resolved once: sendto would look a name up again on every datagram,
        # blocking the frame loop each time
        self.addr = socket.getaddrinfo(host, port, socket.AF_INET, socket.SOCK_DGRAM)[0][4]
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sent = 0
        self.dropped = 0

    def __call__(self, alert: I2VAlert) -> None:
        payload = json.dumps(alert.to_wire(), separators=(",", ":")).encode()
        for attempt in range(3):
            try:
                self.sock.sendto(payload, self.addr)
                self.sent += 1
                return
            except OSError as exc:
                last = exc
        self.dropped += 1
        log.warning("alert for track %d dropped after 3 attempts: %s",
                    alert.track_id, last)

    def close(self) -> None:
        self.sock.close()


def run(records: Iterable[FrameRecord], geometry: IntersectionGeometry,
        params: ModelParams, predictions_path: Optional[str | Path] = None,
        alert_sink: Optional[Callable[[I2VAlert], None]] = None,
        dump_features_path: Optional[str | Path] = None) -> dict:
    """Consume a stream to exhaustion; write predictions; emit alerts.

    Returns the exit summary: track and alert counts, the most tracks live on
    one frame, and per-frame latency.
    """
    pipe = Pipeline(geometry, params)
    n_frames = 0
    n_preds = 0
    n_alerts = 0
    step_ms_sum = 0.0  # running values: the summary must not grow with the stream
    step_ms_max = 0.0
    max_live = 0
    with contextlib.ExitStack() as files:
        preds_fh, feats_fh = (files.enter_context(open(path, "w", encoding="utf-8"))
                              if path else None
                              for path in (predictions_path, dump_features_path))
        t0 = time.perf_counter()
        for rec in records:
            s0 = time.perf_counter()
            out = pipe.step(rec)
            ms = (time.perf_counter() - s0) * 1000.0
            step_ms_sum += ms
            step_ms_max = max(step_ms_max, ms)
            max_live = max(max_live, len(pipe.table.tracks))
            n_frames += 1
            for pred in out.predictions:
                n_preds += 1
                if preds_fh:
                    preds_fh.write(json.dumps(
                        {"track": pred.track_id, "frame": pred.end_frame_idx,
                         "p_b": pred.p_b, "label": pred.label},
                        separators=(",", ":")) + "\n")
            for alert in out.alerts:
                n_alerts += 1
                if alert_sink:
                    alert_sink(alert)
            if feats_fh:
                for win in out.windows:
                    feats_fh.write(json.dumps(
                        {"track": win.track_id, "end_frame": win.end_frame_idx,
                         "rows": win.matrix.tolist()}, separators=(",", ":")) + "\n")
    wall = time.perf_counter() - t0
    return {
        "frames": n_frames,
        "tracks_created": pipe.table.tracks_created,
        "max_concurrent_tracks": max_live,
        "predictions": n_preds,
        "alerts": n_alerts,
        "mean_step_ms": step_ms_sum / n_frames if n_frames else 0.0,
        "max_step_ms": step_ms_max,
        "wall_s": wall,
        "fps": n_frames / wall if wall > 0 else 0.0,
    }


def bench(records: list[FrameRecord], geometry: IntersectionGeometry,
          params: ModelParams, forward_reps: int = 200) -> dict:
    """End-to-end FPS of ``run`` over a prepared stream plus isolated forward latency.

    The forward latency is measured at the 32-bit deployment profile, at B=1
    (p50 and p99) and as the per-call median at each of BENCH_BATCH_SIZES. The
    report carries the published reference numbers for side-by-side reading.
    """
    params32 = params.astype(np.float32)
    rng = np.random.default_rng(0)
    warm = rng.standard_normal((1, WINDOW_STEPS, FEATURE_DIM)).astype(np.float32)
    for _ in range(10):
        forward_batch(warm, params32)

    # per-call latency at each batch size; a frame's windows go through one call
    by_batch: dict[int, list[float]] = {b: [] for b in BENCH_BATCH_SIZES}
    for b, ms in by_batch.items():
        for _ in range(forward_reps):
            x = rng.standard_normal((b, WINDOW_STEPS, FEATURE_DIM)).astype(np.float32)
            t0 = time.perf_counter()
            forward_batch(x, params32)
            ms.append((time.perf_counter() - t0) * 1000.0)
    lat_ms = by_batch[1]

    summary = run(records, geometry, params32)
    return {
        "frames": summary["frames"],
        "end_to_end_fps": summary["fps"],
        "max_concurrent_tracks": summary["max_concurrent_tracks"],
        "forward_ms_p50": float(np.percentile(lat_ms, 50)),
        "forward_ms_p99": float(np.percentile(lat_ms, 99)),
        "forward_ms_p50_by_batch": {str(b): float(np.median(ms))
                                    for b, ms in by_batch.items()},
        "reference_fps": 33.0,
        "reference_forward_ms": 0.78,
        "reference_note": "published full-framework figures on different hardware",
    }
