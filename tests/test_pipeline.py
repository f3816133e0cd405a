import gc
import json
import math
import socket
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosswise import pipeline as pipeline_mod
from crosswise.features import SEGMENT_FRAMES, WINDOW_STEPS
from crosswise.geom import (MAX_FPS, MIN_FRAME_SIDE, MIN_PX_PER_METER, ZoneType,
                            demo_geometry)
from crosswise.ingest import (COORD_LIMIT, MIN_BBOX_SIDE, Detection, FrameRecord,
                              PoseDetection, ScenarioSpec, _record_from_obj,
                              generate_scenario)
from crosswise.model import forward_batch
from crosswise.pipeline import (ALERT_SCHEMA, I2VAlert, Pipeline, TrackState,
                                UdpAlertSink, bench, run)


def waiting_stream(n_frames, center=(600.0, 480.0), fps=20):
    """A single stationary detection inside the demo waiting area."""
    records = []
    for f in range(n_frames):
        det = Detection((center[0] - 15, center[1] - 30, 30.0, 60.0),
                        "pedestrian", 0.9)
        records.append(FrameRecord(f, round(f * 1000 / fps), (det,), ()))
    return records


def poses_by_track(pipe):
    """Each live track's pose_latest, taken before a step."""
    return {tid: track.pose_latest for tid, track in pipe.table.tracks.items()}


def crossing_pose_binds(pipe, before):
    """Ids of the tracks in a crossing zone whose pose the last step bound.

    ``before`` is poses_by_track(pipe) from before the step; a track the step
    created had no pose.
    """
    return [tid for tid, track in pipe.table.tracks.items()
            if track.zone.kind is ZoneType.CROSSING
            and track.pose_latest is not before.get(tid)]


class TestWindowCadence:
    def test_first_window_at_frame_50_then_60(self, geometry):
        pipe = Pipeline(geometry, params=None)
        emitted = []
        for rec in waiting_stream(75):
            out = pipe.step(rec)
            emitted.extend((rec.frame_idx, w.end_frame_idx) for w in out.windows)
        assert emitted[0] == (50, 50)
        assert emitted[1] == (60, 60)
        assert emitted[2] == (70, 70)

    def test_window_count_matches_step_arithmetic(self, geometry):
        pipe = Pipeline(geometry, params=None)
        total = 0
        for rec in waiting_stream(101):
            total += len(pipe.step(rec).windows)
        # 10 completed steps -> max(0, 10 - 4) windows
        assert total == 6

    def test_dropout_tolerant_cadence(self, geometry):
        # frames 52-55 missing: the step at frame 60 still averages the rest
        pipe = Pipeline(geometry, params=None)
        emitted = []
        for rec in waiting_stream(71):
            if 52 <= rec.frame_idx <= 55:
                rec = FrameRecord(rec.frame_idx, rec.ts_ms, (), ())
            out = pipe.step(rec)
            emitted.extend(w.end_frame_idx for w in out.windows)
        assert emitted == [50, 60, 70]

    def test_missing_boundary_frame_falls_to_the_next_frame(self, geometry):
        # frames 20 and 40 missing from the numbering: their segments still
        # end there, on frames 21 and 41, so the first window comes at 50
        pipe = Pipeline(geometry, params=None)
        ends = []
        for rec in waiting_stream(121):
            if rec.frame_idx not in (20, 40):
                ends.extend(w.end_frame_idx for w in pipe.step(rec).windows)
        assert ends == [50, 60, 70, 80, 90, 100, 110, 120]

    @settings(max_examples=60)
    @given(st.sets(st.integers(0, 120), max_size=80))
    def test_gaps_in_numbering_keep_the_segment_clock(self, geometry, removed):
        present = [rec for rec in waiting_stream(121) if rec.frame_idx not in removed]
        pipe = Pipeline(geometry, params=None)
        ends, longest_buffer = [], 0
        for rec in present:
            ends.extend(w.end_frame_idx for w in pipe.step(rec).windows)
            longest_buffer = max(longest_buffer, *(len(c.frame_buffer)
                                                   for c in pipe.ctx.values()))
        # a segment ends at the first frame present at or after its boundary,
        # birth + 10 k; a boundary whose whole segment is missing shares that
        # frame with the next, and from the fifth step on each step is a window
        frames = [rec.frame_idx for rec in present]
        birth = frames[0]
        step_ends = sorted({next(f for f in frames if f >= b)
                            for b in range(birth + SEGMENT_FRAMES, frames[-1] + 1,
                                           SEGMENT_FRAMES)})
        assert ends == step_ends[WINDOW_STEPS - 1:]
        assert longest_buffer <= SEGMENT_FRAMES

    def test_outside_track_produces_nothing(self, geometry):
        pipe = Pipeline(geometry, params=None)
        windows, alerts = 0, 0
        for rec in waiting_stream(80, center=(100.0, 100.0)):
            out = pipe.step(rec)
            windows += len(out.windows)
            alerts += len(out.alerts)
        assert windows == 0 and alerts == 0
        states = [c.state for c in pipe.ctx.values()]
        assert states == [TrackState.IDLE]

    def test_out_of_order_frame_rejected(self, geometry):
        pipe = Pipeline(geometry, params=None)
        stream = waiting_stream(3)
        pipe.step(stream[2])
        with pytest.raises(ValueError, match="out-of-order"):
            pipe.step(stream[1])


class TestCrossingMonitoring:
    def test_pose_frozen_after_crossing_entry(self, geometry):
        spec = ScenarioSpec(n_vrus=1, label="A", seed=21)
        records, truths = generate_scenario(spec, geometry)
        pipe = Pipeline(geometry, params=None)
        pose_after_entry = None
        entry = truths[0].crossing_entry_frame
        crossing_frames = []
        crossing_binds = []
        for rec in records:
            before = poses_by_track(pipe)
            out = pipe.step(rec)
            crossing_binds.extend(crossing_pose_binds(pipe, before))
            crossing_frames.extend(rec.frame_idx for _, _, new in out.state_changes
                                   if new is TrackState.CROSSING)
            track = next(iter(pipe.table.tracks.values()), None)
            if track is None or track.pose_latest is None:
                continue
            if rec.frame_idx == entry:
                pose_after_entry = track.pose_latest
            if rec.frame_idx > entry:
                assert track.pose_latest is pose_after_entry
        assert crossing_binds == []
        (ctx,) = pipe.ctx.values()  # the track is still live
        assert ctx.state == TrackState.CROSSING
        assert crossing_frames == [entry]

    def test_pose_on_crop_never_binds_to_crossing_track(self):
        # The demo crop holds no crossing zone, and the generator emits no pose
        # for a crossing VRU. This crop also covers the start of cross_a, and a
        # pose is added at each sampled center past crossing entry that lies on
        # it, so only the zone filter of merge_pose keeps these poses off.
        geometry = replace(demo_geometry(), crop_rect=(380.0, 380.0, 340.0, 200.0))
        records, truths = generate_scenario(ScenarioSpec(n_vrus=8, seed=24), geometry)
        cx0, cy0, cw, ch = geometry.crop_rect
        template = next(p for rec in records for p in rec.crop_poses)
        px, py = template.center
        added = {}
        for t in truths:
            for f, x, y in t.samples:
                if (t.crossing_entry_frame is not None and f > t.crossing_entry_frame
                        and cx0 <= x <= cx0 + cw and cy0 <= y <= cy0 + ch):
                    added.setdefault(f, []).append(
                        template.translated(x - cx0 - px, y - cy0 - py))
        assert added
        pipe = Pipeline(geometry, params=None)
        binds = []
        for rec in records:
            if rec.frame_idx in added:
                rec = replace(rec, crop_poses=(*rec.crop_poses, *added[rec.frame_idx]))
            before = poses_by_track(pipe)
            pipe.step(rec)
            binds.extend(crossing_pose_binds(pipe, before))
        assert binds == []

    def test_state_progression(self, geometry):
        spec = ScenarioSpec(n_vrus=1, label="B", seed=22)
        records, _ = generate_scenario(spec, geometry)
        pipe = Pipeline(geometry, params=None)
        transitions = []
        for rec in records:
            out = pipe.step(rec)
            transitions.extend((old.value, new.value)
                               for _, old, new in out.state_changes)
        assert transitions[0] == ("idle", "observing")
        assert transitions[-1] == ("observing", "crossing")

    def test_alerted_tracks_reach_crossing_or_done(self, geometry):
        spec = ScenarioSpec(n_vrus=8, seed=24)
        records, _ = generate_scenario(spec, geometry)
        pipe = Pipeline(geometry, params=None)
        alerted = set()
        created = set()
        done = []
        for rec in records:
            out = pipe.step(rec)
            alerted.update(a.track_id for a in out.alerts)
            created.update(pipe.ctx.keys())
            done.extend(tid for tid, _, new in out.state_changes if new is TrackState.DONE)
        assert alerted
        # drain: feeding empty frames retires every remaining track
        last = records[-1].frame_idx
        for k in range(1, 2 * geometry.fps + 2):
            out = pipe.step(FrameRecord(last + k, records[-1].ts_ms + 50 * k, (), ()))
            done.extend(tid for tid, _, new in out.state_changes if new is TrackState.DONE)
        # every track, alerted ones included, ends DONE exactly once, and its
        # state leaves with it
        assert len(done) == len(set(done))
        assert alerted <= set(done)
        assert set(done) == created and len(created) == pipe.table.tracks_created
        assert pipe.ctx == {}

    def test_soak_state_follows_the_live_tracks(self, geometry):
        # 1000 VRUs (about 39k frames), then empty frames until every track
        # has retired: the pipeline holds state for the live tracks only
        spec = ScenarioSpec(n_vrus=1000, noise_sigma=2.0, dropout=0.05, seed=77)
        records, _ = generate_scenario(spec, geometry)
        last = records[-1]
        drain = [FrameRecord(last.frame_idx + k, last.ts_ms + 50 * k, (), ())
                 for k in range(1, 2 * geometry.fps + 2)]
        pipe = Pipeline(geometry, params=None)
        done = []
        for rec in records + drain:
            out = pipe.step(rec)
            assert pipe.ctx.keys() == pipe.table.tracks.keys()
            done.extend(tid for tid, _, new in out.state_changes if new is TrackState.DONE)
        assert pipe.table.tracks_created > 900
        assert sorted(done) == list(range(1, pipe.table.tracks_created + 1))
        assert pipe.ctx == {}

    def test_geometry_required(self):
        with pytest.raises(ValueError, match="geometry"):
            Pipeline(None, params=None)

    def test_start_crossing_fast_path_alert_without_model(self, geometry):
        spec = ScenarioSpec(n_vrus=1, label="A", seed=23)
        records, truths = generate_scenario(spec, geometry)
        pipe = Pipeline(geometry, params=None)
        alerts = []
        for rec in records:
            alerts.extend(pipe.step(rec).alerts)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.crosswalk == "A"
        assert alert.prob == 0.5  # no model loaded: zone-entry confidence
        assert alert.frame_idx < truths[0].crossing_entry_frame


class TestAlertsWithModel:
    def test_single_vru_alerted_before_crossing(self, geometry, small_model):
        spec = ScenarioSpec(n_vrus=1, label="A", seed=31)
        records, truths = generate_scenario(spec, geometry)
        pipe = Pipeline(geometry, small_model)
        alerts, preds = [], []
        for rec in records:
            out = pipe.step(rec)
            alerts.extend(out.alerts)
            preds.extend(out.predictions)
        assert len(alerts) == 1
        assert alerts[0].crosswalk == "A"
        assert alerts[0].frame_idx < truths[0].crossing_entry_frame
        assert preds, "windows should have produced predictions"
        assert preds[-1].label == "A"

    def test_at_most_one_alert_per_label(self, geometry, small_model):
        spec = ScenarioSpec(n_vrus=6, seed=32)
        records, _ = generate_scenario(spec, geometry)
        pipe = Pipeline(geometry, small_model)
        seen = set()
        for rec in records:
            for alert in pipe.step(rec).alerts:
                key = (alert.track_id, alert.crosswalk)
                assert key not in seen
                seen.add(key)


@pytest.fixture(scope="module")
def crowd_stream(geometry):
    """A dense stream whose frames emit 0 to 3 windows."""
    spec = ScenarioSpec(n_vrus=24, max_concurrent=12, noise_sigma=1.0,
                        dropout=0.02, seed=43)
    return generate_scenario(spec, geometry)[0]


def run_steps(geometry, params, records):
    pipe = Pipeline(geometry, params)
    return [pipe.step(rec) for rec in records]


def per_window_forward_batch(x, params):
    """One B=1 forward per window, as a frame was scored before batching."""
    return np.concatenate([forward_batch(x[i:i + 1], params)[0]
                           for i in range(len(x))]), None


P_B_TOL = 4 * float(np.finfo(np.float32).eps)


class TestOneForwardPerFrame:
    def test_one_call_with_every_window_of_the_frame(self, geometry, small_model,
                                                     crowd_stream, monkeypatch):
        calls = []
        real = pipeline_mod.forward_batch
        monkeypatch.setattr(pipeline_mod, "forward_batch",
                            lambda x, params: calls.append(x) or real(x, params))
        pipe = Pipeline(geometry, small_model.astype(np.float32))
        counts = set()
        for rec in crowd_stream:
            calls.clear()
            out = pipe.step(rec)
            k = len(out.windows)
            counts.add(k)
            if k == 0:
                assert calls == []
            else:
                assert len(calls) == 1
                assert calls[0].shape[0] == k
                assert calls[0].tobytes() == np.stack(
                    [w.matrix for w in out.windows]).tobytes()
        assert {0, 1, 2, 3} <= counts

    def test_outputs_match_per_window_reference(self, geometry, small_model,
                                                crowd_stream, monkeypatch):
        params = small_model.astype(np.float32)
        batched = run_steps(geometry, params, crowd_stream)
        monkeypatch.setattr(pipeline_mod, "forward_batch", per_window_forward_batch)
        reference = run_steps(geometry, params, crowd_stream)
        assert sum(len(o.alerts) for o in batched) > 0
        for got, want in zip(batched, reference):
            assert [(w.track_id, w.end_frame_idx) for w in got.windows] == \
                [(p.track_id, p.end_frame_idx) for p in got.predictions]
            assert [(p.track_id, p.end_frame_idx, p.label) for p in got.predictions] == \
                [(p.track_id, p.end_frame_idx, p.label) for p in want.predictions]
            assert [(a.track_id, a.crosswalk, a.ts_ms, a.frame_idx, a.vru_class)
                    for a in got.alerts] == \
                [(a.track_id, a.crosswalk, a.ts_ms, a.frame_idx, a.vru_class)
                 for a in want.alerts]
            for a, b in zip(got.alerts, want.alerts):
                assert abs(a.prob - b.prob) <= P_B_TOL
            for tid in {t for t, _, _ in want.state_changes}:
                assert [c for c in got.state_changes if c[0] == tid] == \
                    [c for c in want.state_changes if c[0] == tid]

    def test_p_b_close_to_single_window_forward(self, geometry, small_model,
                                                crowd_stream):
        params = small_model.astype(np.float32)
        multi = 0
        for out in run_steps(geometry, params, crowd_stream):
            for window, pred in zip(out.windows, out.predictions):
                alone = float(forward_batch(window.matrix[None], params)[0][0])
                if len(out.windows) == 1:
                    assert pred.p_b == alone
                else:
                    multi += 1
                    assert abs(pred.p_b - alone) <= P_B_TOL
        assert multi > 0


class TestRun:
    def test_empty_stream_summary(self, geometry, small_model, tmp_path):
        out = tmp_path / "preds.jsonl"
        summary = run([], geometry, small_model, predictions_path=out)
        assert summary["frames"] == 0
        assert summary["tracks_created"] == 0
        assert summary["alerts"] == 0
        assert out.read_text() == ""

    def test_step_time_summary_from_running_values(self, geometry, small_model,
                                                   small_scenario, monkeypatch):
        # a clock whose steps take 3, 1 and 2 ms: t0, then (start, end) per frame
        ticks = iter([0.0, 0.0, 0.003, 0.0, 0.001, 0.0, 0.002, 0.0])
        now = [0.0]

        def clock():
            now[0] += next(ticks)
            return now[0]

        monkeypatch.setattr(pipeline_mod.time, "perf_counter", clock)
        summary = run(small_scenario[0][:3], geometry, small_model)
        assert set(summary) == {"frames", "tracks_created", "max_concurrent_tracks",
                                "predictions", "alerts", "mean_step_ms", "max_step_ms",
                                "wall_s", "fps"}
        assert summary["frames"] == 3
        assert summary["mean_step_ms"] == pytest.approx(2.0)
        assert summary["max_step_ms"] == pytest.approx(3.0)

    def test_max_concurrent_tracks_is_the_high_water_mark(self, geometry, small_model,
                                                          small_scenario):
        records = small_scenario[0][:400]
        pipe = Pipeline(geometry, small_model)
        live = []
        for rec in records:
            pipe.step(rec)
            live.append(len(pipe.table.tracks))
        assert max(live) > live[-1]  # the mark is not the count at the end
        assert run(records, geometry, small_model)["max_concurrent_tracks"] == max(live)

    def test_prediction_file_schema(self, geometry, small_model, tmp_path,
                                    small_scenario):
        records, _ = small_scenario
        out = tmp_path / "preds.jsonl"
        summary = run(records[:400], geometry, small_model, predictions_path=out)
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert summary["predictions"] == len(lines) > 0
        for obj in lines:
            assert set(obj) == {"track", "frame", "p_b", "label"}
            assert obj["label"] in ("A", "B")
            assert 0.0 <= obj["p_b"] <= 1.0

    def test_identical_inputs_identical_outputs(self, geometry, small_model,
                                                tmp_path, small_scenario):
        records, _ = small_scenario
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(records[:300], geometry, small_model, predictions_path=p1)
        run(records[:300], geometry, small_model, predictions_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_feature_dump(self, geometry, small_model, tmp_path, small_scenario):
        records, _ = small_scenario
        dump = tmp_path / "features.jsonl"
        run(records[:200], geometry, small_model, dump_features_path=dump)
        lines = [json.loads(l) for l in dump.read_text().splitlines()]
        assert lines
        assert all(len(obj["rows"]) == 5 and len(obj["rows"][0]) == 16
                   for obj in lines)

    def test_unopenable_dump_path_closes_the_predictions_file(self, geometry, small_model,
                                                              tmp_path):
        # the predictions file is opened first, so the dump path's failure must close it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(FileNotFoundError):
                run([], geometry, small_model, predictions_path=tmp_path / "p.jsonl",
                    dump_features_path=tmp_path / "missing" / "f.jsonl")
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestUdpAlerts:
    def test_wire_format_received(self, geometry, small_model, small_scenario):
        receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        receiver.bind(("127.0.0.1", 0))
        receiver.settimeout(5.0)
        port = receiver.getsockname()[1]
        sink = UdpAlertSink("127.0.0.1", port)
        records, _ = small_scenario
        summary = run(records[:600], geometry, small_model, alert_sink=sink)
        assert summary["alerts"] > 0
        payload = json.loads(receiver.recv(65536).decode())
        assert payload["schema"] == ALERT_SCHEMA
        assert payload["msg_type"] == "VRU_CROSSING_ALERT"
        assert set(payload) == {"schema", "msg_type", "track_id", "crosswalk",
                                "prob", "ts_ms", "frame_idx", "vru_class"}
        assert payload["crosswalk"] in ("A", "B")
        sink.close()
        receiver.close()

    def test_address_resolved_once(self, monkeypatch):
        receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        receiver.bind(("127.0.0.1", 0))
        receiver.settimeout(5.0)
        port = receiver.getsockname()[1]
        lookups = []

        def getaddrinfo(host, port, *args):  # a name server that answers loopback
            lookups.append(host)
            return [(socket.AF_INET, socket.SOCK_DGRAM, 17, "", ("127.0.0.1", port))]

        monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
        sink = UdpAlertSink("receiver.invalid", port)
        assert lookups == ["receiver.invalid"]
        for tid in range(3):
            sink(I2VAlert(tid, "A", 0.9, 0, 0, "pedestrian"))
        assert lookups == ["receiver.invalid"] and sink.sent == 3
        assert [json.loads(receiver.recv(65536))["track_id"] for _ in range(3)] == [0, 1, 2]
        sink.close()
        receiver.close()

    def test_unresolvable_address_refused_at_start(self, monkeypatch):
        def getaddrinfo(host, *args):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
        with pytest.raises(OSError, match="not known"):
            UdpAlertSink("nowhere.invalid", 5000)

    def test_sink_survives_unroutable_destination(self):
        sink = UdpAlertSink("127.0.0.1", 9)  # discard port, nothing listens
        alert = I2VAlert(1, "A", 0.9, 0, 0, "pedestrian")
        sink(alert)  # UDP fire-and-forget must not raise
        sink.close()


class TestBench:
    def test_report_shape(self, geometry, small_model, small_scenario):
        records, _ = small_scenario
        report = bench(records[:200], geometry, small_model, forward_reps=20)
        assert report["frames"] == 200
        assert report["end_to_end_fps"] > 0
        assert report["forward_ms_p50"] > 0
        assert report["reference_fps"] == 33.0
        assert report["reference_forward_ms"] == 0.78

    def test_forward_latency_by_batch(self, geometry, small_model, small_scenario):
        records, _ = small_scenario
        report = bench(records[:50], geometry, small_model, forward_reps=5)
        by_batch = report["forward_ms_p50_by_batch"]
        assert list(by_batch) == ["1", "2", "4", "8", "64"]
        assert all(ms > 0 for ms in by_batch.values())
        json.dumps(report)  # the CLI writes the report as JSON


# --- finite but hostile input ---------------------------------------------------


def _magnitude(rng, lo, hi):
    return float(10.0 ** rng.uniform(lo, hi))


# the magnitudes the stream bounds admit: sides from MIN_BBOX_SIDE, and
# coordinates from 1e-300, up to COORD_LIMIT
TOP = math.log10(COORD_LIMIT)
FLOOR = math.log10(MIN_BBOX_SIDE)


def _signed(rng, lo=-300.0, hi=TOP):
    return float(rng.choice((-1.0, 1.0))) * _magnitude(rng, lo, hi)


def _keypoints(rng):
    return [[_signed(rng), _signed(rng), float(rng.uniform(0.0, 1.0))] for _ in range(17)]


def hostile_stream(geometry, seed, n_tracks, n_frames=61):
    """JSON records within the stream bounds: tracks that stand in the waiting
    area with boxes of any side the bounds admit (1e-3 to 1e7 px) and
    keypoints of any magnitude from 1e-300 px up, plus boxes and poses
    anywhere."""
    rng = np.random.default_rng(seed)
    cx0, cy0, _, _ = geometry.crop_rect
    tracks = []
    for _ in range(n_tracks):
        cx, cy = rng.uniform(525.0, 675.0), rng.uniform(425.0, 555.0)
        w, h = _magnitude(rng, FLOOR, TOP), _magnitude(rng, FLOOR, TOP)
        tracks.append((cx - w / 2.0, cy - h / 2.0, w, h, _keypoints(rng)))
    for f in range(n_frames):
        dets, poses = [], []
        for x, y, w, h, kps in tracks:
            dets.append({"bbox": [x, y, w, h], "class": "pedestrian", "conf": 0.9})
            if rng.random() < 0.8:
                poses.append({"bbox": [x - cx0, y - cy0, w, h], "kps": kps})
        for _ in range(int(rng.integers(0, 3))):
            box = [_signed(rng), _signed(rng), _magnitude(rng, FLOOR, TOP),
                   _magnitude(rng, FLOOR, TOP)]
            dets.append({"bbox": box, "class": "cyclist", "conf": 0.5})
            poses.append({"bbox": box, "kps": _keypoints(rng)})
        yield {"frame": f, "ts_ms": f * 50, "dets": dets, "poses": poses}


GEOMETRY = demo_geometry()
# the edge of the camera scale IntersectionGeometry enforces (README, stream
# format): 1 px frame sides, px_per_meter 1e-3, fps 1000
EDGE_GEOMETRY = replace(demo_geometry(), fps=MAX_FPS, px_per_meter=MIN_PX_PER_METER,
                        frame_size=(MIN_FRAME_SIDE, MIN_FRAME_SIDE))


class TestHostileButInBoundInput:
    """Within the stream bounds, no finite input aborts a frame, and every
    window the pipeline emits is finite when cast to float32."""

    @pytest.mark.parametrize("geometry", [GEOMETRY, EDGE_GEOMETRY], ids=["demo", "edge"])
    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
    def test_step_never_raises(self, geometry, seed, n_tracks):
        pipe = Pipeline(geometry, params=None)
        windows = 0
        for line_no, obj in enumerate(hostile_stream(geometry, seed, n_tracks), start=1):
            out = pipe.step(_record_from_obj(obj, line_no))
            for w in out.windows:
                assert np.isfinite(w.matrix.astype(np.float32)).all()
            windows += len(out.windows)
        assert windows >= 2 * n_tracks  # every standing track reached frames 50 and 60

    def test_tiny_box_with_a_normal_pose(self):
        # a bbox height at the 1e-3 px floor: the shoulder ratio stays finite
        pipe = Pipeline(GEOMETRY, params=None)
        cx0, cy0, _, _ = GEOMETRY.crop_rect
        kps = [[100.0, 90.0, 0.9]] * 5 + [[90.0, 100.0, 0.9], [110.0, 100.0, 0.9]]
        kps += [[100.0, 100.0, 0.9]] * 10
        windows = []
        for f in range(51):
            obj = {"frame": f, "ts_ms": f * 50,
                   "dets": [{"bbox": [600.0, 480.0, 30.0, 1e-3], "class": "pedestrian",
                             "conf": 0.9}],
                   "poses": [{"bbox": [600.0 - cx0, 480.0 - cy0, 30.0, 1e-3], "kps": kps}]}
            windows += pipe.step(_record_from_obj(obj, f + 1)).windows
        assert len(windows) == 1
        assert windows[0].matrix[-1, 15] == pytest.approx(20.0 / 1e-3)
        assert np.isfinite(windows[0].matrix.astype(np.float32)).all()

    def test_pose_built_in_code_holds_the_keypoint_bound(self):
        # shoulders at x = -1.8e308 and +1.8e308 would overflow the shoulder
        # distance and abort the step ("non-finite feature vector"), so such a
        # pose is refused when built; shoulders at the bound keep every step
        # feature finite
        cx0, cy0, _, _ = GEOMETRY.crop_rect
        det = Detection((600.0, 480.0, 30.0, 60.0), "pedestrian", 0.9)
        kps = np.tile([615.0 - cx0, 510.0 - cy0, 0.9], (17, 1))
        kps[5, 0], kps[6, 0] = -1.8e308, 1.8e308
        with pytest.raises(ValueError, match="within"):
            PoseDetection((600.0 - cx0, 480.0 - cy0, 30.0, 60.0), kps)
        kps[5, 0], kps[6, 0] = -COORD_LIMIT, COORD_LIMIT
        pose = PoseDetection((600.0 - cx0, 480.0 - cy0, 30.0, 60.0), kps)
        pipe = Pipeline(GEOMETRY, params=None)
        for f in range(3):
            pipe.step(FrameRecord(f, f * 50, (det,), (pose,)))
        (ctx,) = pipe.ctx.values()
        assert len(ctx.frame_buffer) == 3
        assert np.isfinite(np.array(ctx.frame_buffer, dtype=np.float32)).all()
