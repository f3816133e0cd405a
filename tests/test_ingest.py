import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crosswise.geom import ZoneType
from crosswise.ingest import (MAX_NOISE_SIGMA, Detection, FrameRecord, PoseDetection,
                              ScenarioSpec, StreamFormatError, VruTruth, _record_from_obj,
                              generate_scenario, read_labels, read_stream, write_labels,
                              write_stream)


def make_record(frame, ts, n_dets=1):
    dets = tuple(Detection((10.0 * i, 20.0, 30.0, 60.0), "pedestrian", 0.9)
                 for i in range(n_dets))
    kps = np.zeros((17, 3))
    kps[:, 2] = 0.8
    poses = (PoseDetection((5.0, 5.0, 30.0, 60.0), kps),)
    return FrameRecord(frame, ts, dets, poses)


class TestStreamIO:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(read_stream(path)) == []

    def test_three_records_in_order(self, tmp_path):
        path = tmp_path / "s.jsonl"
        records = [make_record(i, i * 50) for i in range(3)]
        write_stream(records, path)
        out = list(read_stream(path))
        assert [r.frame_idx for r in out] == [0, 1, 2]

    def test_round_trip_fidelity(self, tmp_path, small_scenario):
        records, _ = small_scenario
        path = tmp_path / "rt.jsonl"
        write_stream(records[:50], path)
        out = list(read_stream(path))
        assert len(out) == 50
        for a, b in zip(records[:50], out):
            assert a.frame_idx == b.frame_idx and a.ts_ms == b.ts_ms
            assert a.detections == b.detections
            assert len(a.crop_poses) == len(b.crop_poses)
            for pa, pb in zip(a.crop_poses, b.crop_poses):
                assert pa.bbox == pb.bbox
                np.testing.assert_array_equal(pa.keypoints, pb.keypoints)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_stream([make_record(0, 0)], path)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(StreamFormatError, match="line 2"):
            list(read_stream(path))

    def test_sixteen_keypoints_rejected(self, tmp_path):
        path = tmp_path / "k16.jsonl"
        obj = {"frame": 0, "ts_ms": 0, "dets": [],
               "poses": [{"bbox": [0, 0, 10, 10], "kps": [[1.0, 2.0, 0.5]] * 16}]}
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(StreamFormatError, match="line 1"):
            list(read_stream(path))

    def test_non_monotonic_frame_rejected(self, tmp_path):
        path = tmp_path / "mono.jsonl"
        write_stream([make_record(5, 100), make_record(5, 150)], path)
        with pytest.raises(StreamFormatError, match="strictly increasing"):
            list(read_stream(path))

    def test_decreasing_ts_rejected(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        write_stream([make_record(0, 100), make_record(1, 50)], path)
        with pytest.raises(StreamFormatError, match="ts_ms"):
            list(read_stream(path))


class TestValidation:
    def test_detection_bad_conf(self):
        with pytest.raises(ValueError):
            Detection((0, 0, 10, 10), "pedestrian", 1.5)

    def test_detection_bad_size(self):
        with pytest.raises(ValueError):
            Detection((0, 0, 0, 10), "pedestrian", 0.5)

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            Detection((0, 0, 10, 10), "unicyclist", 0.5)

    def test_spec_mix_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ScenarioSpec(n_vrus=1, class_mix={"pedestrian": 0.5})

    def test_spec_bad_dropout(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n_vrus=1, dropout=1.0)


class TestNonFinite:
    """json.loads accepts NaN and Infinity; ingest must reject them by line."""

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_refused_at_parse_where_no_check_reads(self, tmp_path, literal):
        # a key no record check reads: only the decoder can refuse it
        path = tmp_path / "note.jsonl"
        path.write_text('{"frame":0,"ts_ms":0,"dets":[],"poses":[]}\n'
                        f'{{"frame":1,"ts_ms":0,"dets":[],"poses":[],"note":{literal}}}\n')
        with pytest.raises(StreamFormatError, match=f"line 2: invalid JSON: {literal}") as exc:
            list(read_stream(path))
        assert exc.value.line_no == 2

    @staticmethod
    def stream_with_bad_second_line(tmp_path, edit):
        path = tmp_path / "nf.jsonl"
        write_stream([make_record(0, 0)], path)
        obj = json.loads(path.read_text())
        obj["frame"], obj["ts_ms"] = 1, 50
        edit(obj)
        with open(path, "a") as fh:
            fh.write(json.dumps(obj) + "\n")   # writes NaN / Infinity literals
        return path

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_detection_bbox(self, tmp_path, bad, slot):
        path = self.stream_with_bad_second_line(
            tmp_path, lambda o: o["dets"][0]["bbox"].__setitem__(slot, bad))
        with pytest.raises(StreamFormatError, match="line 2") as exc:
            list(read_stream(path))
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_detection_conf(self, tmp_path, bad):
        path = self.stream_with_bad_second_line(
            tmp_path, lambda o: o["dets"][0].__setitem__("conf", bad))
        with pytest.raises(StreamFormatError, match="line 2"):
            list(read_stream(path))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_pose_bbox(self, tmp_path, bad, slot):
        path = self.stream_with_bad_second_line(
            tmp_path, lambda o: o["poses"][0]["bbox"].__setitem__(slot, bad))
        with pytest.raises(StreamFormatError, match="line 2"):
            list(read_stream(path))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("col", [0, 1, 2])
    def test_keypoint_value(self, tmp_path, bad, col):
        path = self.stream_with_bad_second_line(
            tmp_path, lambda o: o["poses"][0]["kps"][7].__setitem__(col, bad))
        with pytest.raises(StreamFormatError, match="line 2"):
            list(read_stream(path))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["frame", "ts_ms"])
    def test_frame_and_timestamp(self, tmp_path, bad, key):
        path = self.stream_with_bad_second_line(tmp_path, lambda o: o.__setitem__(key, bad))
        with pytest.raises(StreamFormatError, match="line 2"):
            list(read_stream(path))

    def test_detection_with_nan_bbox_not_constructible(self):
        with pytest.raises(ValueError, match="finite"):
            Detection((math.nan, 1.0, math.inf, 5.0), "pedestrian", 0.5)

    def test_pose_with_nan_keypoint_not_constructible(self):
        kps = np.full((17, 3), 0.5)
        kps[3, 1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            PoseDetection((0.0, 0.0, 10.0, 10.0), kps)

    def test_huge_finite_keypoints_rejected(self):
        kps = np.full((17, 3), 0.5)
        kps[:, :2] = np.finfo(float).max
        with pytest.raises(ValueError, match="within"):
            PoseDetection((0.0, 0.0, 10.0, 10.0), kps)


class TestIntegerFields:
    """frame and ts_ms must be JSON integers: no truncation, no coercion."""

    @pytest.mark.parametrize("bad", [1.7, 2.0, True, "3"])
    @pytest.mark.parametrize("key", ["frame", "ts_ms"])
    def test_non_integer_rejected_with_line(self, tmp_path, bad, key):
        path = TestNonFinite.stream_with_bad_second_line(
            tmp_path, lambda o: o.__setitem__(key, bad))
        with pytest.raises(StreamFormatError, match="line 2") as exc:
            list(read_stream(path))
        assert exc.value.line_no == 2
        assert key in str(exc.value)


class TestPoseBboxSize:
    @pytest.mark.parametrize("bbox", [(0.0, 0.0, -5.0, 0.0), (0.0, 0.0, 0.0, 10.0),
                                      (0.0, 0.0, 10.0, 0.0), (0.0, 0.0, 10.0, -1.0)])
    def test_not_constructible(self, bbox):
        with pytest.raises(ValueError, match="positive size"):
            PoseDetection(bbox, np.full((17, 3), 0.5))

    @pytest.mark.parametrize("slot,bad", [(2, -5.0), (3, 0.0)])
    def test_stream_line_rejected(self, tmp_path, slot, bad):
        path = TestNonFinite.stream_with_bad_second_line(
            tmp_path, lambda o: o["poses"][0]["bbox"].__setitem__(slot, bad))
        with pytest.raises(StreamFormatError, match="line 2"):
            list(read_stream(path))


class TestRecordShape:
    """A line that is not a JSON object, a dets/poses value that is not a
    list, an entry that is not an object, a key the format does not know and
    a bbox without exactly 4 values are rejected by line."""

    @pytest.mark.parametrize("line", ["[1, 2]", "3", '"frame"', "null"])
    def test_non_object_line(self, tmp_path, line):
        path = TestNonFinite.stream_with_bad_second_line(tmp_path, lambda o: None)
        with open(path, "a") as fh:
            fh.write(line + "\n")
        with pytest.raises(StreamFormatError, match="line 3") as exc:
            list(read_stream(path))
        assert exc.value.line_no == 3
        assert "JSON object" in str(exc.value)

    @pytest.mark.parametrize("bad", [{}, "", "ab", 5, None, {"bbox": [1, 2, 3, 4]}])
    @pytest.mark.parametrize("key", ["dets", "poses"])
    def test_non_list_value(self, tmp_path, key, bad):
        path = TestNonFinite.stream_with_bad_second_line(
            tmp_path, lambda o: o.__setitem__(key, bad))
        with pytest.raises(StreamFormatError, match="line 2") as exc:
            list(read_stream(path))
        assert key in str(exc.value)

    @pytest.mark.parametrize("bbox", [[], [1, 2, 3], [1, 2, 3, 4, 5]])
    @pytest.mark.parametrize("key", ["dets", "poses"])
    def test_bbox_length(self, tmp_path, key, bbox):
        path = TestNonFinite.stream_with_bad_second_line(
            tmp_path, lambda o: o[key][0].__setitem__("bbox", bbox))
        with pytest.raises(StreamFormatError, match="line 2") as exc:
            list(read_stream(path))
        assert "4 values" in str(exc.value)

    @pytest.mark.parametrize("edit,name", [
        (lambda o: o.__setitem__("note", 1), "note"),
        (lambda o: o.__setitem__("pose", o.pop("poses")), "pose"),   # misspelt
        (lambda o: o.__setitem__("det", o.pop("dets")), "det"),
        (lambda o: o["dets"][0].__setitem__("score", 0.9), "score"),
        (lambda o: o["poses"][0].__setitem__("kps_conf", []), "kps_conf")])
    def test_unknown_key(self, tmp_path, edit, name):
        # a misspelt "pose" once gave a frame with no poses and no error
        path = TestNonFinite.stream_with_bad_second_line(tmp_path, edit)
        with pytest.raises(StreamFormatError, match=f"line 2: unknown .*'{name}'"):
            list(read_stream(path))

    @pytest.mark.parametrize("bad", [[1, 2, 3], "bbox", 5, None])
    @pytest.mark.parametrize("key", ["dets", "poses"])
    def test_non_object_entry(self, tmp_path, key, bad):
        path = TestNonFinite.stream_with_bad_second_line(tmp_path, lambda o: o[key].append(bad))
        with pytest.raises(StreamFormatError, match="line 2"):
            list(read_stream(path))

    def test_dets_and_poses_optional(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text('{"frame": 0, "ts_ms": 0}\n')
        [rec] = read_stream(path)
        assert rec.detections == () and rec.crop_poses == ()

    @pytest.mark.parametrize("bbox", [(1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0, 5.0)])
    def test_bbox_length_not_constructible(self, bbox):
        with pytest.raises(ValueError, match="4 values"):
            Detection(bbox, "pedestrian", 0.9)
        with pytest.raises(ValueError, match="4 values"):
            PoseDetection(bbox, np.full((17, 3), 0.5))


coords = st.floats(-1e4, 1e4)
sizes = st.floats(1e-3, 1e4)


class TestTranslated:
    @given(st.tuples(coords, coords, sizes, sizes),
           arrays(np.float64, (17, 2), elements=st.floats(-1e6, 1e6)),
           arrays(np.float64, (17,), elements=st.floats(0.0, 1.0)),
           coords, coords)
    def test_same_bytes_as_a_validated_pose(self, bbox, xy, conf, dx, dy):
        pose = PoseDetection(bbox, np.column_stack([xy, conf]))
        shifted = pose.translated(dx, dy)
        kps = pose.keypoints.copy()
        kps[:, 0] += dx
        kps[:, 1] += dy
        x, y, w, h = bbox
        fresh = PoseDetection((x + dx, y + dy, w, h), kps)
        assert np.array(shifted.bbox).tobytes() == np.array(fresh.bbox).tobytes()
        assert shifted.keypoints.dtype == fresh.keypoints.dtype
        assert shifted.keypoints.shape == fresh.keypoints.shape
        assert shifted.keypoints.tobytes() == fresh.keypoints.tobytes()
        assert not np.shares_memory(shifted.keypoints, pose.keypoints)


class TestScenarioSpecFile:
    def test_round_trip(self):
        spec = ScenarioSpec(n_vrus=3, class_mix={"pedestrian": 0.5, "cyclist": 0.5},
                            label="B", noise_sigma=2.0, dropout=0.1, condition="night",
                            seed=4, max_concurrent=2)
        assert ScenarioSpec.from_dict(json.loads(json.dumps(asdict(spec)))) == spec

    def test_unknown_key_refused(self):
        with pytest.raises(ValueError, match="noise"):
            ScenarioSpec.from_dict({"n_vrus": 3, "noise": 2.0})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_refused_at_load(self, tmp_path, literal):
        # noise_sigma NaN passes the >= 0 check as no comparison holds
        path = tmp_path / "spec.json"
        path.write_text(f'{{"n_vrus": 3, "noise_sigma": {literal}}}')
        with pytest.raises(ValueError, match=f"{literal} is not a JSON number"):
            ScenarioSpec.load(path)

    @pytest.mark.parametrize("key,value", [("n_vrus", 3.9), ("n_vrus", 3.0),
                                           ("seed", True), ("max_concurrent", "6")])
    def test_integer_fields_must_be_integers(self, key, value):
        with pytest.raises(ValueError, match=key):
            ScenarioSpec.from_dict({"n_vrus": 3, key: value})

    @pytest.mark.parametrize("key,value", [("noise_sigma", "2"), ("dropout", True),
                                           ("class_mix", {"pedestrian": "1"}),
                                           ("class_mix", [["pedestrian", 1.0]])])
    def test_number_fields_must_be_json_numbers(self, key, value):
        # as in the stream, a string or a bool is refused, not coerced
        with pytest.raises(ValueError, match=key):
            ScenarioSpec.from_dict({"n_vrus": 3, key: value})

    def test_string_numbers_not_coerced(self):
        # this spec once loaded as noise 2.0 and mix 1.0
        with pytest.raises(ValueError, match="noise_sigma"):
            ScenarioSpec.from_dict({"n_vrus": 3, "noise_sigma": "2",
                                    "class_mix": {"pedestrian": "1"}})

    def test_missing_n_vrus_refused(self):
        with pytest.raises(ValueError, match="n_vrus"):
            ScenarioSpec.from_dict({"seed": 1})

    def test_noise_beyond_camera_scale_refused_at_load(self, tmp_path):
        # this spec once loaded, and generate_scenario aborted part way on a
        # keypoint beyond COORD_LIMIT
        path = tmp_path / "spec.json"
        path.write_text('{"n_vrus": 2, "noise_sigma": 1e8}')
        with pytest.raises(ValueError, match="noise_sigma"):
            ScenarioSpec.load(path)

    def test_nan_noise_refused(self):
        # NaN fails every comparison, so a one-sided check let it through
        with pytest.raises(ValueError, match="noise_sigma"):
            ScenarioSpec(n_vrus=2, noise_sigma=float("nan"))

    @pytest.mark.parametrize("kwargs,name", [
        ({"class_mix": {"pedestrian": 2.0, "cyclist": -1.0}}, "class_mix cyclist"),
        ({"class_mix": {"pedestrian": math.nan}}, "class_mix pedestrian"),
        ({"class_mix": [("pedestrian", 1.0)]}, "class_mix"),
        ({"seed": -1}, "seed"), ({"max_concurrent": 0}, "max_concurrent"),
        ({"max_concurrent": -4}, "max_concurrent"), ({"n_vrus": True}, "n_vrus"),
        ({"noise_sigma": "2"}, "noise_sigma")])
    def test_built_in_code_holds_the_file_rules(self, kwargs, name):
        # each was built (from a file too, where it could be written) and failed
        # only inside numpy, generated, or raised a bare TypeError
        with pytest.raises(ValueError, match=name):
            ScenarioSpec(**{"n_vrus": 3, **kwargs})

    def test_noise_at_the_bound_generates(self, geometry):
        # night doubles the jitter
        spec = ScenarioSpec(n_vrus=2, noise_sigma=MAX_NOISE_SIGMA, condition="night", seed=3)
        records, truths = generate_scenario(spec, geometry)
        assert len(truths) == 2 and records


class TestGenerator:
    def test_single_vru_terminates_in_labeled_crossing(self, geometry):
        spec = ScenarioSpec(n_vrus=1, label="A", seed=9)
        records, truths = generate_scenario(spec, geometry)
        truth = truths[0]
        assert truth.label == "A"
        assert truth.crossing_entry_frame is not None
        last = records[truth.exit_frame].detections[-1]
        zk = geometry.classify_point(last.center)
        assert zk.kind == ZoneType.CROSSING and zk.label == "A"

    def test_determinism_byte_identical(self, geometry, tmp_path):
        spec = ScenarioSpec(n_vrus=5, noise_sigma=1.5, dropout=0.1, seed=77)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        r1, _ = generate_scenario(spec, geometry)
        r2, _ = generate_scenario(spec, geometry)
        write_stream(r1, p1)
        write_stream(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    # sha256 of the stream and labels files; perfbench/reference.json pins
    # only day specs, so these pin the other conditions, a forced label and
    # all five classes spawned 12 frames apart
    @pytest.mark.parametrize("spec,stream_sha,labels_sha", [
        (ScenarioSpec(n_vrus=6, noise_sigma=1.5, dropout=0.1, condition="night", seed=11),
         "1bbb2677898366ef67836793106fee188d5e67e8241a9ef9f61d542cecdc37ae",
         "00c3aa473f2c140a8f038dcd1e81753855b417e941e79d1fb6b127ba859d4321"),
        (ScenarioSpec(n_vrus=5, label="B", noise_sigma=2.0, condition="rain", seed=12),
         "a13b355a2eeb3727ae89c5c60b74e64672e1faea577d1c5a7fa62983501af450",
         "611b189fa2a81ee6a787f8a13b27c867b16f4c16c9fc1bd28874d4590c33876a"),
        (ScenarioSpec(n_vrus=12, class_mix={"pedestrian": 0.4, "cyclist": 0.2, "scooter": 0.1,
                                            "e_scooter": 0.1, "e_wheelchair": 0.2},
                      noise_sigma=0.5, dropout=0.03, max_concurrent=20, seed=15),
         "5919c0b5a8743a9fd5df8b298006c9d0de23a4063ac734db7abd4ca6c9b841be",
         "07b037c8bcd9bda8f5135c8c7cb6ccc7af1612903ce17148708245d8430a4b67"),
    ], ids=["night", "rain_label_B", "mixed_classes"])
    def test_golden_bytes(self, geometry, tmp_path, spec, stream_sha, labels_sha):
        records, truths = generate_scenario(spec, geometry)
        write_stream(records, tmp_path / "stream.jsonl")
        write_labels(truths, tmp_path / "labels.json")
        assert hashlib.sha256((tmp_path / "stream.jsonl").read_bytes()).hexdigest() == stream_sha
        assert hashlib.sha256((tmp_path / "labels.json").read_bytes()).hexdigest() == labels_sha

    def test_labels_alternate_when_unforced(self, geometry):
        _, truths = generate_scenario(ScenarioSpec(n_vrus=6, seed=3), geometry)
        assert [t.label for t in truths] == ["A", "B", "A", "B", "A", "B"]

    def test_class_mix_statistics(self, geometry):
        # survey-total mix: 59.6% pedestrians, 31.2% non-motorized,
        # 9.2% electric mobility; grouped counts land within +-5 points
        mix = {"pedestrian": 0.596, "cyclist": 0.20, "scooter": 0.112,
               "e_scooter": 0.06, "e_wheelchair": 0.032}
        spec = ScenarioSpec(n_vrus=100, class_mix=mix, seed=1)
        _, truths = generate_scenario(spec, geometry)
        share = {"ped": 0.0, "non_mot": 0.0, "e_mob": 0.0}
        for t in truths:
            if t.vru_class == "pedestrian":
                share["ped"] += 0.01
            elif t.vru_class in ("cyclist", "scooter"):
                share["non_mot"] += 0.01
            else:
                share["e_mob"] += 0.01
        assert abs(share["ped"] - 0.596) <= 0.05
        assert abs(share["non_mot"] - 0.312) <= 0.05
        assert abs(share["e_mob"] - 0.092) <= 0.05

    def test_truth_label_matches_terminal_zone(self, geometry, small_scenario):
        records, truths = small_scenario
        for truth in truths[:10]:
            frame = truth.crossing_entry_frame
            assert frame is not None
            _, cx, cy = truth.samples[-1]
            zk = geometry.classify_point((cx, cy))
            assert zk.label == truth.label

    def test_dropout_thins_detections(self, geometry):
        dense, _ = generate_scenario(ScenarioSpec(n_vrus=10, seed=5), geometry)
        thin, _ = generate_scenario(ScenarioSpec(n_vrus=10, dropout=0.3, seed=5),
                                    geometry)
        n_dense = sum(len(r.detections) for r in dense)
        n_thin = sum(len(r.detections) for r in thin)
        assert n_thin < 0.8 * n_dense

    def test_condition_modifiers(self, geometry):
        # night doubles keypoint jitter; measured via shoulder-point scatter
        def shoulder_std(condition):
            spec = ScenarioSpec(n_vrus=3, noise_sigma=2.0, condition=condition, seed=4)
            records, _ = generate_scenario(spec, geometry)
            xs = [p.keypoints[5, 0] - p.keypoints[6, 0]
                  for r in records for p in r.crop_poses]
            return np.std(xs)

        assert shoulder_std("night") > shoulder_std("day") * 1.2


    def test_labels_file_round_trip(self, geometry, tmp_path):
        _, truths = generate_scenario(ScenarioSpec(n_vrus=4, seed=8), geometry)
        path = tmp_path / "labels.json"
        write_labels(truths, path)
        out = read_labels(path)
        assert out == truths
        assert all(type(x) is float and type(y) is float
                   for t in out for _, x, y in t.samples)

    @pytest.mark.parametrize("label", ["A", "B"])
    def test_body_angle_faces_labeled_entry(self, geometry, label):
        # zero noise: every pre-crossing pose must face within 90 degrees of
        # the bearing to the labeled entry, so the sign feature never flips
        import math

        from crosswise.features import pose_features

        spec = ScenarioSpec(n_vrus=1, label=label, noise_sigma=0.0, seed=14)
        records, truths = generate_scenario(spec, geometry)
        entry = geometry.crosswalk_entries[label]
        cx0, cy0, _, _ = geometry.crop_rect
        checked = 0
        for rec in records:
            if rec.frame_idx >= truths[0].crossing_entry_frame:
                break
            for pose in rec.crop_poses:
                full = pose.translated(cx0, cy0)
                bs, bc, _, _, _ = pose_features(full)
                if (bs, bc) == (0.0, 0.0):
                    continue
                cx, cy = full.center
                bearing = math.atan2(entry[1] - cy, entry[0] - cx)
                diff = math.atan2(bs, bc) - bearing
                assert math.cos(diff) > 0.0
                checked += 1
        assert checked > 50


class TestJsonNumberTypes:
    """bbox values, conf and keypoint values must be JSON numbers: a string
    or a bool is rejected by line, not coerced by float()."""

    @pytest.mark.parametrize("bad", ["3", True, False])
    @pytest.mark.parametrize("key", ["dets", "poses"])
    def test_bbox_value(self, tmp_path, key, bad):
        path = TestNonFinite.stream_with_bad_second_line(
            tmp_path, lambda o: o[key][0]["bbox"].__setitem__(2, bad))
        with pytest.raises(StreamFormatError, match="line 2") as exc:
            list(read_stream(path))
        assert exc.value.line_no == 2
        assert "JSON numbers" in str(exc.value)

    @pytest.mark.parametrize("bad", ["1234", True, 1234])
    @pytest.mark.parametrize("key", ["dets", "poses"])
    def test_bbox_not_a_list(self, tmp_path, key, bad):
        path = TestNonFinite.stream_with_bad_second_line(
            tmp_path, lambda o: o[key][0].__setitem__("bbox", bad))
        with pytest.raises(StreamFormatError, match="line 2") as exc:
            list(read_stream(path))
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("bad", ["0.5", True, "1"])
    def test_conf(self, tmp_path, bad):
        path = TestNonFinite.stream_with_bad_second_line(
            tmp_path, lambda o: o["dets"][0].__setitem__("conf", bad))
        with pytest.raises(StreamFormatError, match="line 2") as exc:
            list(read_stream(path))
        assert exc.value.line_no == 2
        assert "conf" in str(exc.value)

    @pytest.mark.parametrize("bad", ["1.5", True, False])
    @pytest.mark.parametrize("col", [0, 1, 2])
    def test_keypoint_value(self, tmp_path, col, bad):
        path = TestNonFinite.stream_with_bad_second_line(
            tmp_path, lambda o: o["poses"][0]["kps"][7].__setitem__(col, bad))
        with pytest.raises(StreamFormatError, match="line 2") as exc:
            list(read_stream(path))
        assert exc.value.line_no == 2
        assert "JSON numbers" in str(exc.value)

    def test_integers_read_as_floats(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        obj = {"frame": 0, "ts_ms": 0,
               "dets": [{"bbox": [1, 2, 30, 60], "class": "pedestrian", "conf": 1}],
               "poses": [{"bbox": [1, 2, 30, 60], "kps": [[1, 2, 0]] * 17}]}
        path.write_text(json.dumps(obj) + "\n")
        (rec,) = read_stream(path)
        det, pose = rec.detections[0], rec.crop_poses[0]
        assert det.bbox == (1.0, 2.0, 30.0, 60.0) and type(det.bbox[0]) is float
        assert det.conf == 1.0 and type(det.conf) is float
        assert pose.keypoints.dtype == np.float64


class TestStreamBounds:
    """A stream's coordinates stay within +-1e7 px and its bbox sides at or
    above 1e-3 px, so every feature is finite, in float32 too."""

    @pytest.mark.parametrize("slot,value", [(0, 1e7), (1, -1e7), (2, 1e-3), (3, 1e7)])
    @pytest.mark.parametrize("key", ["dets", "poses"])
    def test_bbox_at_the_bound_accepted(self, tmp_path, key, slot, value):
        path = TestNonFinite.stream_with_bad_second_line(
            tmp_path, lambda o: o[key][0]["bbox"].__setitem__(slot, value))
        assert len(list(read_stream(path))) == 2

    @pytest.mark.parametrize("slot,value,msg", [
        (0, 1.0000001e7, "within"), (1, -2e7, "within"), (2, 2e7, "within"),
        (3, 5e-324, "positive size"), (2, 9.99e-4, "positive size"), (3, -1.0, "positive size"),
        (0, 10 ** 400, "within"), (3, 10 ** 400, "within")])
    @pytest.mark.parametrize("key", ["dets", "poses"])
    def test_bbox_beyond_the_bound_rejected(self, tmp_path, key, slot, value, msg):
        path = TestNonFinite.stream_with_bad_second_line(
            tmp_path, lambda o: o[key][0]["bbox"].__setitem__(slot, value))
        with pytest.raises(StreamFormatError, match="line 2") as exc:
            list(read_stream(path))
        assert exc.value.line_no == 2
        assert msg in str(exc.value)

    @pytest.mark.parametrize("col,value,ok", [
        (0, 1e7, True), (1, -1e7, True), (0, 1.0000001e7, False), (1, -1e8, False),
        (2, 1.0, True), (2, 0.0, True), (2, 1.5, False), (2, -0.1, False),
        (0, 10 ** 400, False)])
    def test_keypoint(self, tmp_path, col, value, ok):
        path = TestNonFinite.stream_with_bad_second_line(
            tmp_path, lambda o: o["poses"][0]["kps"][3].__setitem__(col, value))
        if ok:
            assert len(list(read_stream(path))) == 2
            return
        with pytest.raises(StreamFormatError, match="line 2") as exc:
            list(read_stream(path))
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("bbox,msg", [
        ((600.0, 480.0, 30.0, 5e-324), "positive size"), ((0.0, 0.0, 9.99e-4, 1.0), "positive size"),
        ((1.0000001e7, 0.0, 1.0, 1.0), "within"), ((0.0, 0.0, 1.0, 2e7), "within")])
    def test_records_built_directly_hold_the_bbox_bounds(self, bbox, msg):
        with pytest.raises(ValueError, match=msg):
            Detection(bbox, "pedestrian", 0.5)
        with pytest.raises(ValueError, match=msg):
            PoseDetection(bbox, np.full((17, 3), 0.5))

    def test_keypoints_built_directly_hold_the_stream_bound(self):
        for col, beyond, at in [(0, 2e7, 1e7), (1, -1.0000001e7, -1e7)]:
            kps = np.full((17, 3), 0.5)
            kps[3, col] = beyond
            with pytest.raises(ValueError, match="within"):
                PoseDetection((0.0, 0.0, 10.0, 10.0), kps)
            kps[3, col] = at
            assert PoseDetection((0.0, 0.0, 10.0, 10.0), kps).keypoints[3, col] == at


# --- the frame-level check against the per-object constructors ---------------

# values at and past every bound, and the types float() would coerce
edge_value = st.sampled_from([
    0.0, -0.0, 1e-3, 9.99e-4, 5e-324, 1e7, -1e7, 1.0000001e7, -2e7, 1e300, 1.0, 1, 0, 2,
    math.nan, math.inf, -math.inf, 10 ** 400, -(10 ** 400), True, False, "1.5", "3", None])


def mostly(good):
    """good seven times in eight, else an edge value."""
    return st.one_of(*[good] * 7, edge_value)


coord = st.one_of(st.floats(-2e3, 2e3), st.integers(-2000, 2000))
side = st.one_of(st.floats(1e-3, 1e3), st.integers(1, 1000))
unit = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]))


@st.composite
def bbox_value(draw):
    bbox = [draw(mostly(coord)), draw(mostly(coord)), draw(mostly(side)), draw(mostly(side))]
    shape = draw(st.sampled_from(("ok",) * 16 + ("short", "long", "string")))
    if shape == "short":
        return bbox[:3]
    if shape == "long":
        return bbox + [1.0]
    return "1234" if shape == "string" else bbox


@st.composite
def keypoints_value(draw):
    kps = [[draw(coord), draw(coord), draw(unit)] for _ in range(17)]
    edit = draw(st.sampled_from(("none",) * 3 + ("value",) * 3 + ("rows", "row", "shift")))
    if edit == "value":
        kps[draw(st.integers(0, 16))][draw(st.integers(0, 2))] = draw(edge_value)
    elif edit == "rows":
        kps = kps[:16] if draw(st.booleans()) else kps + [[1.0, 2.0, 0.5]]
    elif edit == "row":
        row = kps[draw(st.integers(0, 16))]
        row.append(0.5) if draw(st.booleans()) else row.pop()
    elif edit == "shift":  # 51 values in all, but one row of 2 and one of 4
        kps[draw(st.integers(0, 7))].append(kps[draw(st.integers(8, 16))].pop())
    return kps


det_obj = st.fixed_dictionaries({
    "bbox": bbox_value(), "conf": mostly(unit),
    "class": st.sampled_from(["pedestrian", "cyclist", "e_wheelchair", "pedestrian",
                              "unicyclist", True])})
pose_obj = st.fixed_dictionaries({"bbox": bbox_value(), "kps": keypoints_value()})
frame_obj = st.fixed_dictionaries({
    "frame": st.just(3), "ts_ms": st.just(150),
    "dets": st.lists(det_obj, max_size=3), "poses": st.lists(pose_obj, max_size=3)})


def constructors_on_float_values(obj):
    """The record the per-object constructors build from float()-converted
    values (the reading the frame-level check replaced), or None."""
    try:
        dets = tuple(Detection(tuple(float(v) for v in d["bbox"]), d["class"], float(d["conf"]))
                     for d in obj["dets"])
        poses = tuple(PoseDetection(tuple(float(v) for v in p["bbox"]),
                                    np.asarray(p["kps"], dtype=float))
                      for p in obj["poses"])
        return FrameRecord(obj["frame"], obj["ts_ms"], dets, poses)
    except (TypeError, ValueError, OverflowError):
        return None


def json_numbers(obj):
    """JSON number types throughout (the constructors hold the values to the
    stream bounds themselves)."""
    def number(v):
        return type(v) in (int, float)

    def bbox_ok(b):
        return type(b) is list and all(map(number, b))

    return (all(bbox_ok(d["bbox"]) and number(d["conf"]) for d in obj["dets"])
            and all(bbox_ok(p["bbox"]) and all(number(v) for row in p["kps"] for v in row)
                    for p in obj["poses"]))


class TestFrameCheckMatchesConstructors:
    """The one check per frame accepts exactly what Detection, PoseDetection
    and FrameRecord accept, minus coerced types, and builds the same
    records."""

    @settings(max_examples=300)
    @given(frame_obj)
    def test_frames(self, obj):
        self.check(obj)

    @settings(max_examples=300)
    @given(st.lists(det_obj, min_size=1, max_size=2))
    def test_detections(self, dets):
        self.check({"frame": 3, "ts_ms": 150, "dets": dets})

    @settings(max_examples=300)
    @given(st.lists(pose_obj, min_size=1, max_size=2))
    def test_poses(self, poses):
        self.check({"frame": 3, "ts_ms": 150, "poses": poses})

    @pytest.mark.parametrize("donor,taker", [(16, 0), (3, 4), (0, 16)])
    def test_ragged_rows_with_the_full_count(self, donor, taker):
        kps = [[1.0, 2.0, 0.5] for _ in range(17)]
        kps[taker].append(kps[donor].pop())  # 51 values, rows of 2 and of 4
        obj = {"frame": 3, "ts_ms": 150, "poses": [{"bbox": [1.0, 2.0, 3.0, 4.0], "kps": kps}]}
        self.check(obj)
        with pytest.raises(StreamFormatError, match="17 keypoints"):
            _record_from_obj(obj, 9)

    @staticmethod
    def check(obj):
        obj = {"dets": [], "poses": [], **obj}
        want = constructors_on_float_values(obj)
        if want is not None and not json_numbers(obj):
            want = None
        try:
            got = _record_from_obj(obj, 9)
        except StreamFormatError as exc:
            assert exc.line_no == 9
            assert want is None
            return
        assert want is not None
        assert got.frame_idx == want.frame_idx and got.ts_ms == want.ts_ms
        assert got.detections == want.detections
        for d in got.detections:
            assert all(type(v) is float for v in (*d.bbox, d.conf))
        assert len(got.crop_poses) == len(want.crop_poses)
        for a, b in zip(got.crop_poses, want.crop_poses):
            assert np.array(a.bbox).tobytes() == np.array(b.bbox).tobytes()
            assert a.keypoints.dtype == b.keypoints.dtype
            assert a.keypoints.shape == b.keypoints.shape
            assert a.keypoints.tobytes() == b.keypoints.tobytes()


class TestLabelsFile:
    @staticmethod
    def written(tmp_path, truths, edit=None):
        path = tmp_path / "labels.json"
        write_labels(truths, path)
        if edit is not None:
            obj = json.loads(path.read_text())
            edit(obj)
            path.write_text(json.dumps(obj))
        return path

    def test_integer_sample_coordinates_read_as_floats(self, tmp_path):
        truth = VruTruth(3, "A", "cyclist", 0, 9, None, [(0, 1.5, 2.0)])
        out = read_labels(self.written(
            tmp_path, [truth], lambda o: o["vrus"][0]["samples"][0].__setitem__(2, 2)))
        assert out == [truth] and type(out[0].samples[0][2]) is float

    @pytest.mark.parametrize("key,value,msg", [
        ("label", "C", "label must be A or B"),
        ("class", "truck", "unknown VRU class"),
        ("vru_id", "3", "vru_id must be a JSON integer"),
        ("spawn_frame", True, "spawn_frame must be a JSON integer"),
        ("exit_frame", 5.9, "exit_frame must be a JSON integer"),
        ("crossing_entry_frame", 4.0, "crossing_entry_frame must be a JSON integer"),
        ("extra", 1, "unknown VRU keys"),
        ("samples", [[0, 1.0]], r"\[frame, x, y\]"),
        ("samples", {"0": [0, 1.0, 2.0]}, r"\[frame, x, y\]"),
        ("samples", [[0.0, 1.0, 2.0]], "frame must be a JSON integer, got 0.0"),
        ("samples", [[0, "1", 2.0]], "must be JSON numbers, got '1'"),
        ("samples", [[0, 1.0, False]], "must be JSON numbers, got False"),
    ])
    def test_bad_vru_refused_by_name(self, tmp_path, key, value, msg):
        truths = [VruTruth(i, "B", "pedestrian", 0, 9, 5, [(0, 1.0, 2.0)]) for i in (7, 8)]
        path = self.written(tmp_path, truths, lambda o: o["vrus"][1].__setitem__(key, value))
        with pytest.raises(ValueError, match=msg) as exc:
            read_labels(path)
        vru_id = value if key == "vru_id" else 8
        assert str(exc.value).startswith(f"labels file, VRU 1 (vru_id {vru_id!r}): ")

    def test_missing_key_named(self, tmp_path):
        truth = VruTruth(2, "A", "pedestrian", 0, 9, None, [])
        path = self.written(tmp_path, [truth], lambda o: o["vrus"][0].pop("exit_frame"))
        with pytest.raises(ValueError, match=r"VRU 0 \(vru_id 2\): missing key 'exit_frame'"):
            read_labels(path)

    @pytest.mark.parametrize("edit,msg", [
        (lambda o: o.__setitem__("schema", "crosswise-labels/2"), "schema"),
        (lambda o: o.__setitem__("extra", []), "unknown labels file keys"),
        (lambda o: o.__setitem__("vrus", {}), "JSON list 'vrus'"),
        (lambda o: o["vrus"].append([1]), "VRU 1 .*must be a JSON object"),
    ])
    def test_bad_file_refused(self, tmp_path, edit, msg):
        truth = VruTruth(2, "A", "pedestrian", 0, 9, None, [])
        with pytest.raises(ValueError, match=msg):
            read_labels(self.written(tmp_path, [truth], edit))

    def test_nan_sample_refused(self, tmp_path):
        truth = VruTruth(2, "A", "pedestrian", 0, 9, None, [(0, math.nan, 1.0)])
        with pytest.raises(ValueError, match="NaN is not a JSON number"):
            read_labels(self.written(tmp_path, [truth]))
