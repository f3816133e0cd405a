"""Every input file fails only with its documented error.

Six loaders read JSON that comes from outside the program: the record
stream, the labels file, the geometry config, the scenario spec, the
training config and the weight-file header. Whatever a file holds, each
loader either returns values that are all finite or raises its own error
type: StreamFormatError with the line number, GeometryError, ValueError or
ModelError.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import operator
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosswise.cli import _train_config
from crosswise.evaluate import TrainConfig
from crosswise.geom import GeometryError, IntersectionGeometry, demo_geometry
from crosswise.ingest import (LABELS_SCHEMA, ScenarioSpec, StreamFormatError, generate_scenario,
                              read_labels, read_stream, write_labels, write_stream)
from crosswise.model import ModelConfig, ModelError, init_params, load_params, save_params

DEEP = 20_000  # levels of nesting; the decoder gives up near the recursion limit
HUGE_INT = "1" + "0" * 400  # a JSON integer past float range


def short_id(value):
    """A test id for a parameter that holds HUGE_INT."""
    return "long_int" if isinstance(value, str) and HUGE_INT in value else None


def nested(value: str, depth: int = DEEP) -> str:
    return "[" * depth + value + "]" * depth


def train_config(path):
    return _train_config(argparse.Namespace(config=str(path)))


def all_finite(value) -> bool:
    """Every float in ``value`` is finite: records, dataclasses, arrays and
    containers are walked."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind != "f" or bool(np.isfinite(value).all())
    if isinstance(value, dict):
        return all(map(all_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(all_finite, value))
    if dataclasses.is_dataclass(value):
        return all(all_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    return True


# --- the documented error, one example per defect -----------------------------


class TestDeepNesting:
    """A value nested past the recursion limit raised RecursionError."""

    def test_stream(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"frame":0,"ts_ms":0,"dets":[],"poses":[]}\n'
                        f'{{"frame":1,"ts_ms":0,"dets":{nested("")}}}\n')
        with pytest.raises(StreamFormatError, match="line 2: invalid JSON") as exc:
            list(read_stream(path))
        assert exc.value.line_no == 2

    def test_labels(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(f'{{"schema": "{LABELS_SCHEMA}", "vrus": {nested("")}}}')
        with pytest.raises(ValueError, match="labels file is not valid JSON"):
            read_labels(path)

    def test_geometry(self, tmp_path):
        path = tmp_path / "geometry.json"
        path.write_text(f'{{"fps": {nested("20")}}}')
        with pytest.raises(GeometryError, match="geometry config is not valid JSON"):
            IntersectionGeometry.load(path)

    def test_scenario(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(f'{{"n_vrus": {nested("3")}}}')
        with pytest.raises(ValueError, match="scenario is not valid JSON"):
            ScenarioSpec.load(path)

    def test_training_config(self, tmp_path):
        path = tmp_path / "train.json"
        path.write_text(f'{{"epochs": {nested("1")}}}')
        with pytest.raises(ValueError, match="training config is not valid JSON"):
            train_config(path)

    def test_weight_header(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_text(f'{{"version": {nested("3")}}}\n')
        with pytest.raises(ModelError, match="weight file header is not valid JSON"):
            load_params(path)


class TestOverflowingLiteral:
    """1e400 decodes to inf, and a long integer overflows float()."""

    @pytest.mark.parametrize("key", ["lr", "clip_norm", "weight_decay"])
    @pytest.mark.parametrize("literal", ["1e400", "-1e400", HUGE_INT], ids=short_id)
    def test_training_config(self, tmp_path, key, literal):
        path = tmp_path / "train.json"
        path.write_text(f'{{"epochs": 1, "{key}": {literal}}}')
        with pytest.raises(ValueError, match=f"{key} must be a finite JSON number"):
            train_config(path)

    @pytest.mark.parametrize("key,value", [
        ("px_per_meter", "1e400"), ("frame_size", "[1e400, 720]"),
        ("crop_rect", f"[480, 380, {HUGE_INT}, 200]")], ids=short_id)
    def test_geometry(self, tmp_path, key, value):
        # an inf frame_size gave frame_diagonal inf, which zeroes the
        # normalized features
        cfg = json.dumps({k: v for k, v in demo_geometry().to_dict().items() if k != key})
        path = tmp_path / "geometry.json"
        path.write_text(f'{cfg[:-1]}, "{key}": {value}}}')
        with pytest.raises(GeometryError, match=key):
            IntersectionGeometry.load(path)

    @pytest.mark.parametrize("mix,key", [
        ('{"pedestrian": 1e400, "cyclist": -1e400}', "pedestrian"),
        (f'{{"pedestrian": 0.5, "cyclist": {HUGE_INT}}}', "cyclist")], ids=short_id)
    def test_scenario_mix(self, tmp_path, mix, key):
        # inf + -inf is NaN, which the sum-to-one check let through, and the
        # sum of a long integer and a float overflowed
        path = tmp_path / "spec.json"
        path.write_text(f'{{"n_vrus": 2, "class_mix": {mix}}}')
        with pytest.raises(ValueError, match=f"class_mix {key} must be a finite JSON number"):
            ScenarioSpec.load(path)

    @pytest.mark.parametrize("literal,msg", [
        ("1e400", "sample x and y must be finite, got inf"),
        ("-1e400", "sample x and y must be finite, got -inf"),
        (HUGE_INT, "too large")], ids=short_id)
    def test_labels_sample(self, tmp_path, literal, msg):
        path = tmp_path / "labels.json"
        path.write_text(f'{{"schema": "{LABELS_SCHEMA}", "vrus": [{{"vru_id": 2, '
                        f'"label": "A", "class": "pedestrian", "spawn_frame": 0, '
                        f'"exit_frame": 9, "crossing_entry_frame": null, '
                        f'"samples": [[0, 1.5, 2.0], [5, {literal}, 529.2]]}}]}}')
        with pytest.raises(ValueError, match=rf"VRU 0 \(vru_id 2\): .*{msg}"):
            read_labels(path)

    def test_labels_overflowing_sum_is_finite(self, tmp_path):
        # the sum of the samples overflows; every sample is finite
        path = tmp_path / "labels.json"
        path.write_text(f'{{"schema": "{LABELS_SCHEMA}", "vrus": [{{"vru_id": 2, '
                        f'"label": "A", "class": "pedestrian", "spawn_frame": 0, '
                        f'"exit_frame": 9, "crossing_entry_frame": null, '
                        f'"samples": [[0, 1.7e308, 1.7e308]]}}]}}')
        assert read_labels(path)[0].samples == [(0, 1.7e308, 1.7e308)]


class TestTopLevelAndKeys:
    """A top level that is not an object, or a missing or mistyped key."""

    @pytest.mark.parametrize("edit,match", [
        (lambda c: c.clear(), "crosswalk_entries"),
        (lambda c: c.pop("crop_rect"), "crop_rect"),
        (lambda c: c.pop("fps"), "fps"),
        (lambda c: c.__setitem__("crosswalk_entries", [1]), "crosswalk_entries"),
        (lambda c: c.__setitem__("waiting_areas", 5), "waiting_areas"),
        (lambda c: c["crossing_zones"].append(7), "crossing_zones"),
        (lambda c: c["crossing_zones"][0].pop("polygon"), "crossing_zones"),
        (lambda c: c["start_crossing_zones"][0].__setitem__("polygon", 4),
         "start_crossing_zones"),
        (lambda c: c["waiting_areas"][0].pop("id"), "waiting_areas")])
    def test_geometry_key(self, edit, match):
        cfg = demo_geometry().to_dict()
        edit(cfg)
        with pytest.raises(GeometryError, match=match):
            IntersectionGeometry.from_dict(cfg)

    @pytest.mark.parametrize("what,load,error", [
        ("geometry config", IntersectionGeometry.load, GeometryError),
        ("scenario", ScenarioSpec.load, ValueError),
        ("training config", train_config, ValueError)])
    @pytest.mark.parametrize("text", ["[]", "[{}]", "3", '"x"', "null"])
    def test_not_an_object(self, tmp_path, what, load, error, text):
        path = tmp_path / "file.json"
        path.write_text(text)
        with pytest.raises(error, match=f"{what} must be a JSON object"):
            load(path)


class TestInvalidUtf8:
    def test_stream_names_the_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'{"frame":0,"ts_ms":0,"dets":[],"poses":[]}\n'
                         b'{"frame":1,"ts_ms":0,"dets":[],"poses":[],"note":"\xff"}\n')
        with pytest.raises(StreamFormatError, match="line 2: invalid JSON: .*0xff") as exc:
            list(read_stream(path))
        assert exc.value.line_no == 2

    def test_geometry(self, tmp_path):
        path = tmp_path / "geometry.json"
        path.write_bytes(json.dumps(demo_geometry().to_dict()).encode()[:-1] + b', "\xff": 1}')
        with pytest.raises(GeometryError, match="0xff"):
            IntersectionGeometry.load(path)


# --- properties: one per loader, over mutated valid files ---------------------

# a number outside a string: after [ : , or whitespace, before , ] } or whitespace
NUMBER = re.compile(rb"(?<=[\[:,\s])-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?=[,\]}\s])")
KEY = re.compile(rb'"(\w+)":')  # an object key, as the writers put it


def json_places(value, path=(), name=None):
    """(path, value, name) of every value nested in the JSON ``value``, where
    ``name`` is the last object key on the path."""
    items = (value.items() if type(value) is dict
             else enumerate(value) if type(value) is list else ())
    for k, v in items:
        here, key = (*path, k), k if type(k) is str else name
        yield here, v, key
        yield from json_places(v, here, key)


@st.composite
def mutated(draw, data: bytes, text_end: int, lines: bool = False):
    """``data`` with one edit: a number becomes +-1e400 or a long integer, a
    number is nested 10^4 deep, the tail is cut, a 0xff byte goes in, or a
    list replaces the top-level object (of one line, with ``lines``); with
    ``lines``, a key may also lose its last letter, as "poses" to "pose";
    without, a non-empty list becomes [] ("empty") or an object member is
    removed ("drop"), and the text is encoded again. Only the cut and the
    byte reach past the JSON text ``data[:text_end]``."""
    text, rest = data[:text_end], data[text_end:]
    places = {"empty": [], "drop": []}
    if not lines:
        value = json.loads(text)
        for path, v, name in json_places(value):
            if type(v) is list and v:
                places["empty"].append((name, path))
            if type(path[-1]) is str:
                places["drop"].append((name, path))
    edit = draw(st.sampled_from(["overflow", "nest", "cut", "byte", "list"]
                                + ["rename"] * lines + [e for e in places if places[e]]))
    if edit in places:  # each key name equally likely, then one of its places
        name = draw(st.sampled_from(sorted({n for n, _ in places[edit]})))
        *parents, last = draw(st.sampled_from([p for n, p in places[edit] if n == name]))
        target = functools.reduce(operator.getitem, parents, value)
        if edit == "empty":
            target[last] = []
        else:
            del target[last]
        return json.dumps(value).encode() + rest
    if edit == "rename":  # each key name equally likely, then one of its places
        name = draw(st.sampled_from(sorted({m[1] for m in KEY.finditer(text)})))
        i = draw(st.sampled_from([m.end(1) for m in KEY.finditer(text) if m[1] == name]))
        return text[:i - 1] + text[i:] + rest
    if edit in ("overflow", "nest"):
        i, j = draw(st.sampled_from([m.span() for m in NUMBER.finditer(text)]))
        new = (draw(st.sampled_from([b"1e400", b"-1e400", HUGE_INT.encode()]))
               if edit == "overflow" else nested(text[i:j].decode(), 10_000).encode())
        return text[:i] + new + text[j:] + rest
    if edit == "cut":
        return data[:draw(st.integers(0, len(data) - 1))]
    if edit == "byte":
        k = draw(st.integers(0, len(data)))
        return data[:k] + b"\xff" + data[k:]
    if not lines:
        return b"[" + text + b"]" + rest
    parts = text.split(b"\n")  # the text ends in a newline
    k = draw(st.integers(0, len(parts) - 2))
    parts[k] = b"[" + parts[k] + b"]"
    return b"\n".join(parts) + rest


def written(write, *args) -> bytes:
    """The bytes ``write(*args, path)`` puts in a file."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "file"
        write(*args, path)
        return path.read_bytes()


_RECORDS, _TRUTHS = generate_scenario(ScenarioSpec(n_vrus=2, seed=3), demo_geometry())
STREAM = written(write_stream, [r for r in _RECORDS if r.crop_poses][:6])
LABELS = written(write_labels, _TRUTHS)
GEOMETRY = written(lambda path: demo_geometry().save(path))
SCENARIO = json.dumps(asdict(ScenarioSpec(
    n_vrus=3, class_mix={"pedestrian": 0.5, "cyclist": 0.5}, noise_sigma=2.0,
    dropout=0.1, seed=4))).encode()
TRAIN_CONFIG = json.dumps(asdict(TrainConfig(epochs=3, lr=1e-3, d_h=8, d_ff=6))).encode()
WEIGHTS = written(save_params, init_params(ModelConfig(d_h=4, n_heads=2, d_ff=4, dropout=0.25),
                                           seed=0, dtype=np.float32))


def check_loader(path, data: bytes, load, error):
    """``load(path)`` on ``data`` gives all-finite values, returned, or raises
    ``error``."""
    path.write_bytes(data)
    try:
        value = load(path)
    except error as exc:
        if error is StreamFormatError:
            assert exc.line_no >= 1
        return None
    assert all_finite(value)
    return value


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonio") / "file"


class TestEveryLoaderFailsWithItsError:
    @settings(max_examples=150)
    @given(data=mutated(STREAM, len(STREAM), lines=True))
    def test_stream(self, scratch, data):
        records = check_loader(scratch, data, lambda p: list(read_stream(p)), StreamFormatError)
        if records is not None:  # what loads writes back as it was: no key was dropped
            assert written(write_stream, records).rstrip(b"\n") == data.rstrip(b"\n")

    @settings(max_examples=150)
    @given(data=mutated(LABELS, len(LABELS)))
    def test_labels(self, scratch, data):
        check_loader(scratch, data, read_labels, ValueError)

    @settings(max_examples=150)
    @given(data=mutated(GEOMETRY, len(GEOMETRY)))
    def test_geometry(self, scratch, data):
        g = check_loader(scratch, data, IntersectionGeometry.load, GeometryError)
        if g is not None:  # a geometry that loads simulates, or refuses with ValueError
            with contextlib.suppress(ValueError):
                generate_scenario(ScenarioSpec(n_vrus=2), g)

    @settings(max_examples=150)
    @given(data=mutated(SCENARIO, len(SCENARIO)))
    def test_scenario(self, scratch, data):
        check_loader(scratch, data, ScenarioSpec.load, ValueError)

    @settings(max_examples=150)
    @given(data=mutated(TRAIN_CONFIG, len(TRAIN_CONFIG)))
    def test_training_config(self, scratch, data):
        check_loader(scratch, data, train_config, ValueError)

    @settings(max_examples=150)
    @given(data=mutated(WEIGHTS, WEIGHTS.index(b"\n")))
    def test_weight_header(self, scratch, data):
        check_loader(scratch, data, load_params, ModelError)
