"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps the public functions of each crosswise module from the
outside: nothing in the package is edited. Every call of a wrapped function
records one span (name, start, end, parent). Spans stay in memory until the
run ends and are then written to one ``.npz`` file. Per-layer metrics are
computed from those spans plus a few counters read at the same boundaries.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

import numpy as np

CHUNK_FRAMES = 500  # frames per chunk in the soak series and chunk step means

# Per-layer metric -> (unit, workloads it is measured on, the end-to-end
# metric and workload it should move). ALL_WORKLOADS metrics are the ones
# BENCHMARK.json lists; the others exist on some workloads only and go to the
# report, as does trace.overhead_pct (run.py), a property of the wrappers.
_STREAM = ("live", "crowd")
_TRAIN = ("train",)
ALL_WORKLOADS = _STREAM + _TRAIN
_ALL = ALL_WORKLOADS
_READ = "fps on live; fps (dataset build) on train"
_ASSOC = "frame_ms_p50 and fps on crowd most; fps on train"
_GEOM = "fps on train and crowd"
_FEAT = "fps on train and live"
_FWD = ("frame_ms_p99, alert_ms_* and fps on live/crowd; model_windows_per_s on train "
        "(the B=256 validation and test forwards inside train())")
_SOAK = "fps and peak_rss_mb on live"
_TRAIN_STEP = "model_windows_per_s on train"
PER_LAYER = {
    "ingest.read_s": ("s", _ALL, _READ),
    "ingest.read_us_p50": ("us", _ALL, _READ),
    "track.associate_s": ("s", _ALL, _ASSOC),
    "track.associate_us_p99": ("us", _ALL, _ASSOC),
    "track.live_tracks_max": ("count", _ALL, _ASSOC),
    "track.merge_pose_s": ("s", _ALL, "fps on crowd"),
    "track.poses_merged": ("count", _ALL, "fps on crowd"),
    "geom.classify_point_calls": ("count", _ALL, _GEOM),
    "geom.classify_point_s": ("s", _ALL, _GEOM),
    "features.step_features_calls": ("count", _ALL, _FEAT),
    "features.step_features_s": ("s", _ALL, _FEAT),
    "features.temporal_filter_s": ("s", _ALL, _FEAT),
    "features.windows": ("count", _ALL, _FEAT),
    "model.forward_calls": ("count", _ALL, _FWD),
    "model.forward_s": ("s", _ALL, _FWD),
    "model.forward_us_p50": ("us", _ALL, _FWD),
    "model.forward_us_p99": ("us", _ALL, _FWD),
    "model.windows_per_forward": ("ratio", _ALL,
                                  "fps on crowd; model_windows_per_s on train"),
    "pipeline.step_self_s": ("s", _ALL, "fps on every workload"),
    "pipeline.ctx_entries_end": ("count", _ALL, _SOAK),
    "pipeline.step_us_first_chunk": ("us", _ALL, _SOAK),
    "pipeline.step_us_last_chunk": ("us", _ALL, _SOAK),
    "model.load_params_s": ("s", _STREAM, "setup_s on live/crowd"),
    "pipeline.alert_send_s": ("s", _STREAM, "alert_ms_* on live/crowd"),
    "pipeline.alerts_dropped": ("count", _STREAM, "alert_ms_* on live/crowd"),
    "model.forward_train_s": ("s", _TRAIN, _TRAIN_STEP),
    "model.backward_s": ("s", _TRAIN, _TRAIN_STEP),
    "optim.clip_s": ("s", _TRAIN, _TRAIN_STEP),
    "optim.adamw_s": ("s", _TRAIN, _TRAIN_STEP),
    "optim.steps": ("count", _TRAIN, _TRAIN_STEP),
    "evaluate.match_tracks_s": ("s", _TRAIN, "fps (dataset build) on train"),
    "evaluate.labeled_window_ratio": ("ratio", _TRAIN, "fps (dataset build) on train"),
    "evaluate.eval_loss_s": ("s", _TRAIN, _TRAIN_STEP),
}


class _TracedIter:
    """Iterator proxy that records one span around every ``next()``."""

    def __init__(self, tracer: "Tracer", name: str, it):
        self._tracer, self._name, self._it = tracer, name, iter(it)

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call(self._name, next, (self._it,), {})


class Tracer:
    """Records spans for wrapped calls; parents come from the call stack."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int]] = []  # id, name, start, end, parent
        self.counters: dict[str, float] = defaultdict(float)
        self.last_pipeline = None
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else -1
        idx = self._next_id
        self._next_id = idx + 1
        stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((idx, name, t0, t1, parent))

    # -- patching ------------------------------------------------------------

    def _wrap(self, name, fn, after: Optional[Callable] = None, iterator=False):
        tracer = self

        if iterator:
            def wrapper(*args, **kwargs):
                return _TracedIter(tracer, name, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                span = name(args, kwargs) if callable(name) else name
                result = tracer.call(span, fn, args, kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
        return wrapper

    def patch(self, module: str, attr: str, name, after=None, iterator=False) -> None:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``).

        A module-level function is replaced in every loaded crosswise module
        that imported it by name, so calls from inside the package are traced.
        """
        mod = importlib.import_module(module)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        orig = owner.__dict__[fn_name]
        wrapper = self._wrap(name, orig, after, iterator)
        owners = [owner] if owner_name else [
            m for key, m in list(sys.modules.items())
            if (key == "crosswise" or key.startswith("crosswise."))
            and getattr(m, fn_name, None) is orig]
        for target in owners:
            self._undo.append((target, fn_name, orig))
            setattr(target, fn_name, wrapper)

    def install(self) -> None:
        c = self.counters

        def on_step(args, _kwargs, out):
            self.last_pipeline = args[0]
            c["features.windows"] += len(out.windows)

        def on_associate(args, _kwargs, _events):
            c["track.live_tracks_max"] = max(c["track.live_tracks_max"],
                                             len(args[0].tracks))

        def on_merge(_args, _kwargs, merged):
            c["track.poses_merged"] += len(merged)

        def on_forward(args, kwargs, _result):
            if _forward_mode(args, kwargs) == "infer":
                c["model.windows_forwarded"] += args[0].shape[0]

        self.patch("crosswise.ingest", "read_stream", "ingest.read", iterator=True)
        self.patch("crosswise.geom", "IntersectionGeometry.classify_point",
                   "geom.classify_point")
        self.patch("crosswise.track", "TrackTable.associate", "track.associate",
                   after=on_associate)
        self.patch("crosswise.track", "TrackTable.merge_pose", "track.merge_pose",
                   after=on_merge)
        self.patch("crosswise.features", "step_features", "features.step_features")
        self.patch("crosswise.features", "temporal_filter", "features.temporal_filter")
        self.patch("crosswise.model", "forward_batch",
                   lambda a, k: ("model.forward" if _forward_mode(a, k) == "infer"
                                 else "model.forward_train"), after=on_forward)
        self.patch("crosswise.model", "backward_batch", "model.backward")
        self.patch("crosswise.model", "load_params", "model.load_params")
        self.patch("crosswise.optim", "clip_gradients", "optim.clip")
        self.patch("crosswise.optim", "adamw_step", "optim.adamw")
        self.patch("crosswise.evaluate", "match_tracks_to_truth", "evaluate.match_tracks")
        self.patch("crosswise.evaluate", "_eval_loss", "evaluate.eval_loss")
        self.patch("crosswise.evaluate", "build_dataset", "evaluate.build_dataset")
        self.patch("crosswise.evaluate", "train", "evaluate.train")
        self.patch("crosswise.pipeline", "Pipeline.step", "pipeline.step", after=on_step)
        self.patch("crosswise.pipeline", "UdpAlertSink.__call__", "pipeline.alert_send")
        self.patch("crosswise.pipeline", "run", "pipeline.run")

    def uninstall(self) -> None:
        while self._undo:
            target, attr, orig = self._undo.pop()
            setattr(target, attr, orig)

    # -- output ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans in call order; ``parent`` indexes into the same arrays."""
        spans = sorted(self.spans)
        names = sorted({s[1] for s in spans})
        code = {n: i for i, n in enumerate(names)}
        return {"span_names": np.array(names),
                "name_id": np.array([code[s[1]] for s in spans], dtype=np.int32),
                "start_ns": np.array([s[2] for s in spans], dtype=np.int64),
                "end_ns": np.array([s[3] for s in spans], dtype=np.int64),
                "parent": np.array([s[4] for s in spans], dtype=np.int64)}

    def save(self, path: Path) -> None:
        np.savez_compressed(path, **self.arrays())


def _forward_mode(args, kwargs) -> str:
    return kwargs.get("mode", args[2] if len(args) > 2 else "infer")


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from the recorded spans and counters.

    ``_s`` metrics are total inclusive span time, except
    ``pipeline.step_self_s``, which subtracts the time of the step's child
    spans. ``model.load_params_s`` is the median per call (set-up repeats it).
    """
    arr = tracer.arrays()
    names = list(arr["span_names"])
    dur = (arr["end_ns"] - arr["start_ns"]) / 1e9
    parent = arr["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(dur))

    def mask(span: str) -> np.ndarray:
        if span not in names:
            return np.zeros(len(dur), bool)
        return arr["name_id"] == names.index(span)

    def durations(span: str) -> np.ndarray:
        return dur[mask(span)]

    def total(span: str) -> float:
        return float(durations(span).sum())

    def pct_us(span: str, q: float) -> float:
        d = durations(span)
        return float(np.percentile(d, q) * 1e6) if d.size else 0.0

    c = tracer.counters
    steps = durations("pipeline.step")
    chunk = min(CHUNK_FRAMES, steps.size)
    last_full = steps.size - steps.size % chunk if chunk else 0
    forward_calls = durations("model.forward").size
    pipe = tracer.last_pipeline
    load = durations("model.load_params")
    return {
        "ingest.read_s": total("ingest.read"),
        "ingest.read_us_p50": pct_us("ingest.read", 50),
        "track.associate_s": total("track.associate"),
        "track.associate_us_p99": pct_us("track.associate", 99),
        "track.live_tracks_max": c["track.live_tracks_max"],
        "track.merge_pose_s": total("track.merge_pose"),
        "track.poses_merged": c["track.poses_merged"],
        "geom.classify_point_calls": durations("geom.classify_point").size,
        "geom.classify_point_s": total("geom.classify_point"),
        "features.step_features_calls": durations("features.step_features").size,
        "features.step_features_s": total("features.step_features"),
        "features.temporal_filter_s": total("features.temporal_filter"),
        "features.windows": c["features.windows"],
        "model.forward_calls": forward_calls,
        "model.forward_s": total("model.forward"),
        "model.forward_us_p50": pct_us("model.forward", 50),
        "model.forward_us_p99": pct_us("model.forward", 99),
        "model.windows_per_forward": (c["model.windows_forwarded"] / forward_calls
                                      if forward_calls else 0.0),
        "pipeline.step_self_s": float((dur - child_time)[mask("pipeline.step")].sum()),
        "pipeline.ctx_entries_end": len(pipe.ctx) if pipe is not None else 0,
        "pipeline.step_us_first_chunk": float(steps[:chunk].mean() * 1e6) if chunk else 0.0,
        "pipeline.step_us_last_chunk": (float(steps[last_full - chunk:last_full].mean() * 1e6)
                                        if chunk else 0.0),
        "model.load_params_s": float(np.median(load)) if load.size else 0.0,
        "pipeline.alert_send_s": total("pipeline.alert_send"),
        "model.forward_train_s": total("model.forward_train"),
        "model.backward_s": total("model.backward"),
        "optim.clip_s": total("optim.clip"),
        "optim.adamw_s": total("optim.adamw"),
        "optim.steps": durations("optim.adamw").size,
        "evaluate.match_tracks_s": total("evaluate.match_tracks"),
        "evaluate.eval_loss_s": total("evaluate.eval_loss"),
    }
