"""The measured process: one workload over files the generator wrote.

    python3 perfbench/workload.py <job.json>

``job.json`` is written by ``run.py``. The process sets up, runs the timed
stage, reads its peak RSS, then verifies outputs outside the timed region,
and writes its result to ``job["result"]``. With ``job["trace"]`` set, the
span tracer wraps the package for set-up and the timed stage, and the result
carries per-layer values instead of end-to-end ones.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from crosswise import evaluate, ingest, model, pipeline
from crosswise.geom import IntersectionGeometry

from spans import CHUNK_FRAMES, Tracer, per_layer_metrics

# float32 forward against a float64 recompute of the same weights; the largest
# difference seen on these streams is about 2 eps(float32).
P_B_TOL = 64 * float(np.finfo(np.float32).eps)


class RequestClock:
    """Record iterator that stamps each request for the next record.

    Frame i's latency is the gap between the requests for records i and
    i + 1: parse, step, prediction write and alert send. The last stamp is
    the request that finds the stream exhausted.
    """

    def __init__(self, records):
        self._it = iter(records)
        self.stamps: list[int] = []
        self.frames: list[int] = []

    def __iter__(self):
        return self

    def __next__(self):
        self.stamps.append(time.perf_counter_ns())
        rec = next(self._it)
        self.frames.append(rec.frame_idx)
        return rec

    def latencies_ms(self) -> np.ndarray:
        return np.diff(np.array(self.stamps, dtype=np.int64)) / 1e6


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def timed_setup(reps: int, fn):
    """Run ``fn`` ``reps`` times; return its last result and the times."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, times


def slowest(walls: list) -> int:
    """Index of the pass that took longest.

    Throughputs come from the slowest of the passes over the same work. On
    the shared 2-vCPU machine this was tuned on, the host runs at a base
    speed with stretches of tens of seconds about a third faster; the slowest
    of three passes most often sees the base speed, so it varies least from
    run to run.
    """
    return max(range(len(walls)), key=walls.__getitem__)


def pass_percentile(lats: np.ndarray, q: float) -> float:
    """Median over passes (rows of ``lats``) of each pass's q-th percentile.

    A burst of contention lands in one pass and lifts that pass's tail; the
    median over passes drops it, where the slowest pass would keep it.
    """
    return float(np.median(np.percentile(lats, q, axis=1))) if lats.size else 0.0


# --- live and crowd -------------------------------------------------------------


def stream_workload(job: dict, tracer) -> dict:
    files = job["files"]

    def setup():
        geometry = IntersectionGeometry.load(files["geometry"])
        params = model.load_params(files["weights"])
        pipeline.Pipeline(geometry, params)
        return geometry, params

    (geometry, params), setup_times = timed_setup(job["setup_reps"], setup)
    n_frames = json.loads(Path(files["gen"]).read_text())["frames"]
    out_dir = Path(job["out_dir"])
    udp = pipeline.UdpAlertSink("127.0.0.1", job["alert_port"])
    failures = []

    def one_pass(k: int) -> dict:
        """Replay the whole stream through ``run`` with a new pipeline."""
        sent: list[list] = []

        def sink(alert):
            sent.append([alert.track_id, alert.crosswalk, alert.frame_idx])
            udp(alert)

        clock = RequestClock(ingest.read_stream(files["stream"]))
        summary = None
        t0 = time.perf_counter()
        try:
            summary = pipeline.run(clock, geometry, params, alert_sink=sink,
                                   predictions_path=out_dir / f"predictions-{k}.jsonl")
        except Exception as exc:  # a frame that raises fails the rest of the stream
            failures.append(f"pass {k}: run raised at frame request "
                            f"{len(clock.stamps)}: {exc!r}")
        wall = time.perf_counter() - t0
        lat = clock.latencies_ms()
        return {"lat": lat, "wall": wall, "frames": clock.frames[:lat.size], "sent": sent,
                "summary": summary}

    passes = [one_pass(k) for k in range(job["passes"])]
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    udp.close()

    n = min(p["lat"].size for p in passes)
    lats = np.stack([p["lat"][:n] for p in passes])
    np.save(out_dir / "frame_ms.npy", lats)
    slow = passes[slowest([p["wall"] for p in passes])]
    first = passes[0]
    frame_idx = np.array(first["frames"][:n], dtype=np.int64)
    alert_at = np.searchsorted(frame_idx, sorted({f for _, _, f in first["sent"]}))
    alert_lats = lats[:, alert_at[alert_at < n]]

    # -- verification, outside the timed region. The windows come from a
    # model-free pass over the same file; the first pass's predictions must
    # pair with them one to one and match a float64 forward over them. Every
    # later pass must write the same predictions and send the same alerts.
    windows = emitted_windows(files["stream"], geometry)
    predictions = _read_predictions(out_dir / "predictions-0.jsonl")
    bad = _check_predictions(predictions, windows, params, failures)
    path0 = out_dir / "predictions-0.jsonl"
    first_bytes = path0.read_bytes() if path0.exists() else b""
    for k, p in enumerate(passes[1:], start=1):
        path = out_dir / f"predictions-{k}.jsonl"
        if not path.exists() or path.read_bytes() != first_bytes \
                or p["sent"] != first["sent"]:
            failures.append(f"pass {k} differs from pass 0 in predictions or alerts")
            bad += 1
    observed = {**input_digests(files), "frames": first["lat"].size,
                "tracks": first["summary"]["tracks_created"] if first["summary"] else 0,
                "windows": len(windows), "predictions": len(predictions),
                "alerts": len(first["sent"]), "windows_digest": window_digest(windows)}
    result = {"attempted": n_frames * len(passes) + max(len(windows), len(predictions))
              + len(passes) - 1,
              "failed": sum(n_frames - p["lat"].size for p in passes) + bad,
              "failures": failures[:20], "observed": observed,
              "alerts_sent": [a for p in passes for a in p["sent"]],
              "alerts_dropped": udp.dropped,
              "pass_fps": [p["lat"].size / p["wall"] for p in passes]}
    if tracer is not None:
        return result
    lat, wall = slow["lat"], slow["wall"]
    chunks = [CHUNK_FRAMES / (lat[i:i + CHUNK_FRAMES].sum() / 1e3)
              for i in range(0, lat.size - CHUNK_FRAMES + 1, CHUNK_FRAMES)]
    result["soak"] = {"chunk_frames": CHUNK_FRAMES, "chunk_fps": chunks}
    result["metrics"] = {
        "setup_s": metric(np.median(setup_times), "s", len(setup_times)),
        "fps": metric(lat.size / wall, "1/s", lat.size),
        "frame_ms_p99": metric(pass_percentile(lats, 99), "ms", lats.size),
        "model_windows_per_s": metric(len(predictions) / wall, "1/s", len(predictions)),
        "peak_rss_mb": metric(rss, "MB", 1),
    }
    result["extra_metrics"] = {
        "frame_ms_p50": metric(pass_percentile(lats, 50), "ms", lats.size),
        "alert_ms_p50": metric(pass_percentile(alert_lats, 50), "ms", alert_lats.size),
        "alert_ms_p95": metric(pass_percentile(alert_lats, 95), "ms", alert_lats.size),
    }
    return result


def emitted_windows(stream_path: str, geometry) -> list:
    """Every window the tracking and feature stages emit, in emission order."""
    pipe = pipeline.Pipeline(geometry, None)
    windows = []
    for rec in ingest.read_stream(stream_path):
        windows.extend(pipe.step(rec).windows)
    return windows


def window_digest(windows) -> str:
    """sha256 over each window's track, end frame and float32-rounded rows."""
    h = hashlib.sha256()
    for w in windows:
        h.update(np.array([w.track_id, w.end_frame_idx], dtype=np.int64).tobytes())
        h.update(w.matrix.astype(np.float32).tobytes())
    return h.hexdigest()


def input_digests(files: dict) -> dict:
    """sha256 of the stream and labels the generator wrote."""
    out = {}
    for key in ("stream", "labels"):
        h = hashlib.sha256()
        with open(files[key], "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[f"{key}_sha256"] = h.hexdigest()
    return out


def dataset_digest(dataset) -> str:
    """sha256 over the labelled windows rounded to float32, labels and tracks."""
    if dataset is None:
        return ""
    h = hashlib.sha256(dataset.x.astype(np.float32).tobytes())
    h.update(dataset.y.astype(np.int64).tobytes())
    h.update(dataset.track_ids.astype(np.int64).tobytes())
    return h.hexdigest()


def params_digest(params) -> str:
    """sha256 over every named tensor's name, dtype and bytes."""
    h = hashlib.sha256()
    for name, tensor in params.named_tensors():
        h.update(f"{name}:{tensor.dtype}".encode())
        h.update(np.ascontiguousarray(tensor).tobytes())
    return h.hexdigest()


def _read_predictions(path: Path) -> dict:
    preds = {}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                p = json.loads(line)
                preds[(p["track"], p["frame"])] = p["p_b"]
    return preds


def _check_predictions(preds: dict, windows: list, params, failures) -> int:
    """Recompute every prediction's p_b in float64; return the mismatches.

    A prediction with no emitted window, or a window with no prediction,
    is a mismatch too.
    """
    by_key = {(w.track_id, w.end_frame_idx): w.matrix for w in windows}
    keys = sorted(by_key.keys() & preds.keys())
    bad = len(by_key.keys() ^ preds.keys()) + (len(windows) - len(by_key))
    if bad:
        failures.append(f"{bad} predictions and windows do not pair up")
    if not keys:
        return bad
    params64 = params.astype(np.float64)
    x = np.array([by_key[k] for k in keys], dtype=np.float64)
    p64 = np.concatenate([model.forward_batch(x[i:i + 512], params64)[0]
                          for i in range(0, len(keys), 512)])
    err = np.abs(np.array([preds[k] for k in keys]) - p64)
    n_bad = int((err > P_B_TOL).sum())
    if n_bad:
        failures.append(f"{n_bad} p_b values differ from float64 by more than "
                        f"{P_B_TOL:.2e} (max {err.max():.2e})")
    return bad + n_bad


# --- train ------------------------------------------------------------------------


def train_workload(job: dict, tracer) -> dict:
    files = job["files"]
    cfg = evaluate.TrainConfig(epochs=job["epochs"], batch_size=64, seed=job["train_seed"],
                               dtype="float32")

    def setup():
        geometry = IntersectionGeometry.load(files["geometry"])
        truths = ingest.read_labels(files["labels"])
        model.init_params(cfg.model_config(), seed=cfg.seed, dtype=np.float32)
        return geometry, truths

    (geometry, truths), setup_times = timed_setup(job["setup_reps"], setup)
    n_frames = json.loads(Path(files["gen"]).read_text())["frames"]
    failures = []

    # ``passes`` build_dataset passes over the same stream, each followed by
    # one training run on the dataset it built, so that the passes of each
    # kind are spread over the whole timed stage. Training is deterministic.
    lats, walls, digests = [], [], []
    train_walls, runs = [], []
    result_t = dataset = None
    steps = n_train = 0
    for k in range(job["passes"]):
        clock = RequestClock(ingest.read_stream(files["stream"]))
        dataset = None
        t0 = time.perf_counter()
        try:
            dataset = evaluate.build_dataset(clock, truths, geometry)
        except Exception as exc:
            failures.append(f"pass {k}: build_dataset raised: {exc!r}")
        walls.append(time.perf_counter() - t0)
        lats.append(clock.latencies_ms())
        digests.append(dataset_digest(dataset))
        if dataset is None:
            continue
        n_train = len(dataset.split_by_track(cfg.seed)[0])
        steps = math.ceil(n_train / cfg.batch_size) * cfg.epochs
        t0 = time.perf_counter()
        try:
            out = evaluate.train(dataset, cfg)
        except Exception as exc:
            failures.append(f"pass {k}: train raised: {exc!r}")
            continue
        train_walls.append(time.perf_counter() - t0)
        runs.append((out.train_loss, params_digest(out.params)))
        if result_t is None:
            result_t = out
    windows_emitted = tracer.counters["features.windows"] if tracer is not None else None
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    # -- verification, outside the timed region
    checks = sum(d != digests[0] for d in digests[1:])
    checks += sum(run != runs[0] for run in runs[1:])
    if checks:
        failures.append(f"{checks} build passes or training runs differ from the first")
    if result_t is not None:
        losses = np.array(result_t.train_loss)
        if not np.all(np.isfinite(losses)):
            failures.append(f"non-finite training loss {losses.tolist()}")
            checks += 1
        if not losses[-1] < losses[0]:
            failures.append(f"loss did not fall: {losses.tolist()}")
            checks += 1
        weights_path = Path(job["out_dir"]) / "trained.json"
        model.save_params(result_t.params, weights_path)
        if model.params_to_json_bytes(model.load_params(weights_path)) \
                != weights_path.read_bytes():
            failures.append("saved weights do not reload byte-identically")
            checks += 1
    else:
        checks += 3
    passes = len(lats)
    failed = (sum(n_frames - x.size for x in lats)
              + max(steps, 1) * (passes - len(train_walls)) + checks)
    result = {"attempted": (n_frames + max(steps, 1)) * passes + 2 * (passes - 1) + 3,
              "failed": failed, "failures": failures[:20],
              "observed": {**input_digests(files), "frames": int(lats[0].size),
                           "labeled_windows": len(dataset) if dataset is not None else 0,
                           "train_windows": n_train,
                           "dataset_digest": digests[0]},
              "counts": {"epochs": cfg.epochs, "train_steps": steps},
              "train_loss": list(result_t.train_loss) if result_t else [],
              "pass_fps": [x.size / w for x, w in zip(lats, walls)],
              "train_walls_s": train_walls}
    if tracer is not None:
        result["labeled_window_ratio"] = (len(dataset) / windows_emitted
                                          if dataset is not None and windows_emitted else 0.0)
        return result
    n = min(x.size for x in lats)
    stacked = np.stack([x[:n] for x in lats])
    np.save(Path(job["out_dir"]) / "frame_ms.npy", stacked)
    slow = slowest(walls)
    result["metrics"] = {
        "setup_s": metric(np.median(setup_times), "s", len(setup_times)),
        "fps": metric(lats[slow].size / walls[slow], "1/s", lats[slow].size),
        "frame_ms_p99": metric(pass_percentile(stacked, 99), "ms", stacked.size),
        "model_windows_per_s": metric(n_train * cfg.epochs / max(train_walls)
                                      if train_walls else 0.0,
                                      "1/s", n_train * cfg.epochs),
        "peak_rss_mb": metric(rss, "MB", 1),
    }
    result["extra_metrics"] = {
        "frame_ms_p50": metric(pass_percentile(stacked, 50), "ms", stacked.size)}
    return result


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    # On the 2-vCPU machine this was tuned on, CPU 0 takes most interrupts and
    # steal time; the last CPU ran the same frames about 12% faster and steadier.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    run = stream_workload if job["kind"] == "stream" else train_workload
    result = run(job, tracer)
    result["env"] = environment()
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(tracer)
        tracer.save(Path(job["out_dir"]) / "spans.npz")
    Path(job["result"]).write_text(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
