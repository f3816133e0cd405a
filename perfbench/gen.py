"""Load generator: writes a workload's input files into a cache directory.

Run as its own process, so the generator's memory and time stay out of the
measured process:

    python3 perfbench/gen.py <job.json>

``job.json`` holds ``model_dir``, ``stream_dir`` and ``scenario``
(ScenarioSpec fields). ``model_dir`` receives ``geometry.json`` and
``weights.json`` (float32, random initialisation with a fixed seed);
``stream_dir`` receives ``stream.jsonl``, ``labels.json`` and ``gen.json``
with the generator's facts. The expected outputs are not computed here: they
are stored in ``reference.json`` beside this file (see ``make_reference.py``).
A directory that exists is reused. Each is filled under a temporary name and
renamed into place last, so an interrupted run leaves no partial cache.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from crosswise import ingest, model
from crosswise.geom import IntersectionGeometry, demo_geometry

WEIGHTS_SEED = 20250509


def _atomic_dir(path: Path, fill) -> None:
    """Create ``path`` by filling a temporary directory and renaming it."""
    if path.exists():
        return
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    fill(tmp)
    try:
        tmp.rename(path)
    except OSError:
        if not path.exists():
            raise
        shutil.rmtree(tmp)  # a concurrent run made the same files first


def make_model_files(out: Path) -> None:
    demo_geometry().save(out / "geometry.json")
    model.save_params(model.init_params(model.ModelConfig(), seed=WEIGHTS_SEED,
                                        dtype=np.float32), out / "weights.json")


def make_stream_files(out: Path, job: dict, model_dir: Path) -> None:
    geometry = IntersectionGeometry.load(model_dir / "geometry.json")
    spec = ingest.ScenarioSpec(**job["scenario"])
    t0 = time.perf_counter()
    records, truths = ingest.generate_scenario(spec, geometry)
    t1 = time.perf_counter()
    ingest.write_stream(records, out / "stream.jsonl")
    ingest.write_labels(truths, out / "labels.json")
    t2 = time.perf_counter()
    dets = np.array([len(r.detections) for r in records])
    facts = {"scenario": job["scenario"], "vrus": len(truths), "frames": len(records),
             "detections_per_frame_mean": float(dets.mean()),
             "detections_per_frame_max": int(dets.max()),
             "generate_s": t1 - t0, "write_s": t2 - t1}
    (out / "gen.json").write_text(json.dumps(facts, indent=1) + "\n")


if __name__ == "__main__":
    job = json.loads(Path(sys.argv[1]).read_text())
    model_dir, stream_dir = Path(job["model_dir"]), Path(job["stream_dir"])
    _atomic_dir(model_dir, make_model_files)
    _atomic_dir(stream_dir, lambda out: make_stream_files(out, job, model_dir))
