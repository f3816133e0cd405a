"""Smoke test: every workload at a tiny size, traced and untraced.

Checks that each named metric is present with a unit, that the run was
checked against its stored reference entry, and that output verification
reports no failures. Takes about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
RUN = BENCH / "run.py"

END_TO_END = ("setup_s", "fps", "frame_ms_p99", "model_windows_per_s", "peak_rss_mb")
REPORT_ONLY_E2E = ("frame_ms_p50",)
STREAM_ONLY_E2E = ("alert_ms_p50", "alert_ms_p95")
PER_LAYER = (
    "ingest.read_s", "ingest.read_us_p50", "track.associate_s", "track.associate_us_p99",
    "track.live_tracks_max", "track.merge_pose_s", "track.poses_merged",
    "geom.classify_point_calls", "geom.classify_point_s", "features.step_features_calls",
    "features.step_features_s", "features.temporal_filter_s", "features.windows",
    "model.forward_calls", "model.forward_s", "model.forward_us_p50",
    "model.forward_us_p99", "model.windows_per_forward", "pipeline.step_self_s",
    "pipeline.ctx_entries_end", "pipeline.step_us_first_chunk",
    "pipeline.step_us_last_chunk")
REPORT_ONLY_LAYER = ("trace.overhead_pct",)
STREAM_ONLY_LAYER = ("model.load_params_s", "pipeline.alert_send_s",
                     "pipeline.alerts_dropped")
TRAIN_ONLY_LAYER = ("model.forward_train_s", "model.backward_s", "optim.clip_s",
                    "optim.adamw_s", "optim.steps", "evaluate.match_tracks_s",
                    "evaluate.labeled_window_ratio", "evaluate.eval_loss_s")


def _run(tmp_path, *args):
    return subprocess.run([sys.executable, str(RUN), *args, "--cache", str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          cwd=BENCH.parent)


@pytest.mark.parametrize("workload", ["live", "crowd", "train"])
def test_workload_reports_every_metric(tmp_path, workload):
    proc = _run(tmp_path, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == set(PER_LAYER)

    report = json.loads((tmp_path / "reports" / f"{workload}-s3-t1.json").read_text())
    stream = workload != "train"
    e2e = {**report["untraced"]["metrics"], **report["untraced"]["extra_metrics"]}
    assert set(report["untraced"]["metrics"]) == set(END_TO_END)
    assert set(e2e) == set(END_TO_END + REPORT_ONLY_E2E + (STREAM_ONLY_E2E if stream else ()))
    layer = {**report["metrics"], **report["report_only"]}
    assert set(layer) == set(PER_LAYER + REPORT_ONLY_LAYER
                             + (STREAM_ONLY_LAYER if stream else TRAIN_ONLY_LAYER))
    for m in list(e2e.values()) + list(layer.values()):
        assert m["unit"] and isinstance(m["value"], float)
    for key in END_TO_END:
        assert e2e[key]["value"] > 0 and e2e[key]["samples"] >= 1
    assert report["env"]["blas_threads_env"] == "1"
    assert report["reference"]["status"] == "checked"
    assert report["untraced"]["failures"] == [] and report["traced"]["failures"] == []


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / BENCH.name / "run.py"),
                           "--workload", "live", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=60,
                          cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
