import argparse
import json
import socket

import pytest

from crosswise.cli import _train_config, main
from crosswise.model import load_params


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """simulate -> train once; downstream commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    geom = root / "geometry.json"
    spec = root / "spec.json"
    data = root / "data.jsonl"
    labels = root / "labels.json"
    weights = root / "weights.bin"
    cfg = root / "train.json"

    assert main(["make-geometry", "--out", str(geom)]) == 0
    spec.write_text(json.dumps({"n_vrus": 16, "noise_sigma": 0.5, "dropout": 0.02,
                                "seed": 5}))
    assert main(["simulate", "--geometry", str(geom), "--spec", str(spec),
                 "--out", str(data), "--labels", str(labels)]) == 0
    cfg.write_text(json.dumps({"epochs": 2, "seed": 3}))
    assert main(["train", "--data", str(data), "--labels", str(labels),
                 "--geometry", str(geom), "--config", str(cfg),
                 "--out", str(weights)]) == 0
    return {"geom": geom, "spec": spec, "data": data, "labels": labels,
            "weights": weights, "cfg": cfg, "root": root}


def test_simulate_outputs(workspace):
    assert workspace["data"].stat().st_size > 0
    labels = json.loads(workspace["labels"].read_text())
    assert labels["schema"] == "crosswise-labels/1"
    assert len(labels["vrus"]) == 16


def test_train_writes_loadable_weights(workspace):
    params = load_params(workspace["weights"])
    assert params.config.d_h == 256
    assert params.config.n_heads == 2


def test_run_with_udp_alerts(workspace, capsys):
    receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    receiver.bind(("127.0.0.1", 0))
    receiver.settimeout(5.0)
    port = receiver.getsockname()[1]
    preds = workspace["root"] / "preds.jsonl"
    assert main(["run", "--geometry", str(workspace["geom"]),
                 "--weights", str(workspace["weights"]),
                 "--in", str(workspace["data"]), "--out", str(preds),
                 "--alert-udp", f"127.0.0.1:{port}"]) == 0
    assert preds.stat().st_size > 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["alerts"] > 0
    assert summary["alerts_sent"] == summary["alerts"]
    assert summary["alerts_dropped"] == 0
    payload = json.loads(receiver.recv(65536).decode())
    assert payload["schema"] == "crosswise/1"
    receiver.close()


def test_ablate_report(workspace):
    report_path = workspace["root"] / "ablate.json"
    assert main(["ablate", "--data", str(workspace["data"]),
                 "--labels", str(workspace["labels"]),
                 "--geometry", str(workspace["geom"]),
                 "--config", str(workspace["cfg"]),
                 "--groups", "L", "P",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert [r["config"] for r in report["rows"]] == ["L", "L+P"]


def test_sweep_heads_report(workspace):
    report_path = workspace["root"] / "heads.json"
    assert main(["sweep-heads", "--data", str(workspace["data"]),
                 "--labels", str(workspace["labels"]),
                 "--geometry", str(workspace["geom"]),
                 "--config", str(workspace["cfg"]),
                 "--heads", "1", "2",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["rows"][-1]["source"] == "paper, private dataset"


def test_train_config_refuses_non_finite(tmp_path):
    path = tmp_path / "train.json"
    path.write_text('{"epochs": 1, "lr": NaN}')
    with pytest.raises(ValueError, match="NaN is not a JSON number"):
        _train_config(argparse.Namespace(config=str(path)))


def test_bench_report(workspace):
    report_path = workspace["root"] / "bench.json"
    assert main(["bench", "--geometry", str(workspace["geom"]),
                 "--weights", str(workspace["weights"]),
                 "--frames", "250", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["frames"] <= 250
    assert "end_to_end_fps" in report


@pytest.mark.parametrize("value", ["localhost", "127.0.0.1:notaport", "127.0.0.1:99999",
                                   "127.0.0.1:0", ":5000"])
def test_bad_alert_address_refused_before_any_work(value, capsys):
    # before the run reads its files: none of these paths exists
    with pytest.raises(SystemExit) as exc:
        main(["run", "--geometry", "absent.json", "--weights", "absent.bin",
              "--in", "absent.jsonl", "--out", "preds.jsonl", "--alert-udp", value])
    assert exc.value.code == 2
    assert "--alert-udp: expected host:port with a port in 1-65535" in capsys.readouterr().err


@pytest.mark.parametrize("frames", ["-5", "0"])
def test_bench_frames_must_be_positive(frames, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--geometry", "absent.json", "--weights", "absent.bin",
              "--frames", frames])
    assert exc.value.code == 2
    assert "--frames: must be at least 1" in capsys.readouterr().err
