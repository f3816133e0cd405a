"""Command-line entry points: simulate, train, ablate, sweep-heads, run, bench."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import evaluate, ingest, pipeline
from .geom import IntersectionGeometry, demo_geometry
from .jsonio import load_json
from .model import load_params, save_params


def _write_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, default=str)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _load_dataset(args) -> evaluate.WindowDataset:
    geometry = IntersectionGeometry.load(args.geometry)
    records = ingest.read_stream(args.data)
    truths = ingest.read_labels(args.labels)
    return evaluate.build_dataset(records, truths, geometry)


def _udp_address(text: str) -> tuple[str, int]:
    """A ``--alert-udp`` value: ``host:port`` as (host, port). The range is
    checked here, since getaddrinfo would wrap a port past 65535."""
    host, _, port = text.rpartition(":")
    if host and port.isascii() and port.isdigit() and 1 <= int(port) <= 65535:
        return host, int(port)
    raise argparse.ArgumentTypeError(f"expected host:port with a port in 1-65535, "
                                     f"got {text!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _train_config(args) -> evaluate.TrainConfig:
    if args.config:
        return evaluate.TrainConfig.from_dict(load_json(args.config, "training config"))
    return evaluate.TrainConfig()


def cmd_make_geometry(args) -> int:
    demo_geometry().save(args.out)
    print(f"wrote demo geometry to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    geometry = IntersectionGeometry.load(args.geometry)
    spec = ingest.ScenarioSpec.load(args.spec)
    records, truths = ingest.generate_scenario(spec, geometry)
    ingest.write_stream(records, args.out)
    ingest.write_labels(truths, args.labels)
    print(f"wrote {len(records)} frames / {len(truths)} VRUs to {args.out}")
    return 0


def cmd_train(args) -> int:
    dataset = _load_dataset(args)
    cfg = _train_config(args)
    result = evaluate.train(dataset, cfg)
    save_params(result.params, args.out)
    report = {"dataset_hash": dataset.sha256(), "windows": len(dataset),
              **result.summary(),
              "val_loss": result.val_loss, "lr_trace": result.lr_trace}
    _write_json(report, args.report)
    print(f"saved weights to {args.out} "
          f"(test accuracy {result.test_metrics.accuracy:.4f})")
    return 0


def cmd_ablate(args) -> int:
    dataset = _load_dataset(args)
    cfg = _train_config(args)
    report = evaluate.ablation(dataset, cfg, groups=tuple(args.groups))
    _write_json(asdict(report), args.report)
    return 0


def cmd_sweep_heads(args) -> int:
    dataset = _load_dataset(args)
    cfg = _train_config(args)
    report = evaluate.head_sweep(dataset, cfg, heads=tuple(args.heads))
    _write_json(asdict(report), args.report)
    return 0


def cmd_run(args) -> int:
    # the alert address is resolved before any input is read
    sink = pipeline.UdpAlertSink(*args.alert_udp) if args.alert_udp else None
    try:
        geometry = IntersectionGeometry.load(args.geometry)
        params = load_params(args.weights)
        summary = pipeline.run(ingest.read_stream(args.infile), geometry, params,
                               predictions_path=args.out, alert_sink=sink,
                               dump_features_path=args.dump_features)
    finally:
        if sink:
            sink.close()
    if sink:
        summary.update(alerts_sent=sink.sent, alerts_dropped=sink.dropped)
    _write_json(summary, None)
    return 0


def cmd_bench(args) -> int:
    geometry = IntersectionGeometry.load(args.geometry)
    params = load_params(args.weights)
    spec = ingest.ScenarioSpec(
        n_vrus=max(2, args.frames // 47), label=None, noise_sigma=1.0,
        dropout=0.02, seed=7, max_concurrent=5)
    records, _ = ingest.generate_scenario(spec, geometry)
    records = records[:args.frames]
    report = pipeline.bench(records, geometry, params)
    _write_json(report, args.report)
    return 0


def _add_dataset_command(sub, name: str, help_text: str, func, *flag: str,
                         **flag_kw) -> None:
    """A command that reads a recorded stream (``--data``, ``--labels``,
    ``--geometry``), an optional ``--config`` and ``--report``, and takes
    one flag of its own."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--geometry", required=True)
    p.add_argument("--config")
    p.add_argument(*flag, **flag_kw)
    p.add_argument("--report")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosswise",
        description="Crossing-direction prediction for VRUs at intersections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-geometry", help="write the demo intersection config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_geometry)

    p = sub.add_parser("simulate", help="generate a synthetic record stream")
    p.add_argument("--geometry", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=cmd_simulate)

    _add_dataset_command(sub, "train", "train on a recorded stream", cmd_train,
                         "--out", required=True)
    _add_dataset_command(sub, "ablate", "incremental feature-group ablation", cmd_ablate,
                         "--groups", nargs="+", default=["L", "M", "G", "P"])
    _add_dataset_command(sub, "sweep-heads", "attention head-count sweep", cmd_sweep_heads,
                         "--heads", nargs="+", type=int, default=[1, 2, 4])

    p = sub.add_parser("run", help="stream records through a trained model")
    p.add_argument("--geometry", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alert-udp", dest="alert_udp", type=_udp_address)
    p.add_argument("--dump-features", dest="dump_features")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="throughput and latency benchmark")
    p.add_argument("--geometry", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--frames", type=_positive_int, default=3000)
    p.add_argument("--report")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
